"""DOTA annotation ingestion.

One object per line: eight vertex coordinates, a category and a difficulty
flag, whitespace separated.  File headers (``imagesource:...``, ``gsd:...``)
are skipped by the file-level reader.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from cobb.codec import FLOAT_FMT
from cobb.errors import DegenerateGeometryError, DotaParseError, InvalidArgumentError
from cobb.geometry import ConvexQuad, OrientedBox, _min_area_rect_fields, min_area_rect

log = logging.getLogger(__name__)

_METADATA_PREFIXES = ("imagesource", "gsd")


@dataclass(frozen=True)
class DotaRecord:
    quad: tuple[tuple[float, float], ...]  # four (x, y) pairs in file order
    category: str
    difficulty: int
    line_no: int


def is_metadata_line(line: str) -> bool:
    stripped = line.strip().lower()
    return any(stripped.startswith(p) for p in _METADATA_PREFIXES)


def parse_dota_line(line: str, line_no: int) -> DotaRecord:
    """Parse one annotation line; malformed input raises :class:`DotaParseError`.

    Bytes that are not UTF-8, which :func:`read_dota_file` passes on as lone
    surrogates, make a line malformed, and so does a number (a coordinate or
    the difficulty) with an underscore or a character outside ASCII.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise DotaParseError("not valid UTF-8", line_no) from None
    tokens = line.split()
    if len(tokens) != 10:
        raise DotaParseError(f"expected 10 tokens, got {len(tokens)}", line_no)
    numbers = "".join(tokens[:8]) + tokens[9]
    if "_" in numbers or not numbers.isascii():  # float() and int() take 1_0 and fullwidth digits
        tok = next(t for t in tokens[:8] + tokens[9:] if "_" in t or not t.isascii())
        raise DotaParseError(f"number with an underscore or a non-ASCII character {tok!r}", line_no)
    coords = []
    for tok in tokens[:8]:
        try:
            v = float(tok)
        except ValueError:
            raise DotaParseError(f"non-numeric coordinate {tok!r}", line_no) from None
        if v != v or v in (float("inf"), float("-inf")):
            raise DotaParseError(f"non-finite coordinate {tok!r}", line_no)
        coords.append(v)
    category = tokens[8]
    if not category:
        raise DotaParseError("empty category", line_no)
    try:
        difficulty = int(tokens[9])
    except ValueError:
        raise DotaParseError(f"non-integer difficulty {tokens[9]!r}", line_no) from None
    return DotaRecord(tuple(zip(coords[0::2], coords[1::2])), category, difficulty, line_no)


def record_box(record: DotaRecord) -> OrientedBox:
    """Fit the annotation quad with its minimum-area enclosing rectangle."""
    return min_area_rect(record.quad)


def _convex_cycle(record: DotaRecord) -> bool:
    """Whether the points, in file order, pass :class:`ConvexQuad`'s
    convexity test (a bow-tie or a reflex vertex fails it)."""
    try:
        ConvexQuad(sum(record.quad, ()))
    except InvalidArgumentError:
        return False
    return True


def read_dota_file(path) -> tuple[list[DotaRecord], list[str]]:
    """All parseable records of a file plus skip reasons for the rest."""
    records: list[DotaRecord] = []
    skipped: list[str] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip() or is_metadata_line(line):
                continue
            try:
                records.append(parse_dota_line(line, line_no))
            except DotaParseError as exc:
                skipped.append(str(exc))
                log.warning("%s: skipped %s", path, exc)
    return records, skipped


def convert_annotations(input_path, codec, output_path) -> int:
    """Fit each annotation with a box, encode it, write one CSV row per record.

    All records are fitted in one array call; the records it cannot vouch
    for go through :func:`record_box` one by one.  Each box is encoded on
    its own.  Returns the number of rows written; unparseable lines,
    degenerate (collinear) quads, fits or outer boxes that overflow, and
    boxes outside the range the codec encodes are skipped, with their
    reasons in the module logger, in line order.  A written record whose
    points, in file order, are not a convex cycle is logged too: its row
    is the fit of their hull.
    """
    records, _ = read_dota_file(input_path)
    xy = np.array([rec.quad for rec in records], dtype=float).reshape(-1, 4, 2)
    fields, masked = _min_area_rect_fields(xy[..., 0], xy[..., 1])
    row_fmt = "%s,%d," + ",".join([FLOAT_FMT] * len(codec.component_names)) + "\n"
    n = 0
    with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("category,difficulty," + ",".join(codec.component_names) + "\n")
        for rec, row, bad in zip(records, fields.tolist(), masked.tolist()):
            try:
                enc = codec.encode(record_box(rec) if bad else OrientedBox(*row))
            except DegenerateGeometryError as exc:
                log.warning("%s: skipped line %s: %s", input_path, rec.line_no, exc)
                continue
            if bad and not _convex_cycle(rec):
                log.warning("%s: line %s: points are not a convex cycle; fitted their hull", input_path, rec.line_no)
            fh.write(row_fmt % (rec.category, rec.difficulty, *enc.tolist()))
            n += 1
    return n
