"""The three benchmark workloads: seeded inputs, timed calls, output checks.

Every call into the library goes through a ``cobb`` module attribute
(``targets.encode_target``, ``cli.main``), never through a name bound here,
so the span tracer sees it.  Each workload splits into ``setup`` (input
generation, timed as set-up), ``item`` (library calls only; returns the time
the library took and its raw outputs) and ``check`` (pure validation of one
item's outputs, run outside any timing or tracing).

Why these three (the names are what later changes cite):

- ``targets`` is the detector-training path: encode_target -> cobb_loss ->
  decode_target on unique pixel-scale boxes.  It is the only workload where
  decoding is half the work, and no input repeats, so a cache gains nothing.
- ``audit`` is ``cobb audit`` of all six codecs: boxes are re-encoded across
  probes, families are rebuilt per metric, four of the six codecs bypass
  ``codec``/``targets``, and the clipping oracle runs as a measuring tool.
- ``export`` is ``cobb convert`` plus ``cobb curves``: encode only, never
  decode; text parsing, CSV writing, rectangle fitting of irregular quads
  and the malformed-line skip path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cobb import baselines, cli, codec, geometry, targets
from cobb import audit as audit_mod

# A round trip must reproduce the box to this 1 - IoU, measured with both
# shapes re-centred on the ground truth (IoU is translation invariant; the
# re-centring keeps the clipping oracle's cancellation at pixel-scale
# coordinates out of the check).
ROUNDTRIP_TOL = 1e-9

DOTA_CATEGORIES = (
    "plane", "ship", "storage-tank", "baseball-diamond", "tennis-court", "basketball-court",
    "ground-track-field", "harbor", "bridge", "large-vehicle", "small-vehicle", "helicopter",
    "roundabout", "soccer-ball-field", "swimming-pool",
)
# One planted defect per kind, cycled; each must be skipped by the reader.
MALFORMED = (
    lambda toks: toks[:9],                                  # missing difficulty
    lambda toks: toks + ["0"],                              # extra token
    lambda toks: toks[:2] + [toks[2] + "x"] + toks[3:],     # non-numeric coordinate
    lambda toks: toks[:5] + ["nan"] + toks[6:],             # non-finite coordinate
    lambda toks: toks[:9] + ["hard"],                       # non-integer difficulty
)


@dataclass(frozen=True)
class Sizes:
    """Work per item and per traced unit; ``FULL`` is what the benchmark runs."""

    chunk: int = 2048  # targets inputs generated at a time (unique across the run)
    hash_items: int = 1024  # targets items covered by the output digest
    trace_roundtrips: int = 1024  # targets items per traced unit
    audit_samples: int = 4
    dota_files: int = 6  # the export converts the records as this many files
    dota_records: int = 250  # valid records per file
    dota_malformed: int = 8  # planted malformed lines per file
    rotation_points: int = 1440
    aspect_points: int = 513
    check_rows: int = 8  # rows decoded back per export file and sweep


FULL = Sizes()
TINY = Sizes(
    chunk=8, hash_items=8, trace_roundtrips=8, audit_samples=1, dota_files=2, dota_records=12,
    dota_malformed=5, rotation_points=16, aspect_points=9, check_rows=4,
)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def _recentred_gap(truth: geometry.OrientedBox, got: geometry.OrientedBox) -> float:
    local = geometry.OrientedBox(0.0, 0.0, truth.w_side, truth.h_side, truth.theta)
    moved = geometry.OrientedBox(got.cx - truth.cx, got.cy - truth.cy, got.w_side, got.h_side, got.theta)
    return 1.0 - geometry.iou(local, moved)


def _pixel_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 5) boxes at DOTA scale: centres up to 2e4 px, sides 4-300 px."""
    out = np.empty((n, 5))
    out[:, 0:2] = rng.uniform(0.0, 2e4, (n, 2))
    out[:, 2:4] = np.exp(rng.uniform(math.log(4.0), math.log(300.0), (n, 2)))
    out[:, 4] = rng.uniform(0.0, math.pi, n)
    return out


@contextlib.contextmanager
def _captured():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out, err


@dataclass
class Item:
    seconds: float  # time spent inside the library
    parts: dict[str, float] = field(default_factory=dict)  # seconds per command
    out: dict = field(default_factory=dict)  # raw outputs, dropped once checked


# ---------------------------------------------------------------------------
# targets


@dataclass(frozen=True)
class RoundTripInput:
    gt: geometry.OrientedBox
    proposal: targets.Proposal
    variant: str
    noise: tuple[float, ...]  # added to the target to make the prediction


def make_roundtrip_inputs(seed: int, chunk: int, n: int) -> list[RoundTripInput]:
    """Chunk ``chunk`` of the targets inputs: ground truth, a nearby proposal
    (horizontal or oriented), the ratio variant and the prediction noise.
    Item ``i`` cycles through the four (proposal kind, variant) pairs."""
    rng = _rng(seed, 1, chunk)
    boxes = _pixel_boxes(rng, n)
    c, s = np.abs(np.cos(boxes[:, 4])), np.abs(np.sin(boxes[:, 4]))
    hbb_w = boxes[:, 2] * c + boxes[:, 3] * s
    hbb_h = boxes[:, 2] * s + boxes[:, 3] * c
    jitter = rng.normal(0.0, 1.0, (n, 5))
    noise = rng.normal(0.0, 0.05, (n, 9))
    out = []
    for i in range(n):
        cx, cy, w, h, theta = (float(v) for v in boxes[i])
        j = jitter[i]
        if i % 2 == 0:
            ext_w, ext_h = float(hbb_w[i]), float(hbb_h[i])
        else:
            ext_w, ext_h = w, h
        xp = cx + 0.1 * ext_w * float(j[0])
        yp = cy + 0.1 * ext_h * float(j[1])
        wp = ext_w * math.exp(0.2 * float(j[2]))
        hp = ext_h * math.exp(0.2 * float(j[3]))
        if i % 2 == 0:
            proposal = targets.Proposal.horizontal(xp, yp, wp, hp)
        else:
            proposal = targets.Proposal.oriented(xp, yp, wp, hp, theta + 0.1 * float(j[4]))
        variant = "sig" if (i // 2) % 2 == 0 else "ln"
        out.append(
            RoundTripInput(geometry.OrientedBox(cx, cy, w, h, theta), proposal, variant, tuple(float(v) for v in noise[i]))
        )
    return out


def check_roundtrip(gt: geometry.OrientedBox, decoded: geometry.OrientedBox, loss: float) -> tuple[bool, float, float]:
    """(ok, re-centred 1 - IoU, absolute-frame 1 - IoU); only the first gates."""
    gap = _recentred_gap(gt, decoded)
    gap_abs = 1.0 - geometry.iou(gt, decoded)
    return gap <= ROUNDTRIP_TOL and math.isfinite(loss) and loss >= 0.0, gap, gap_abs


class TargetsWorkload:
    name = "targets"
    min_items = 4  # consecutive items cover every (proposal kind, variant) pair

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = FULL):
        self.seed, self.sizes = seed, sizes
        self.worst_gap = self.worst_gap_abs = 0.0
        self._digest = hashlib.sha256()
        self._hashed = 0

    def setup(self) -> None:
        self._first = make_roundtrip_inputs(self.seed, 0, self.sizes.chunk)
        self._chunk_index, self._chunk = 0, self._first

    def _input(self, i: int) -> RoundTripInput:
        k, j = divmod(i, self.sizes.chunk)
        if k == 0:
            return self._first[j]
        if k != self._chunk_index:
            self._chunk_index, self._chunk = k, make_roundtrip_inputs(self.seed, k, self.sizes.chunk)
        return self._chunk[j]

    def unit(self) -> range:
        return range(self.sizes.trace_roundtrips)

    def item(self, i: int) -> Item:
        x = self._input(i)
        t0 = time.perf_counter()
        target = targets.encode_target(x.gt, x.proposal, x.variant)
        t1 = time.perf_counter()
        e = x.noise
        pred = targets.TargetVector(
            target.tx + e[0], target.ty + e[1], target.tw + e[2], target.th + e[3], target.rt + e[4],
            tuple(a + b for a, b in zip(target.st, e[5:])), target.variant, target.lam,
        )
        t2 = time.perf_counter()
        loss = targets.cobb_loss(pred, target)
        box = targets.decode_target(target, x.proposal)
        t3 = time.perf_counter()
        return Item((t1 - t0) + (t3 - t2), out={"index": i, "gt": x.gt, "box": box, "loss": loss})

    def check(self, item: Item) -> list[str]:
        out = item.out
        ok, gap, gap_abs = check_roundtrip(out["gt"], out["box"], out["loss"])
        self.worst_gap = max(self.worst_gap, gap)
        self.worst_gap_abs = max(self.worst_gap_abs, gap_abs)
        if out["index"] == self._hashed and self._hashed < self.sizes.hash_items:
            b = out["box"]
            self._digest.update(("%.17g " * 6 % (b.cx, b.cy, b.w_side, b.h_side, b.theta, out["loss"])).encode())
            self._hashed += 1
        return [] if ok else [f"round trip {out['index']}: 1-IoU {gap:.3g}, loss {out['loss']!r}"]

    def output_sha256(self) -> str:
        return f"{self._digest.hexdigest()} (first {self._hashed} round trips)"

    def report(self, lat: list[float], parts: list[dict[str, float]]) -> list[tuple[str, float, str]]:
        t = np.array(lat)
        return [
            ("roundtrips_per_s", len(lat) / float(t.sum()), "1/s"),
            ("roundtrip_p50_us", float(np.percentile(t, 50)) * 1e6, "us"),
            ("roundtrip_p99_us", float(np.percentile(t, 99)) * 1e6, "us"),
            ("worst_1-iou_recentred", self.worst_gap, "ratio"),
            ("worst_1-iou_absolute_unchecked", self.worst_gap_abs, "ratio"),
        ]


# ---------------------------------------------------------------------------
# audit


def check_audit_report(text: str) -> list[str]:
    """Every witness must replay through ``audit.replay_witness`` to its gap."""
    problems = []
    for rep in json.loads(text):
        codec_obj = baselines.get_codec(rep["codec"])
        for m in rep["metrics"]:
            recorded = max(s["gap"] for s in m["steps"])
            if m["witness"] is None:
                problems.append(f"{rep['codec']}/{m['name']}: no witness")
                continue
            replayed = audit_mod.replay_witness(codec_obj, m["name"], m["witness"])
            if replayed != recorded:
                problems.append(f"{rep['codec']}/{m['name']}: witness replays to {replayed!r}, recorded {recorded!r}")
    return problems


class AuditWorkload:
    """``cobb audit --samples <n> --seed <seed>`` once per codec and step size.

    One item audits all six codecs at each of the CLI's three default step
    sizes, as eighteen commands of well under a second rather than one long
    one, so that a run holds many items and the reference unit (see
    ``run.py``) samples the host often between them.
    """

    name = "audit"
    steps = ("1e-3", "1e-4", "1e-5")
    min_items = 2  # the check compares repeated reports

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = FULL):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self._first: dict[str, bytes] = {}
        self._replay_problems: list[str] = []

    def setup(self) -> None:
        self.commands = {
            f"{name}@{step}": [
                "audit", "--codec", name, "--samples", str(self.sizes.audit_samples), "--steps", step,
                "--seed", str(self.seed), "--out", str(self.workdir / f"audit-{name}@{step}.json"),
            ]
            for name in baselines.available_codecs()
            for step in self.steps
        }

    def unit(self) -> range:
        return range(1)

    def item(self, i: int) -> Item:
        seconds, out = {}, {}
        for name, args in self.commands.items():
            with _captured():
                t0 = time.perf_counter()
                rc = cli.main(args)
                seconds[name] = time.perf_counter() - t0
            out[name] = {"rc": rc, "report": Path(args[-1]).read_bytes()}
        return Item(sum(seconds.values()), seconds, out)

    def check(self, item: Item) -> list[str]:
        problems = []
        for name, got in item.out.items():
            # exit code 1 is a failed verdict, which the baselines produce by design
            if got["rc"] not in (0, 1):
                problems.append(f"audit {name} exited {got['rc']}")
            if name not in self._first:
                self._first[name] = got["report"]
                self._replay_problems += check_audit_report(got["report"].decode())
            elif got["report"] != self._first[name]:
                problems.append(f"audit report {name} differs from the first run with the same seed")
        return problems + self._replay_problems

    def output_sha256(self) -> str:
        return hashlib.sha256(b"".join(self._first.values())).hexdigest()

    def report(self, lat: list[float], parts: list[dict[str, float]]) -> list[tuple[str, float, str]]:
        return [("audit_s", float(np.median(lat)), "s")]


# ---------------------------------------------------------------------------
# export


@dataclass(frozen=True)
class DotaFile:
    text: str
    records: list[tuple[str, int, tuple[float, ...]]]  # category, difficulty, 8 coordinates
    planted: frozenset[int]  # line numbers of the malformed lines


def make_dota_file(seed: int, part: int, n_valid: int, n_malformed: int) -> DotaFile:
    """DOTA annotation file ``part``: headers, jittered pixel-scale quads
    written with one decimal, and malformed lines planted at seeded positions.

    Corners are computed here (image frame, clockwise angle), not with the
    library, so set-up time does not depend on the code under test.
    """
    rng = _rng(seed, 2, part)
    boxes = _pixel_boxes(rng, n_valid)
    cx, cy, w, h, theta = boxes.T
    c, s = np.cos(theta), np.sin(theta)
    corners = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        dx, dy = 0.5 * sx * w, 0.5 * sy * h
        corners.append(np.stack([cx + dx * c + dy * s, cy - dx * s + dy * c], axis=1))
    starts = rng.integers(0, 4, n_valid)  # first corner written
    order = (np.arange(4)[None, :] + starts[:, None]) % 4
    quads = np.stack(corners, axis=1)[np.arange(n_valid)[:, None], order]  # (n, 4, 2)
    quads += np.minimum(w, h)[:, None, None] * rng.normal(0.0, 0.02, (n_valid, 4, 2))
    cats = rng.integers(0, len(DOTA_CATEGORIES), n_valid)
    diffs = rng.integers(0, 2, n_valid)
    bad_at = set(rng.choice(n_valid + n_malformed, n_malformed, replace=False).tolist())
    lines = ["imagesource:GoogleEarth", "gsd:0.146343590398"]
    records, planted = [], set()
    valid = bad = 0
    for slot in range(n_valid + n_malformed):
        src = valid if slot not in bad_at else int(rng.integers(0, n_valid))
        toks = [f"{v:.1f}" for v in quads[src].ravel()] + [DOTA_CATEGORIES[cats[src]], str(int(diffs[src]))]
        if slot in bad_at:
            toks = MALFORMED[bad % len(MALFORMED)](toks)
            bad += 1
            planted.add(len(lines) + 1)
        else:
            records.append((toks[8], int(toks[9]), tuple(float(t) for t in toks[:8])))
            valid += 1
        lines.append(" ".join(toks))
        if slot % 500 == 499:
            lines.append("")
    return DotaFile("\n".join(lines) + "\n", records, frozenset(planted))


_SKIP_LINE = re.compile(r"skipped line (\d+):")


def check_convert(dota: DotaFile, csv_text: str, log_text: str, sample: list[int]) -> list[str]:
    """Rows equal the valid records, skips equal the planted lines, and the
    sampled rows decode back to the minimum-area fit of their quad."""
    problems = []
    rows = csv_text.splitlines()[1:]
    if len(rows) != len(dota.records):
        return [f"convert wrote {len(rows)} rows for {len(dota.records)} valid records"]
    skipped = {int(m) for m in _SKIP_LINE.findall(log_text)}
    if skipped != dota.planted:
        problems.append(f"skipped lines {sorted(skipped ^ dota.planted)[:5]} differ from the planted ones")
    cobb_codec = baselines.get_codec("cobb")
    for i, (row, (cat, diff, coords)) in enumerate(zip(rows, dota.records)):
        fields = row.split(",")
        if fields[0] != cat or int(fields[1]) != diff:
            problems.append(f"row {i}: {fields[:2]} for record {cat},{diff}")
        elif i in sample:
            fitted = geometry.min_area_rect(list(zip(coords[0::2], coords[1::2])))
            gap = _recentred_gap(fitted, cobb_codec.decode([float(v) for v in fields[2:]]))
            if not gap <= ROUNDTRIP_TOL:
                problems.append(f"row {i}: decodes to 1-IoU {gap:.3g} from the fitted rectangle")
    return problems


def check_curve(csv_text: str, box: geometry.OrientedBox, sweep: str, points: int, sample: list[int]) -> list[str]:
    """Row count, and sampled rows decode back to the swept box."""
    rows = csv_text.splitlines()[1:]
    if len(rows) != points:
        return [f"{sweep} sweep wrote {len(rows)} rows, expected {points}"]
    problems = []
    for i in sample:
        v = [float(x) for x in rows[i].split(",")]
        if sweep == "rotation":
            truth = geometry.rotate(box, v[0])
        else:
            truth = geometry.OrientedBox(box.cx, box.cy, box.w_side * v[0], box.h_side, box.theta)
        got = codec.decode(codec.CobbVector(v[1], v[2], v[3], v[4], v[5], tuple(v[6:10])))
        gap = _recentred_gap(truth, got)
        if not gap <= ROUNDTRIP_TOL:
            problems.append(f"{sweep} row {i}: decodes to 1-IoU {gap:.3g} from the swept box")
    return problems


class ExportWorkload:
    """``cobb convert`` of several DOTA files plus two ``cobb curves`` sweeps.

    The records are split over ``dota_files`` files, as a DOTA split is over
    images, so that an item takes about a second and a run holds many.
    """

    name = "export"
    min_items = 2  # the check compares repeated passes

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = FULL):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self._first: bytes | None = None

    def setup(self) -> None:
        sz = self.sizes
        self.commands, self.dota, self.samples = {}, {}, {}
        rng = _rng(self.seed, 4)
        for k in range(sz.dota_files):
            key = f"convert-{k}"
            self.dota[key] = make_dota_file(self.seed, k, sz.dota_records, sz.dota_malformed)
            path = self.workdir / f"annotations-{k}.txt"
            path.write_text(self.dota[key].text, encoding="utf-8")
            self.commands[key] = ["convert", str(path), "--codec", "cobb", "--out", str(self.workdir / f"records-{k}.csv")]
            self.samples[key] = sorted(rng.choice(sz.dota_records, sz.check_rows, replace=False).tolist())
        cx, cy, w, h, theta = _pixel_boxes(_rng(self.seed, 3), 1)[0]
        self.box = geometry.OrientedBox(float(cx), float(cy), float(w), float(h), float(theta))
        box_arg = ",".join("%.17g" % v for v in (self.box.cx, self.box.cy, self.box.w_side, self.box.h_side, self.box.theta))
        self.points = {"rotation": sz.rotation_points, "aspect": sz.aspect_points}
        for sweep, points in self.points.items():
            self.commands[sweep] = ["curves", "--codec", "cobb", "--sweep", sweep, "--box", box_arg,
                                    "--grid-points", str(points), "--out", str(self.workdir / f"{sweep}.csv")]
            self.samples[sweep] = sorted(rng.choice(points, sz.check_rows, replace=False).tolist())

    def unit(self) -> range:
        return range(1)

    def item(self, i: int) -> Item:
        seconds, out = {}, {}
        for key, args in self.commands.items():
            with _captured() as (_, err):
                t0 = time.perf_counter()
                rc = cli.main(args)
                seconds[key] = time.perf_counter() - t0
            out[key] = {"rc": rc, "csv": Path(args[-1]).read_text(encoding="utf-8"), "log": err.getvalue()}
        return Item(sum(seconds.values()), seconds, out)

    def check(self, item: Item) -> list[str]:
        out = item.out
        problems = [f"{k} exited {out[k]['rc']}" for k in self.commands if out[k]["rc"] != 0]
        self.skipped = 0
        for key, dota in self.dota.items():
            problems += [f"{key}: {p}" for p in check_convert(dota, out[key]["csv"], out[key]["log"], self.samples[key])]
            self.skipped += len(_SKIP_LINE.findall(out[key]["log"]))
        for sweep, points in self.points.items():
            problems += check_curve(out[sweep]["csv"], self.box, sweep, points, self.samples[sweep])
        produced = "".join(out[k]["csv"] for k in self.commands).encode()
        if self._first is None:
            self._first = produced
        elif produced != self._first:
            problems.append("export output differs from the first pass with the same seed")
        return problems

    def output_sha256(self) -> str:
        return hashlib.sha256(self._first or b"").hexdigest()

    def report(self, lat: list[float], parts: list[dict[str, float]]) -> list[tuple[str, float, str]]:
        def seconds(keys):
            return sum(p[k] for p in parts for k in keys)

        records = sum(len(d.records) for d in self.dota.values())
        return [
            ("records_per_s", records * len(parts) / seconds(self.dota), "1/s"),
            ("curve_rows_per_s", sum(self.points.values()) * len(parts) / seconds(self.points), "1/s"),
            ("skipped_lines", self.skipped, "count"),
        ]


WORKLOADS = {w.name: w for w in (TargetsWorkload, AuditWorkload, ExportWorkload)}
