"""Numerical continuity probes over box codecs.

Six metrics per codec: target and loss continuity under small rotations and
aspect-ratio changes, decoding completeness (round-trip exactness) and
decoding robustness (IoU stability under encoding perturbations).  Limits are
replaced by finite-step sweeps; a metric passes when the worst gap shrinks
monotonically across steps and is below its threshold at the finest step.

Boxes are normalized (unit diagonal, centered at the origin) before encoding
so gaps are comparable across codecs, and encoding vectors are compared
component-wise with the plain infinity norm.  Every family mixes seeded
random samples with deterministic straddle configurations placed half a step
before each known boundary, so a codec's boundary jump is witnessed at every
step size.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from cobb.baselines import BoxCodec
from cobb.errors import InvalidArgumentError
from cobb.geometry import OrientedBox, _rowwise, iou, iou_many, oriented_many, vertices_many

FAMILY_NAMES = ("near-horizontal", "near-square", "near-diagonal", "random")

_BOUNDARY_OFFSET = 1e-3  # half-width of the boundary families
_ASPECT_RANGE = (0.2, 5.0)
_LOG_ASPECT_RANGE = tuple(np.log(_ASPECT_RANGE).tolist())
_TRANSFORMS = ("rotation", "aspect")
# per family, the bounds of each sample's uniform draws in stream order: the log
# aspect, then those commented
_OFFSET = (-_BOUNDARY_OFFSET, _BOUNDARY_OFFSET)
_DRAWS = {
    "near-horizontal": (_LOG_ASPECT_RANGE, _OFFSET),  # theta
    "near-square": (_LOG_ASPECT_RANGE, _OFFSET, (0.0, math.pi)),  # aspect - 1 (the log aspect unused), theta
    "near-diagonal": (_LOG_ASPECT_RANGE, _OFFSET),  # theta - atan2(1, a)
    "random": (_LOG_ASPECT_RANGE, (0.0, math.pi)),  # theta
}

# Verdict thresholds at the finest step.
TARGET_GAP_TOL = 1e-3
LOSS_TOL = 1e-6
COMPLETENESS_TOL = 1e-6
ROBUSTNESS_K = 100.0  # robustness passes when 1 - IoU <= ROBUSTNESS_K * perturbation


@dataclass(frozen=True)
class ProbeConfig:
    steps: tuple[float, ...] = (1e-3, 1e-4, 1e-5)
    families: tuple[str, ...] = FAMILY_NAMES
    samples: int = 64
    seed: int = 0
    perturbation: float = 1e-4
    directions: int = 16

    def __post_init__(self):
        # tuples keep a frozen config built from lists immutable
        for name in ("steps", "families"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise InvalidArgumentError(f"{name} must be a sequence, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not all(isinstance(s, numbers.Real) for s in self.steps):
            raise InvalidArgumentError(f"steps must be numbers, got {self.steps!r}")
        if not self.steps or not all(0 < s < math.inf for s in self.steps):
            raise InvalidArgumentError("steps must be positive and finite")
        if any(a <= b for a, b in zip(self.steps, self.steps[1:])):
            raise InvalidArgumentError("steps must be strictly decreasing")
        for name in ("samples", "seed", "directions"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidArgumentError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.samples < 1:
            raise InvalidArgumentError("samples must be >= 1")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")
        if not self.families:
            raise InvalidArgumentError("families must not be empty")
        unknown = set(self.families) - set(FAMILY_NAMES)
        if unknown:
            raise InvalidArgumentError(f"unknown families: {sorted(unknown)}")
        if len(set(self.families)) < len(self.families):
            raise InvalidArgumentError(f"families must not repeat, got {self.families!r}")
        if not isinstance(self.perturbation, numbers.Real):
            raise InvalidArgumentError(f"perturbation must be a number, got {self.perturbation!r}")
        if not 0 < self.perturbation < math.inf:
            raise InvalidArgumentError("perturbation must be positive and finite")
        if self.directions < 1:
            raise InvalidArgumentError("directions must be >= 1")


@dataclass
class StepGap:
    delta: float
    gap: float
    witness: dict | None


@dataclass
class MetricResult:
    name: str
    steps: list[StepGap]
    verdict: str  # "pass" | "fail"
    notes: str

    @property
    def witness(self) -> dict | None:
        """The witness of the first step with the largest gap."""
        return max(self.steps, key=lambda s: s.gap).witness


@dataclass
class MetricReport:
    codec: str
    seed: int
    metrics: list[MetricResult]
    extras: dict


def _normalized(fields) -> np.ndarray:
    """``(n, 5)`` box fields brought to constructed form, translated to the
    origin and scaled to unit diagonal."""
    p = oriented_many(fields)
    s = 1.0 / _rowwise(math.hypot, p[:, 2], p[:, 3])
    zeros = np.zeros(len(p))
    return np.column_stack([zeros, zeros, p[:, 2] * s, p[:, 3] * s, p[:, 4]])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def _random_aspect(rng: np.random.Generator) -> float:
    return float(np.exp(rng.uniform(*_LOG_ASPECT_RANGE)))


def build_families(cfg: ProbeConfig) -> Mapping[str, np.ndarray]:
    """Seeded boundary families as read-only ``(n, 5)`` box fields, all
    normalized to unit diagonal."""
    rows: list[tuple[float, ...]] = []
    ends = []
    for fi, fam in enumerate(cfg.families):
        # every sample's uniforms in one draw: the stream of one draw per value
        lows, highs = zip(*_DRAWS[fam])
        u = _rng(cfg.seed, 101, fi).uniform(lows, highs, size=(cfg.samples, len(lows)))
        a, theta = np.exp(u[:, 0]), u[:, -1]
        if fam == "near-square":
            a = 1.0 + u[:, 1]
        elif fam == "near-diagonal":
            theta = _rowwise(math.atan2, np.ones(cfg.samples), a) + theta
        rows += [(0.0, 0.0, w, 1.0, t) for w, t in zip(a.tolist(), theta.tolist())]
        # Deterministic straddles half a step before each relevant boundary.
        for delta in cfg.steps:
            if fam == "near-horizontal":
                rows += [(0.0, 0.0, a, 1.0, -0.5 * delta) for a in (2.0, 4.0, 0.5, 0.25)]
            elif fam == "near-square":
                rows += [(0.0, 0.0, 1.0 - 0.25 * delta, 1.0, theta) for theta in (math.pi / 6, math.pi / 3)]
            elif fam == "near-diagonal":
                # sliding ratio hits 0.5 at atan(h/w); the quarter-pi line is
                # the acute-angle wrap
                for a in (1.0, 2.0, 4.0):
                    rows.append((0.0, 0.0, a, 1.0, math.atan2(1.0, a) - 0.5 * delta))
                    rows.append((0.0, 0.0, a, 1.0, 0.25 * math.pi - 0.5 * delta))
        ends.append(len(rows))
    fields = _normalized(rows)
    fields.flags.writeable = False
    return MappingProxyType(dict(zip(cfg.families, np.split(fields, ends[:-1]))))


def _members(families: Mapping[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The family of each family box and their read-only fields, in family order."""
    fields = np.concatenate(list(families.values()))
    fields.flags.writeable = False
    return [fam for fam, rows in families.items() for _ in rows], fields


def _twins(fields: np.ndarray, transform: str, delta) -> list[np.ndarray]:
    """Twin columns of ``(n, 5)`` constructed-box fields, for one ``delta``
    or one per row.

    A rotation by ``delta`` gives one column; an aspect change gives two,
    the boxes with ``w_side`` and with ``h_side`` scaled by ``1 + delta``,
    each normalized again.
    """
    head, w, h, theta = fields[:, :2], fields[:, 2], fields[:, 3], fields[:, 4]
    if transform == "rotation":
        return [oriented_many(np.column_stack([head, w, h, theta + delta]))]
    if transform == "aspect":
        ratio = 1.0 + delta
        return [
            _normalized(np.column_stack([head, w * ratio, h, theta])),
            _normalized(np.column_stack([head, w, h * ratio, theta])),
        ]
    raise InvalidArgumentError(f"unknown transform {transform!r}")


def _encoded(codec: BoxCodec, fields: np.ndarray, twins: dict, *rest: np.ndarray) -> tuple:
    """One ``codec.encode_many`` call over ``fields``, each column of
    ``twins`` (per ``(transform, delta)``, as :func:`_twins` gives them) and
    each of ``rest``, stacked in that order, as read-only views that the
    metrics of a run share: those of ``fields``, of ``twins`` per key, and
    of each of ``rest``."""
    blocks = [fields, *(column for columns in twins.values() for column in columns), *rest]
    rows = codec.encode_many(np.concatenate(blocks))
    rows.flags.writeable = False
    views = iter(np.split(rows, np.cumsum([len(b) for b in blocks[:-1]])))
    return next(views), {key: tuple(next(views) for _ in columns) for key, columns in twins.items()}, *views


def _transform_gap(codec: BoxCodec, kind: str, row: list[float], transform: str, delta: float) -> float:
    """Encoding (``kind`` "target") or loss ("loss") gap summed over the
    :func:`_twins` of one row of box fields, encoded one box at a time: the
    scalar reference that :func:`replay_witness` recomputes a witness with."""
    enc = codec.encode(OrientedBox(*row))
    gap = 0.0
    for column in _twins(np.array([row], dtype=float), transform, delta):
        other = codec.encode(OrientedBox(*column[0].tolist()))
        gap += float(np.max(np.abs(enc - other))) if kind == "target" else codec.loss(enc, other)
    return gap


def _continuity(codec: BoxCodec, kind: str, transform: str, deltas, fams, fields, enc, twins) -> MetricResult:
    """Each step's gaps as one array, equal to :func:`_transform_gap` per box.

    ``enc`` holds the encodings of the family ``fields`` and ``twins`` those
    of their twins (:func:`_encoded`).  Per twin column, the gap is the
    row-wise max |enc - twin| ("target") or ``loss_many`` ("loss"); the
    columns are added from 0.0, left to right.  The witness is the first box
    with the largest gap, as a loop keeping strictly larger gaps picks it,
    and a NaN gap is never picked.
    """
    steps: list[StepGap] = []
    for delta in deltas:
        gaps = 0.0
        for other in twins[transform, delta]:
            gaps = gaps + (np.max(np.abs(enc - other), axis=1) if kind == "target" else codec.loss_many(enc, other))
        worst = StepGap(delta, -1.0, None)
        if not np.isnan(gaps).all():
            i = int(np.nanargmax(gaps))
            worst = StepGap(
                delta, float(gaps[i]),
                {"family": fams[i], "box": fields[i].tolist(), "transform": transform, "delta": delta},
            )
        steps.append(worst)
    return _verdict(f"{kind}-{transform}", steps, TARGET_GAP_TOL if kind == "target" else LOSS_TOL)


def _probe_continuity(codec: BoxCodec, kind: str, transform: str, cfg: ProbeConfig) -> MetricResult:
    fams, fields = _members(build_families(cfg))
    enc, twins = _encoded(codec, fields, {(transform, delta): _twins(fields, transform, delta) for delta in cfg.steps})
    return _continuity(codec, kind, transform, cfg.steps, fams, fields, enc, twins)


def probe_target_continuity(codec: BoxCodec, transform: str, cfg: ProbeConfig) -> MetricResult:
    """Worst encoding gap per step; aspect sums the gap over both members."""
    return _probe_continuity(codec, "target", transform, cfg)


def probe_loss_continuity(codec: BoxCodec, transform: str, cfg: ProbeConfig) -> MetricResult:
    """Worst loss between the encodings of a box and its perturbed twin."""
    return _probe_continuity(codec, "loss", transform, cfg)


def _decoding_gaps(
    codec: BoxCodec, cfg: ProbeConfig, families: Mapping[str, np.ndarray], fields, rows, directions: int
) -> tuple[tuple[int, float], tuple[int, float, tuple] | None]:
    """Worst 1 - IoU(box, decode(row)) of the family rows (completeness) and
    of ``directions`` perturbed rows per box (robustness) as ``(i, gap)`` and
    ``(i, gap, perturbation)``, ``i`` the first worst row of its block; with
    no perturbed rows, the second is None.

    Both blocks take one ``decode_many`` and one :func:`iou_many` call, equal
    to the scalar path bit for bit.
    """
    n, d = len(rows), directions
    # one draw per family, its boxes' directions in order
    dirs = np.concatenate([
        _rng(cfg.seed, 202, fi).standard_normal((len(fam_fields) * d, codec.dim))
        for fi, fam_fields in enumerate(families.values())
    ])
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    deltas = cfg.perturbation * (dirs / np.where(norms == 0.0, 1.0, norms))
    encodings = np.empty((n * (1 + d), codec.dim))
    encodings[:n] = rows
    np.add(np.repeat(rows, d, axis=0), deltas, out=encodings[n:])
    quads = vertices_many(np.concatenate([fields, codec.decode_many(encodings)]))
    sources, decoded = quads[:n], quads[n:]
    gaps = 1.0 - iou_many(np.concatenate([sources, np.repeat(sources, d, axis=0)]), decoded)
    i = int(np.argmax(gaps[:n]))
    if not d:
        return (i, float(gaps[i])), None
    j = int(np.argmax(gaps[n:]))
    return (i, float(gaps[i])), (j, float(gaps[n + j]), tuple(deltas[j].tolist()))


def _completeness(fams, fields, worst: tuple[int, float]) -> MetricResult:
    i, gap = worst
    step = StepGap(0.0, gap, {"family": fams[i], "box": fields[i].tolist()})
    return _verdict("decoding-completeness", [step], COMPLETENESS_TOL)


def check_decoding_completeness(codec: BoxCodec, cfg: ProbeConfig) -> MetricResult:
    """Worst 1 - IoU(x, decode(encode(x))) over all families; decodes the
    family rows only."""
    families = build_families(cfg)
    fams, fields = _members(families)
    rows, _ = _encoded(codec, fields, {})
    worst, _ = _decoding_gaps(codec, cfg, families, fields, rows, 0)
    return _completeness(fams, fields, worst)


def _robustness(codec: BoxCodec, cfg: ProbeConfig, fams, fields, rows, worst: tuple[int, float, tuple]) -> MetricResult:
    """The metric of the worst perturbed row of :func:`_decoding_gaps`; a
    failing one re-decodes its family row (of ``rows``) for the note."""
    perturbation = cfg.perturbation
    i, gap, delta = worst
    b = i // cfg.directions
    box = fields[b].tolist()
    step = StepGap(perturbation, gap, {"family": fams[b], "box": box, "perturbation": list(delta)})
    result = _verdict("decoding-robustness", [step], ROBUSTNESS_K * perturbation)
    if result.verdict == "fail":
        # distinguish a vanishing (sub-linear but continuous) response from
        # true decoding ambiguity: shrink the worst perturbation and re-decode
        row, delta = rows[b], np.asarray(delta)
        shrunk = [1.0 - iou(OrientedBox(*box), codec.decode(row + delta / f)) for f in (10.0, 100.0)]
        kind = "vanishing with the perturbation" if shrunk[1] < 0.3 * gap else "persistent (decoding ambiguity)"
        result.notes = f"worst-direction gap at /10: {shrunk[0]:.3g}, at /100: {shrunk[1]:.3g} -- {kind}"
    return result


def probe_decoding_robustness(codec: BoxCodec, cfg: ProbeConfig) -> MetricResult:
    """Worst 1 - IoU(x, decode(encode(x) + d)) over random unit directions."""
    families = build_families(cfg)
    fams, fields = _members(families)
    rows, _ = _encoded(codec, fields, {})
    _, worst = _decoding_gaps(codec, cfg, families, fields, rows, cfg.directions)
    return _robustness(codec, cfg, fams, fields, rows, worst)


def _verdict(name: str, steps: list[StepGap], tol: float) -> MetricResult:
    monotone = all(a.gap >= b.gap - 1e-12 for a, b in zip(steps, steps[1:]))
    ok = monotone and steps[-1].gap <= tol
    notes = "" if monotone else "gaps not monotone across steps"
    return MetricResult(name, steps, "pass" if ok else "fail", notes)


def replay_witness(codec: BoxCodec, metric: str, witness: dict) -> float:
    """Recompute the gap recorded in a witness; used to audit the audit."""
    if metric.startswith(("target-", "loss-")):
        return _transform_gap(codec, metric.partition("-")[0], witness["box"], witness["transform"], witness["delta"])
    box = OrientedBox(*witness["box"])
    if metric == "decoding-completeness":
        return 1.0 - iou(box, codec.decode(codec.encode(box)))
    if metric == "decoding-robustness":
        enc = codec.encode(box) + np.asarray(witness["perturbation"])
        return 1.0 - iou(box, codec.decode(enc))
    raise InvalidArgumentError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# Estimation-difficulty summary


def _nae_sample(cfg: ProbeConfig) -> np.ndarray:
    """The NAE summary's seeded boxes, then their twins under small random
    rotations, as ``(2n, 5)`` box fields."""
    rng = _rng(cfg.seed, 303)
    n = max(cfg.samples, 32)
    shapes, centres = np.empty((n, 5)), np.empty((n, 2))
    for i in range(n):
        a = _random_aspect(rng)
        # half the sample sits near the horizontal boundary so codecs with a
        # jump there pay for it, mirroring how hard a regressor finds them
        theta = float(rng.uniform(0.0, math.pi)) if i % 2 else float(rng.normal(0.0, 2e-3))
        shapes[i] = (0.0, 0.0, a, 1.0, theta)
        centres[i] = (float(rng.uniform(-0.25, 0.25)), float(rng.uniform(-0.25, 0.25)))
    fields = np.column_stack([centres, _normalized(shapes)[:, 2:]])
    (turned,) = _twins(fields, "rotation", rng.normal(0.0, 1e-3, size=n))
    return np.concatenate([fields, turned])


def _nae_summary(codec: BoxCodec, rows: np.ndarray) -> dict[str, float]:
    """Per parameter group: NAE of encodings under small random rotations,
    from the encodings ``rows`` of :func:`_nae_sample`.

    A proxy for how hard each parameter is to regress: continuous parameters
    move only slightly when the box wiggles, discontinuous ones jump.
    """
    truths, preds = np.split(rows, 2)
    spreads = (truths.max(axis=0) - truths.min(axis=0)).tolist()
    groups = {g: [i for i in idxs if spreads[i] != 0.0] for g, idxs in codec.parameter_groups().items()}
    if not np.isfinite(rows[:, sum(groups.values(), [])]).all():
        raise InvalidArgumentError("predictions and truths must be finite")
    # each column's mean squared error along a contiguous row, as np.mean of
    # the column takes it (a mean along axis 0 can differ in the last bit)
    mse = np.ascontiguousarray(((preds - truths) ** 2).T).mean(axis=1).tolist()
    means = {g: [mse[i] / spreads[i] ** 2 for i in idxs] for g, idxs in groups.items() if idxs}
    return {g: float(np.mean(v)) for g, v in means.items()}


def run_audit(codecs: list[BoxCodec], cfg: ProbeConfig) -> list[MetricReport]:
    """All six metrics for every codec, plus the NAE extra.

    The families, their twins and the NAE sample are built once.  Each codec
    encodes them in one ``encode_many`` call, which its six metrics and the
    NAE extra share, and decodes and scores the family rows and the
    perturbed rows in one batch.
    """
    families = build_families(cfg)
    fams, fields = _members(families)
    twins = {(t, delta): _twins(fields, t, delta) for delta in cfg.steps for t in _TRANSFORMS}
    sample = _nae_sample(cfg)
    reports = []
    for codec in codecs:
        rows, twin_rows, nae_rows = _encoded(codec, fields, twins, sample)
        metrics = [
            _continuity(codec, kind, t, cfg.steps, fams, fields, rows, twin_rows)
            for kind in ("target", "loss")
            for t in _TRANSFORMS
        ]
        complete, robust = _decoding_gaps(codec, cfg, families, fields, rows, cfg.directions)
        metrics += [_completeness(fams, fields, complete), _robustness(codec, cfg, fams, fields, rows, robust)]
        reports.append(MetricReport(codec.name, cfg.seed, metrics, {"nae": _nae_summary(codec, nae_rows)}))
    return reports
