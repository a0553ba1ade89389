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

import functools
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from cobb.baselines import BoxCodec
from cobb.errors import InvalidArgumentError, UndefinedNormalizationError
from cobb.geometry import HorizontalBox, OrientedBox, _rowwise, iou, iou_many, oriented_many, vertices_many
from cobb.targets import sensitivity_probe

FAMILY_NAMES = ("near-horizontal", "near-square", "near-diagonal", "random")

_BOUNDARY_OFFSET = 1e-3  # half-width of the boundary families
_ASPECT_RANGE = (0.2, 5.0)

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
        # tuples keep a config built from lists hashable
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
    witness: dict | None = None


@dataclass
class MetricResult:
    name: str
    steps: list[StepGap]
    verdict: str  # "pass" | "fail"
    witness: dict | None = None
    notes: str = ""


@dataclass
class MetricReport:
    codec: str
    seed: int
    metrics: list[MetricResult]
    extras: dict

    def verdicts(self) -> dict[str, str]:
        return {m.name: m.verdict for m in self.metrics}


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
    lo, hi = _ASPECT_RANGE
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


@functools.lru_cache(maxsize=1)
def build_families(cfg: ProbeConfig) -> Mapping[str, np.ndarray]:
    """Seeded boundary families as read-only ``(n, 5)`` box fields, all
    normalized to unit diagonal.

    The last config's families are kept, so the six metrics of a run share
    one build.
    """
    rows: list[tuple[float, ...]] = []
    ends = []
    for fi, fam in enumerate(cfg.families):
        rng = _rng(cfg.seed, 101, fi)
        for _ in range(cfg.samples):
            a = _random_aspect(rng)
            if fam == "near-horizontal":
                theta = float(rng.uniform(-_BOUNDARY_OFFSET, _BOUNDARY_OFFSET))
            elif fam == "near-square":
                a = 1.0 + float(rng.uniform(-_BOUNDARY_OFFSET, _BOUNDARY_OFFSET))
                theta = float(rng.uniform(0.0, math.pi))
            elif fam == "near-diagonal":
                theta = math.atan2(1.0, a) + float(rng.uniform(-_BOUNDARY_OFFSET, _BOUNDARY_OFFSET))
            elif fam == "random":
                theta = float(rng.uniform(0.0, math.pi))
            else:  # pragma: no cover - validated in ProbeConfig
                raise InvalidArgumentError(fam)
            rows.append((0.0, 0.0, a, 1.0, theta))
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


def _members(cfg: ProbeConfig) -> tuple[list[str], np.ndarray]:
    """The family of each family box and their fields, in family order."""
    families = build_families(cfg)
    return [fam for fam, rows in families.items() for _ in rows], np.concatenate(list(families.values()))


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


@functools.lru_cache(maxsize=1)
def _family_rows(codec: BoxCodec, cfg: ProbeConfig) -> np.ndarray:
    """Encodings of the family boxes, in family order.

    Like :func:`build_families`, the last ``(codec, cfg)``'s rows are kept,
    so the six metrics of a run encode each family box once.
    """
    rows = codec.encode_many(_members(cfg)[1])
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=1)
def _twin_rows(codec: BoxCodec, cfg: ProbeConfig) -> Mapping[tuple[str, float], tuple[np.ndarray, ...]]:
    """Encodings of the :func:`_twins` columns of the family boxes per
    ``(transform, delta)``; column ``k`` holds twin ``k`` of every family
    box, in family order.

    Kept apart from :func:`_family_rows`, so a metric that reads no twin
    builds and encodes none.
    """
    fields = _members(cfg)[1]
    twins = {
        (transform, delta): _twins(fields, transform, delta)
        for delta in cfg.steps
        for transform in ("rotation", "aspect")
    }
    rows = codec.encode_many(np.concatenate([column for cols in twins.values() for column in cols]))
    rows.flags.writeable = False
    rows = iter(np.split(rows, sum(map(len, twins.values()))))
    return MappingProxyType({key: tuple(next(rows) for _ in cols) for key, cols in twins.items()})


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


def _probe_continuity(codec: BoxCodec, kind: str, transform: str, cfg: ProbeConfig, tol: float) -> MetricResult:
    """Each step's gaps as one array, equal to :func:`_transform_gap` per box.

    Per twin column, the gap is the row-wise max |enc - twin| ("target") or
    ``loss_many`` ("loss"); the columns are added from 0.0, left to right.
    The witness is the first box with the largest gap, as a loop keeping
    strictly larger gaps picks it, and a NaN gap is never picked.
    """
    fams, fields = _members(cfg)
    enc = _family_rows(codec, cfg)
    twins = _twin_rows(codec, cfg)
    steps: list[StepGap] = []
    for delta in cfg.steps:
        gaps = 0.0
        for other in twins[transform, delta]:
            gaps = gaps + (np.max(np.abs(enc - other), axis=1) if kind == "target" else codec.loss_many(enc, other))
        worst = StepGap(delta, -1.0)
        if not np.isnan(gaps).all():
            i = int(np.nanargmax(gaps))
            worst = StepGap(
                delta, float(gaps[i]),
                {"family": fams[i], "box": fields[i].tolist(), "transform": transform, "delta": delta},
            )
        steps.append(worst)
    return _verdict(f"{kind}-{transform}", steps, tol)


def probe_target_continuity(codec: BoxCodec, transform: str, cfg: ProbeConfig) -> MetricResult:
    """Worst encoding gap per step; aspect sums the gap over both members."""
    return _probe_continuity(codec, "target", transform, cfg, TARGET_GAP_TOL)


def probe_loss_continuity(codec: BoxCodec, transform: str, cfg: ProbeConfig) -> MetricResult:
    """Worst loss between the encodings of a box and its perturbed twin."""
    return _probe_continuity(codec, "loss", transform, cfg, LOSS_TOL)


@functools.lru_cache(maxsize=1)
def _decoding_gaps(codec: BoxCodec, cfg: ProbeConfig) -> tuple[tuple[int, float], tuple[int, float, tuple]]:
    """Worst 1 - IoU(box, decode(row)) of the family rows (completeness) and
    of the perturbed rows (robustness) as ``(i, gap)`` and ``(i, gap,
    perturbation)``, ``i`` the first worst row of its block.

    Both blocks take one ``decode_many`` and one :func:`iou_many` call, equal
    to the scalar path bit for bit.  Like :func:`_family_rows`, the last
    ``(codec, cfg)``'s result is kept, so the two metrics share one batch.
    """
    fields, rows = _members(cfg)[1], _family_rows(codec, cfg)
    n, d = len(rows), cfg.directions
    # one draw per family, its boxes' directions in order
    dirs = np.concatenate([
        _rng(cfg.seed, 202, fi).standard_normal((len(fam_fields) * d, codec.dim))
        for fi, fam_fields in enumerate(build_families(cfg).values())
    ])
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    deltas = cfg.perturbation * (dirs / np.where(norms == 0.0, 1.0, norms))
    encodings = np.empty((n * (1 + d), codec.dim))
    encodings[:n] = rows
    np.add(np.repeat(rows, d, axis=0), deltas, out=encodings[n:])
    sources = vertices_many(fields)
    decoded = vertices_many(codec.decode_many(encodings))
    gaps = 1.0 - iou_many(np.concatenate([sources, np.repeat(sources, d, axis=0)]), decoded)
    i, j = int(np.argmax(gaps[:n])), int(np.argmax(gaps[n:]))
    return (i, float(gaps[i])), (j, float(gaps[n + j]), tuple(deltas[j].tolist()))


def check_decoding_completeness(codec: BoxCodec, cfg: ProbeConfig) -> MetricResult:
    """Worst 1 - IoU(x, decode(encode(x))) over all families."""
    fams, fields = _members(cfg)
    i, gap = _decoding_gaps(codec, cfg)[0]
    worst = StepGap(0.0, gap, {"family": fams[i], "box": fields[i].tolist()})
    verdict = "pass" if worst.gap <= COMPLETENESS_TOL else "fail"
    return MetricResult("decoding-completeness", [worst], verdict, worst.witness)


def probe_decoding_robustness(codec: BoxCodec, cfg: ProbeConfig) -> MetricResult:
    """Worst 1 - IoU(x, decode(encode(x) + d)) over random unit directions."""
    perturbation = cfg.perturbation
    fams, fields = _members(cfg)
    i, gap, delta = _decoding_gaps(codec, cfg)[1]
    b = i // cfg.directions
    box = fields[b].tolist()
    worst = StepGap(perturbation, gap, {"family": fams[b], "box": box, "perturbation": list(delta)})
    verdict = "pass" if worst.gap <= ROBUSTNESS_K * perturbation else "fail"
    notes = ""
    if verdict == "fail":
        # distinguish a vanishing (sub-linear but continuous) response from
        # true decoding ambiguity: shrink the worst perturbation and re-decode
        row, delta = _family_rows(codec, cfg)[b], np.asarray(delta)
        shrunk = [1.0 - iou(OrientedBox(*box), codec.decode(row + delta / f)) for f in (10.0, 100.0)]
        kind = "vanishing with the perturbation" if shrunk[1] < 0.3 * worst.gap else "persistent (decoding ambiguity)"
        notes = (
            f"worst-direction gap at /10: {shrunk[0]:.3g}, at /100: {shrunk[1]:.3g} -- {kind}"
        )
    return MetricResult("decoding-robustness", [worst], verdict, worst.witness, notes)


def _verdict(name: str, steps: list[StepGap], tol: float) -> MetricResult:
    monotone = all(a.gap >= b.gap - 1e-12 for a, b in zip(steps, steps[1:]))
    ok = monotone and steps[-1].gap <= tol
    worst = max(steps, key=lambda s: s.gap)
    notes = "" if monotone else "gaps not monotone across steps"
    return MetricResult(name, steps, "pass" if ok else "fail", worst.witness, notes)


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
# Estimation-difficulty and ratio-sensitivity summaries


def nae(predictions, truths) -> float:
    """Mean squared error normalized by the squared ground-truth range."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise InvalidArgumentError("predictions and truths must be equal-length, non-empty")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise InvalidArgumentError("predictions and truths must be finite")
    spread = float(np.max(t) - np.min(t))
    if spread == 0.0:
        raise UndefinedNormalizationError("constant ground truth has no range")
    return float(np.mean((p - t) ** 2) / spread**2)


def _nae_summary(codec: BoxCodec, cfg: ProbeConfig) -> dict[str, float]:
    """Per parameter group: NAE of encodings under small random rotations.

    A proxy for how hard each parameter is to regress: continuous parameters
    move only slightly when the box wiggles, discontinuous ones jump.
    """
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
    rows = codec.encode_many(np.concatenate([fields, turned]))
    truths, preds = rows[:n], rows[n:]
    # nae per column: np.mean of a contiguous row, as nae takes it (an axis mean can differ in the last bit)
    spreads = (truths.max(axis=0) - truths.min(axis=0)).tolist()
    groups = {g: [i for i in idxs if spreads[i] != 0.0] for g, idxs in codec.parameter_groups().items()}
    if not np.isfinite(rows[:, sum(groups.values(), [])]).all():
        raise InvalidArgumentError("predictions and truths must be finite")
    errors = np.ascontiguousarray(((preds - truths) ** 2).T)
    means = {g: [float(np.mean(errors[i]) / spreads[i] ** 2) for i in idxs] for g, idxs in groups.items() if idxs}
    return {g: float(np.mean(v)) for g, v in means.items()}


def run_audit(codecs: list[BoxCodec], cfg: ProbeConfig) -> list[MetricReport]:
    """All six metrics for every codec, plus NAE / ratio-sensitivity extras.

    The metrics of a codec share one build of the families
    (:func:`build_families`) and one encoding of each family box and twin
    (:func:`_family_rows`, :func:`_twin_rows`).
    """
    reports = []
    for codec in codecs:
        probes = (probe_target_continuity, probe_loss_continuity)
        metrics = [probe(codec, t, cfg) for probe in probes for t in ("rotation", "aspect")]
        metrics += [check_decoding_completeness(codec, cfg), probe_decoding_robustness(codec, cfg)]
        extras = {"nae": _nae_summary(codec, cfg)}
        if codec.name in ("cobb", "cobb-ln"):
            square = HorizontalBox(0.0, 0.0, 1.0, 1.0)
            extras["ratio_sensitivity"] = {
                "r_ln@1e-3": sensitivity_probe("r_ln", 1e-3, 1e-4, square),
                "f_ln_ra@1e-3": sensitivity_probe("f_ln_of_ra", 1e-3, 1e-4, square),
            }
        reports.append(MetricReport(codec.name, cfg.seed, metrics, extras))
    return reports
