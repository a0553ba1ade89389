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
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from cobb.baselines import BoxCodec
from cobb.errors import InvalidArgumentError, UndefinedNormalizationError
from cobb.geometry import OrientedBox, adjust_side, iou, iou_many, rotate, vertices_many

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
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "families", tuple(self.families))
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
    metrics: list[MetricResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def verdicts(self) -> dict[str, str]:
        return {m.name: m.verdict for m in self.metrics}


def normalize_box(box: OrientedBox) -> OrientedBox:
    """Translate to the origin and scale to unit diagonal."""
    s = 1.0 / box.diagonal
    return OrientedBox(0.0, 0.0, box.w_side * s, box.h_side * s, box.theta)


def _box_params(box: OrientedBox) -> list[float]:
    return [box.cx, box.cy, box.w_side, box.h_side, box.theta]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def _random_aspect(rng: np.random.Generator) -> float:
    lo, hi = _ASPECT_RANGE
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


@functools.lru_cache(maxsize=1)
def build_families(cfg: ProbeConfig) -> Mapping[str, tuple[OrientedBox, ...]]:
    """Seeded boundary families, all normalized to unit diagonal.

    The last config's families are kept, so the six metrics of a run share
    one read-only build.
    """
    out: dict[str, tuple[OrientedBox, ...]] = {}
    for fi, fam in enumerate(cfg.families):
        rng = _rng(cfg.seed, 101, fi)
        boxes: list[OrientedBox] = []
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
            boxes.append(normalize_box(OrientedBox(0.0, 0.0, a, 1.0, theta)))
        # Deterministic straddles half a step before each relevant boundary.
        for delta in cfg.steps:
            if fam == "near-horizontal":
                for a in (2.0, 4.0, 0.5, 0.25):
                    boxes.append(normalize_box(OrientedBox(0.0, 0.0, a, 1.0, -0.5 * delta)))
            elif fam == "near-square":
                for theta in (math.pi / 6, math.pi / 3):
                    boxes.append(normalize_box(OrientedBox(0.0, 0.0, 1.0 - 0.25 * delta, 1.0, theta)))
            elif fam == "near-diagonal":
                # sliding ratio hits 0.5 at atan(h/w); the quarter-pi line is
                # the acute-angle wrap
                for a in (1.0, 2.0, 4.0):
                    boxes.append(
                        normalize_box(OrientedBox(0.0, 0.0, a, 1.0, math.atan2(1.0, a) - 0.5 * delta))
                    )
                    boxes.append(
                        normalize_box(OrientedBox(0.0, 0.0, a, 1.0, 0.25 * math.pi - 0.5 * delta))
                    )
        out[fam] = tuple(boxes)
    return MappingProxyType(out)


def _transformed(box: OrientedBox, transform: str, delta: float) -> list[OrientedBox]:
    if transform == "rotation":
        return [rotate(box, delta)]
    if transform == "aspect":
        return [normalize_box(b) for b in adjust_side(box, 1.0 + delta)]
    raise InvalidArgumentError(f"unknown transform {transform!r}")


@functools.lru_cache(maxsize=1)
def _twin_boxes(cfg: ProbeConfig) -> Mapping[tuple[str, float], tuple[tuple[OrientedBox, ...], ...]]:
    """Twin columns of the family boxes per ``(transform, delta)``.

    A rotation gives each box one twin and an aspect change two (the w- and
    h-scaled boxes); column ``k`` holds twin ``k`` of every family box, in
    family order.  Like :func:`build_families`, the last config's columns
    are kept, so a run builds each twin once.
    """
    boxes = [box for fam in build_families(cfg).values() for box in fam]
    return MappingProxyType({
        (transform, delta): tuple(zip(*(_transformed(box, transform, delta) for box in boxes)))
        for delta in cfg.steps
        for transform in ("rotation", "aspect")
    })


def _encode_distinct(codec: BoxCodec, boxes: list[OrientedBox]) -> np.ndarray:
    """Read-only ``(N, dim)`` rows of ``boxes``, from one ``encode_many``
    call over the distinct boxes."""
    index: dict[OrientedBox, int] = {}
    at = [index.setdefault(box, len(index)) for box in boxes]
    rows = codec.encode_many(list(index))[at]
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=1)
def _family_rows(codec: BoxCodec, cfg: ProbeConfig) -> np.ndarray:
    """Encodings of the family boxes, in family order.

    Like :func:`build_families`, the last ``(codec, cfg)``'s rows are kept,
    so the six metrics of a run encode each family box once.
    """
    return _encode_distinct(codec, [box for fam in build_families(cfg).values() for box in fam])


@functools.lru_cache(maxsize=1)
def _twin_rows(codec: BoxCodec, cfg: ProbeConfig) -> Mapping[tuple[str, float], tuple[np.ndarray, ...]]:
    """Encodings of the :func:`_twin_boxes` columns, with the same keys.

    Kept apart from :func:`_family_rows`, so a metric that reads no twin
    encodes none.
    """
    twins = _twin_boxes(cfg)
    columns = [column for cols in twins.values() for column in cols]
    rows = iter(np.split(_encode_distinct(codec, [box for column in columns for box in column]), len(columns)))
    return MappingProxyType({key: tuple(next(rows) for _ in cols) for key, cols in twins.items()})


def _transform_gap(codec: BoxCodec, kind: str, box: OrientedBox, transform: str, delta: float) -> float:
    """Encoding (``kind`` "target") or loss ("loss") gap summed over the
    transformed twins of one box: the scalar reference that
    :func:`replay_witness` recomputes a witness with."""
    enc = codec.encode(box)
    gap = 0.0
    for other in _transformed(box, transform, delta):
        if kind == "target":
            gap += float(np.max(np.abs(enc - codec.encode(other))))
        else:
            gap += codec.loss(enc, codec.encode(other))
    return gap


def _probe_continuity(codec: BoxCodec, kind: str, transform: str, cfg: ProbeConfig, tol: float) -> MetricResult:
    """Each step's gaps as one array, equal to :func:`_transform_gap` per box.

    Per twin column, the gap is the row-wise max |enc - twin| ("target") or
    ``loss_many`` ("loss"); the columns are added from 0.0, left to right.
    The witness is the first box with the largest gap, as a loop keeping
    strictly larger gaps picks it, and a NaN gap is never picked.
    """
    members = [(fam, box) for fam, boxes in build_families(cfg).items() for box in boxes]
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
            fam, box = members[i]
            worst = StepGap(
                delta, float(gaps[i]),
                {"family": fam, "box": _box_params(box), "transform": transform, "delta": delta},
            )
        steps.append(worst)
    return _verdict(f"{kind}-{transform}", steps, tol)


def probe_target_continuity(codec: BoxCodec, transform: str, cfg: ProbeConfig) -> MetricResult:
    """Worst encoding gap per step; aspect sums the gap over both members."""
    return _probe_continuity(codec, "target", transform, cfg, TARGET_GAP_TOL)


def probe_loss_continuity(codec: BoxCodec, transform: str, cfg: ProbeConfig) -> MetricResult:
    """Worst loss between the encodings of a box and its perturbed twin."""
    return _probe_continuity(codec, "loss", transform, cfg, LOSS_TOL)


def _worst_decoding_gap(codec: BoxCodec, boxes: list[OrientedBox], encodings: np.ndarray) -> tuple[int, float]:
    """Row and value of the worst 1 - IoU(box, decode(row)) over ``encodings``.

    The rows come in equal runs per box of ``boxes``.  They are decoded in
    one ``decode_many`` call and scored in one :func:`iou_many` call, both
    equal to the scalar path bit for bit, and the first worst row is the one
    a loop keeping strictly larger gaps would pick.
    """
    runs = len(encodings) // len(boxes)
    sources = np.repeat(vertices_many([_box_params(b) for b in boxes]), runs, axis=0)
    decoded = vertices_many(codec.decode_many(encodings))
    gaps = 1.0 - iou_many(sources, decoded)
    i = int(np.argmax(gaps))
    return i, float(gaps[i])


def check_decoding_completeness(codec: BoxCodec, cfg: ProbeConfig) -> MetricResult:
    """Worst 1 - IoU(x, decode(encode(x))) over all families."""
    members = [(fam, box) for fam, boxes in build_families(cfg).items() for box in boxes]
    boxes = [box for _, box in members]
    i, gap = _worst_decoding_gap(codec, boxes, _family_rows(codec, cfg))
    worst = StepGap(0.0, gap, {"family": members[i][0], "box": _box_params(boxes[i])})
    verdict = "pass" if worst.gap <= COMPLETENESS_TOL else "fail"
    return MetricResult("decoding-completeness", [worst], verdict, worst.witness)


def probe_decoding_robustness(codec: BoxCodec, cfg: ProbeConfig) -> MetricResult:
    """Worst 1 - IoU(x, decode(encode(x) + d)) over random unit directions."""
    perturbation = cfg.perturbation
    fams, boxes, deltas = [], [], []
    for fi, (fam, fam_boxes) in enumerate(build_families(cfg).items()):
        rng = _rng(cfg.seed, 202, fi)
        for box in fam_boxes:
            dirs = rng.standard_normal((cfg.directions, codec.dim))
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            fams.append(fam)
            boxes.append(box)
            deltas.append(perturbation * (dirs / np.where(norms == 0.0, 1.0, norms)))
    rows = _family_rows(codec, cfg)
    encodings = np.repeat(rows, cfg.directions, axis=0) + np.concatenate(deltas)
    i, gap = _worst_decoding_gap(codec, boxes, encodings)
    b, d = divmod(i, cfg.directions)
    worst = StepGap(
        perturbation, gap,
        {"family": fams[b], "box": _box_params(boxes[b]), "perturbation": [float(v) for v in deltas[b][d]]},
    )
    verdict = "pass" if worst.gap <= ROBUSTNESS_K * perturbation else "fail"
    notes = ""
    if verdict == "fail":
        # distinguish a vanishing (sub-linear but continuous) response from
        # true decoding ambiguity: shrink the worst perturbation and re-decode
        shrunk = [1.0 - iou(boxes[b], codec.decode(rows[b] + deltas[b][d] / f)) for f in (10.0, 100.0)]
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
    box = OrientedBox(*witness["box"])
    if metric.startswith(("target-", "loss-")):
        return _transform_gap(codec, metric.partition("-")[0], box, witness["transform"], witness["delta"])
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
    groups = codec.parameter_groups()
    if not groups:
        return {}
    rng = _rng(cfg.seed, 303)
    boxes = []
    for i in range(max(cfg.samples, 32)):
        a = _random_aspect(rng)
        # half the sample sits near the horizontal boundary so codecs with a
        # jump there pay for it, mirroring how hard a regressor finds them
        theta = float(rng.uniform(0.0, math.pi)) if i % 2 else float(rng.normal(0.0, 2e-3))
        base = normalize_box(OrientedBox(0.0, 0.0, a, 1.0, theta))
        boxes.append(
            OrientedBox(
                float(rng.uniform(-0.25, 0.25)),
                float(rng.uniform(-0.25, 0.25)),
                base.w_side,
                base.h_side,
                base.theta,
            )
        )
    noise = rng.normal(0.0, 1e-3, size=len(boxes))
    rows = codec.encode_many(boxes + [rotate(b, float(e)) for b, e in zip(boxes, noise)])
    truths, preds = rows[: len(boxes)], rows[len(boxes) :]
    out = {}
    for gname, idxs in groups.items():
        vals = []
        for i in idxs:
            spread = float(np.max(truths[:, i]) - np.min(truths[:, i]))
            if spread == 0.0:
                continue
            vals.append(nae(preds[:, i], truths[:, i]))
        if vals:
            out[gname] = float(np.mean(vals))
    return out


def run_audit(codecs: list[BoxCodec], cfg: ProbeConfig) -> list[MetricReport]:
    """All six metrics for every codec, plus NAE / ratio-sensitivity extras.

    The metrics of a codec share one build of the families and their twins
    (:func:`build_families`, :func:`_twin_boxes`) and one encoding of each
    distinct family box and twin (:func:`_family_rows`, :func:`_twin_rows`).
    """
    from cobb.geometry import HorizontalBox
    from cobb.targets import sensitivity_probe

    reports = []
    for codec in codecs:
        rep = MetricReport(codec=codec.name, seed=cfg.seed)
        rep.metrics.append(probe_target_continuity(codec, "rotation", cfg))
        rep.metrics.append(probe_target_continuity(codec, "aspect", cfg))
        rep.metrics.append(probe_loss_continuity(codec, "rotation", cfg))
        rep.metrics.append(probe_loss_continuity(codec, "aspect", cfg))
        rep.metrics.append(check_decoding_completeness(codec, cfg))
        rep.metrics.append(probe_decoding_robustness(codec, cfg))
        rep.extras["nae"] = _nae_summary(codec, cfg)
        if codec.name in ("cobb", "cobb-ln"):
            square = HorizontalBox(0.0, 0.0, 1.0, 1.0)
            rep.extras["ratio_sensitivity"] = {
                "r_ln@1e-3": sensitivity_probe("r_ln", 1e-3, 1e-4, square),
                "f_ln_ra@1e-3": sensitivity_probe("f_ln_of_ra", 1e-3, 1e-4, square),
            }
        reports.append(rep)
    return reports
