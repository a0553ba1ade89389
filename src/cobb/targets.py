"""Proposal-relative regression targets and the composite loss.

The HBB part follows the standard two-stage detector bias (center offsets
normalized by proposal extents, log extent ratios).  The sliding ratio enters
either as ``r_sig = 2*rs`` (bounded head) or the log form ``r_ln`` whose sign
tracks the area-ratio branch.  Scores are raised to a power set per variant
(``DEFAULT_LAMBDA``) to sharpen the gap between the true candidate and the
rest.  A proposal with a nonzero angle reduces to the horizontal rule after
de-rotating both shapes about the proposal center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cobb import codec
from cobb.errors import DegenerateGeometryError, InvalidArgumentError
from cobb.geometry import HorizontalBox, OrientedBox, _Arrays, _Floats, _require_finite, iou, rotate_about

DEFAULT_LAMBDA = {"sig": 2.0, "ln": 1.0}

_EXP_MAX = math.log(np.finfo(float).max)  # math.exp is finite up to here


@dataclass(frozen=True)
class Proposal:
    """A detector proposal; ``theta_p == 0`` is the horizontal case."""

    xp: float
    yp: float
    wp: float
    hp: float
    theta_p: float

    def __post_init__(self):
        _require_finite("proposal field", self.xp, self.yp, self.wp, self.hp, self.theta_p)
        if not (self.wp > 0.0 and self.hp > 0.0):
            raise DegenerateGeometryError("proposal extents must be positive")

    @staticmethod
    def horizontal(xp, yp, wp, hp) -> "Proposal":
        return Proposal(xp, yp, wp, hp, 0.0)

    @staticmethod
    def oriented(xp, yp, wp, hp, theta_p) -> "Proposal":
        return Proposal(xp, yp, wp, hp, theta_p)


@dataclass(frozen=True)
class TargetVector:
    tx: float
    ty: float
    tw: float
    th: float
    rt: float
    st: tuple[float, float, float, float]
    variant: str
    lam: float

    def __post_init__(self):
        if type(self.st) is not tuple:  # a list would break as_tuple() and hash()
            try:
                object.__setattr__(self, "st", tuple(self.st))
            except TypeError:  # not a sequence
                raise InvalidArgumentError(f"scores must be finite numbers, got {self.st!r}") from None

    def as_tuple(self) -> tuple[float, ...]:
        return (self.tx, self.ty, self.tw, self.th, self.rt) + self.st


def _rt_from_rs(rs, ra, variant: str, xp=_Floats):
    """The ratio target of sliding ratio ``rs`` at area ratio ``ra``."""
    if variant == "sig":
        return 2.0 * rs
    if variant == "ln":
        # log2's argument: rs below the area ratio one half, 1 - rs from
        # there up; 0 (target -inf) where rs is below and not positive
        x = xp.where(ra < 0.5, xp.where(rs > 0.0, rs, 0.0), 1.0 - rs)
        return xp.where(x != 0.0, 1.0 + xp.log2(xp.where(x != 0.0, x, 1.0)), -math.inf)
    raise InvalidArgumentError(f"unknown variant {variant!r}")


def _rs_from_rt(rt, variant: str, xp=_Floats):
    """Invert the ratio target; out-of-range predictions are clamped."""
    if variant == "sig":
        return 0.5 * xp.clamp(rt, 0.0, 1.0)
    if variant == "ln":
        rt = xp.where(1.0 < rt, 1.0, rt)
        e = xp.pow(2.0, rt - 1.0)
        # rt <= 0 comes from the ra < 0.5 branch, rt >= 0 from the other;
        # both agree at the rs = 0.5 merge point.
        return xp.where(rt <= 0.0, xp.where(0.5 < e, 0.5, e), 1.0 - e)
    raise InvalidArgumentError(f"unknown variant {variant!r}")


def _target(xc, yc, w, h, rs, ra, scores, p: Proposal, variant: str, xp=_Floats):
    """The target of the HBB ``(xc, yc, w, h)``, sliding ratio ``rs``, area
    ratio ``ra`` and four ``scores`` against proposal ``p``: ``tx, ty, tw,
    th, rt`` and the tuple of powered scores."""
    lam = DEFAULT_LAMBDA[variant]
    tw, th, rt = xp.log(w / p.wp), xp.log(h / p.hp), _rt_from_rs(rs, ra, variant, xp)
    return (xc - p.xp) / p.wp, (yc - p.yp) / p.hp, tw, th, rt, tuple(xp.pow(s, lam) for s in scores)


def _hbb_of(tx, ty, tw, th, rt, p: Proposal, variant: str, xp=_Floats):
    """Invert :func:`_target` up to the scores: ``(xc, yc, w, h, rs)``."""
    return tx * p.wp + p.xp, ty * p.hp + p.yp, p.wp * xp.exp(tw), p.hp * xp.exp(th), _rs_from_rt(rt, variant, xp)


def encode_target(gt: OrientedBox, proposal: Proposal, variant: str) -> TargetVector:
    """Regression target of a ground-truth box relative to a proposal."""
    lam = DEFAULT_LAMBDA.get(variant)
    if lam is None:
        raise InvalidArgumentError(f"unknown variant {variant!r}")
    if proposal.theta_p != 0.0:
        gt = rotate_about(gt, proposal.xp, proposal.yp, -proposal.theta_p)
    v = codec.encode(gt)
    rw, rh = v.w / proposal.wp, v.h / proposal.hp
    if not (0.0 < rw < math.inf and 0.0 < rh < math.inf):
        raise DegenerateGeometryError(f"degenerate ground-truth HBB: extent ratios {rw!r}, {rh!r} to the proposal")
    ra = gt.area / (v.w * v.h)
    return TargetVector(*_target(v.xc, v.yc, v.w, v.h, v.rs, ra, v.scores, proposal, variant), variant, lam)


def decode_target(t: TargetVector, proposal: Proposal) -> OrientedBox:
    """Invert :func:`encode_target`.

    Recovers the nine parameters and decodes them as :func:`codec.decode`
    does, so the candidate class comes solely from the score argmax; the
    ratio target only carries the sliding ratio (its sign picks the
    inversion branch for the log variant).
    """
    _require_finite("target component", *t.as_tuple())
    try:
        hbb = _hbb_of(t.tx, t.ty, t.tw, t.th, t.rt, proposal, t.variant)
    except OverflowError:
        raise DegenerateGeometryError(f"extent targets {t.tw!r}, {t.th!r} overflow") from None
    box = codec._decode(*hbb, t.st)
    if proposal.theta_p != 0.0:
        box = rotate_about(box, proposal.xp, proposal.yp, proposal.theta_p)
    return box


def _encode_targets_many(boxes, p: Proposal, variant: str):
    """Row-wise ``encode_target(box, proposal, variant).as_tuple()`` of
    ``(N, 5)`` constructed-box fields, and the mask (see the array forms in
    :mod:`cobb.codec`); an oriented proposal masks every row."""
    v, bad = codec._encode_many(boxes)
    xc, yc, w, h, rs = v[:, :5].T
    rw, rh = w / p.wp, h / p.hp
    # division by zero, or an extent ratio encode_target rejects
    bad |= (p.theta_p != 0.0) | ~((w * h != 0.0) & (0.0 < rw) & (rw < math.inf) & (0.0 < rh) & (rh < math.inf))
    ra = boxes[:, 2] * boxes[:, 3] / (w * h)
    w, h = np.where(bad, p.wp, w), np.where(bad, p.hp, h)  # math.log raises outside its domain
    tx, ty, tw, th, rt, st = _target(xc, yc, w, h, rs, ra, v[:, 5:].T, p, variant, _Arrays)
    return np.column_stack([tx, ty, tw, th, rt, *st]), bad


def _decode_targets_many(rows, p: Proposal, variant: str):
    """Row-wise ``decode_target(TargetVector(*row), proposal)`` of ``(N, 9)``
    target rows as ``(N, 5)`` constructed-box fields, and the mask; an
    oriented proposal masks every row."""
    tx, ty, tw, th, rt = rows[:, :5].T
    # a non-finite component, or an extent target that math.exp overflows on
    bad = (p.theta_p != 0.0) | ~(np.isfinite(rows).all(axis=1) & (tw <= _EXP_MAX) & (th <= _EXP_MAX))
    tw, th = np.where(bad, 0.0, tw), np.where(bad, 0.0, th)  # so that math.exp raises on no masked row
    out, rejected = codec._decode_many(*_hbb_of(tx, ty, tw, th, rt, p, variant, _Arrays), rows[:, 5:])
    return out, bad | rejected


def _smooth_l1(d, xp=_Floats):
    """Smooth-L1 of a difference ``d``, with its knee at 1."""
    d = abs(d)
    return xp.where(d < 1.0, 0.5 * d * d, d - 0.5)


def _loss(terms):
    """The nine smooth-L1 ``terms`` of a target, added as ``(box + ratio) + score``."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8 = terms
    return t0 + t1 + t2 + t3 + t4 + (t5 + t6 + t7 + t8)


def cobb_loss(pred: TargetVector, target: TargetVector) -> float:
    """Smooth-L1 (knee at 1) summed over the box, ratio and score components,
    added as ``(box + ratio) + score``."""
    if pred.variant != target.variant or pred.lam != target.lam:
        raise InvalidArgumentError("pred/target variant or lambda mismatch")
    if len(pred.st) != 4 or len(target.st) != 4:
        raise InvalidArgumentError(f"need four scores, got {len(pred.st)} and {len(target.st)}")
    return _loss([_smooth_l1(a - b) for a, b in zip(pred.as_tuple(), target.as_tuple())])


# ---------------------------------------------------------------------------
# Sensitivity of the decoded box to the scalar ratio parameter


def _decode_ratio_param(fn: str, r: float, hbb: HorizontalBox) -> OrientedBox:
    if fn == "r_ln":
        rs = _rs_from_rt(r, "ln")
        branch_above = r > 0.0
    elif fn == "f_ln_of_ra":
        if r > 1.0:
            raise InvalidArgumentError(f"log area ratio above 1: {r!r}")
        ra = 2.0 ** (r - 1.0)
        rs = codec.rs_from_ra(ra, hbb.w, hbb.h)
        branch_above = ra >= 0.5
    else:
        raise InvalidArgumentError(f"unknown ratio function {fn!r}")
    return codec.candidate_box(hbb, rs, 1 if branch_above else 0)


def sensitivity_probe(variant_fn: str, r: float, eps: float, hbb: HorizontalBox) -> float:
    """Decoded-shape sensitivity (1 - IoU(dec(r), dec(r+eps))) / eps."""
    _require_finite("r", r)
    if not 0.0 < eps < math.inf:
        raise InvalidArgumentError(f"eps must be positive and finite, got {eps!r}")
    a = _decode_ratio_param(variant_fn, r, hbb)
    b = _decode_ratio_param(variant_fn, r + eps, hbb)
    return (1.0 - iou(a, b)) / eps
