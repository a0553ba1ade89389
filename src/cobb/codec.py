"""The continuous OBB codec.

An oriented box maps to nine numbers: its outer horizontal box (xc, yc, w, h),
the sliding ratio ``rs`` of the second-smallest sorted vertex coordinate along
the longer HBB dimension, and four IoU scores that disambiguate the four
distinct boxes sharing one (xc, yc, w, h, rs).  The pairwise IoUs of those
four candidates have closed forms; every entry is validated against the
polygon-clipping oracle in :mod:`cobb.geometry`.  Decoding reads the chosen
candidate rectangle in closed form from its two edge vectors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from cobb.errors import DegenerateGeometryError, InvalidArgumentError
from cobb.geometry import (
    ConvexQuad,
    HorizontalBox,
    OrientedBox,
    _rowwise,
    iou,
    oriented_many,
    outer_hbb,
    vertices_of,
)

# Text format of every number written to a report or CSV: 17 significant
# digits read back as the same float64.
FLOAT_FMT = "%.17g"

_RS_CLAMP_TOL = 1e-12

# Squared HBB extents the closed forms are evaluated on: normal floats, with
# room for the sums of four such products in their denominators.  Outside it
# they lose every digit (an overflowed sum turns an IoU into 0) or divide by
# an underflowed zero.
_SQUARE_MIN, _SQUARE_MAX = sys.float_info.min, sys.float_info.max / 16.0


@dataclass(frozen=True)
class CobbVector:
    """Nine-parameter encoding: outer HBB, sliding ratio, four IoU scores."""

    xc: float
    yc: float
    w: float
    h: float
    rs: float
    scores: tuple[float, float, float, float]

    def as_tuple(self) -> tuple[float, ...]:
        return (self.xc, self.yc, self.w, self.h, self.rs) + self.scores


def _clamp_rs(rs: float, tol: float = _RS_CLAMP_TOL) -> float:
    if not math.isfinite(rs) or rs < -tol or rs > 0.5 + tol:
        raise InvalidArgumentError(f"sliding ratio outside [0, 0.5]: {rs!r}")
    return min(max(rs, 0.0), 0.5)


def sliding_ratio(box: OrientedBox) -> float:
    """Gap between the two smallest sorted vertex coordinates, normalized.

    Uses x-coordinates over w when the outer HBB is taller than wide,
    y-coordinates over h otherwise.  The gap has the closed form
    ``min(w_side*s, h_side*c)`` along y and ``min(w_side*c, h_side*s)``
    along x (``c, s = cos theta, sin theta``): no absolute coordinate and no
    subtraction, so it keeps its precision however far the box sits from
    the origin.
    """
    hbb = outer_hbb(box)
    if hbb.w <= 0.0 or hbb.h <= 0.0:
        raise DegenerateGeometryError("zero-extent outer HBB")
    c, s = math.cos(box.theta), math.sin(box.theta)
    if hbb.w < hbb.h:
        rs = min(box.w_side * c, box.h_side * s) / hbb.w
    else:
        rs = min(box.w_side * s, box.h_side * c) / hbb.h
    return min(max(rs, 0.0), 0.5)


def slide_gaps(w: float, h: float, rs: float) -> tuple[float, float]:
    """Gaps (w/2 - x_s, h/2 - y_s) of the sliding vertices from the HBB corners.

    Computed without cancellation, so a needle candidate's short side keeps
    its relative precision as rs goes to 0.
    """
    rs = _clamp_rs(rs)
    if w >= h:
        k = 4.0 * (h / w) ** 2 * rs * (1.0 - rs)
        return 0.5 * w * k / (1.0 + math.sqrt(max(0.0, 1.0 - k))), rs * h
    k = 4.0 * (w / h) ** 2 * rs * (1.0 - rs)
    return rs * w, 0.5 * h * k / (1.0 + math.sqrt(max(0.0, 1.0 - k)))


def four_candidates(hbb: HorizontalBox, rs: float) -> tuple[ConvexQuad, ...]:
    """The four quads sharing ``(hbb, rs)``.

    Each candidate has one vertex per HBB side; the four sign choices of the
    two slide offsets give the four members.  Index order follows the
    construction: 0 and 3 are the pair whose area ratio against the HBB is
    at most one half, 1 and 2 the pair at least one half.  Decoding needs
    neither the quads nor their areas.
    """
    if hbb.w <= 0.0 or hbb.h <= 0.0:
        raise InvalidArgumentError("HBB extents must be positive")
    rs = _clamp_rs(rs)
    xc, yc, w, h = hbb.xc, hbb.yc, hbb.w, hbb.h
    gx, gy = slide_gaps(w, h, rs)
    xs, ys = 0.5 * w - gx, 0.5 * h - gy
    top, bot = yc - 0.5 * h, yc + 0.5 * h
    lef, rig = xc - 0.5 * w, xc + 0.5 * w
    return (
        ConvexQuad.from_points([(xc - xs, top), (rig, yc + ys), (xc + xs, bot), (lef, yc - ys)]),
        ConvexQuad.from_points([(xc + xs, top), (rig, yc + ys), (xc - xs, bot), (lef, yc - ys)]),
        ConvexQuad.from_points([(xc - xs, top), (rig, yc - ys), (xc + xs, bot), (lef, yc + ys)]),
        ConvexQuad.from_points([(xc + xs, top), (rig, yc - ys), (xc - xs, bot), (lef, yc + ys)]),
    )


def classify(box: OrientedBox) -> int:
    """Candidate index reproducing the box: argmax oracle IoU, lowest on ties.

    The box and the candidates are compared centred on the origin (the HBB
    centre is the box centre).  IoU does not depend on where the pair sits,
    but the clipping arithmetic loses precision far from the origin.
    """
    hbb = outer_hbb(box)
    cands = four_candidates(HorizontalBox(0.0, 0.0, hbb.w, hbb.h), sliding_ratio(box))
    q = vertices_of(OrientedBox(0.0, 0.0, box.w_side, box.h_side, box.theta))
    best, best_iou = 0, -1.0
    for i, quad in enumerate(cands):
        v = iou(q, quad) if quad.area > 0.0 else 0.0
        if v > best_iou:
            best, best_iou = i, v
    return best


def _closed_forms(w: float, h: float, rs: float) -> tuple[float, float, float, float]:
    """Pairwise candidate IoUs (0-1, 0-2, 0-3, 1-2) assuming w >= h."""
    rsx = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * (h * h) / (w * w) * rs * (1.0 - rs))))
    rsy = rs
    l1 = math.hypot(rsx * w, rsy * h)
    l2 = math.hypot((1.0 - rsx) * w, (1.0 - rsy) * h)
    l3 = math.hypot(rsx * w, (1.0 - rsy) * h)
    l4 = math.hypot((1.0 - rsx) * w, rsy * h)

    i01 = (1.0 - ((1.0 - 2.0 * rsx) * rsx * w * w) / ((1.0 - rsy) * h * h)) * l1 * l2
    iou01 = i01 / (l1 * l2 + l3 * l4 - i01)

    i02 = (1.0 - ((1.0 - 2.0 * rsy) * rsy * h * h) / ((1.0 - rsx) * w * w)) * l1 * l2
    iou02 = i02 / (l1 * l2 + l3 * l4 - i02)

    i03 = (rsx + rsy - 2.0 * rsx * rsy) ** 2 / ((1.0 - rsx) * (1.0 - rsy)) * w * h / 2.0
    iou03 = i03 / (2.0 * l1 * l2 - i03) if i03 != 0.0 else 0.0

    h1 = 0.5 * w - (0.5 - rsy) / (1.0 - rsy) * rsx * w
    h2 = 0.5 * h - (0.5 - rsx) / (1.0 - rsx) * rsy * h
    tana = ((0.5 - rsx) / (1.0 - rsx) * l4) / (l3 / (2.0 * (1.0 - rsy)))
    tanb = ((0.5 - rsy) / (1.0 - rsy) * l3) / (l4 / (2.0 * (1.0 - rsx)))
    if tana * tanb != 0.0:
        i12 = 2.0 * tana * tanb / (tana + tanb) * (h1 * h1 + h2 * h2) + 2.0 * h1 * h2
        iou12 = i12 / (2.0 * l3 * l4 - i12)
    else:
        iou12 = 2.0 * h1 * h2 / (2.0 * l3 * l4 - 2.0 * h1 * h2)
    return iou01, iou02, iou03, iou12


def iou_matrix(w: float, h: float, rs: float):
    """4x4 matrix of pairwise candidate IoUs.

    Valid for positive extents and rs in [0, 0.5], continuous on that whole
    range (at rs = 0 the below-half candidates degenerate to the HBB
    diagonals and their rows go to [1, 0, 0, 0] / [0, 0, 0, 1]).  For a
    wider-than-tall HBB the closed forms apply directly; otherwise they are
    evaluated on the transposed HBB, which swaps the roles of the 0-1 and 0-2
    pairs (candidates 1 and 2 trade places under the x/y reflection).
    Extents whose squares leave the normal float range, or whose closed
    forms are not finite, raise :class:`DegenerateGeometryError`.
    """
    if not (math.isfinite(w) and math.isfinite(h)) or w <= 0.0 or h <= 0.0:
        raise InvalidArgumentError("HBB extents must be positive")
    rs = _clamp_rs(rs)
    if not (_SQUARE_MIN <= w * w <= _SQUARE_MAX and _SQUARE_MIN <= h * h <= _SQUARE_MAX):
        raise DegenerateGeometryError(f"HBB extents {w!r} x {h!r} out of range for the candidate IoUs")
    if w >= h:
        m01, m02, m03, m12 = _closed_forms(w, h, rs)
    else:
        m02, m01, m03, m12 = _closed_forms(h, w, rs)
    if not all(map(math.isfinite, (m01, m02, m03, m12))):
        raise DegenerateGeometryError(f"candidate IoUs of a {w!r} x {h!r} HBB at rs={rs!r} are not finite")
    clamp = lambda v: 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)
    m01, m02, m03, m12 = clamp(m01), clamp(m02), clamp(m03), clamp(m12)
    return [
        [1.0, m01, m02, m03],
        [m01, 1.0, m12, m02],
        [m02, m12, 1.0, m01],
        [m03, m02, m01, 1.0],
    ]


def encode(box: OrientedBox) -> CobbVector:
    """Encode a box: outer HBB, sliding ratio, and its candidate's score row."""
    hbb = outer_hbb(box)
    rs = sliding_ratio(box)
    row = iou_matrix(hbb.w, hbb.h, rs)[classify(box)]
    return CobbVector(hbb.xc, hbb.yc, hbb.w, hbb.h, rs, tuple(row))


def select_candidate(scores) -> int:
    """Argmax score; exact ties prefer candidates 1 and 2, then lower index.

    Encoded rows tie only across coincident candidates, where any choice is
    equivalent.  Preferring the pair that covers at least half the HBB
    guards externally supplied all-ones score vectors at rs = 0, where 0 and
    3 degenerate to HBB diagonals and plain lowest-index would pick a
    zero-area quad; unlike comparing areas, it does not depend on where the
    HBB sits.
    """
    return min(range(4), key=lambda i: (-scores[i], i in (0, 3), i))


def candidate_box(hbb: HorizontalBox, rs: float, i: int) -> OrientedBox:
    """Candidate ``i`` of ``(hbb, rs)`` as a rectangle, in closed form.

    The edge vectors come from the HBB extents and :func:`slide_gaps`, so the
    sides and the angle do not depend on where the HBB sits and a needle's
    short side keeps its relative precision; the angle is read from the
    longer edge, which stays well defined as a candidate thins towards a
    diagonal.  A zero-area candidate raises
    :class:`DegenerateGeometryError`.
    """
    if hbb.w <= 0.0 or hbb.h <= 0.0 or i not in range(4):
        raise InvalidArgumentError(f"need positive HBB extents and index 0..3, got {hbb}, {i!r}")
    gx, gy = slide_gaps(hbb.w, hbb.h, rs)
    fx, fy = hbb.w - gx, hbb.h - gy  # hw + x_s, hh + y_s
    # edges top -> right and right -> bottom (the bottom vertex is -top); the
    # top vertex is at +x_s in candidates 1 and 3, the right one at +y_s in 0, 1
    ax, bx = (gx, -fx) if i in (1, 3) else (fx, -gx)
    ay, by = (fy, gy) if i in (0, 1) else (gy, fy)
    la, lb = math.hypot(ax, ay), math.hypot(bx, by)
    if la < lb:
        ax, ay, la, lb = bx, by, lb, la
    if lb == 0.0:
        raise DegenerateGeometryError(f"candidate {i} of {hbb}, rs={rs!r} has zero area")
    return OrientedBox(hbb.xc, hbb.yc, la, lb, math.atan2(-ay, ax))


def decode(v: CobbVector) -> OrientedBox:
    """Decode nine parameters to the highest-scoring candidate box."""
    for s in v.scores:
        if not math.isfinite(s):
            raise InvalidArgumentError(f"non-finite score {s!r}")
    if not (v.w > 0.0 and v.h > 0.0):
        raise InvalidArgumentError("decoded HBB extents must be positive")
    hbb = HorizontalBox(v.xc, v.yc, v.w, v.h)
    rs = _clamp_rs(v.rs, tol=math.inf)
    return candidate_box(hbb, rs, select_candidate(v.scores))


# ---------------------------------------------------------------------------
# Relation between the sliding ratio and the area ratio


def _aspect(w: float, h: float) -> float:
    if not (math.isfinite(w) and math.isfinite(h)) or w <= 0.0 or h <= 0.0:
        raise InvalidArgumentError("HBB extents must be positive")
    return min(w / h, h / w)


def rs_from_ra(ra: float, w: float, h: float) -> float:
    """Sliding ratio of the boxes whose area is ``ra`` times their HBB's.

    ``ra`` must lie in (0, 1]; the infimum 0 is the thin diagonal limit and is
    not attainable by a valid box.
    """
    if not math.isfinite(ra) or ra <= 0.0 or ra > 1.0 + _RS_CLAMP_TOL:
        raise InvalidArgumentError(f"area ratio outside (0, 1]: {ra!r}")
    ra = min(ra, 1.0)
    r2 = _aspect(w, h) ** 2
    disc = (r2 + 1.0) ** 2 - 16.0 * r2 * ra * (1.0 - ra)
    rhs = (r2 + 1.0 - math.sqrt(max(0.0, disc))) / (2.0 * r2)
    rhs = min(max(rhs, 0.0), 1.0)
    return 0.5 * (1.0 - math.sqrt(1.0 - rhs))


# ---------------------------------------------------------------------------
# Array forms of encode and decode.  Each repeats the scalar float operations
# in the same order, so every row equals the scalar result bit for bit.  They
# return None when a row might be one the scalar path rejects; callers then
# run the scalar path, which raises its own error for the first such row.

# entries of iou_matrix rows, as indices into (1, m01, m02, m03, m12)
_MATRIX_ENTRIES = np.array([[0, 1, 2, 3], [1, 0, 4, 2], [2, 4, 0, 1], [3, 2, 1, 0]])
_TIE_ORDER = np.array([1, 2, 0, 3])  # select_candidate's preference among equal scores


def _clamp_many(x, lo, hi):
    """``min(max(x, lo), hi)`` per element, keeping Python's pick on ties."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def _slide_gaps_many(w, h, rs):
    """:func:`slide_gaps` per row, for rs already in [0, 0.5]."""
    wide = w >= h
    big, small = np.where(wide, w, h), np.where(wide, h, w)
    k = 4.0 * _rowwise(lambda v: v ** 2, small / big) * rs * (1.0 - rs)
    g = 0.5 * big * k / (1.0 + np.sqrt(np.where(1.0 - k > 0.0, 1.0 - k, 0.0)))
    return np.where(wide, g, rs * w), np.where(wide, rs * h, g)


# Margin below 1 at which two candidates count as one.  The sign index picks
# the candidate the box is; the oracle's argmax picks another only where a
# second candidate scores 1 up to rounding noise (1 - IoU <= 1.4e-15 on
# 50,000 boundary-heavy pixel boxes: theta 0, squares at pi/4, theta at the
# diagonal angles), and there the scalar :func:`classify` decides.  With this
# margin no row of those boxes differs from :func:`encode`; at 1e-15, 8 do.
_TIE_MARGIN = 1e-9


def _classify_many(p, c, s, m):
    """:func:`classify` per row of ``(N, 5)`` constructed-box fields, from
    each row's cos ``c``, sin ``s`` and ``(1, m01, m02, m03, m12)``.

    The signs of the top vertex's x and of the right vertex's y, relative to
    the centre, name the candidate in :func:`four_candidates` order.  Rows
    whose ``iou_matrix`` row at that index has a second entry within
    ``_TIE_MARGIN`` of 1 take the pick of :func:`classify`.
    """
    _, _, w_side, h_side, _ = p.T
    index = (w_side * c - h_side * s > 0.0) + 2 * (h_side * c - w_side * s < 0.0)
    ties = (np.take_along_axis(m, _MATRIX_ENTRIES[index], axis=1) >= 1.0 - _TIE_MARGIN).sum(axis=1) >= 2
    for i in np.flatnonzero(ties):
        index[i] = classify(OrientedBox(*p[i].tolist()))
    return index


def _closed_forms_many(w, h, rs):
    """:func:`_closed_forms` per row (w >= h)."""
    d = 1.0 - 4.0 * (h * h) / (w * w) * rs * (1.0 - rs)
    rsx = 0.5 * (1.0 - np.sqrt(np.where(d > 0.0, d, 0.0)))
    rsy = rs
    l1 = _rowwise(math.hypot, rsx * w, rsy * h)
    l2 = _rowwise(math.hypot, (1.0 - rsx) * w, (1.0 - rsy) * h)
    l3 = _rowwise(math.hypot, rsx * w, (1.0 - rsy) * h)
    l4 = _rowwise(math.hypot, (1.0 - rsx) * w, rsy * h)

    i01 = (1.0 - ((1.0 - 2.0 * rsx) * rsx * w * w) / ((1.0 - rsy) * h * h)) * l1 * l2
    iou01 = i01 / (l1 * l2 + l3 * l4 - i01)

    i02 = (1.0 - ((1.0 - 2.0 * rsy) * rsy * h * h) / ((1.0 - rsx) * w * w)) * l1 * l2
    iou02 = i02 / (l1 * l2 + l3 * l4 - i02)

    i03 = _rowwise(lambda v: v ** 2, rsx + rsy - 2.0 * rsx * rsy) / ((1.0 - rsx) * (1.0 - rsy)) * w * h / 2.0
    iou03 = np.where(i03 != 0.0, i03 / (2.0 * l1 * l2 - i03), 0.0)

    h1 = 0.5 * w - (0.5 - rsy) / (1.0 - rsy) * rsx * w
    h2 = 0.5 * h - (0.5 - rsx) / (1.0 - rsx) * rsy * h
    tana = ((0.5 - rsx) / (1.0 - rsx) * l4) / (l3 / (2.0 * (1.0 - rsy)))
    tanb = ((0.5 - rsy) / (1.0 - rsy) * l3) / (l4 / (2.0 * (1.0 - rsx)))
    i12 = 2.0 * tana * tanb / (tana + tanb) * (h1 * h1 + h2 * h2) + 2.0 * h1 * h2
    iou12 = np.where(
        tana * tanb != 0.0,
        i12 / (2.0 * l3 * l4 - i12),
        2.0 * h1 * h2 / (2.0 * l3 * l4 - 2.0 * h1 * h2),
    )
    return iou01, iou02, iou03, iou12


def _encode_many(p):
    """Row-wise :func:`encode` of ``(N, 5)`` constructed-box fields: the
    ``(N, 9)`` rows ``(xc, yc, w, h, rs, s0, s1, s2, s3)``, or None."""
    cx, cy, w_side, h_side, theta = p.T
    c, s = _rowwise(math.cos, theta), _rowwise(math.sin, theta)
    # outer_hbb
    w = w_side * np.abs(c) + h_side * np.abs(s)
    h = w_side * np.abs(s) + h_side * np.abs(c)
    if not (np.isfinite(w) & np.isfinite(h) & (w > 0.0) & (h > 0.0)).all():
        return None
    ww, hh = w * w, h * h
    if not ((_SQUARE_MIN <= ww) & (ww <= _SQUARE_MAX) & (_SQUARE_MIN <= hh) & (hh <= _SQUARE_MAX)).all():
        return None  # iou_matrix rejects the extents
    # sliding_ratio
    tall = w < h
    a, b = np.where(tall, w_side * c, w_side * s), np.where(tall, h_side * s, h_side * c)
    rs = _clamp_many(np.where(b < a, b, a) / np.where(tall, w, h), 0.0, 0.5)
    # iou_matrix(w, h, rs)[classify(box)]
    wide = w >= h
    m01, m02, m03, m12 = _closed_forms_many(np.where(wide, w, h), np.where(wide, h, w), rs)
    m01, m02 = np.where(wide, m01, m02), np.where(wide, m02, m01)
    m = np.stack([np.ones_like(w), m01, m02, m03, m12], axis=1)
    if not np.isfinite(m).all():  # where iou_matrix raises
        return None
    m = np.where(m < 0.0, 0.0, np.where(m > 1.0, 1.0, m))
    index = _classify_many(p, c, s, m)
    scores = np.take_along_axis(m, _MATRIX_ENTRIES[index], axis=1)
    return np.column_stack([cx, cy, w, h, rs, scores])


def _decode_many(xc, yc, w, h, rs, scores):
    """Row-wise ``decode(CobbVector(xc, yc, w, h, rs, scores))`` as
    ``(N, 5)`` constructed-box fields, or None."""
    fields = np.column_stack([xc, yc, w, h, rs, scores])
    if not (np.isfinite(fields).all() and (w > 0.0).all() and (h > 0.0).all()):
        return None
    rs = _clamp_many(rs, 0.0, 0.5)
    # select_candidate
    best = scores == scores.max(axis=1, keepdims=True)
    i = _TIE_ORDER[np.argmax(best[:, _TIE_ORDER], axis=1)]
    # candidate_box
    gx, gy = _slide_gaps_many(w, h, rs)
    fx, fy = w - gx, h - gy
    # the top vertex is at +x_s in candidates 1 and 3, the right one at +y_s in 0, 1
    top_plus, right_plus = (i == 1) | (i == 3), i <= 1
    ax, bx = np.where(top_plus, gx, fx), np.where(top_plus, -fx, -gx)
    ay, by = np.where(right_plus, fy, gy), np.where(right_plus, gy, fy)
    la, lb = _rowwise(math.hypot, ax, ay), _rowwise(math.hypot, bx, by)
    swap = la < lb
    ax, ay, la, lb = np.where(swap, bx, ax), np.where(swap, by, ay), np.where(swap, lb, la), np.where(swap, la, lb)
    if (lb == 0.0).any():
        return None
    return oriented_many(np.stack([xc, yc, la, lb, _rowwise(math.atan2, -ay, ax)], axis=1))
