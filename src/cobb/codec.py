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
    _Arrays,
    _corners,
    _extents,
    _Floats,
    _from_min_yx,
    _outer_extents,
    _require_finite,
    _require_hbb,
    _rowwise,
    _scalar_rows,
    _wound,
    iou,
    oriented_many,
    outer_hbb,
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

    def __post_init__(self):
        if type(self.scores) is not tuple:  # a list would break as_tuple() and hash()
            try:
                object.__setattr__(self, "scores", tuple(self.scores))
            except TypeError:  # not a sequence
                raise InvalidArgumentError(f"scores must be finite numbers, got {self.scores!r}") from None

    def as_tuple(self) -> tuple[float, ...]:
        return (self.xc, self.yc, self.w, self.h, self.rs) + self.scores


def _clamp_rs(rs: float, tol: float = _RS_CLAMP_TOL) -> float:
    try:
        if math.isfinite(rs) and -tol <= rs <= 0.5 + tol:
            return _Floats.clamp(rs, 0.0, 0.5)
    except TypeError:  # not a real number
        _require_finite("sliding ratio", rs)
        raise
    raise InvalidArgumentError(f"sliding ratio outside [0, 0.5]: {rs!r}")


def sliding_ratio(box: OrientedBox) -> float:
    """Gap between the two smallest sorted vertex coordinates, normalized.

    Uses x-coordinates over w when the outer HBB is taller than wide,
    y-coordinates over h otherwise.  The gap has the closed form
    ``min(w_side*s, h_side*c)`` along y and ``min(w_side*c, h_side*s)``
    along x (``c, s = cos theta, sin theta``): no absolute coordinate and no
    subtraction, so it keeps its precision however far the box sits from
    the origin.
    """
    c, s = math.cos(box.theta), math.sin(box.theta)
    return _sliding_ratio(box.w_side, box.h_side, c, s, *_outer_extents(box.w_side, box.h_side, c, s))


def _sliding_ratio(w_side, h_side, c, s, w, h) -> float:
    """:func:`_ratio` of finite outer HBB extents ``w``, ``h``, with
    :func:`sliding_ratio`'s raise where one of them is zero."""
    if w <= 0.0 or h <= 0.0:
        raise DegenerateGeometryError("zero-extent outer HBB")
    return _ratio(w_side, h_side, c, s, w, h)


def _ratio(w_side, h_side, c, s, w, h, xp=_Floats):
    """The sliding ratio of sides ``w_side``, ``h_side`` at an angle of
    cosine ``c`` and sine ``s``, whose outer HBB is ``w`` x ``h``."""
    a, b, extent = xp.where(w < h, (w_side * c, h_side * s, w), (w_side * s, h_side * c, h))
    return xp.clamp(xp.where(b < a, b, a) / extent, 0.0, 0.5)


def _slide_gaps(w, h, rs, xp=_Floats):
    """Gaps (w/2 - x_s, h/2 - y_s) of the sliding vertices from the HBB
    corners, for ``rs`` already clamped into [0, 0.5]; without cancellation,
    so a needle candidate's short side keeps its precision as rs goes to 0."""
    wide = w >= h
    big, small = xp.where(wide, (w, h), (h, w))
    k = 4.0 * xp.pow(small / big, 2.0) * rs * (1.0 - rs)
    g = 0.5 * big * k / (1.0 + xp.sqrt(xp.where(1.0 - k > 0.0, 1.0 - k, 0.0)))
    return xp.where(wide, (g, rs * h), (rs * w, g))


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
    return _candidates(hbb.xc, hbb.yc, hbb.w, hbb.h, _clamp_rs(rs))


def _candidates(xc, yc, w, h, rs) -> tuple[ConvexQuad, ...]:
    """:func:`four_candidates` of the HBB ``(xc, yc, w, h)`` with positive
    extents, for ``rs`` already clamped into [0, 0.5]."""
    gx, gy = _slide_gaps(w, h, rs)
    xs, ys = 0.5 * w - gx, 0.5 * h - gy
    xl, xr = xc - xs, xc + xs  # x of the top and bottom vertices
    yu, yd = yc - ys, yc + ys  # y of the left and right vertices
    top, bot = yc - 0.5 * h, yc + 0.5 * h
    lef, rig = xc - 0.5 * w, xc + 0.5 * w
    return (
        _wound(xl, top, rig, yd, xr, bot, lef, yu),
        _wound(xr, top, rig, yd, xl, bot, lef, yu),
        _wound(xl, top, rig, yu, xr, bot, lef, yd),
        _wound(xr, top, rig, yu, xl, bot, lef, yd),
    )


def classify(box: OrientedBox) -> int:
    """Candidate index reproducing the box: argmax oracle IoU, lowest on ties.

    The box and the candidates are compared centred on the origin (the HBB
    centre is the box centre).  IoU does not depend on where the pair sits,
    but the clipping arithmetic loses precision far from the origin.  A box
    whose area is below ``_RA_MIN`` of its HBB's is too thin for the oracle
    to measure and takes :func:`_sign_index`, which names it exactly.
    The outer HBB extents and the sliding ratio come from the one cosine
    and sine the corners take.
    """
    w_side, h_side = box.w_side, box.h_side
    c, s = math.cos(box.theta), math.sin(box.theta)
    w, h = _outer_extents(w_side, h_side, c, s)
    rs = _sliding_ratio(w_side, h_side, c, s, w, h)
    if (w_side / w) * (h_side / h) < _RA_MIN:
        return _sign_index(w_side, h_side, c, s)
    q = _from_min_yx(*_corners(0.0, 0.0, w_side, h_side, c, s))
    best, best_iou = 0, -1.0
    for i, quad in enumerate(_candidates(0.0, 0.0, w, h, rs)):
        v = iou(q, quad) if quad.area > 0.0 else 0.0
        if v > best_iou:
            best, best_iou = i, v
    return best


# Box-to-HBB area ratio below which :func:`classify` skips the oracle: its
# clipped areas err by about 1e-16 over this ratio, and near 1e-16 it picks
# the box's mirror image or finds an empty union.  The quad's own area is no
# test of this: at aspect 4.6e-17 it read 8.4e-4 off while the oracle picked
# the wrong candidate.
_RA_MIN = 1e-12


def _sign_index(w_side, h_side, c, s):
    """The candidate a box of sides ``w_side``, ``h_side`` at an angle of
    cosine ``c`` and sine ``s`` is, in :func:`four_candidates` order: the
    signs of its top vertex's x and of its right vertex's y, relative to the
    centre; floats or equal-shape arrays."""
    return (w_side * c - h_side * s > 0.0) + 2 * (h_side * c - w_side * s < 0.0)


def _closed_forms(w, h, rs, xp=_Floats):
    """Pairwise candidate IoUs (0-1, 0-2, 0-3, 1-2) assuming w >= h."""
    d = 1.0 - 4.0 * (h * h) / (w * w) * rs * (1.0 - rs)
    rsx = 0.5 * (1.0 - xp.sqrt(xp.where(d > 0.0, d, 0.0)))
    rsy = rs
    l1 = xp.hypot(rsx * w, rsy * h)
    l2 = xp.hypot((1.0 - rsx) * w, (1.0 - rsy) * h)
    l3 = xp.hypot(rsx * w, (1.0 - rsy) * h)
    l4 = xp.hypot((1.0 - rsx) * w, rsy * h)

    i01 = (1.0 - ((1.0 - 2.0 * rsx) * rsx * w * w) / ((1.0 - rsy) * h * h)) * l1 * l2
    iou01 = i01 / (l1 * l2 + l3 * l4 - i01)

    i02 = (1.0 - ((1.0 - 2.0 * rsy) * rsy * h * h) / ((1.0 - rsx) * w * w)) * l1 * l2
    iou02 = i02 / (l1 * l2 + l3 * l4 - i02)

    # a zero numerator goes over 1 (both branches of a float where run):
    # the IoU is then 0, and i12 is 2*h1*h2
    i03 = xp.pow(rsx + rsy - 2.0 * rsx * rsy, 2.0) / ((1.0 - rsx) * (1.0 - rsy)) * w * h / 2.0
    iou03 = i03 / xp.where(i03 != 0.0, 2.0 * l1 * l2 - i03, 1.0)

    h1 = 0.5 * w - (0.5 - rsy) / (1.0 - rsy) * rsx * w
    h2 = 0.5 * h - (0.5 - rsx) / (1.0 - rsx) * rsy * h
    tana = ((0.5 - rsx) / (1.0 - rsx) * l4) / (l3 / (2.0 * (1.0 - rsy)))
    tanb = ((0.5 - rsy) / (1.0 - rsy) * l3) / (l4 / (2.0 * (1.0 - rsx)))
    i12 = 2.0 * tana * tanb / xp.where(tana * tanb != 0.0, tana + tanb, 1.0) * (h1 * h1 + h2 * h2) + 2.0 * h1 * h2
    iou12 = i12 / (2.0 * l3 * l4 - i12)
    return iou01, iou02, iou03, iou12


def _pairwise(w, h, rs, xp=_Floats):
    """The closed forms (0-1, 0-2, 0-3, 1-2) of any HBB: on the transposed
    one where it is taller than wide, with the 0-1 and 0-2 entries swapped
    back; not clamped into [0, 1]."""
    wide = w >= h
    m01, m02, m03, m12 = _closed_forms(*xp.where(wide, (w, h), (h, w)), rs, xp)
    m01, m02 = xp.where(wide, (m01, m02), (m02, m01))
    return m01, m02, m03, m12


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
    _require_finite("HBB extent", w, h)
    if w <= 0.0 or h <= 0.0:
        raise InvalidArgumentError("HBB extents must be positive")
    return _iou_matrix(w, h, _clamp_rs(rs))


def _iou_matrix(w, h, rs):
    """:func:`iou_matrix` of finite positive extents, for ``rs`` already
    clamped into [0, 0.5]; extents out of range still raise here."""
    if not (_SQUARE_MIN <= w * w <= _SQUARE_MAX and _SQUARE_MIN <= h * h <= _SQUARE_MAX):
        raise DegenerateGeometryError(f"HBB extents {w!r} x {h!r} out of range for the candidate IoUs")
    m01, m02, m03, m12 = m = _pairwise(w, h, rs)
    if not all(map(math.isfinite, m)):
        raise DegenerateGeometryError(f"candidate IoUs of a {w!r} x {h!r} HBB at rs={rs!r} are not finite")
    clamp = _Floats.clamp
    m01, m02, m03, m12 = clamp(m01, 0.0, 1.0), clamp(m02, 0.0, 1.0), clamp(m03, 0.0, 1.0), clamp(m12, 0.0, 1.0)
    return [
        [1.0, m01, m02, m03],
        [m01, 1.0, m12, m02],
        [m02, m12, 1.0, m01],
        [m03, m02, m01, 1.0],
    ]


def encode(box: OrientedBox) -> CobbVector:
    """Encode a box: outer HBB, sliding ratio, and its candidate's score row."""
    hbb = outer_hbb(box)
    rs = _sliding_ratio(box.w_side, box.h_side, math.cos(box.theta), math.sin(box.theta), hbb.w, hbb.h)
    row = _iou_matrix(hbb.w, hbb.h, rs)[classify(box)]
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
    if len(scores) != 4:
        raise InvalidArgumentError(f"need four scores, got {len(scores)}")
    s0, s1, s2, s3 = scores
    best, top = 1, s1
    if s2 > top:
        best, top = 2, s2
    if s0 > top:
        best, top = 0, s0
    if s3 > top:
        best = 3
    return best


def candidate_box(hbb: HorizontalBox, rs: float, i: int) -> OrientedBox:
    """Candidate ``i`` of ``(hbb, rs)`` as a rectangle, in closed form.

    The edge vectors come from the HBB extents and :func:`_slide_gaps`, so the
    sides and the angle do not depend on where the HBB sits and a needle's
    short side keeps its relative precision; the angle is read from the
    longer edge, which stays well defined as a candidate thins towards a
    diagonal.  A zero-area candidate, a diagonal of the HBB at rs = 0, is
    its needle limit (see :func:`_candidate_sides`).
    """
    if hbb.w <= 0.0 or hbb.h <= 0.0 or i not in range(4):
        raise InvalidArgumentError(f"need positive HBB extents and index 0..3, got {hbb}, {i!r}")
    return OrientedBox(hbb.xc, hbb.yc, *_candidate_sides(hbb.w, hbb.h, _clamp_rs(rs), i))


def _candidate_sides(w, h, rs, i, xp=_Floats):
    """Longer side, shorter side and angle of candidate ``i`` of a ``w`` x
    ``h`` HBB, for ``rs`` already clamped into [0, 0.5].  A zero short side
    (candidates 0 and 3 at rs = 0, the HBB's diagonals) becomes the least
    positive float: the needle that is the candidate's limit as rs goes to
    0, so that every pick decodes to a box."""
    gx, gy = _slide_gaps(w, h, rs, xp)
    fx, fy = w - gx, h - gy  # hw + x_s, hh + y_s
    # edges top -> right and right -> bottom (the bottom vertex is -top); the
    # top vertex is at +x_s in candidates 1 and 3, the right one at +y_s in 0, 1
    ax, bx = xp.where((i == 1) | (i == 3), (gx, -fx), (fx, -gx))
    ay, by = xp.where(i <= 1, (fy, gy), (gy, fy))
    la, lb = xp.hypot(ax, ay), xp.hypot(bx, by)
    ax, ay, la, lb = xp.where(la < lb, (bx, by, lb, la), (ax, ay, la, lb))
    return la, xp.where(lb == 0.0, 5e-324, lb), xp.atan2(-ay, ax)


def decode(v: CobbVector) -> OrientedBox:
    """Decode nine parameters to the highest-scoring candidate box."""
    return _decode(v.xc, v.yc, v.w, v.h, v.rs, v.scores)


def _decode(xc, yc, w, h, rs, scores) -> OrientedBox:
    """:func:`decode` of the nine parameters as they are, with all its
    checks, for callers that hold them as numbers (:func:`cobb.targets.decode_target`)."""
    if len(scores) != 4:
        raise InvalidArgumentError(f"need four scores, got {len(scores)}")
    _require_finite("score", *scores)
    try:
        positive = w > 0.0 and h > 0.0
    except TypeError:  # an extent that is not a real number
        _require_finite("HBB extent", w, h)
        raise
    if not positive:
        raise InvalidArgumentError("decoded HBB extents must be positive")
    _require_hbb(xc, yc, w, h)
    return OrientedBox(xc, yc, *_candidate_sides(w, h, _clamp_rs(rs, tol=math.inf), select_candidate(scores)))


# ---------------------------------------------------------------------------
# Relation between the sliding ratio and the area ratio


def rs_from_ra(ra: float, w: float, h: float) -> float:
    """Sliding ratio of the boxes whose area is ``ra`` times their HBB's.

    ``ra`` must lie in (0, 1]; the infimum 0 is the thin diagonal limit and is
    not attainable by a valid box.
    """
    _require_finite("area ratio", ra)
    if ra <= 0.0 or ra > 1.0 + _RS_CLAMP_TOL:
        raise InvalidArgumentError(f"area ratio outside (0, 1]: {ra!r}")
    _require_finite("HBB extent", w, h)
    if w <= 0.0 or h <= 0.0:
        raise InvalidArgumentError("HBB extents must be positive")
    ra = min(ra, 1.0)
    r2 = min(w / h, h / w) ** 2
    disc = (r2 + 1.0) ** 2 - 16.0 * r2 * ra * (1.0 - ra)
    rhs = (r2 + 1.0 - math.sqrt(max(0.0, disc))) / (2.0 * r2)
    rhs = min(max(rhs, 0.0), 1.0)
    return 0.5 * (1.0 - math.sqrt(1.0 - rhs))


# ---------------------------------------------------------------------------
# Array forms of encode and decode.  They call the formulas above with
# ``xp=_Arrays``, so every row equals the scalar result bit for bit, and mask
# the rows they cannot vouch for (without raising on them); the caller sends
# just those through the scalar path with ``geometry._scalar_rows``.
# ``_classify_many`` reads the candidate from a sign rule rather than the
# clipping oracle that :func:`classify` runs.

# entries of iou_matrix rows, as indices into (1, m01, m02, m03, m12)
_MATRIX_ENTRIES = np.array([[0, 1, 2, 3], [1, 0, 4, 2], [2, 4, 0, 1], [3, 2, 1, 0]])
_TIE_ORDER = np.array([1, 2, 0, 3])  # select_candidate's preference among equal scores


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

    Each row's :func:`_sign_index` names its candidate.  Rows whose
    ``iou_matrix`` row at that index has a second entry within
    ``_TIE_MARGIN`` of 1 take the pick of :func:`classify`.
    """
    _, _, w_side, h_side, _ = p.T
    index = _sign_index(w_side, h_side, c, s)
    ties = (np.take_along_axis(m, _MATRIX_ENTRIES[index], axis=1) >= 1.0 - _TIE_MARGIN).sum(axis=1) >= 2
    return _scalar_rows(index, ties, lambda r: classify(OrientedBox(*r)), p)


def _encode_many(p):
    """Row-wise :func:`encode` of ``(N, 5)`` constructed-box fields: ``(N, 9)``
    rows ``(xc, yc, w, h, rs, s0, s1, s2, s3)``, and the mask."""
    cx, cy, w_side, h_side, theta = p.T
    c, s = _rowwise(math.cos, theta), _rowwise(math.sin, theta)
    w, h = _extents(w_side, h_side, c, s)  # outer_hbb
    # outer_hbb, sliding_ratio or iou_matrix rejects the extents
    ww, hh = w * w, h * h
    bad = ~((_SQUARE_MIN <= ww) & (ww <= _SQUARE_MAX) & (_SQUARE_MIN <= hh) & (hh <= _SQUARE_MAX))
    rs = _ratio(w_side, h_side, c, s, w, h, _Arrays)
    # iou_matrix(w, h, rs)[classify(box)]
    m = np.stack([np.ones_like(w), *_pairwise(w, h, rs, _Arrays)], axis=1)
    bad |= ~np.isfinite(m).all(axis=1)  # where iou_matrix raises
    m = np.where(bad[:, None], 0.0, _Arrays.clamp(m, 0.0, 1.0))  # a masked row has no tie to classify
    index = _classify_many(p, c, s, m)
    scores = np.take_along_axis(m, _MATRIX_ENTRIES[index], axis=1)
    return np.column_stack([cx, cy, w, h, rs, scores]), bad


def _decode_many(xc, yc, w, h, rs, scores):
    """Row-wise ``decode(CobbVector(xc, yc, w, h, rs, scores))`` as
    ``(N, 5)`` constructed-box fields, and the mask."""
    bad = ~(np.isfinite(np.column_stack([xc, yc, w, h, rs, scores])).all(axis=1) & (w > 0.0) & (h > 0.0))
    w, h = np.where(bad, 1.0, w), np.where(bad, 1.0, h)  # so that no square below overflows
    # select_candidate
    best = scores == scores.max(axis=1, keepdims=True)
    i = _TIE_ORDER[np.argmax(best[:, _TIE_ORDER], axis=1)]
    fields = np.stack([xc, yc, *_candidate_sides(w, h, _Arrays.clamp(rs, 0.0, 0.5), i, _Arrays)], axis=1)
    # a side that overflows; masked rows stand in as unit boxes
    bad |= ~np.isfinite(fields).all(axis=1)
    return oriented_many(np.where(bad[:, None], 1.0, fields)), bad
