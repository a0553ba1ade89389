"""Exact rectangle / convex-quad geometry.

Coordinate frame is the image convention (y grows downward) and positive
angles rotate clockwise on screen.  A vertex of a box with angle ``theta`` is
``center + (dx*cos t + dy*sin t, -dx*sin t + dy*cos t)`` for the corner offset
``(dx, dy)``.

All values are immutable; every function here is pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass
from functools import partial, reduce
from types import SimpleNamespace

import numpy as np

from cobb._kern import _row_pairs, _rows, quad_area, quad_intersection_area, quad_intersection_area_many, shoelace2
from cobb.errors import DegenerateGeometryError, InvalidArgumentError, UndefinedIoUError

# Absolute tolerance for geometric predicates on unit-scale inputs; callers
# scale it by a bounding diagonal for larger inputs.
GEOM_EPS = 1e-9

_HALF_PI = 0.5 * math.pi


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        try:
            if math.isfinite(v):
                continue
        except TypeError:  # not a real number
            pass
        raise InvalidArgumentError(f"{name} must be finite, got {v!r}")


def _rowwise(fn, *cols) -> np.ndarray:
    """``fn`` of each row of equal-length float columns, as an array.

    numpy's cos, sin, exp, log, log2, hypot and power can differ from
    :mod:`math` and Python's float ``**`` in the last bit, so the batch
    paths, which promise rows bit-identical to the scalar ones, take every
    such value from the scalar function.
    """
    return np.fromiter(map(fn, *(np.asarray(c, dtype=float).tolist() for c in cols)), float, len(cols[0]))


# The operations that differ between a formula on Python floats and the same
# formula on arrays, which it takes as ``xp``: written once over them, a
# formula gives the same bits either way.  The float ``where`` evaluates both
# of its branches, so neither may raise.  ``clamp`` picks what
# ``min(max(x, lo), hi)`` picks (for ``lo <= hi``), ties and signed zeros
# included, at a fifth of its cost on floats.  ``max`` and ``min`` take one
# sequence and pick its first greatest or least element, as Python's do (numpy's
# ``maximum`` and ``minimum`` may pick either of two signed zeros).  ``fmod`` is
# exact either way; the arrays take each other ``math`` value and ``**`` per
# element, as :func:`_rowwise` explains.  Plain functions in a namespace cost
# less per call than static methods of a class.
_Floats = SimpleNamespace(
    where=lambda c, a, b: a if c else b,
    clamp=lambda x, lo, hi: lo if lo > x else (hi if hi < x else x),
    sqrt=math.sqrt,
    hypot=math.hypot,
    atan2=math.atan2,
    exp=math.exp,
    log=math.log,
    log2=math.log2,
    pow=operator.pow,
    fmod=math.fmod,
    max=max,
    min=min,
)
_Arrays = SimpleNamespace(
    where=np.where,  # on tuples of equal-length arrays, one row per pair
    clamp=lambda x, lo, hi: np.where(lo > x, lo, np.where(hi < x, hi, x)),
    sqrt=np.sqrt,
    hypot=partial(_rowwise, math.hypot),
    atan2=partial(_rowwise, math.atan2),
    exp=partial(_rowwise, math.exp),
    log=partial(_rowwise, math.log),
    log2=partial(_rowwise, math.log2),
    pow=lambda x, y: _rowwise(operator.pow, *np.broadcast_arrays(x, y)),  # one of the two may be a float
    fmod=np.fmod,
    max=lambda seq: reduce(lambda a, b: np.where(b > a, b, a), seq),
    min=lambda seq: reduce(lambda a, b: np.where(b < a, b, a), seq),
)


def _turned(w_side, h_side, theta, xp=_Floats):
    """Sides and angle in constructed form: ``theta`` into [0, pi/2), a
    quarter-turn absorbed by swapping the sides."""
    t = xp.fmod(theta, math.pi)
    t = xp.where(t < 0, (t + math.pi) % math.pi, t)  # % takes pi, where adding pi rounded to it, to 0
    return xp.where(t >= _HALF_PI, (h_side, w_side, t - _HALF_PI), (w_side, h_side, t))


def _extents(w_side, h_side, c, s):
    """Outer HBB extents of sides ``w_side``, ``h_side`` at an angle of
    cosine ``c`` and sine ``s``; floats or equal-shape arrays."""
    c, s = abs(c), abs(s)
    return w_side * c + h_side * s, w_side * s + h_side * c


def _corners(x, y, w_side, h_side, c, s):
    """The flat corners around ``(x, y)``, at offsets ``(-hw, hh), (hw, hh),
    (hw, -hh), (-hw, -hh)``: counterclockwise on screen at every angle."""
    hw, hh = 0.5 * w_side, 0.5 * h_side
    wc, ws, hc, hs = hw * c, hw * s, hh * c, hh * s
    return x - wc + hs, y + ws + hc, x + wc + hs, y - ws + hc, x + wc - hs, y - ws - hc, x - wc - hs, y + ws - hc


@dataclass(frozen=True)
class HorizontalBox:
    """Axis-aligned box given by center and extents."""

    xc: float
    yc: float
    w: float
    h: float

    def __post_init__(self):
        _require_hbb(self.xc, self.yc, self.w, self.h)


def _require_hbb(xc, yc, w, h) -> None:
    """Raise unless ``(xc, yc, w, h)`` are finite with non-negative extents:
    the checks of :class:`HorizontalBox`, for callers that need no box."""
    _require_finite("HorizontalBox field", xc, yc, w, h)
    if w < 0 or h < 0:
        raise InvalidArgumentError(f"negative extent: w={w}, h={h}")


@dataclass(frozen=True)
class OrientedBox:
    """Rotated rectangle: center, two side lengths, clockwise angle.

    Construction brings the angle into [0, pi/2): full-turn symmetry
    removes multiples of pi, and a quarter-turn is absorbed by relabeling the
    two sides.  Side labels are never sorted by length.
    """

    cx: float
    cy: float
    w_side: float
    h_side: float
    theta: float

    def __post_init__(self):
        _require_finite("OrientedBox field", self.cx, self.cy, self.w_side, self.h_side, self.theta)
        if self.w_side <= 0 or self.h_side <= 0:
            raise DegenerateGeometryError(
                f"sides must be positive: w_side={self.w_side}, h_side={self.h_side}"
            )
        d = self.__dict__
        d["w_side"], d["h_side"], d["theta"] = _turned(self.w_side, self.h_side, self.theta)

    @property
    def area(self) -> float:
        return self.w_side * self.h_side


@dataclass(frozen=True)
class ConvexQuad:
    """Convex quadrilateral as the flat tuple ``(x0, y0, x1, y1, x2, y2, x3, y3)``.

    Vertices run counterclockwise in the y-down frame and start at the
    lexicographically smallest (y, then x) vertex; :meth:`from_points` winds
    any four points' cycle that way, the constructor takes the tuple as given.
    Zero-area (collinear) quads are representable; coordinates that are not
    finite real numbers and genuinely non-convex input are rejected.  The
    coordinates are stored as a tuple, and ``area`` is set once here rather
    than taken on every read.
    """

    flat: tuple[float, ...]

    def __post_init__(self):
        f = self.flat
        try:
            if type(f) is not tuple:
                f = tuple(f)
                object.__setattr__(self, "flat", f)
            if len(f) != 8:
                raise InvalidArgumentError(f"quad needs 8 coordinates, got {len(f)}")
            if not all(map(math.isfinite, f)):
                _require_finite("coordinate", *f)
            if _concave(f):
                raise InvalidArgumentError("vertices do not form a convex quadrilateral")
            self.__dict__["area"] = quad_area(f)
        except TypeError:  # not a sequence, or a string, complex or Decimal among the coordinates
            raise InvalidArgumentError(f"quad coordinates must be a sequence of real numbers, got {f!r}") from None

    @staticmethod
    def from_points(points) -> "ConvexQuad":
        pts = tuple(points)
        if len(pts) != 4:
            raise InvalidArgumentError(f"quad needs 4 vertices, got {len(pts)}")
        p0, p1, p2, p3 = pts
        return _wound(p0[0], p0[1], p1[0], p1[1], p2[0], p2[1], p3[0], p3[1])


def _wound(x0, y0, x1, y1, x2, y2, x3, y3) -> ConvexQuad:
    """The quad of the cycle of four points, wound counterclockwise and
    started at its min-(y, x) vertex: :meth:`ConvexQuad.from_points` of
    loose coordinates."""
    # CCW in y-down frame <=> negative shoelace sum in raw coordinates.
    if x0 * y1 - x1 * y0 + (x1 * y2 - x2 * y1) + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3) > 0:
        return _from_min_yx(x3, y3, x2, y2, x1, y1, x0, y0)
    return _from_min_yx(x0, y0, x1, y1, x2, y2, x3, y3)


def _from_min_yx(x0, y0, x1, y1, x2, y2, x3, y3) -> ConvexQuad:
    """The quad of a counterclockwise cycle, started at its first min-(y, x)
    vertex; y values compare as in a tuple key, where one NaN object
    equals itself."""
    start, ky, kx = 0, y0, x0
    if y1 < ky or ((y1 is ky or y1 == ky) and x1 < kx):
        start, ky, kx = 2, y1, x1
    if y2 < ky or ((y2 is ky or y2 == ky) and x2 < kx):
        start, ky, kx = 4, y2, x2
    if y3 < ky or ((y3 is ky or y3 == ky) and x3 < kx):
        start = 6
    f = (x0, y0, x1, y1, x2, y2, x3, y3)
    return ConvexQuad(f[start:] + f[:start])


def _spans_and_turns(x0, y0, x1, y1, x2, y2, x3, y3):
    """Taxicab distances of vertices 1-3 from vertex 0, and twice the signed
    area of each triangle of three consecutive vertices; floats or
    equal-shape arrays."""
    return (
        (abs(x1 - x0) + abs(y1 - y0), abs(x2 - x0) + abs(y2 - y0), abs(x3 - x0) + abs(y3 - y0)),
        (
            (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0),
            (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1),
            (x3 - x2) * (y0 - y2) - (y3 - y2) * (x0 - x2),
            (x0 - x3) * (y1 - y3) - (y0 - y3) * (x1 - x3),
        ),
    )


def _concave(f, xp=_Floats):
    """Whether quad ``f`` turns both ways by more than ``GEOM_EPS`` times its
    squared span (its own extent, however far from the origin it sits)."""
    spans, turns = _spans_and_turns(*f)
    scale = xp.max(spans)
    tol = GEOM_EPS * scale * scale
    return (xp.max(turns) > tol) & (xp.min(turns) < -tol)


def vertices_of(box: OrientedBox) -> ConvexQuad:
    """The four corners of the rectangle, in canonical order.

    The :func:`_corners` cycle, only rotated to start at the min-(y, x)
    vertex.  No shoelace sum decides the winding, so it stays
    counterclockwise however far from the origin the box sits.
    """
    return _from_min_yx(*_corners(box.cx, box.cy, box.w_side, box.h_side, math.cos(box.theta), math.sin(box.theta)))


def _scalar_rows(out, bad, scalar, *rows) -> np.ndarray:
    """``out`` with each row where ``bad`` (the rows an array form cannot
    vouch for) replaced, in row order, by ``scalar`` of that row of each of
    ``rows`` as a list, which raises for the first such row it rejects."""
    for i in np.flatnonzero(bad).tolist():
        out[i] = scalar(*(r[i].tolist() for r in rows))
    return out


def vertices_many(params) -> np.ndarray:
    """Row-wise ``vertices_of(box).flat`` of an ``(N, 5)`` array of box fields.

    Each row holds a constructed box's ``(cx, cy, w_side, h_side, theta)``.
    The corners are :func:`vertices_of`'s :func:`_corners`, with cos and sin
    taken per row by :mod:`math`, so every row is bit-identical to the scalar
    corners; a stable sort picks the same start vertex.  A
    non-finite field, and corners that fail :class:`ConvexQuad`'s checks,
    raise the error the scalar path raises for the first such row.
    """
    p = _rows(params, 5)
    bad = ~np.isfinite(p).all(axis=1)
    if bad.any():
        _require_finite("OrientedBox field", *p[np.argmax(bad)].tolist())
    cx, cy, w, h, theta = p.T
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.stack(_corners(cx, cy, w, h, _rowwise(math.cos, theta), _rowwise(math.sin, theta)), axis=1)
        q = q.reshape(-1, 4, 2)
        # each cycle starts at its first min-(y, x) vertex (lexsort is stable)
        order = (np.lexsort((q[..., 0], q[..., 1]), axis=1)[:, :1] + np.arange(4)) % 4
        f = np.take_along_axis(q, order[..., None], axis=1).reshape(-1, 8)
        bad = ~np.isfinite(f).all(axis=1) | _concave(f.T, _Arrays)  # ConvexQuad's checks
    if bad.any():
        ConvexQuad(tuple(f[np.argmax(bad)].tolist()))
    return f


def oriented_many(params) -> np.ndarray:
    """Row-wise ``OrientedBox(*row)`` fields of an ``(N, 5)`` array.

    The sides and angle are the constructor's :func:`_turned`, so every row
    equals the constructed box's ``(cx, cy, w_side, h_side, theta)``; the
    first row the constructor rejects raises its error.
    """
    p = _rows(params, 5)
    cx, cy, w, h, theta = p.T
    bad = ~np.isfinite(p).all(axis=1) | ~((w > 0) & (h > 0))
    if bad.any():
        OrientedBox(*p[np.argmax(bad)].tolist())
    return np.stack([cx, cy, *_turned(w, h, theta, _Arrays)], axis=1)


def outer_hbb(box: OrientedBox) -> HorizontalBox:
    """Smallest axis-aligned box containing the rectangle; an extent that
    overflows raises :class:`DegenerateGeometryError`."""
    w, h = _outer_extents(box.w_side, box.h_side, math.cos(box.theta), math.sin(box.theta))
    return HorizontalBox(box.cx, box.cy, w, h)


def _outer_extents(w_side, h_side, c, s):
    """:func:`outer_hbb`'s extents from the cosine ``c`` and sine ``s`` of
    the angle, with its raise where one overflows."""
    w, h = _extents(w_side, h_side, c, s)
    if not (math.isfinite(w) and math.isfinite(h)):
        raise DegenerateGeometryError("outer HBB extent is not finite")
    return w, h


def rotate(box: OrientedBox, dtheta: float) -> OrientedBox:
    """Rotate clockwise by ``dtheta`` about the box center."""
    _require_finite("dtheta", dtheta)
    return OrientedBox(box.cx, box.cy, box.w_side, box.h_side, box.theta + dtheta)


def rotate_about(box: OrientedBox, px: float, py: float, dtheta: float) -> OrientedBox:
    """Rotate clockwise by ``dtheta`` about an arbitrary pivot."""
    _require_finite("pivot/dtheta", px, py, dtheta)
    c, s = math.cos(dtheta), math.sin(dtheta)
    dx, dy = box.cx - px, box.cy - py
    return OrientedBox(
        px + dx * c + dy * s,
        py - dx * s + dy * c,
        box.w_side,
        box.h_side,
        box.theta + dtheta,
    )


def _as_quad(shape) -> ConvexQuad:
    if isinstance(shape, ConvexQuad):
        return shape
    if isinstance(shape, OrientedBox):
        return vertices_of(shape)
    raise InvalidArgumentError(f"expected OrientedBox or ConvexQuad, got {type(shape).__name__}")


def iou(a, b) -> float:
    """Intersection over union of two boxes/quads via polygon clipping.

    This is the brute-force oracle every closed form in the package is
    validated against.
    """
    qa, qb = _as_quad(a), _as_quad(b)
    area_a, area_b = qa.area, qb.area
    if not (math.isfinite(area_a) and math.isfinite(area_b)):
        raise UndefinedIoUError("IoU of a shape whose area overflows float64 is undefined")
    if area_a == 0.0 and area_b == 0.0:
        raise UndefinedIoUError("IoU of two zero-area shapes is undefined")
    inter = quad_intersection_area(qa.flat, qb.flat)
    union = area_a + area_b - inter
    if union <= 0.0:
        raise UndefinedIoUError("empty union")
    v = inter / union
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def iou_many(a, b) -> np.ndarray:
    """Row-wise :func:`iou` of two ``(N, 8)`` arrays of ``ConvexQuad.flat`` rows.

    The same float operations as the scalar oracle, so each row equals it
    bit for bit.  Rows with a non-finite area, two zero areas or an empty
    union go to :func:`iou`, which raises for the first it rejects.
    """
    a, b = _row_pairs(a, b, 8)
    with np.errstate(all="ignore"):
        area_a, area_b = 0.5 * np.abs(shoelace2(*a.T)), 0.5 * np.abs(shoelace2(*b.T))
        inter = quad_intersection_area_many(a, b)
        union = area_a + area_b - inter
        out = np.clip(inter / union, 0.0, 1.0)
    # a non-finite coordinate makes its quad's area non-finite
    bad = ~(np.isfinite(area_a) & np.isfinite(area_b)) | (area_a == 0.0) & (area_b == 0.0) | (union <= 0.0)
    return _scalar_rows(out, bad, lambda p, q: iou(ConvexQuad(tuple(p)), ConvexQuad(tuple(q))), a, b)


# ---------------------------------------------------------------------------
# Minimum-area enclosing rectangle (rotating calipers over the convex hull)


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                c = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
                if c != c:  # an overflow: retest on the points scaled by 2**-e, e the exponent of max|coordinate|
                    k = math.ldexp(1.0, -math.frexp(max(max(abs(x), abs(y)) for x, y in pts))[1])
                    c = (bx * k - ax * k) * (p[1] * k - ay * k) - (by * k - ay * k) * (p[0] * k - ax * k)
                if c > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def _calipers(ux, uy, points, xp=_Floats):
    """Area, ``ux, uy`` and extremes ``lo_u, hi_u, lo_v, hi_v`` of the box
    around ``(x, y)`` points along unit vector ``(ux, uy)``; each extreme is
    the first point's that no later one passes, so even a zero keeps its sign."""
    us = [x * ux + y * uy for x, y in points]
    vs = [y * ux - x * uy for x, y in points]
    lo_u, hi_u, lo_v, hi_v = xp.min(us), xp.max(us), xp.min(vs), xp.max(vs)
    return (hi_u - lo_u) * (hi_v - lo_v), ux, uy, lo_u, hi_u, lo_v, hi_v


def _rect_of(ux, uy, lo_u, hi_u, lo_v, hi_v, xp=_Floats):
    """``(cx, cy, w_side, h_side, theta)`` of a :func:`_calipers` box: the u
    axis ``(cos t, -sin t)`` carries ``w_side``, theta clockwise-positive."""
    cu, cv = 0.5 * (lo_u + hi_u), 0.5 * (lo_v + hi_v)
    return cu * ux - cv * uy, cu * uy + cv * ux, hi_u - lo_u, hi_v - lo_v, xp.atan2(-uy, ux)


def min_area_rect(points) -> OrientedBox:
    """Minimum-area oriented rectangle enclosing the ``(x, y)`` points.

    Requires at least 3 finite, non-collinear points, and a fit that
    overflows raises :class:`DegenerateGeometryError`; the optimum has one
    side flush with a hull edge, so only hull-edge orientations are scanned.
    """
    try:
        pts = [(p[0], p[1]) for p in points]
    except (IndexError, TypeError):  # not a sequence of points, or a point without two coordinates
        raise InvalidArgumentError(f"points must be (x, y) pairs of finite real numbers, got {points!r}") from None
    _require_finite("coordinate", *(v for p in pts for v in p))
    if len(pts) < 3:
        raise DegenerateGeometryError("min_area_rect needs at least 3 points")
    hull = _convex_hull(pts)
    if len(hull) < 3:
        raise DegenerateGeometryError("points are collinear")

    best = None
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        if norm == 0.0:
            continue
        edge = _calipers(ex / norm, ey / norm, hull)
        if best is None or edge[0] < best[0]:
            best = edge
    if best is None or best[0] <= 0.0:
        raise DegenerateGeometryError("points are collinear")
    try:
        return OrientedBox(*_rect_of(*best[1:]))
    except InvalidArgumentError:  # a field overflowed
        raise DegenerateGeometryError("rectangle fit is not finite") from None


def min_area_rect_many(x, y) -> np.ndarray:
    """Row-wise :func:`min_area_rect` fields ``(cx, cy, w_side, h_side, theta)``
    of four points per row, given as ``(N, 4)`` coordinates, bit for bit.

    A row whose points, in the order given, turn the same way at every
    vertex by more than ``GEOM_EPS`` times its squared span (the test of
    :class:`ConvexQuad`), with that square a normal float, is its own hull:
    every cross product the scalar hull takes then has its exact sign, so
    that hull is the row's cycle, wound with positive turns from its least
    ``(x, y)`` point.  Such a row takes the scalar fit's :func:`_calipers`
    and :func:`_rect_of` on its four hull edges in hull order, ``hypot``
    from :mod:`math` and a strict comparison for the best edge, so even the
    sign of a zero matches.  Every other row
    (points out of cyclic order, a repeated or near-collinear point, a
    non-finite coordinate, a fit of non-positive area or with a non-finite
    field) goes to :func:`min_area_rect`, which raises for the first such
    row it rejects.
    """
    x0, y0 = _row_pairs(x, y, 4)
    out, bad = _min_area_rect_fields(x0, y0)
    return _scalar_rows(out, bad, lambda xs, ys: astuple(min_area_rect(list(zip(xs, ys)))), x0, y0)


def _min_area_rect_fields(x0, y0):
    """:func:`min_area_rect_many` of ``(N, 4)`` coordinate arrays, without
    the scalar fit: the fields, and the mask of the rows it sends there."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        spans, turns = _spans_and_turns(*np.stack((x0, y0), axis=2).reshape(-1, 8).T)
        square = np.maximum.reduce(spans) ** 2
        tol = GEOM_EPS * square
        left = np.minimum.reduce(turns) > tol
        # a square that overflows makes tol infinite; one among the
        # subnormals would leave the cross products' rounding near tol
        ok = (left | (np.maximum.reduce(turns) < -tol)) & (square >= np.finfo(float).tiny)
        # the cycle from its least (x, y) point, reversed where it turns right
        step = np.where(left, 1, -1)[:, None]
        at = (np.lexsort((y0, x0), axis=1)[:, :1] + step * np.arange(4)) % 4
        hull = list(zip(np.take_along_axis(x0, at, axis=1).T, np.take_along_axis(y0, at, axis=1).T))
        for i, ((ax, ay), (bx, by)) in enumerate(zip(hull, hull[1:] + hull[:1])):
            ex, ey = bx - ax, by - ay
            norm = _rowwise(math.hypot, ex, ey)
            edge = np.stack(_calipers(ex / norm, ey / norm, hull, _Arrays))
            best = edge if i == 0 else np.where(edge[0] < best[0], edge, best)
        fields = np.stack(_rect_of(*best[1:], _Arrays), axis=1)
        ok &= (best[0] > 0.0) & np.isfinite(fields).all(axis=1)
    # every other row stands in as a unit box, which the constructor accepts
    return oriented_many(np.where(ok[:, None], fields, 1.0)), ~ok
