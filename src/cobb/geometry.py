"""Exact rectangle / convex-quad geometry.

Coordinate frame is the image convention (y grows downward) and positive
angles rotate clockwise on screen.  A vertex of a box with angle ``theta`` is
``center + (dx*cos t + dy*sin t, -dx*sin t + dy*cos t)`` for the corner offset
``(dx, dy)``.

All values are immutable; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cobb._kern import quad_area, quad_intersection_area, quad_intersection_area_many, shoelace2
from cobb.errors import DegenerateGeometryError, InvalidArgumentError, UndefinedIoUError

# Absolute tolerance for geometric predicates on unit-scale inputs; callers
# scale it by a bounding diagonal for larger inputs.
GEOM_EPS = 1e-9

_HALF_PI = 0.5 * math.pi


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidArgumentError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class HorizontalBox:
    """Axis-aligned box given by center and extents."""

    xc: float
    yc: float
    w: float
    h: float

    def __post_init__(self):
        _require_finite("HorizontalBox field", self.xc, self.yc, self.w, self.h)
        if self.w < 0 or self.h < 0:
            raise InvalidArgumentError(f"negative extent: w={self.w}, h={self.h}")


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
        t = math.fmod(self.theta, math.pi)
        if t < 0:
            t += math.pi
        if t >= math.pi:  # fmod rounding at the boundary
            t -= math.pi
        if t >= _HALF_PI:
            t -= _HALF_PI
            w, h = self.w_side, self.h_side
            object.__setattr__(self, "w_side", h)
            object.__setattr__(self, "h_side", w)
        object.__setattr__(self, "theta", t)

    @property
    def diagonal(self) -> float:
        return math.hypot(self.w_side, self.h_side)

    @property
    def area(self) -> float:
        return self.w_side * self.h_side


@dataclass(frozen=True)
class ConvexQuad:
    """Convex quadrilateral as the flat tuple ``(x0, y0, x1, y1, x2, y2, x3, y3)``.

    Vertices run counterclockwise in the y-down frame and start at the
    lexicographically smallest (y, then x) vertex; :meth:`from_points` puts
    any four points in that order, the constructor takes the tuple as given.
    Zero-area (collinear) quads are representable; non-finite coordinates
    and genuinely non-convex input are rejected.
    """

    flat: tuple[float, ...]

    def __post_init__(self):
        f = self.flat
        if len(f) != 8:
            raise InvalidArgumentError(f"quad needs 8 coordinates, got {len(f)}")
        if not all(map(math.isfinite, f)):
            _require_finite("coordinate", *f)
        _validate_convex(f)

    @staticmethod
    def from_points(points) -> "ConvexQuad":
        pts = [(p[0], p[1]) for p in points]
        if len(pts) != 4:
            raise InvalidArgumentError(f"quad needs 4 vertices, got {len(pts)}")
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = canonical_order(pts)
        return ConvexQuad((x0, y0, x1, y1, x2, y2, x3, y3))

    @property
    def area(self) -> float:
        return quad_area(self.flat)


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


def _validate_convex(f) -> None:
    # the quad's own extent, so the tolerance does not grow with distance
    # from the origin
    spans, turns = _spans_and_turns(*f)
    scale = max(spans) or 1.0
    tol = GEOM_EPS * scale * scale
    if max(turns) > tol and min(turns) < -tol:
        raise InvalidArgumentError("vertices do not form a convex quadrilateral")


def canonical_order(pts):
    """Keep the cycle; wind counterclockwise and start at the min-(y, x) vertex.

    Takes four ``(x, y)`` pairs and returns the same sequence type it is
    given.  Convexity is not required, so annotation quads use it too.
    """
    # CCW in y-down frame <=> negative shoelace sum in raw coordinates.
    s = 0.0
    for i in range(4):
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % 4]
        s += ax * by - bx * ay
    if s > 0:
        pts = pts[::-1]
    start = min(range(4), key=lambda i: (pts[i][1], pts[i][0]))
    return pts[start:] + pts[:start]


def vertices_of(box: OrientedBox) -> ConvexQuad:
    """The four corners of the rectangle, in canonical order.

    Offsets ``(-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh)`` wind clockwise on
    screen at every angle, so the corners are built in the reverse cycle and
    only rotated to start at the min-(y, x) vertex.  No shoelace sum decides
    the winding, so it stays counterclockwise however far from the origin
    the box sits.
    """
    c, s = math.cos(box.theta), math.sin(box.theta)
    hw, hh = 0.5 * box.w_side, 0.5 * box.h_side
    cx, cy = box.cx, box.cy
    f = []
    for dx, dy in ((-hw, hh), (hw, hh), (hw, -hh), (-hw, -hh)):
        f += (cx + dx * c + dy * s, cy - dx * s + dy * c)
    start = 2 * min(range(4), key=lambda i: (f[2 * i + 1], f[2 * i]))
    return ConvexQuad(tuple(f[start:] + f[:start]))


def _rowwise(fn, *cols) -> np.ndarray:
    """``fn`` of each row of equal-length float columns, as an array.

    numpy's cos, sin, exp, log, log2, hypot and power can differ from
    :mod:`math` and Python's float ``**`` in the last bit, so the batch
    paths, which promise rows bit-identical to the scalar ones, take every
    such value from the scalar function.
    """
    return np.fromiter(map(fn, *(np.asarray(c, dtype=float).tolist() for c in cols)), float, len(cols[0]))


def vertices_many(params) -> np.ndarray:
    """Row-wise ``vertices_of(box).flat`` of an ``(N, 5)`` array of box fields.

    Each row holds a constructed box's ``(cx, cy, w_side, h_side, theta)``.
    The arithmetic is :func:`vertices_of`'s, with cos and sin taken per row
    by :mod:`math`, so every row is bit-identical to the scalar corners.  A
    non-finite field, and corners that fail :class:`ConvexQuad`'s checks,
    raise the error the scalar path raises for the first such row.
    """
    p = np.asarray(params, dtype=float).reshape(-1, 5)
    bad = ~np.isfinite(p).all(axis=1)
    if bad.any():
        _require_finite("OrientedBox field", *p[np.argmax(bad)].tolist())
    cx, cy, w, h, theta = p.T
    c, s = _rowwise(math.cos, theta), _rowwise(math.sin, theta)
    hw, hh = 0.5 * w, 0.5 * h
    corners = ((-hw, hh), (hw, hh), (hw, -hh), (-hw, -hh))
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.stack([cx + dx * c + dy * s for dx, dy in corners], axis=1)
        y = np.stack([cy - dx * s + dy * c for dx, dy in corners], axis=1)
        # each cycle starts at its first min-(y, x) vertex (lexsort is stable)
        order = (np.lexsort((x, y), axis=1)[:, :1] + np.arange(4)) % 4
        f = np.empty((len(p), 8))
        f[:, 0::2] = np.take_along_axis(x, order, axis=1)
        f[:, 1::2] = np.take_along_axis(y, order, axis=1)
        # ConvexQuad's finiteness and convexity checks
        spans, turns = _spans_and_turns(*f.T)
        scale = np.maximum.reduce(spans)
        scale[scale == 0.0] = 1.0
        tol = GEOM_EPS * scale * scale
        bad = ~np.isfinite(f).all(axis=1) | ((np.maximum.reduce(turns) > tol) & (np.minimum.reduce(turns) < -tol))
    if bad.any():
        ConvexQuad(tuple(f[np.argmax(bad)].tolist()))
    return f


def oriented_many(params) -> np.ndarray:
    """Row-wise ``OrientedBox(*row)`` fields of an ``(N, 5)`` array.

    The angle is brought into [0, pi/2) with the constructor's float
    operations (``fmod`` is exact in numpy too), so every row equals the
    constructed box's ``(cx, cy, w_side, h_side, theta)``; the first row the
    constructor rejects raises its error.
    """
    p = np.asarray(params, dtype=float).reshape(-1, 5)
    cx, cy, w, h, theta = p.T
    bad = ~np.isfinite(p).all(axis=1) | ~((w > 0) & (h > 0))
    if bad.any():
        OrientedBox(*p[np.argmax(bad)].tolist())
    t = np.fmod(theta, math.pi)
    t = np.where(t < 0, t + math.pi, t)
    t = np.where(t >= math.pi, t - math.pi, t)
    quarter = t >= _HALF_PI
    return np.stack(
        [cx, cy, np.where(quarter, h, w), np.where(quarter, w, h), np.where(quarter, t - _HALF_PI, t)], axis=1
    )


def outer_hbb(box: OrientedBox) -> HorizontalBox:
    """Smallest axis-aligned box containing the rectangle."""
    c, s = abs(math.cos(box.theta)), abs(math.sin(box.theta))
    w = box.w_side * c + box.h_side * s
    h = box.w_side * s + box.h_side * c
    return HorizontalBox(box.cx, box.cy, w, h)


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


def adjust_side(box: OrientedBox, ratio: float) -> tuple[OrientedBox, OrientedBox]:
    """Scale one side by ``ratio``: returns the w-scaled and h-scaled boxes."""
    if not math.isfinite(ratio) or ratio <= 0:
        raise InvalidArgumentError(f"ratio must be positive, got {ratio!r}")
    return (
        OrientedBox(box.cx, box.cy, box.w_side * ratio, box.h_side, box.theta),
        OrientedBox(box.cx, box.cy, box.w_side, box.h_side * ratio, box.theta),
    )


def _as_quad(shape) -> ConvexQuad:
    if isinstance(shape, OrientedBox):
        return vertices_of(shape)
    if isinstance(shape, ConvexQuad):
        return shape
    raise InvalidArgumentError(f"expected OrientedBox or ConvexQuad, got {type(shape).__name__}")


def iou(a, b) -> float:
    """Intersection over union of two boxes/quads via polygon clipping.

    This is the brute-force oracle every closed form in the package is
    validated against.
    """
    fa, fb = _as_quad(a).flat, _as_quad(b).flat
    area_a, area_b = quad_area(fa), quad_area(fb)
    if area_a == 0.0 and area_b == 0.0:
        raise UndefinedIoUError("IoU of two zero-area shapes is undefined")
    inter = quad_intersection_area(fa, fb)
    union = area_a + area_b - inter
    if union <= 0.0:
        raise UndefinedIoUError("empty union")
    v = inter / union
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def iou_many(a, b) -> np.ndarray:
    """Row-wise :func:`iou` of two ``(N, 8)`` arrays of ``ConvexQuad.flat`` rows.

    The same float operations as the scalar oracle, so each row equals it
    bit for bit; raises :class:`UndefinedIoUError` where it would.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 8)
    b = np.asarray(b, dtype=float).reshape(-1, 8)
    if a.shape != b.shape:
        raise InvalidArgumentError(f"need equal row counts, got {len(a)} and {len(b)}")
    area_a, area_b = 0.5 * np.abs(shoelace2(*a.T)), 0.5 * np.abs(shoelace2(*b.T))
    if ((area_a == 0.0) & (area_b == 0.0)).any():
        raise UndefinedIoUError("IoU of two zero-area shapes is undefined")
    inter = quad_intersection_area_many(a, b)
    union = area_a + area_b - inter
    if (union <= 0.0).any():
        raise UndefinedIoUError("empty union")
    return np.clip(inter / union, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Minimum-area enclosing rectangle (rotating calipers over the convex hull)


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def build(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (y - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (x - out[-2][0])
            ) <= 0:
                out.pop()
            out.append((x, y))
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def min_area_rect(points) -> OrientedBox:
    """Minimum-area oriented rectangle enclosing the ``(x, y)`` points.

    Requires at least 3 finite, non-collinear points, and a fit that
    overflows raises :class:`DegenerateGeometryError`; the optimum has one
    side flush with a hull edge, so only hull-edge orientations are scanned.
    """
    pts = [(p[0], p[1]) for p in points]
    _require_finite("coordinate", *(v for p in pts for v in p))
    if len(pts) < 3:
        raise DegenerateGeometryError("min_area_rect needs at least 3 points")
    hull = _convex_hull(pts)
    if len(hull) < 3:
        raise DegenerateGeometryError("points are collinear")

    best = None
    n = len(hull)
    for i in range(n):
        (ax, ay), (bx, by) = hull[i], hull[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        norm = math.hypot(ex, ey)
        if norm == 0.0:
            continue
        ux, uy = ex / norm, ey / norm
        lo_u = hi_u = lo_v = hi_v = None
        for px, py in hull:
            u = px * ux + py * uy
            v = -px * uy + py * ux
            lo_u = u if lo_u is None or u < lo_u else lo_u
            hi_u = u if hi_u is None or u > hi_u else hi_u
            lo_v = v if lo_v is None or v < lo_v else lo_v
            hi_v = v if hi_v is None or v > hi_v else hi_v
        area = (hi_u - lo_u) * (hi_v - lo_v)
        if best is None or area < best[0]:
            best = (area, ux, uy, lo_u, hi_u, lo_v, hi_v)

    if best is None or best[0] <= 0.0:
        raise DegenerateGeometryError("points are collinear")
    _, ux, uy, lo_u, hi_u, lo_v, hi_v = best
    cu, cv = 0.5 * (lo_u + hi_u), 0.5 * (lo_v + hi_v)
    cx = cu * ux - cv * uy
    cy = cu * uy + cv * ux
    # the u axis (cos t, -sin t) carries w_side; theta is clockwise-positive
    theta = math.atan2(-uy, ux)
    try:
        return OrientedBox(cx, cy, hi_u - lo_u, hi_v - lo_v, theta)
    except InvalidArgumentError:  # a field overflowed
        raise DegenerateGeometryError("rectangle fit is not finite") from None
