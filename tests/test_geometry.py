"""Geometry core: frozen hand-derived values plus property checks."""

import math
import random
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cobb.codec import four_candidates
from cobb import _kern, codec, geometry, targets
from cobb.errors import DegenerateGeometryError, InvalidArgumentError, UndefinedIoUError
from cobb.geometry import (
    GEOM_EPS,
    ConvexQuad,
    HorizontalBox,
    OrientedBox,
    iou,
    iou_many,
    oriented_many,
    min_area_rect,
    min_area_rect_many,
    outer_hbb,
    rotate,
    rotate_about,
    vertices_many,
    vertices_of,
)

SQRT3 = math.sqrt(3.0)


def raw_corners(box):
    """Corners in construction order, winding clockwise on screen."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    hw, hh = 0.5 * box.w_side, 0.5 * box.h_side
    return [
        (box.cx + dx * c + dy * s, box.cy - dx * s + dy * c)
        for dx, dy in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
    ]


def corners(quad):
    f = quad.flat
    return list(zip(f[0::2], f[1::2]))


def recentred_shoelace(quad):
    """Twice the signed area relative to the first vertex: < 0 is CCW in y-down."""
    f = quad.flat
    pts = [(x - f[0], y - f[1]) for x, y in corners(quad)]
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))


def vertex_set(box):
    return {(round(x, 9), round(y, 9)) for x, y in corners(vertices_of(box))}


class TestCanonicalization:
    def test_theta_range(self):
        b = OrientedBox(0, 0, 4, 2, 5 * math.pi / 6)
        assert 0 <= b.theta < math.pi / 2
        # quarter-turn absorbed by relabeling, same rectangle
        assert iou(b, OrientedBox(0, 0, 4, 2, 5 * math.pi / 6 - math.pi)) == pytest.approx(1.0)

    def test_idempotent(self):
        b = OrientedBox(1, 2, 3, 4, 2.8)
        assert OrientedBox(b.cx, b.cy, b.w_side, b.h_side, b.theta) == b

    def test_rotate_identity_and_pi(self):
        b = OrientedBox(0, 0, 4, 2, 0.3)
        assert rotate(b, 0.0) == b
        full = rotate(b, math.pi)
        assert (full.w_side, full.h_side) == (b.w_side, b.h_side)
        assert full.theta == pytest.approx(b.theta, abs=1e-12)

    def test_rotate_angle_arithmetic(self):
        out = rotate(OrientedBox(0, 0, 4, 2, math.pi / 6), math.pi / 6)
        assert out == OrientedBox(0, 0, 4, 2, math.pi / 3)

    def test_invalid_boxes(self):
        with pytest.raises(DegenerateGeometryError):
            OrientedBox(0, 0, 0.0, 2, 0)
        with pytest.raises(InvalidArgumentError):
            OrientedBox(0, 0, math.nan, 2, 0)


class TestVertices:
    def test_axis_aligned(self):
        assert vertex_set(OrientedBox(0, 0, 4, 2, 0)) == {(-2, -1), (2, -1), (2, 1), (-2, 1)}

    def test_rotated_square(self):
        s = math.sqrt(2.0)
        assert vertex_set(OrientedBox(0, 0, s, s, math.pi / 4)) == {(0, -1), (1, 0), (0, 1), (-1, 0)}

    def test_pi_over_6_rotation_matrix(self):
        # corner (2, 1) maps to (2cos30 + sin30, -2sin30 + cos30)
        quad = vertices_of(OrientedBox(0, 0, 4, 2, math.pi / 6))
        expected = (SQRT3 + 0.5, 0.5 * SQRT3 - 1.0)
        assert any(
            abs(x - expected[0]) < 1e-12 and abs(y - expected[1]) < 1e-12 for x, y in corners(quad)
        )

    def test_centroid_matches_center(self):
        b = OrientedBox(3.7, -1.2, 2.5, 0.7, 1.1)
        q = vertices_of(b)
        cx = sum(q.flat[0::2]) / 4
        cy = sum(q.flat[1::2]) / 4
        assert abs(cx - b.cx) < 1e-12 and abs(cy - b.cy) < 1e-12

    def test_counterclockwise_far_from_the_origin(self):
        # the absolute-coordinate shoelace of this thin box has the wrong
        # sign, so deciding the winding from it returned a clockwise quad
        q = vertices_of(OrientedBox(2e4 + 0.3, 1.7e4 + 0.7, 1e-3, 1e-9, 0.3))
        assert recentred_shoelace(q) < 0.0

    def test_same_quad_as_from_points(self):
        rng = random.Random(41)
        thetas = [0.0, math.nextafter(0.5 * math.pi, 0.0)] + [rng.uniform(0.0, math.pi) for _ in range(2000)]
        for t in thetas:
            b = OrientedBox(rng.uniform(0, 2e4), rng.uniform(0, 2e4), rng.uniform(1, 300), rng.uniform(1, 300), t)
            q = vertices_of(b)
            assert q == ConvexQuad.from_points(raw_corners(b))
            assert recentred_shoelace(q) < 0.0


class TestFromPoints:
    def test_every_cyclic_presentation_gives_one_quad(self):
        cycle = [(1.0, 0.0), (5.0, 1.0), (4.0, 4.0), (0.0, 3.0)]
        for pts in (cycle, cycle[::-1]):
            for k in range(4):
                assert ConvexQuad.from_points(pts[k:] + pts[:k]).flat == (1.0, 0.0, 0.0, 3.0, 4.0, 4.0, 5.0, 1.0)

    def test_collinear_points_keep_their_winding(self):
        # the shoelace sum is 0, so neither winding is reversed
        line = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        assert ConvexQuad.from_points(line[2:] + line[:2]).flat == (0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
        assert ConvexQuad.from_points(line[::-1]).flat == (0.0, 0.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0)

    def test_a_tie_in_y_is_broken_by_x(self):
        q = ConvexQuad.from_points([(4.0, 0.0), (0.0, 0.0), (0.0, 2.0), (4.0, 2.0)])
        assert q.flat == (0.0, 0.0, 0.0, 2.0, 4.0, 2.0, 4.0, 0.0)


class TestOuterHbb:
    def test_axis_aligned(self):
        h = outer_hbb(OrientedBox(0, 0, 4, 2, 0))
        assert (h.xc, h.yc, h.w, h.h) == (0, 0, 4, 2)

    def test_diamond_square(self):
        s = math.sqrt(2.0)
        h = outer_hbb(OrientedBox(0.5, 0.5, s, s, math.pi / 4))
        assert h.w == pytest.approx(2.0) and h.h == pytest.approx(2.0)

    def test_pi_over_6(self):
        # w = 4cos30 + 2sin30, h = 4sin30 + 2cos30 (hand oracle)
        h = outer_hbb(OrientedBox(0, 0, 4, 2, math.pi / 6))
        assert h.w == pytest.approx(2 * SQRT3 + 1, abs=1e-12)
        assert h.h == pytest.approx(2 + SQRT3, abs=1e-12)

    def test_extent_that_overflows(self):
        # the fit of the DOTA line `0 -1e308 1e308 0 0 1e308 -1e308 0`: finite sides, extents 2e308
        box = min_area_rect([(0.0, -1e308), (1e308, 0.0), (0.0, 1e308), (-1e308, 0.0)])
        assert outer_hbb(OrientedBox(0, 0, 1e308, 1e308, math.pi / 4 - 0.1)).w < math.inf
        with pytest.raises(DegenerateGeometryError, match="outer HBB extent is not finite"):
            outer_hbb(box)


class TestIntersectionAndIoU:
    def test_identical(self):
        q = vertices_of(OrientedBox(0, 0, 3, 1, 0.7))
        assert _kern.quad_intersection_area(q.flat, q.flat) == pytest.approx(3.0, abs=1e-12)

    def test_disjoint(self):
        a = vertices_of(OrientedBox(0, 0, 1, 1, 0.2))
        b = vertices_of(OrientedBox(10, 10, 1, 1, 0.9))
        assert _kern.quad_intersection_area(a.flat, b.flat) == 0.0

    def test_half_overlap(self):
        a = vertices_of(OrientedBox(0, 0, 1, 1, 0))
        b = vertices_of(OrientedBox(0.5, 0, 1, 1, 0))
        assert _kern.quad_intersection_area(a.flat, b.flat) == pytest.approx(0.5, abs=1e-12)

    def test_self_iou(self):
        b = OrientedBox(1, 2, 3, 4, 0.5)
        assert iou(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_perpendicular_congruent(self):
        # overlap is the central 2x2 square: 4 / (8 + 8 - 4)
        v = iou(OrientedBox(0, 0, 4, 2, 0), OrientedBox(0, 0, 4, 2, math.pi / 2))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_undefined(self):
        line = ConvexQuad.from_points([(0, 0), (1, 1), (1, 1), (0, 0)])
        with pytest.raises(UndefinedIoUError):
            iou(line, line)


class TestMinAreaRect:
    def test_axis_aligned_corners(self):
        got = min_area_rect([(0, 0), (4, 0), (4, 2), (0, 2)])
        assert iou(got, OrientedBox(2, 1, 4, 2, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_square_roundtrip(self):
        b = OrientedBox(1, -2, 2, 2, 0.9)
        got = min_area_rect(corners(vertices_of(b)))
        assert iou(got, b) >= 1 - 1e-9

    def test_right_triangle(self):
        got = min_area_rect([(0, 0), (3, 0), (0, 4)])
        assert iou(got, OrientedBox(1.5, 2, 3, 4, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_collinear(self):
        with pytest.raises(DegenerateGeometryError):
            min_area_rect([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_fit_that_overflows(self):
        big = 1.7e308
        with pytest.raises(DegenerateGeometryError, match="not finite"):
            min_area_rect([(big, big), (-big, big), (-big, -big), (big, -big)])


class TestRotateAbout:
    def test_pivot_at_center_matches_rotate(self):
        b = OrientedBox(2, 3, 4, 2, 0.3)
        assert rotate_about(b, 2, 3, 0.25) == rotate(b, 0.25)

    def test_quarter_turn_moves_center(self):
        b = OrientedBox(1, 0, 1, 1, 0)
        out = rotate_about(b, 0, 0, math.pi / 2)
        assert (out.cx, out.cy) == pytest.approx((0, -1), abs=1e-12)


box_strategy = st.builds(
    OrientedBox,
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(0.05, 8),
    st.floats(0.05, 8),
    st.floats(0, math.pi),
)


@given(box_strategy, box_strategy)
def test_iou_symmetric(a, b):
    assert abs(iou(a, b) - iou(b, a)) <= 1e-12


@given(box_strategy)
def test_min_area_rect_reproduces_box(b):
    assert iou(min_area_rect(corners(vertices_of(b))), b) >= 1 - 1e-9


@given(box_strategy)
def test_outer_hbb_lipschitz_in_theta(b):
    # one micro-radian of rotation moves no HBB field more than 1e-4 diagonals
    h0, h1 = outer_hbb(b), outer_hbb(rotate(b, 1e-6))
    bound = 1e-4 * b.diagonal
    for a, c in ((h0.w, h1.w), (h0.h, h1.h), (h0.xc, h1.xc), (h0.yc, h1.yc)):
        assert abs(a - c) <= bound


@given(box_strategy)
def test_constructor_idempotent(b):
    assert OrientedBox(b.cx, b.cy, b.w_side, b.h_side, b.theta) == b
    q = vertices_of(b)
    assert ConvexQuad(q.flat) == q == ConvexQuad.from_points(corners(q))


def test_convex_quad_rejects_nonconvex():
    with pytest.raises(InvalidArgumentError):
        ConvexQuad.from_points([(0, 0), (2, 0), (0.4, 0.4), (0, 2)])


def test_convex_quad_constructor_validates():
    with pytest.raises(InvalidArgumentError, match="convex"):
        ConvexQuad((0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0))  # bow-tie
    with pytest.raises(InvalidArgumentError, match="8 coordinates"):
        ConvexQuad((0.0, 0.0, 1.0, 0.0, 1.0, 1.0))


def test_convex_quad_is_an_immutable_value():
    square = ConvexQuad((0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0))
    for given in ([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0], iter(square.flat), np.array(square.flat)):
        q = ConvexQuad(given)
        assert type(q.flat) is tuple and q == square and hash(q) == hash(square)
        assert q.area == square.area == 1.0
    with pytest.raises(AttributeError):
        square.flat = (0.0,) * 8
    ints = ConvexQuad([0, 0, 4, 0, 4, 2, 0, 2])
    assert ints.flat == (0, 0, 4, 0, 4, 2, 0, 2) and all(type(v) is int for v in ints.flat)


@pytest.mark.parametrize(
    "flat",
    [(0, 0, 1, 0, 1, 1, 0, "x"), (0, 0, 1, 0, 1, 1, 0, None), (0, 0, 1, 0, 1, 1, 0, 1j), (Decimal(1),) * 8, 5, None],
)
def test_convex_quad_rejects_non_real_coordinates(flat):
    with pytest.raises(InvalidArgumentError, match="quad coordinates must be"):
        ConvexQuad(flat)


def test_convex_quad_tolerance_does_not_grow_with_the_offset():
    for o in (0.0, 1e3, 1e5, 1e6):
        with pytest.raises(InvalidArgumentError):
            ConvexQuad.from_points([(o, o), (o + 1, o + 1), (o + 1, o), (o, o + 1)])
    # near-degenerate candidates far from the origin still build
    for rs in (0.0, 1e-12, 1e-9):
        four_candidates(HorizontalBox(2e4 + 0.3, 1.7e4, 40, 12), rs)


def test_quad_requires_finite():
    with pytest.raises(InvalidArgumentError, match="coordinate must be finite"):
        ConvexQuad.from_points([(0, 0), (1, 0), (math.inf, 1), (0, 1)])
    with pytest.raises(InvalidArgumentError, match="coordinate must be finite"):
        vertices_of(OrientedBox(1.7e308, 0, 1e308, 1, 0))  # a corner overflows
    with pytest.raises(InvalidArgumentError, match="coordinate must be finite"):
        min_area_rect([(0, 0), (1, 0), (math.nan, 1)])


def _target(scores):
    return targets.TargetVector(0.0, 0.0, 0.0, 0.0, 0.5, scores, "sig", 2.0)


NOT_REAL = {
    "OrientedBox": lambda: OrientedBox("1", 0, 1, 1, 0),
    "HorizontalBox": lambda: HorizontalBox(None, 0, 1, 1),
    "rotate_about": lambda: rotate_about(OrientedBox(0, 0, 1, 1, 0), "a", 0, 0),
    "Proposal": lambda: targets.Proposal("a", 0, 1, 1, 0),
    "min_area_rect string": lambda: min_area_rect([("a", 0), (1, 0), (0, 1)]),
    "min_area_rect one coordinate": lambda: min_area_rect([(0,), (1, 0), (0, 1)]),
    "min_area_rect no point": lambda: min_area_rect([0, (1, 0), (0, 1)]),
    "CobbVector": lambda: codec.CobbVector(0, 0, 1, 1, 0.2, 5),
    "TargetVector": lambda: _target(5),
    "decode": lambda: codec.decode(codec.CobbVector(0, 0, 1, 1, 0.2, "abcd")),
    "decode ratio": lambda: codec.decode(codec.CobbVector(0, 0, 1, 1, "a", (1, 0, 0, 0))),
    "decode extent": lambda: codec.decode(codec.CobbVector(0, 0, "a", 1, 0.2, (1, 0, 0, 0))),
    "decode_target": lambda: targets.decode_target(_target("abcd"), targets.Proposal.horizontal(0, 0, 1, 1)),
    "iou_matrix": lambda: codec.iou_matrix("a", 1, 0.2),
    "iou_matrix ratio": lambda: codec.iou_matrix(1, 1, "a"),
    "four_candidates ratio": lambda: codec.four_candidates(HorizontalBox(0, 0, 1, 1), "a"),
    "rs_from_ra ratio": lambda: codec.rs_from_ra("a", 1, 1),
    "rs_from_ra extent": lambda: codec.rs_from_ra(0.5, 1, "a"),
    "sensitivity_probe": lambda: targets.sensitivity_probe("r_ln", "a", 1e-4, HorizontalBox(0, 0, 2, 1)),
}


@pytest.mark.parametrize("call", NOT_REAL.values(), ids=NOT_REAL)
def test_values_that_are_not_real_numbers_raise_a_typed_error(call):
    with pytest.raises(InvalidArgumentError, match="finite"):
        call()


# ---------------------------------------------------------------------------
# The batch oracle: every row equals the scalar result under ==


def params(box):
    return [box.cx, box.cy, box.w_side, box.h_side, box.theta]


def oracle_pairs():
    """Seeded box pairs at offsets 0, 2e4 and 1e6: thin boxes down to aspect
    1e-6, overlapping twins, disjoint pairs and identical pairs."""
    rng = random.Random(31)
    pairs = []
    for offset in (0.0, 2e4, 1e6):
        for _ in range(400):
            long = rng.uniform(1.0, 10.0)
            short = long * (10.0 ** rng.uniform(-6.0, 0.0))
            w, h = (long, short) if rng.random() < 0.5 else (short, long)
            a = OrientedBox(offset + rng.random(), offset + rng.random(), w, h, rng.uniform(0.0, math.pi))
            b = OrientedBox(
                a.cx + rng.uniform(-0.2, 0.2) * long, a.cy + rng.uniform(-0.2, 0.2) * long,
                a.w_side * rng.uniform(0.8, 1.2), a.h_side * rng.uniform(0.8, 1.2), a.theta + rng.uniform(-0.2, 0.2),
            )
            pairs += [(a, b), (b, a), (a, a), (a, OrientedBox(a.cx + 3 * long, a.cy, w, h, 0.3))]
    return pairs


def test_vertices_many_matches_vertices_of_exactly():
    boxes = [box for pair in oracle_pairs() for box in pair]
    got = vertices_many([params(b) for b in boxes])
    assert got.shape == (len(boxes), 8)
    assert [i for i, (row, b) in enumerate(zip(got.tolist(), boxes)) if tuple(row) != vertices_of(b).flat] == []


def scalar_iou(a, b):
    try:
        return iou(ConvexQuad(tuple(a)), ConvexQuad(tuple(b)))
    except UndefinedIoUError:
        return None


def test_iou_many_matches_iou_exactly():
    pairs = oracle_pairs()
    a = vertices_many([params(x) for x, _ in pairs])
    b = vertices_many([params(y) for _, y in pairs])
    want = [scalar_iou(x, y) for x, y in zip(a.tolist(), b.tolist())]
    defined = [i for i, v in enumerate(want) if v is not None]
    assert len(defined) > 0.9 * len(pairs)
    got = iou_many(a[defined], b[defined]).tolist()
    assert [i for i, g in zip(defined, got) if g != want[i]] == []
    assert {0.0, 1.0} <= set(got)


def test_iou_many_raises_where_iou_does():
    pairs = oracle_pairs()[::5]
    a = vertices_many([params(x) for x, _ in pairs])
    b = vertices_many([params(y) for _, y in pairs])
    line = (0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    a = np.vstack([a, [line, line, line]])
    b = np.vstack([b, [line, vertices_of(OrientedBox(0.5, 0.5, 1, 1, 0)).flat, a[0]]])
    undefined = [i for i in range(len(a)) if scalar_iou(a[i], b[i]) is None]
    assert len(undefined) > 2  # the two lines, and thin boxes far out with zero shoelace area
    for i in range(len(a)):
        if i in undefined:
            with pytest.raises(UndefinedIoUError, match="zero-area"):
                iou_many(a[i], b[i])
        else:
            assert iou_many(a[i], b[i]).tolist() == [scalar_iou(a[i], b[i])]
    with pytest.raises(UndefinedIoUError):
        iou_many(a, b)
    with pytest.raises(InvalidArgumentError, match="row counts"):
        iou_many(a, b[1:])


def test_iou_many_raises_what_iou_raises_for_the_first_rejected_row():
    """A non-finite row raises the scalar error rather than scoring NaN, in
    row order with the zero-area rows, and so does a quad whose shoelace
    area overflows; no numpy warning escapes (the test configuration makes
    one an error)."""
    square = (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    inf = (0.0, 0.0, math.inf, 0.0, 1.0, 1.0, 0.0, 1.0)
    line = (0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError, match="coordinate must be finite, got inf"):
        iou_many([square, square, line], [square, inf, line])
    with pytest.raises(UndefinedIoUError, match="zero-area"):
        iou_many([square, line, square], [square, line, inf])
    far = tuple(v * 1e200 for v in square)
    with pytest.raises(UndefinedIoUError, match="overflows"):
        iou_many([square, far, far], [square, square, far])


def test_iou_of_an_overflowing_area_raises():
    """A quad whose area overflows has no float IoU: ``iou`` and
    ``iou_many`` raise a typed error for it rather than return NaN (for the
    quad against itself, where both areas and the union are infinite) or 0."""
    big = ConvexQuad((0.0, 0.0, 1e200, 0.0, 1e200, 1e200, 0.0, 1e200))
    square = ConvexQuad((0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0))
    for a, b in ((big, big), (big, square), (square, big)):
        with pytest.raises(UndefinedIoUError, match="overflows"):
            iou(a, b)
        with pytest.raises(UndefinedIoUError, match="overflows"):
            iou_many([square.flat, a.flat], [square.flat, b.flat])
    assert iou_many([square.flat], [square.flat]).tolist() == [iou(square, square)] == [1.0]


@pytest.mark.parametrize(
    "row",
    [
        [0.0, 0.0, 1.0, 1.0, math.nan],
        [math.inf, 0.0, 1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 1.0, -math.inf],
        [1.7e308, 0.0, 1e308, 1.0, 0.0],  # a corner overflows
    ],
)
def test_vertices_many_raises_what_the_scalar_path_raises(row):
    with pytest.raises(InvalidArgumentError) as scalar:
        vertices_of(OrientedBox(*row))
    good = params(OrientedBox(0.3, 0.2, 2.0, 1.0, 0.4))
    with pytest.raises(InvalidArgumentError) as batch:
        vertices_many([good, row, good])
    assert str(batch.value) == str(scalar.value)


def test_vertices_many_runs_the_convexity_check(monkeypatch):
    # corners of a rectangle always pass; a negative tolerance fails every quad
    monkeypatch.setattr(geometry, "GEOM_EPS", -1.0)
    box = OrientedBox(0.3, 0.2, 2.0, 1.0, 0.4)
    with pytest.raises(InvalidArgumentError, match="convex") as scalar:
        vertices_of(box)
    with pytest.raises(InvalidArgumentError, match="convex") as batch:
        vertices_many([params(box)])
    assert str(batch.value) == str(scalar.value)


def test_oriented_many_matches_the_constructor_exactly():
    half = 0.5 * math.pi
    angles = [0.0, -0.0, -1e-17, 1e-300, half, -half, math.nextafter(half, 0.0), math.pi, -math.pi,
              math.nextafter(math.pi, 0.0), 3.0, -5.5, 7 * math.pi, 1e6, -1e300]
    rows = [[0.5 * k, -3.0, 1.0 + k, 2.0, t] for k, t in enumerate(angles)]
    want = [params(OrientedBox(*r)) for r in rows]
    assert oriented_many(rows).tolist() == want


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 1.0, -2.0, 0.2], [0.0, math.nan, 1.0, 1.0, 0.2]])
def test_oriented_many_raises_what_the_constructor_raises(bad):
    with pytest.raises((InvalidArgumentError, DegenerateGeometryError)) as scalar:
        OrientedBox(*bad)
    with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
        oriented_many([[0.0, 0.0, 1.0, 1.0, 0.0], bad, [0.0, 0.0, math.inf, 1.0, 0.0]])


def fit_outcome(x, y):
    """``min_area_rect`` of one row of points as fields, or its error as
    ``(class, message)``."""
    try:
        return params(min_area_rect(list(zip(x, y))))
    except (DegenerateGeometryError, InvalidArgumentError) as e:
        return type(e), str(e)


def convex_quads(n, seed):
    """Seeded ``(N, 4)`` coordinates of four points in convex position: on an
    ellipse with semi-axes up to 300 and aspect down to 1e-3, at angles one
    per quarter turn, turned by a random angle and centred up to 2e4 from
    the origin, in a random cyclic start and winding."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = np.exp(rng.uniform(0.0, math.log(300.0), (n, 1)))
    b = a * 10.0 ** rng.uniform(-3.0, 0.0, (n, 1))
    phi = 0.5 * math.pi * (np.arange(4) + rng.uniform(0.1, 0.9, (n, 4)))
    u, v = a * np.cos(phi), b * np.sin(phi)
    turn = rng.uniform(0.0, math.pi, (n, 1))
    x = rng.uniform(-2e4, 2e4, (n, 1)) + u * np.cos(turn) - v * np.sin(turn)
    y = rng.uniform(-2e4, 2e4, (n, 1)) + u * np.sin(turn) + v * np.cos(turn)
    order = (np.arange(4) * rng.choice([1, -1], (n, 1)) + rng.integers(0, 4, (n, 1))) % 4
    return np.take_along_axis(x, order, axis=1), np.take_along_axis(y, order, axis=1)


def dota_quads(n, seed, shuffle=True):
    """DOTA-style annotation quads: the corners of seeded pixel-scale boxes
    (centres up to 2e4, sides 2-300, aspect down to 1e-2, theta 0 in one row
    of ten) rounded to whole pixels, half of the coordinates then moved by up
    to a pixel, in a shuffled order, or with ``shuffle=False`` in their cycle
    from a seeded start and winding, as DOTA files give them.  Thin ones are
    often not convex."""
    rng = np.random.Generator(np.random.PCG64(seed))
    w = np.exp(rng.uniform(math.log(2.0), math.log(300.0), n))
    h = w * 10.0 ** rng.uniform(-2.0, 0.0, n)
    theta = np.where(np.arange(n) % 10 == 0, 0.0, rng.uniform(0.0, math.pi, n))
    f = vertices_many(np.stack([rng.integers(0, 20000, n), rng.integers(0, 20000, n), w, h, theta], axis=1))
    f = np.round(f) + rng.uniform(-1.0, 1.0, f.shape) * (rng.random(f.shape) < 0.5)
    if shuffle:
        order = rng.permuted(np.tile(np.arange(4), (n, 1)), axis=1)
    else:
        order = (np.arange(4) * rng.choice([1, -1], (n, 1)) + rng.integers(0, 4, (n, 1))) % 4
    return np.take_along_axis(f[:, 0::2], order, axis=1), np.take_along_axis(f[:, 1::2], order, axis=1)


def turns_one_way(pts):
    """Whether four points, in the order given, turn the same way at every
    vertex by more than ``GEOM_EPS`` times their squared span."""
    spans, turns = geometry._spans_and_turns(*(v for p in pts for v in p))
    tol = GEOM_EPS * (max(spans) * max(spans))
    return min(turns) > tol or max(turns) < -tol


@pytest.mark.parametrize(
    "quads",
    [convex_quads(1500, 51), dota_quads(1500, 52), dota_quads(1500, 52, shuffle=False)],
    ids=["convex", "dota", "dota-cycles"],
)
def test_min_area_rect_many_matches_min_area_rect_bit_for_bit(quads, monkeypatch):
    x, y = quads
    want = [fit_outcome(*row) for row in zip(x.tolist(), y.tolist())]
    fitted = [i for i, w in enumerate(want) if isinstance(w, list)]
    scalar, calls = geometry.min_area_rect, []
    monkeypatch.setattr(geometry, "min_area_rect", lambda pts: calls.append(pts) or scalar(pts))
    got = min_area_rect_many(x[fitted], y[fitted])
    assert got.shape == (len(fitted), 5)
    assert got.tobytes() == np.array([want[i] for i in fitted]).tobytes()
    # the scalar fit takes only the rows that do not turn one way at every vertex
    rows = [list(zip(x[i].tolist(), y[i].tolist())) for i in fitted]
    assert calls == [pts for pts in rows if not turns_one_way(pts)]
    # a row the scalar fit rejects raises its error, between two good rows
    for i in [i for i, w in enumerate(want) if not isinstance(w, list)]:
        with pytest.raises(want[i][0], match=re.escape(want[i][1])):
            min_area_rect_many(x[[fitted[0], i, fitted[0]]], y[[fitted[0], i, fitted[0]]])


@pytest.mark.parametrize("factor", [1e-162, 1e153, 1e154])
def test_min_area_rect_many_matches_min_area_rect_near_the_float_range_ends(factor):
    """Where a cross product of the scalar hull could overflow, or round
    among subnormals, the row takes the scalar fit and still matches it."""
    x, y = convex_quads(300, 53)
    x, y = x * factor, y * factor
    want = [fit_outcome(*row) for row in zip(x.tolist(), y.tolist())]
    fitted = [i for i, w in enumerate(want) if isinstance(w, list)]
    assert len(fitted) > 100
    assert min_area_rect_many(x[fitted], y[fitted]).tobytes() == np.array([want[i] for i in fitted]).tobytes()


def test_min_area_rect_hull_survives_overflowing_cross_products():
    """At 1e153 the raw cross products of this quad overflow to NaN, which the
    turn test reads as a point to keep: the hull would hold a point twice and
    skip an edge, and the fit (area 1.0e308) would not be the minimum."""
    x, y = convex_quads(2000, 7)
    pts = list(zip((x[413] * 1e153).tolist(), (y[413] * 1e153).tolist()))
    hull = geometry._convex_hull(pts)
    assert sorted(hull) == sorted(pts)
    fit = min_area_rect(pts)
    assert fit.w_side * fit.h_side == pytest.approx(8.2196e307, rel=1e-4)


def test_min_area_rect_keeps_its_answers_away_from_overflow():
    """The hull rescales only a turn test that overflowed: subnormal points
    still read as collinear, and a fit mixing 1e300 with 1e-300 still fits."""
    with pytest.raises(DegenerateGeometryError, match="points are collinear"):
        min_area_rect([(0.0, 0.0), (1e-310, 0.0), (1e-310, 1e-310), (0.0, 1e-310)])
    assert min_area_rect([(0.0, 0.0), (0.0, 1e-300), (1e300, 0.0)]) == OrientedBox(5e299, 5e-301, 1e300, 1e-300, -0.0)
