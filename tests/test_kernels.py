"""Clipping kernel: intersection area against brute shoelace facts."""

import math

from hypothesis import given, strategies as st

from cobb import _kern


def rect(cx, cy, w, h, t):
    c, s = math.cos(t), math.sin(t)
    out = []
    for dx, dy in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)):
        out += [cx + dx * c + dy * s, cy - dx * s + dy * c]
    return tuple(out)


UNIT = rect(0, 0, 1, 1, 0)


def test_quad_area_unit_square():
    assert _kern.quad_area(UNIT) == 1.0


def test_identical_quads():
    q = rect(0.3, -0.2, 2.0, 1.0, 0.4)
    assert abs(_kern.quad_intersection_area(q, q) - 2.0) < 1e-12


def test_disjoint():
    assert _kern.quad_intersection_area(UNIT, rect(5, 5, 1, 1, 0.3)) == 0.0


def test_half_shifted_unit_square():
    assert abs(_kern.quad_intersection_area(UNIT, rect(0.5, 0, 1, 1, 0)) - 0.5) < 1e-12


def test_degenerate_returns_zero():
    line = (0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    assert _kern.quad_intersection_area(UNIT, line) == 0.0
    assert _kern.quad_intersection_area(line, UNIT) == 0.0


def test_vertex_order_invariance():
    a, b = rect(0, 0, 2, 1, 0.2), rect(0.4, 0.1, 1, 1.5, 1.0)
    base = _kern.quad_intersection_area(a, b)
    for k in range(4):
        rolled = a[2 * k:] + a[:2 * k]
        assert abs(_kern.quad_intersection_area(rolled, b) - base) < 1e-12
    reversed_a = tuple(v for i in range(3, -1, -1) for v in a[2 * i:2 * i + 2])
    assert abs(_kern.quad_intersection_area(reversed_a, b) - base) < 1e-12


boxes = st.tuples(
    st.floats(-3, 3), st.floats(-3, 3),
    st.floats(0.1, 4), st.floats(0.1, 4),
    st.floats(0, math.pi),
)


@given(boxes, boxes)
def test_bounds_and_symmetry(a, b):
    qa, qb = rect(*a), rect(*b)
    area_a, area_b = a[2] * a[3], b[2] * b[3]
    inter = _kern.quad_intersection_area(qa, qb)
    assert -1e-12 <= inter <= min(area_a, area_b) + 1e-9 * max(area_a, area_b)
    assert abs(inter - _kern.quad_intersection_area(qb, qa)) < 1e-9
