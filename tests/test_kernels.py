"""Clipping kernel: intersection area against brute shoelace facts."""

import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from cobb import _kern
from cobb.codec import four_candidates
from cobb.geometry import HorizontalBox
from reference_scalar import signed_area2
from test_baselines import assert_same_bits


def rect(cx, cy, w, h, t):
    c, s = math.cos(t), math.sin(t)
    out = []
    for dx, dy in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)):
        out += [cx + dx * c + dy * s, cy - dx * s + dy * c]
    return tuple(out)


def reversed_winding(q):
    return tuple(v for i in range(3, -1, -1) for v in q[2 * i:2 * i + 2])


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
    assert abs(_kern.quad_intersection_area(reversed_winding(a), b) - base) < 1e-12


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


def reference_intersection_area(a, b):
    """The clipping loop with each vertex's side recomputed per edge (``% n``)."""
    area_b2 = (
        b[0] * b[3] - b[2] * b[1]
        + b[2] * b[5] - b[4] * b[3]
        + b[4] * b[7] - b[6] * b[5]
        + b[6] * b[1] - b[0] * b[7]
    )
    if area_b2 == 0.0:
        return 0.0
    poly = [(a[0], a[1]), (a[2], a[3]), (a[4], a[5]), (a[6], a[7])]
    clip = [(b[0], b[1]), (b[2], b[3]), (b[4], b[5]), (b[6], b[7])]
    if area_b2 < 0.0:
        clip.reverse()
    for i in range(4):
        if not poly:
            return 0.0
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % 4]
        ex, ey = bx - ax, by - ay
        if ex == 0.0 and ey == 0.0:
            continue
        out = []
        n = len(poly)
        for j in range(n):
            px, py = poly[j]
            qx, qy = poly[(j + 1) % n]
            dp = ex * (py - ay) - ey * (px - ax)
            dq = ex * (qy - ay) - ey * (qx - ax)
            if dp >= 0.0:
                out.append((px, py))
            if (dp > 0.0 and dq < 0.0) or (dp < 0.0 and dq > 0.0):
                t = dp / (dp - dq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        poly = out
    if len(poly) < 3:
        return 0.0
    return 0.5 * abs(signed_area2(poly))


def random_quad(rng, offset, reverse):
    """A rectangle near ``offset``, thin (aspect down to 1e-6) 30% of the time."""
    w = rng.uniform(0.1, 5.0)
    h = w * (rng.uniform(1e-6, 1e-3) if rng.random() < 0.3 else rng.uniform(0.1, 1.0))
    q = rect(offset + rng.uniform(-2, 2), offset + rng.uniform(-2, 2), w, h, rng.uniform(0, math.pi))
    return reversed_winding(q) if reverse else q


def test_matches_the_reference_loop_exactly():
    rng = random.Random(17)
    for offset in (0.0, 2e4, 1e6):
        for reverse_a in (False, True):
            for reverse_b in (False, True):
                for _ in range(500):
                    a, b = random_quad(rng, offset, reverse_a), random_quad(rng, offset, reverse_b)
                    assert _kern.quad_intersection_area(a, b) == reference_intersection_area(a, b)


def assert_batch_is_the_scalar_kernel(pairs):
    """Each row of the batch kernel has the scalar kernel's bit pattern (so
    NaN equals NaN); returns the scalar areas."""
    a, b = np.array(pairs, dtype=float).transpose(1, 0, 2)
    want = [_kern.quad_intersection_area(x, y) for x, y in pairs]
    assert_same_bits(_kern.quad_intersection_area_many(a, b), want)
    return want


def test_batch_matches_the_scalar_kernel_exactly():
    rng = random.Random(23)
    pairs = []
    for offset in (0.0, 2e4, 1e6):
        for reverse_a in (False, True):
            for reverse_b in (False, True):
                for _ in range(300):
                    pairs.append((random_quad(rng, offset, reverse_a), random_quad(rng, offset, reverse_b)))
                a = random_quad(rng, offset, reverse_a)
                pairs.append((a, a))
                # disjoint
                pairs.append((a, rect(offset + 50, offset - 50, 1, 1, 0.3)))
    # zero-area rs = 0 candidates (the HBB diagonals) on either side
    for w, h in ((4.0, 2.0), (1.0, 3.0), (1e-3, 1.0)):
        for hbb in (HorizontalBox(0, 0, w, h), HorizontalBox(2e4, 1e6, w, h)):
            cands = [q.flat for q in four_candidates(hbb, 0.0)]
            for x in cands:
                for y in cands:
                    pairs.append((x, y))
    # a zero-length clip edge: a triangle with a repeated vertex
    tri = (0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0, 2.0)
    pairs += [(UNIT, tri), (rect(0.5, 0.5, 1, 1, 0.7), tri), (tri, UNIT), (tri, tri)]
    want = assert_batch_is_the_scalar_kernel(pairs)
    assert 0.0 < sum(v > 0.0 for v in want) < len(want)
    # an inf, -inf, nan or 1e308 in each coordinate of either side
    base = (rect(0.3, -0.2, 2.0, 1.0, 0.4), rect(0.4, 0.1, 1.0, 1.5, 1.0))
    special = []
    for v in (math.inf, -math.inf, math.nan, 1e308):
        for side in range(2):
            for i in range(8):
                pair = [list(q) for q in base]
                pair[side][i] = v
                special.append(pair)
    assert_batch_is_the_scalar_kernel(special)
    # every polygon empties before the last clip edge: disjoint pairs in
    # both windings and zero-area clip quads
    far = rect(50, 50, 1, 1, 0)
    line = (0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    empty = [(UNIT, far), (UNIT, reversed_winding(far)), (far, UNIT), (UNIT, line), (far, tri), (UNIT, (0.0,) * 8)]
    want = assert_batch_is_the_scalar_kernel(empty)
    assert want == [0.0] * len(empty)
    # clipped polygons of 0 and 3 to 8 vertices, in one batch and one row at a time
    mixed = [(UNIT, rect(*box)) for box in (
        (0.75, 1.0, 1, 1, 0.3), (0, 0.75, 1, 1, math.pi / 4), (0, 0.25, 0.5, 1, 0.3), (0, 0.25, 2, 1, 0.6),
        (0, 0, 0.5, 1, 0.3), (0, 0.25, 1, 1, math.pi / 4), (0, 0, 1, 1, 0.3),
    )]
    assert_batch_is_the_scalar_kernel(mixed)
    for pair in mixed + empty + special[::5] + pairs[::97]:
        assert_batch_is_the_scalar_kernel([pair])


QUARTER_PI = math.pi / 4
BOUNDARY_ANGLES = (
    0.0, math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0),
    QUARTER_PI, math.nextafter(QUARTER_PI, 0.0), math.nextafter(QUARTER_PI, 1.0),
)


@st.composite
def boundary_pairs(draw):
    """Two overlapping-or-near rectangles around one offset (out to 1e6): theta
    at 0 or pi/4 give or take an ulp half of the time, squares and aspects
    down to 1e-6, either winding."""
    offset = draw(st.sampled_from((0.0, 2e4, 1e6)))

    def quad():
        w = draw(st.floats(0.1, 5.0))
        aspect = draw(st.sampled_from((1.0, 1e-6)) | st.floats(1e-6, 1.0))
        theta = draw(st.sampled_from(BOUNDARY_ANGLES) | st.floats(0.0, math.pi))
        cx, cy = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        q = rect(offset + cx, offset + cy, w, w * aspect, theta)
        return reversed_winding(q) if draw(st.booleans()) else q

    return quad(), quad()


@settings(max_examples=25)
@given(st.lists(boundary_pairs(), min_size=1, max_size=12))
def test_batch_rows_are_the_scalar_kernel_near_the_boundaries(pairs):
    assert_batch_is_the_scalar_kernel(pairs)


def test_batch_of_no_rows():
    assert _kern.quad_intersection_area_many(np.empty((0, 8)), np.empty((0, 8))).shape == (0,)
