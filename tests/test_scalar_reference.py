"""The scalar encode path against its reference forms (``reference_scalar``),
bit for bit: quad ordering, the clipping walk, the candidate set, and
``encode`` and ``classify`` on boundary boxes."""

import math
import random

import reference_scalar as ref
from cobb import _kern, codec, geometry
from cobb.geometry import ConvexQuad, HorizontalBox, OrientedBox
from test_kernels import UNIT, random_quad, rect, reversed_winding

QUARTER_PI = math.pi / 4


def bits(v):
    """Floats as their hex form, which tells -0.0 from 0.0; other values as
    they are, so an int where a float was expected differs too."""
    if isinstance(v, ConvexQuad):
        v = v.flat
    elif isinstance(v, codec.CobbVector):
        v = v.as_tuple()
    if isinstance(v, tuple):
        return tuple(bits(x) for x in v)
    return v.hex() if isinstance(v, float) else v


def outcome(fn, *args):
    """``fn(*args)`` as :func:`bits`, or its error's type and message."""
    try:
        return bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the errors are compared too
        return type(exc), str(exc)


def assert_same(fn, ref_fn, cases):
    for args in cases:
        assert outcome(fn, *args) == outcome(ref_fn, *args), args


def rotations(points):
    """Every start of the cycle, in both windings."""
    out = []
    for cycle in (list(points), list(points)[::-1]):
        out += [cycle[k:] + cycle[:k] for k in range(len(cycle))]
    return out


def corners(q):
    return [(q[i], q[i + 1]) for i in range(0, 8, 2)]


# -- quad ordering ----------------------------------------------------------


def test_from_points_both_windings_and_far_offsets():
    rng = random.Random(5)
    cases = []
    for offset in (0.0, 2e4, 1e6, -1e6):
        for _ in range(60):
            cases += [(pts,) for pts in rotations(corners(random_quad(rng, offset, False)))]
    assert_same(ConvexQuad.from_points, ref.from_points, cases)


def test_from_points_repeated_points_and_ties_in_min_y():
    shapes = [
        [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (0.0, 0.0)],
        [(1.0, 2.0)] * 4,
        [(0.0, 0.0), (0.0, 0.0), (2.0, 0.0), (0.0, 2.0)],
        [(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)],  # two vertices at min y
        [(1.0, 0.0), (3.0, 0.0), (4.0, 2.0), (0.0, 2.0)],
        [(0.0, 0.0), (2.0, 0.0), (2.0, 0.0), (1.0, 3.0)],  # the tie is a repeated point
        [(0.0, -0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)],  # y ties across the sign of zero
        [(-0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0)],  # and so does x
        [(0, 0), (4, 0), (4, 2), (0, 2)],  # ints stay ints
        [(1e6, 1e6), (1e6 + 1.0, 1e6), (1e6 + 1.0, 1e6 + 0.5), (1e6, 1e6 + 0.5)],
    ]
    cases = [(pts,) for shape in shapes for pts in rotations(shape)]
    assert_same(ConvexQuad.from_points, ref.from_points, cases)


def test_from_points_same_errors():
    square = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]

    def with_values(pts, values):
        flat = [v for p in pts for v in p]
        for i, v in values.items():
            flat[i] = v
        return [(flat[i], flat[i + 1]) for i in range(0, 8, 2)]

    assert ConvexQuad.from_points(iter(square)) == ref.from_points(iter(square))
    cases = [(square[:3],), (square + square[:1],), ([],), ([(0.0,)] * 4,)]
    for pts in rotations(square):
        for i in range(8):
            for v in (math.inf, -math.inf, float("nan")):
                cases.append((with_values(pts, {i: v}),))
            for j in range(8):
                if j != i:
                    cases.append((with_values(pts, {i: math.inf, j: -math.inf}),))
                    # one NaN object in two places, and an inf
                    cases.append((with_values(pts, {i: math.nan, j: math.nan, (i + j) % 8: math.inf}),))
    # a NaN shoelace sum from finite-looking coordinates that overflow
    cases.append(([(1e308, 1e308), (-1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)],))
    assert_same(ConvexQuad.from_points, ref.from_points, cases)


def test_four_candidates_at_tiny_and_boundary_rs():
    cases = []
    for xc, yc in ((0.0, 0.0), (2e4 + 0.3, 1.7e4), (1e6, -1e6)):
        for w, h in ((4.0, 2.0), (2.0, 4.0), (1.0, 1.0), (1e-3, 1.0), (300.0, 3e-14)):
            hbb = HorizontalBox(xc, yc, w, h)
            for rs in (0.0, -0.0, 5e-324, 1e-300, 1e-16, 0.25, 0.5 - 1e-16, 0.5, -1e-13, 0.5 + 1e-13, 0.6, math.nan):
                cases.append((hbb, rs))
    cases.append((HorizontalBox(0.0, 0.0, 0.0, 1.0), 0.25))
    assert_same(codec.four_candidates, ref.four_candidates, cases)


# -- the clipping walk ------------------------------------------------------


def test_clipping_walk():
    rng = random.Random(11)
    pairs = []
    for offset in (0.0, 2e4, 1e6):
        for reverse_a in (False, True):
            for reverse_b in (False, True):
                for _ in range(150):
                    pairs.append((random_quad(rng, offset, reverse_a), random_quad(rng, offset, reverse_b)))
                a = random_quad(rng, offset, reverse_a)
                pairs += [(a, a), (a, rect(offset + 50, offset - 50, 1, 1, 0.3))]
    # classify's pairs: a box against its candidates, at rs = 0 (zero-area
    # diagonals) and at tiny rs
    for w, h, theta in ((4.0, 2.0, 0.0), (4.0, 2.0, 0.3), (1.0, 1.0, QUARTER_PI), (1.0, 1e-6, 1.0)):
        box = OrientedBox(0.0, 0.0, w, h, theta)
        q, hbb = geometry.vertices_of(box), geometry.outer_hbb(box)
        for rs in (0.0, 5e-324, 1e-300, codec.sliding_ratio(box)):
            for cand in ref.four_candidates(hbb, rs):
                pairs += [(q.flat, cand.flat), (cand.flat, q.flat)]
    # a zero-length clip edge, polygons that empty early, and non-finite values
    tri = (0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0, 2.0)
    line = (0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    pairs += [(UNIT, tri), (tri, UNIT), (tri, tri), (UNIT, line), (line, UNIT), (UNIT, rect(50, 50, 1, 1, 0))]
    base = (rect(0.3, -0.2, 2.0, 1.0, 0.4), reversed_winding(rect(0.4, 0.1, 1.0, 1.5, 1.0)))
    for v in (math.inf, -math.inf, math.nan, 1e308):
        for side in range(2):
            for i in range(8):
                pair = [list(q) for q in base]
                pair[side][i] = v
                pairs.append(tuple(pair))
    assert_same(_kern.quad_intersection_area, ref.quad_intersection_area, pairs)
    areas = [_kern.quad_intersection_area(a, b) for a, b in pairs]
    assert 0 < sum(v == 0.0 for v in areas) and 0 < sum(v > 0.0 for v in areas)


# -- encode and classify ----------------------------------------------------

ASPECTS = (1.0, 1.0 - 2.0 ** -52, 0.5, 0.1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-16)


def boundary_angles(aspect):
    """theta 0 and its next float, pi/4 give or take an ulp, and the angles
    where a vertex of a box of this aspect crosses an HBB centre line."""
    angles = {0.0, 5e-324, QUARTER_PI, math.nextafter(QUARTER_PI, 0.0), math.nextafter(QUARTER_PI, 1.0)}
    for t in (math.atan2(1.0, aspect), math.atan2(aspect, 1.0)):
        angles |= {t, math.nextafter(t, 0.0), math.nextafter(t, 2.0)}
    return sorted(angles)


def boundary_boxes():
    boxes = []
    for aspect in ASPECTS:
        for theta in boundary_angles(aspect):
            for w in (1.0, 37.5):
                for sides in ((w, w * aspect), (w * aspect, w)):
                    for cx, cy in ((0.0, 0.0), (1e6 + 0.3, -2e4 - 0.7)):
                        boxes.append(OrientedBox(cx, cy, *sides, theta))
    rng = random.Random(3)
    while len(boxes) < 2000:
        aspect = rng.choice(ASPECTS) if rng.random() < 0.5 else 10.0 ** rng.uniform(-16.0, 0.0)
        theta = rng.choice(boundary_angles(aspect)) if rng.random() < 0.5 else rng.uniform(0.0, math.pi)
        w = math.exp(rng.uniform(0.0, math.log(300.0)))
        sides = (w, w * aspect) if rng.random() < 0.5 else (w * aspect, w)
        boxes.append(OrientedBox(rng.uniform(-1e6, 1e6), rng.uniform(0.0, 1e4), *sides, theta))
    return boxes


def test_encode_and_classify_equal_the_reference_chain(monkeypatch):
    boxes = boundary_boxes()
    got = [(outcome(codec.encode, b), outcome(codec.classify, b)) for b in boxes]
    monkeypatch.setattr(geometry, "quad_intersection_area", ref.quad_intersection_area)
    monkeypatch.setattr(ConvexQuad, "from_points", staticmethod(ref.from_points))
    want = [(outcome(ref.encode, b), outcome(ref.classify, b)) for b in boxes]
    for box, g, w in zip(boxes, got, want):
        assert g == w, box
    # every candidate index is picked, and some boxes are rejected
    assert {c for _, c in got if isinstance(c, int)} == {0, 1, 2, 3}
    assert len(boxes) >= 2000
