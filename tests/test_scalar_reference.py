"""The scalar encode path against its reference forms (``reference_scalar``),
bit for bit: quad ordering, box corners, the clipping walk, the oracle
``iou``, the candidate set, the decode argmax, ``encode`` and
``classify`` on boundary boxes, and the decode chain down from
``decode_target``."""

import itertools
import math
import random
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np

import reference_scalar as ref
from cobb import _kern, codec, geometry, targets
from cobb.errors import DegenerateGeometryError, InvalidArgumentError
from cobb.geometry import ConvexQuad, HorizontalBox, OrientedBox
from test_kernels import UNIT, random_quad, rect, reversed_winding

QUARTER_PI = math.pi / 4


def bits(v):
    """Floats as their hex form, which tells -0.0 from 0.0; other values as
    they are, so an int where a float was expected differs too."""
    if isinstance(v, ConvexQuad):
        v = v.flat
    elif isinstance(v, OrientedBox):
        v = astuple(v)
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


def too_thin_for_the_oracle(box):
    hbb = geometry.outer_hbb(box)
    return (box.w_side / hbb.w) * (box.h_side / hbb.h) < codec._RA_MIN


def test_encode_and_classify_equal_the_reference_chain():
    """Every box equals the reference chain, except the boxes too thin for
    the oracle, which equal the array form (whose sign index names the
    candidate exactly); the reference picks a wrong candidate for some."""
    boxes = boundary_boxes()
    thin = [too_thin_for_the_oracle(b) for b in boxes]
    rows, bad = codec._encode_many(geometry.oriented_many([astuple(b) for b in boxes]))
    wrong = 0
    for box, is_thin, row, masked in zip(boxes, thin, rows.tolist(), bad.tolist()):
        got = (outcome(codec.encode, box), outcome(codec.classify, box))
        want = (outcome(ref.encode, box), outcome(ref.classify, box))
        if is_thin:
            assert not masked and got[0] == bits(tuple(row)), box
            wrong += got != want
        else:
            assert got == want, box
    # every candidate index is picked, and some boxes are rejected
    assert {codec.classify(b) for b, t in zip(boxes, thin) if not t} == {0, 1, 2, 3}
    assert len(boxes) >= 2000 and 0 < sum(thin) < 200 and wrong > 0


def offset_boxes():
    """The boundary boxes re-centred at offsets 0, 2e4 and 1e6."""
    return [
        OrientedBox(cx + o, cy + o, b.w_side, b.h_side, b.theta)
        for b in boundary_boxes()[::2]
        for o in (0.0, 2e4, 1e6)
        for cx, cy in ((0.0, 0.0), (0.3, -0.7))
    ]


def test_vertices_of_equals_the_reference():
    # boxes below an ulp of their centre, whose corners tie in y or coincide
    specks = [
        OrientedBox(o + 0.3, o - 0.7, w, h, theta)
        for o in (0.0, 2e4, 1e6)
        for w, h in ((1e-12, 1e-12), (1e-9, 1e-12), (1e-12, 1e-9))
        for theta in (0.0, 0.3, QUARTER_PI)
    ]
    assert_same(geometry.vertices_of, ref.vertices_of, [(b,) for b in offset_boxes() + specks])


def test_vertices_of_same_errors_on_non_finite_corners():
    """Fields past the box's checks: the start vertex decides which
    coordinate the error names, and NaN corners tie with nothing."""
    cases = [(OrientedBox(1.7e308, 0, 1e308, 1, 0),), (OrientedBox(0, -1.7e308, 3.0, 1e308, 0.4),)]
    fields = dict(cx=0.5, cy=-0.25, w_side=4.0, h_side=2.0, theta=0.3)
    for name in fields:
        for v in (math.nan, math.inf, -math.inf):
            cases.append((SimpleNamespace(**{**fields, name: v}),))
    for theta in (0.0, 0.3, QUARTER_PI, 1.2):
        # inf - inf: some corners NaN, some infinite
        cases.append((SimpleNamespace(cx=0.0, cy=0.0, w_side=math.inf, h_side=math.inf, theta=theta),))
        cases.append((SimpleNamespace(cx=math.inf, cy=-math.inf, w_side=1.0, h_side=math.inf, theta=theta),))
    assert_same(geometry.vertices_of, ref.vertices_of, cases)
    assert {type(outcome(geometry.vertices_of, *c)[0]) for c in cases} == {type}


def test_iou_equals_the_reference():
    rng = random.Random(17)
    boxes = offset_boxes()
    cases = []
    for box in boxes[::4]:
        hbb = geometry.outer_hbb(box)
        q = geometry.vertices_of(box)
        for cand in codec.four_candidates(hbb, codec.sliding_ratio(box)):
            cases += [(q, cand), (cand, q), (box, cand)]
        cases.append((box, OrientedBox(box.cx + 0.25 * box.w_side, box.cy, box.h_side, box.w_side, box.theta)))
    for offset in (0.0, 2e4, 1e6):
        for _ in range(100):
            a, b = (ConvexQuad(random_quad(rng, offset, rng.random() < 0.5)) for _ in range(2))
            cases.append((a, b))
    # zero areas, areas that overflow, and shapes iou does not take
    point = ConvexQuad((1.0, 1.0) * 4)
    line = ConvexQuad((0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0))
    huge = ConvexQuad((0.0, 0.0, 1e200, 0.0, 1e200, 1e200, 0.0, 1e200))
    square = ConvexQuad(UNIT)
    cases += [(point, point), (line, point), (point, square), (huge, square), (square, huge), (square, UNIT)]
    assert_same(geometry.iou, ref.iou, cases)
    assert {type(outcome(geometry.iou, *c)) for c in cases} == {str, tuple}


def test_select_candidate_equals_the_reference():
    values = (0.0, 0.25, 1.0 - 2.0**-53, 1.0)
    cases = [(scores,) for scores in itertools.product(values, repeat=4)]
    cases += [(list(scores),) for (scores,) in cases[::7]] + [(np.array(scores),) for (scores,) in cases[::9]]
    cases += [((-0.0, 0.0, -0.0, 0.0),), ((0.0, -0.0, 0.0, -0.0),), ((math.inf, 1.0, -math.inf, math.inf),)]
    assert len(cases) > 256
    assert_same(codec.select_candidate, ref.select_candidate, cases)


# -- decode, candidate_box and decode_target ---------------------------------

PROPOSALS = (
    targets.Proposal.horizontal(0.3, -0.2, 40.0, 25.0),
    targets.Proposal.oriented(1e3 + 0.5, 5e2, 60.0, 20.0, 0.4),
)


def odd_targets(t):
    """``t`` with a wrong score count, a component that is not finite, an
    extent target ``exp`` overflows on or rounds to a zero extent, a ratio
    target at or past the top of ``ln``, and the argmax at candidate 0 or
    3 with the ratio target of rs = 0 (a zero-area candidate, which decodes
    to its needle)."""
    out = [replace(t, st=t.st[:3]), replace(t, st=t.st + (0.0,))]
    for name in ("tx", "ty", "tw", "th", "rt"):
        out += [replace(t, **{name: v}) for v in (math.nan, math.inf, -math.inf)]
    out += [replace(t, st=t.st[:k] + (v,) + t.st[k + 1 :]) for k in range(4) for v in (math.nan, -math.inf)]
    for name in ("tw", "th"):
        out += [replace(t, **{name: v}) for v in (709.0, 710.0, 1e3, -745.0, -800.0, -1e3)]
    out += [replace(t, tx=1e308), replace(t, ty=-1e308)]  # a centre that overflows
    zero_rs = 0.0 if t.variant == "sig" else 1.0
    out += [replace(t, rt=v) for v in (1.0, 1.0 + 2.0**-52, 1.5, 1e300, -1200.0)]
    for st in ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0)):
        out += [replace(t, rt=zero_rs, st=st), replace(t, rt=-0.0, st=st)]
    return out


def test_decode_target_equals_the_reference_chain():
    cases = []
    for box in boundary_boxes()[::5]:
        for p in PROPOSALS:
            for variant in ("sig", "ln"):
                cases.append((targets.encode_target(box, p, variant), p))
    for t, p in cases[:: len(cases) // 12]:
        cases += [(odd, p) for odd in odd_targets(t)]
    assert_same(targets.decode_target, ref.decode_target, cases)
    got = [outcome(targets.decode_target, *c) for c in cases]
    assert {o[0] for o in got if isinstance(o[0], type)} == {InvalidArgumentError, DegenerateGeometryError}
    needle = (5e-324).hex()
    assert sum(needle in o for o in got) > 0 and sum(isinstance(o[0], str) for o in got) > 400


def test_decode_and_candidate_box_equal_the_reference():
    vectors = []
    for xc, yc, w, h in ((0.3, -0.2, 4.0, 2.0), (1e6, -2e4, 2.0, 4.0), (0.0, 0.0, 1e-300, 1e300)):
        for rs in (0.0, -0.0, 1e-300, 0.2, 0.5, -1e-13, -3.0, 0.7, math.nan, math.inf):
            for scores in ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.2, 0.1, 0.9, 0.3), (0.0, 0.0, 0.0, 1.0)):
                vectors.append(codec.CobbVector(xc, yc, w, h, rs, scores))
    good = codec.CobbVector(0.3, -0.2, 4.0, 2.0, 0.2, (0.0, 1.0, 0.0, 0.0))
    for name in ("xc", "yc", "w", "h"):
        vectors += [replace(good, **{name: v}) for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
    vectors += [replace(good, w=math.nan, xc=math.inf), replace(good, w=math.inf, xc=math.nan)]
    vectors += [replace(good, scores=good.scores[:3]), replace(good, scores=(math.nan,) * 3)]
    assert_same(codec.decode, ref.decode, [(v,) for v in vectors])
    boxes = []
    for hbb in (HorizontalBox(0.3, -0.2, 4.0, 2.0), HorizontalBox(1e6, 0, 2, 4), HorizontalBox(0, 0, 0.0, 1.0)):
        for rs in (0.0, -0.0, -1e-13, 0.2, 0.5 + 1e-13, 0.6, math.nan):
            boxes += [(hbb, rs, i) for i in (0, 1, 2, 3, 4, -1)]
    assert_same(codec.candidate_box, ref.candidate_box, boxes)
