"""The formulas written once over ``xp``: Python floats and arrays give the
same bits on edge rows, and so do the reference float copies.

Values are compared as ``float.hex`` strings, so that -0.0 and NaN count.
Every float call must run without raising: a float ``where`` evaluates both
of its branches.  Every function of the package that takes ``xp`` is
checked here, and :func:`test_every_shared_formula_is_checked` fails for one
that is not; a formula of plain arithmetic, which takes no ``xp``, is given
the arrays as they are.
"""

import ast
import importlib
import inspect
import itertools
import math
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import cobb
import reference_scalar as ref
from cobb import baselines, codec, geometry, targets
from cobb.geometry import _Arrays, _Floats

QUARTER_PI, HALF_PI = 0.25 * math.pi, 0.5 * math.pi
HALF_BELOW = math.nextafter(0.5, 0.0)

_rng = np.random.Generator(np.random.PCG64(2024))
# clamped sliding ratios: the edges, then uniform ones
RS = [0.0, -0.0, 5e-324, 1e-300, 0.5, HALF_BELOW] + _rng.uniform(0.0, 0.5, 6).tolist()
# (w, h): w = h, w > h and w < h, aspect 1e-3 to 1, at three scales
SHAPES = [
    (scale, scale * a)[::flip]
    for k, a in enumerate(np.geomspace(1e-3, 1.0, 21).tolist())
    for flip, scale in ((1, (1.0, 37.5, 3e-3)[k % 3]), (-1, (2.0, 0.7, 450.0)[k % 3]))
]
# (w, h, rs, i): 12 ratios x 42 shapes x 4 candidates
GRID = [(w, h, rs, i) for rs in RS for w, h in SHAPES for i in range(4)]
# box angles in [0, pi/2): 0, the smallest, pi/4 and 1 ulp either side,
# 1 ulp below pi/2, and uniform ones
ANGLES = [0.0, 5e-324, math.nextafter(QUARTER_PI, 0.0), QUARTER_PI, math.nextafter(QUARTER_PI, 1.0),
          math.nextafter(HALF_PI, 0.0)] + _rng.uniform(0.0, HALF_PI, 6).tolist()
# ratio targets: <= 0, 0, in (0, 1] and > 1
RT = [-math.inf, -1e300, -1100.0, -2.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 0.25, math.nextafter(1.0, 0.0), 1.0,
      math.nextafter(1.0, 2.0), 1.7, 1e300, math.inf, math.nan] + _rng.uniform(-3.0, 2.0, 40).tolist()
# area ratios: 0.5 and 1 ulp either side
RA = [0.0, 0.1, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 0.9, 1.0]


def columns(rows):
    """One array per argument; a tuple argument (the scores, the points) as
    a tuple of the columns of its elements."""
    return [tuple(columns(c)) if isinstance(c[0], tuple) else np.array(c) for c in zip(*rows)]


def flat(out):
    """The outputs of one call, a tuple among them (the scores) spread out."""
    return [v for o in (out if isinstance(out, tuple) else (out,)) for v in (o if isinstance(o, tuple) else (o,))]


def hexes(out):
    return tuple(float(v).hex() for v in flat(out))


def array_hexes(f, rows, **kw):
    """``f`` of all rows as one array, as :func:`hexes` of each row."""
    out = flat(f(*columns(rows), **kw))
    arrays = [np.broadcast_to(a, len(rows)) for o in out for a in np.array(o, ndmin=2)]  # one per output
    return [tuple(float(a[k]).hex() for a in arrays) for k in range(len(rows))]


def check(shared, rows, reference=None, **kw):
    """``shared`` of each row as floats equals ``shared`` of all rows as one
    array, and ``reference`` of each row, bit for bit."""
    floats = [hexes(shared(*row, **kw)) for row in rows]
    xp = {"xp": _Arrays} if _takes_xp(shared) else {}
    assert floats == array_hexes(shared, rows, **xp, **kw)
    if reference is not None:
        assert floats == [hexes(reference(*row, **kw)) for row in rows]


def test_the_grid_covers_the_edges():
    assert len(GRID) == 2016
    assert {w == h for w, h in SHAPES} == {True, False}
    assert {w > h for w, h in SHAPES} == {True, False}
    assert {math.copysign(1.0, rs) for rs in RS} == {1.0, -1.0}


def test_slide_gaps():
    check(codec._slide_gaps, [(w, h, rs) for w, h, rs, _ in GRID[::4]], ref.slide_gaps)


def test_closed_forms():
    check(codec._closed_forms, [(w, h, rs) for w, h, rs, _ in GRID[::4]], ref.closed_forms)


def test_candidate_sides():
    check(codec._candidate_sides, GRID, ref.candidate_sides)


def test_sliding_ratio():
    # ANGLES, and the diagonal where the two products tie
    rows = []
    for w, h in SHAPES:
        diagonal = math.atan2(w, h)
        for theta in ANGLES + [diagonal, math.nextafter(diagonal, 0.0)]:
            c, s = math.cos(theta), math.sin(theta)
            rows.append((w, h, c, s, w * abs(c) + h * abs(s), w * abs(s) + h * abs(c)))
    check(codec._ratio, rows)


@pytest.mark.parametrize("variant", ["sig", "ln"])
def test_rt_from_rs(variant):
    rows = list(itertools.product(RS + [math.nan], RA))
    check(targets._rt_from_rs, rows, ref.rt_from_rs, variant=variant)


@pytest.mark.parametrize("variant", ["sig", "ln"])
def test_rs_from_rt(variant):
    check(targets._rs_from_rt, [(rt,) for rt in RT], ref.rs_from_rt, variant=variant)


# The baseline angle maps take arrays only: the reference alone checks them.


def test_acute_swap():
    rows = [(w, h, t) for w, h in SHAPES for t in ANGLES]
    assert array_hexes(baselines._acute, rows) == [hexes(ref.acute(*row)) for row in rows]


def test_long_edge_angle():
    rows = [(w, h, t) for w, h in SHAPES for t in ANGLES]
    assert array_hexes(baselines._long_edge_angle, rows) == [hexes(ref.long_edge_angle(*row)) for row in rows]


def test_pairwise():
    check(codec._pairwise, [(w, h, rs) for w, h, rs, _ in GRID[::4]], ref.pairwise)


# differences: the knee at 1 and 1 ulp either side, signed zeros, NaN, and
# the sizes from which 0.5*d*d overflows (the branch such a d does not take)
DIFFS = [0.0, -0.0, 5e-324, 0.5, -0.5, math.inf, -math.inf, math.nan, 1.8e154, 2e154, 1e155, -1e155, 1e300,
         sys.float_info.max, -sys.float_info.max] + [
    sign * v for sign in (1.0, -1.0) for v in (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))
] + _rng.uniform(-3.0, 3.0, 20).tolist()


def test_smooth_l1():
    assert 0.5 * 1e155 * 1e155 == math.inf
    with np.errstate(over="ignore"):  # as the array callers take it
        check(targets._smooth_l1, [(d,) for d in DIFFS], ref.smooth_l1)


# targets whose components run through DIFFS
LOSS_TARGETS = [
    targets.TargetVector(*DIFFS[k:k + 5], DIFFS[k + 5:k + 9], "sig", 2.0) for k in range(0, len(DIFFS) - 8, 2)
]


def test_loss_adds_box_and_ratio_then_scores():
    terms = [1.0] + [2.0**-53] * 8
    assert sum(terms) == 1.0  # left to right, each 2^-53 rounds away
    assert targets._loss(terms) == 1.0 + 2.0**-51  # the four score terms add up first
    for pred, target in itertools.permutations(LOSS_TARGETS, 2):
        assert float(targets.cobb_loss(pred, target)).hex() == float(ref.cobb_loss(pred, target)).hex()


PROPOSALS = [targets.Proposal.horizontal(0.0, 0.0, 1.0, 1.0), targets.Proposal(3.5, -2.25, 7.0, 0.3, 0.0),
             targets.Proposal(1e4 + 0.3, 2e4, 300.0, 120.0, 0.4)]
SCORES = [(0.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0), (0.25, 1.0 - 2.0**-53, 0.5, -0.0),
          (math.nan, 0.3, 0.7, 5e-324)] + [tuple(_rng.uniform(0.0, 1.0, 4).tolist()) for _ in range(4)]
CENTRES = [(0.0, -0.0), (3.5, -2.25), (-1e4, 1e6 + 0.3), (math.nan, math.inf)]
# (xc, yc, w, h, rs, ra, scores): every ratio against every area ratio (the
# ln branch edges), the shapes, centres and scores in turn, and extents 600
# orders of magnitude apart and infinite
TARGET_ROWS = [
    (*CENTRES[k % len(CENTRES)], *SHAPES[k % len(SHAPES)], rs, ra, SCORES[k % len(SCORES)])
    for k, (rs, ra) in enumerate(itertools.product(RS + [math.nan], RA))
] + [(0.0, 0.0, 1e-300, 1e300, 0.25, 0.5, SCORES[0]), (1.0, 1.0, math.inf, 2.0, 0.5, 1.0, SCORES[1])]


@pytest.mark.parametrize("variant", ["sig", "ln"])
@pytest.mark.parametrize("p", PROPOSALS)
def test_target(p, variant):
    check(targets._target, TARGET_ROWS, ref.target, p=p, variant=variant)


# extent targets: 0, -0.0, the largest math.exp takes, exp to a subnormal
# and to 0, and non-finite ones
EXTENTS = [0.0, -0.0, 1.0, -2.5, targets._EXP_MAX, -745.0, -746.0, -1e300, -math.inf, math.inf, math.nan]
HBB_ROWS = [
    (*CENTRES[k % len(CENTRES)], EXTENTS[k % len(EXTENTS)], EXTENTS[(3 * k + 1) % len(EXTENTS)], rt)
    for k, rt in enumerate(RT * 2)
]


@pytest.mark.parametrize("variant", ["sig", "ln"])
@pytest.mark.parametrize("p", PROPOSALS)
def test_hbb_of(p, variant):
    with np.errstate(over="ignore"):  # an extent that overflows, as decode_many takes it
        check(targets._hbb_of, HBB_ROWS, ref.hbb_of, p=p, variant=variant)


# angles: signed zeros, the least subnormal below 0 (adding pi rounds to pi),
# k*pi and pi/2 (and -pi/2) with 1 ulp either side, +-1e300, and uniform ones
TURNS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300] + [
    math.nextafter(t, t + d) for t in [k * math.pi for k in range(-3, 4)] + [HALF_PI, -HALF_PI] for d in (-1.0, 0.0, 1.0)
] + _rng.uniform(-10.0, 10.0, 12).tolist()


def test_turned():
    assert math.fmod(-5e-324, math.pi) + math.pi == math.pi
    check(geometry._turned, [(w, h, t) for w, h in SHAPES[:8] for t in TURNS], ref.turned)


# (w_side, h_side, cos, sin) of every angle above, signed zeros among them
TRIG = [(w, h, math.cos(t), math.sin(t)) for w, h in SHAPES[::3] for t in TURNS + ANGLES]


def test_extents():
    check(geometry._extents, TRIG, ref.extents)


def test_corners():
    centres = [(0.0, -0.0), (3.5, -2.25), (-1e4, 1e6 + 0.3)]
    check(geometry._corners, [(*centres[k % 3], *row) for k, row in enumerate(TRIG)], ref.corners)


def box_corners(n):
    """``n`` counterclockwise quads: the corners of boxes at pixel scale."""
    return [ref.corners(*_rng.uniform(-2e4, 2e4, 2), *_rng.uniform(4.0, 300.0, 2), math.cos(t), math.sin(t))
            for t in _rng.uniform(0.0, HALF_PI, n).tolist()]


def test_concave():
    at = 1e4
    quads = [
        (0.0,) * 8, (at,) * 8,  # four equal points: every turn is exactly 0
        (0.0, 0.0, 4.0, 0.0, 0.0, 4.0, 4.0, 4.0),  # a bow-tie
        (0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0),  # clockwise on screen: it turns one way
        (0.0, 0.0, 4.0, 0.0, 1.0, 1.0, 0.0, 4.0),  # a dart
        (0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0),  # a repeated point
    ] + [  # near-collinear at 1e4: the middle points off the line by up to 1e-3
        (at, at, at + 1.0, at + d, at + 2.0, at - d, at + 3.0, at) for d in (0.0, 5e-324, 1e-12, 1e-9, 1e-6, 1e-3)
    ] + box_corners(12)
    got = [geometry._concave(q) for q in quads]
    assert got[2:5] == [True, False, True] and not any(got[-12:])
    check(geometry._concave, [(q,) for q in quads], ref.concave)


# (ux, uy, points): unit vectors along the axes with signed zeros, over
# points with signed-zero and tied projections (ties in either order), then
# the hull edges of box corners
ZEROS = ((0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0))
TIED = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
UNITS = [(1.0, 0.0), (1.0, -0.0), (-0.0, 1.0), (0.0, -1.0), (-1.0, -0.0), (0.6, 0.8), (-0.8, 0.6)]
CALIPERS = [(ux, uy, pts) for ux, uy in UNITS for pts in (ZEROS, TIED, TIED[::-1])] + [
    ((bx - ax) / math.hypot(bx - ax, by - ay), (by - ay) / math.hypot(bx - ax, by - ay), tuple(zip(q[0::2], q[1::2])))
    for q in box_corners(12) for ax, ay, bx, by in [q[2 * i:2 * i + 4] for i in range(3)]
]


def test_calipers():
    check(geometry._calipers, CALIPERS, ref.calipers)


def test_rect_of():
    check(geometry._rect_of, [ref.calipers(*row)[1:] for row in CALIPERS], ref.rect_of)


def shared_formulas():
    """Every function of the package whose ``xp`` parameter defaults to
    ``_Floats``, by qualified name: module-level functions and methods of
    classes.  (A proposal's ``xp`` is its x coordinate.)"""
    found = {}
    for info in pkgutil.iter_modules(cobb.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"cobb.{info.name}")
        for obj in vars(module).values():
            for f in [obj, *vars(obj).values()] if inspect.isclass(obj) else [obj]:
                f = getattr(f, "__func__", f)  # static and class methods
                if inspect.isfunction(f) and f.__module__ == module.__name__ and _takes_xp(f):
                    found[f"{module.__name__}.{f.__qualname__}"] = f
    return found


def _takes_xp(f):
    xp = inspect.signature(f).parameters.get("xp")
    return xp is not None and xp.default is _Floats


def checked_formulas():
    """The functions this file passes to :func:`check`."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "check"]
    return {eval(ast.unparse(c.args[0]), globals()) for c in calls if c.args}


def test_every_shared_formula_is_checked():
    found = shared_formulas()
    assert {"cobb.codec._pairwise", "cobb.targets._target", "cobb.targets._smooth_l1"} <= set(found)
    checked = checked_formulas()
    assert sorted(name for name, f in found.items() if f not in checked) == []
