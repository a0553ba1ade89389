"""The formulas written once over ``xp``: Python floats and arrays give the
same bits on edge rows, and so do the reference float copies.

Values are compared as ``float.hex`` strings, so that -0.0 and NaN count.
Every float call must run without raising: a float ``where`` evaluates both
of its branches.
"""

import itertools
import math

import numpy as np
import pytest

import reference_scalar as ref
from cobb import baselines, codec, targets
from cobb.geometry import _Arrays

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
    return [np.array(c) for c in zip(*rows)]


def hexes(out):
    return tuple(float(v).hex() for v in (out if isinstance(out, tuple) else (out,)))


def check(shared, rows, reference=None, **kw):
    """``shared`` of each row as floats equals ``shared`` of all rows as one
    array, and ``reference`` of each row, bit for bit."""
    floats = [hexes(shared(*row, **kw)) for row in rows]
    arrays = np.array(shared(*columns(rows), xp=_Arrays, **kw), ndmin=2)  # one row per output
    assert floats == [tuple(float(a[k]).hex() for a in arrays) for k in range(len(rows))]
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


def test_acute_swap():
    check(baselines._acute, [(w, h, t) for w, h in SHAPES for t in ANGLES], ref.acute)


def test_long_edge_angle():
    check(baselines._long_edge_angle, [(w, h, t) for w, h in SHAPES for t in ANGLES], ref.long_edge_angle)
