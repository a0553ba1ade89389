"""Sweep CSVs: continuity of the nine-parameter codec, jumps of the baselines."""

import math

import numpy as np
import pytest

from cobb import codec as cobb_codec, geometry
from cobb.baselines import CobbCodec, available_codecs, get_codec
from cobb.curves import aspect_sweep, emit_curves, rotation_sweep
from cobb.errors import DegenerateGeometryError, InvalidArgumentError
from cobb.geometry import OrientedBox, rotate
from test_baselines import near_tie, scalar_outcome

BOX = OrientedBox(0, 0, 4, 2, 0)
GRID = 1440  # quarter-degree steps
DIAMOND = OrientedBox(0, 0, 3, 3, math.pi / 4)


def column_jumps(values, threshold: float) -> list[int]:
    """Indices i where |values[i+1] - values[i]| exceeds the threshold."""
    v = np.asarray(values, dtype=float)
    return [int(i) for i in np.nonzero(np.abs(np.diff(v)) > threshold)[0]]


def max_neighbor_step(values) -> float:
    """The largest |values[i+1] - values[i]|, 0.0 for fewer than two values."""
    v = np.asarray(values, dtype=float)
    return float(np.max(np.abs(np.diff(v)))) if v.size > 1 else 0.0


class TestRotationSweep:
    def test_cobb_columns_continuous(self):
        header, rows = rotation_sweep(get_codec("cobb"), BOX, GRID)
        step = 2 * math.pi / GRID
        # every component obeys a grid-local Lipschitz bound; bound chosen an
        # order above the observed slopes, far below any genuine jump
        for col in range(1, rows.shape[1]):
            assert max_neighbor_step(rows[:, col]) <= 16 * step, header[col]

    def test_cobb_rs_period_and_peaks(self):
        header, rows = rotation_sweep(get_codec("cobb"), BOX, GRID)
        rs = rows[:, header.index("rs")]
        quarter = GRID // 4  # pi/2 of rotation
        assert np.allclose(rs[:GRID - quarter], rs[quarter:], atol=1e-9)
        # peaks at the diagonal angles: atan(h/w) or atan(w/h), mod pi/2
        peak = float(rows[int(np.argmax(rs)), 0]) % (math.pi / 2)
        tol = 2 * math.pi / GRID
        assert (
            abs(peak - math.atan2(2, 4)) <= tol or abs(peak - math.atan2(4, 2)) <= tol
        )
        assert rs.max() == pytest.approx(0.5, abs=1e-3)

    def test_acute_angle_column_jumps(self):
        header, rows = rotation_sweep(get_codec("acute"), BOX, GRID)
        theta = rows[:, header.index("theta")]
        half = GRID // 2  # the box repeats after half a turn
        jumps = column_jumps(theta[: half + 1], threshold=1.0)
        assert len(jumps) == 2
        locations = [float(rows[j, 0]) for j in jumps]
        assert locations[0] == pytest.approx(math.pi / 4, abs=2 * math.pi / GRID)
        assert locations[1] == pytest.approx(3 * math.pi / 4, abs=2 * math.pi / GRID)
        for j in jumps:
            assert abs(theta[j + 1] - theta[j]) == pytest.approx(math.pi / 2, abs=0.02)


class TestAspectSweep:
    def test_longedge_square_step(self):
        square = OrientedBox(0, 0, 1, 1, math.pi / 6)
        header, rows = aspect_sweep(get_codec("long-edge"), square, 513)
        theta = rows[:, header.index("theta")]
        jumps = column_jumps(theta, threshold=1.0)
        assert len(jumps) == 1
        assert float(rows[jumps[0], 0]) == pytest.approx(1.0, abs=0.01)

    def test_cobb_aspect_continuous(self):
        header, rows = aspect_sweep(get_codec("cobb"), OrientedBox(0, 0, 1, 1, 0.4), 513)
        ratios = rows[:, 0]
        log_step = math.log(ratios[1] / ratios[0])
        for col in range(1, rows.shape[1]):
            assert max_neighbor_step(rows[:, col]) <= 16 * log_step, header[col]


class TestEmit:
    def test_file_shape_and_float_format(self, tmp_path):
        path = tmp_path / "c.csv"
        n = emit_curves(get_codec("cobb"), "rotation", BOX, path, grid_points=32)
        lines = path.read_text().splitlines()
        assert n == 32 and len(lines) == 33
        assert lines[0] == "sweep,xc,yc,w,h,rs,s0,s1,s2,s3"
        value = lines[2].split(",")[0]
        assert float(value) == pytest.approx(2 * math.pi / 32)
        assert len(value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 17

    def test_unknown_sweep(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            emit_curves(get_codec("cobb"), "shear", BOX, tmp_path / "x.csv", GRID)


@pytest.mark.parametrize("sweep", [rotation_sweep, aspect_sweep])
@pytest.mark.parametrize("grid_points", [7, 8.5, 16.0, "16", None])
def test_grid_points_must_be_an_integer_of_at_least_8(sweep, grid_points):
    # a float or a string used to escape as a bare TypeError
    with pytest.raises(InvalidArgumentError, match="grid"):
        sweep(get_codec("acute"), BOX, grid_points)


# -- one array call per sweep, equal to the per-point loop ---------------------


def per_point(codec, box):
    """One grid box's components as the per-point sweeps computed them: the
    scalar encoding, raw for the nine-parameter codecs."""
    if isinstance(codec, CobbCodec):
        return np.array(cobb_codec.encode(box).as_tuple(), dtype=float)
    return codec.encode(box)


def per_point_rows(codec, column, boxes):
    """The sweep as a per-point loop over a grid of constructed boxes."""
    names = list(codec.curve_component_names or codec.component_names)
    rows = np.empty((len(boxes), 1 + len(names)))
    for i, (value, box) in enumerate(zip(column, boxes)):
        rows[i, 0] = value
        rows[i, 1:] = per_point(codec, box)
    return ["sweep"] + names, rows


def rotation_reference(codec, box, grid_points):
    turns = [2.0 * math.pi * i / grid_points for i in range(grid_points)]
    return per_point_rows(codec, turns, [rotate(box, t) for t in turns])


def aspect_reference(codec, box, grid_points):
    ratios = np.exp(np.linspace(math.log(0.25), math.log(4.0), grid_points))
    boxes = [OrientedBox(box.cx, box.cy, box.w_side * float(r), box.h_side, box.theta) for r in ratios]
    return per_point_rows(codec, ratios, boxes)


@pytest.mark.parametrize("name", available_codecs())
@pytest.mark.parametrize(
    "sweep, reference, box, grid_points",
    [
        (rotation_sweep, rotation_reference, BOX, GRID),  # theta 0 and the rs = 0 ties on the grid
        (rotation_sweep, rotation_reference, DIAMOND, GRID),  # squares at pi/4: all four candidates tie
        (aspect_sweep, aspect_reference, DIAMOND, 513),
        (rotation_sweep, rotation_reference, OrientedBox(0, 0, 1e200, 1e-200, 0.3), 16),  # out of range
        (rotation_sweep, rotation_reference, OrientedBox(15000.5, 9000.25, 40, 12, 1.3), GRID),  # pixel scale
        # w_side * ratio overflows above ratio 1.8: the grid itself is rejected,
        # as constructing the grid boxes was, before any box is encoded
        (aspect_sweep, aspect_reference, OrientedBox(0, 0, 1e308, 1, 0.3), 16),
    ],
    ids=["rotation", "rotation-diamond", "aspect-diamond", "rotation-extreme", "rotation-pixel", "aspect-overflow"],
)
def test_sweep_equals_the_per_point_loop(name, sweep, reference, box, grid_points):
    codec = get_codec(name)
    want = scalar_outcome(lambda g: reference(codec, box, g), grid_points)
    got = scalar_outcome(lambda g: sweep(codec, box, g), grid_points)
    if isinstance(want[1], str):  # the first grid box the scalar path rejects raises its error
        assert got == want
    else:
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


def test_extreme_sweep_raises_for_the_nine_parameter_codecs():
    for name in ("cobb", "cobb-ln"):
        with pytest.raises(DegenerateGeometryError, match="out of range"):
            rotation_sweep(get_codec(name), OrientedBox(0, 0, 1e200, 1e-200, 0.3), 16)


def test_rotation_sweep_asks_the_oracle_only_at_ties(monkeypatch):
    """The 1440-point sweep encodes its grid fields in one array call: it
    constructs an OrientedBox only for the rows where a second candidate
    ties within 1e-9, and those go to the scalar oracle."""
    boxes = [rotate(BOX, 2.0 * math.pi * i / GRID) for i in range(GRID)]
    expected = [b for b in boxes if near_tie(b)]
    assert 0 < len(expected) < 20
    codecs = [get_codec("cobb"), get_codec("cobb-ln")]

    def refuse(*args):
        raise AssertionError("per-box encode or batch clipping oracle called")

    seen, classify = [], cobb_codec.classify
    built, post_init = [], OrientedBox.__post_init__

    def counted_classify(box):
        seen.append(box)
        n = len(built)
        try:
            return classify(box)
        finally:
            del built[n:]  # the oracle's own boxes are not grid boxes

    batches, encode_many = [], cobb_codec._encode_many
    monkeypatch.setattr(OrientedBox, "__post_init__", lambda box: built.append(box) or post_init(box))
    monkeypatch.setattr(cobb_codec, "classify", counted_classify)
    monkeypatch.setattr(cobb_codec, "_encode_many", lambda p: batches.append(len(p)) or encode_many(p))
    monkeypatch.setattr(cobb_codec, "encode", refuse)
    monkeypatch.setattr(geometry, "quad_intersection_area_many", refuse)
    for codec in codecs:
        del seen[:], built[:], batches[:]
        rotation_sweep(codec, BOX, GRID)
        assert seen == expected and batches == [GRID], codec.name
        assert len(built) == len(seen) and all(a is b for a, b in zip(built, seen)), codec.name
