"""Baseline codecs: roundtrips and the boundary behaviors that define them."""

import math

import numpy as np
import pytest

from cobb import codec as cobb_codec, geometry
from cobb.baselines import (
    AcuteAngleCodec,
    CobbCodec,
    CslCodec,
    GlidingVertexCodec,
    LongEdgeCodec,
    available_codecs,
    get_codec,
)
from cobb.errors import CobbError, InvalidArgumentError
from cobb.geometry import OrientedBox, iou
from test_codec import seeded_boxes

QUARTER = math.pi / 4


class TestRegistry:
    def test_names(self):
        assert set(available_codecs()) == {"cobb", "cobb-ln", "acute", "long-edge", "csl", "gv"}
        for name in available_codecs():
            c = get_codec(name)
            assert c.name == name and c.dim == len(c.component_names)

    def test_csl_dim(self):
        assert get_codec("csl").dim == 94

    def test_unknown(self):
        with pytest.raises(InvalidArgumentError):
            get_codec("nope")


class TestAcute:
    def test_horizontal(self):
        enc = AcuteAngleCodec().encode(OrientedBox(0, 0, 4, 2, 0))
        assert list(enc) == [0, 0, 4, 2, 0]

    def test_boundary_jump(self):
        c = AcuteAngleCodec()
        lo = c.encode(OrientedBox(0, 0, 4, 2, QUARTER - 1e-6))
        hi = c.encode(OrientedBox(0, 0, 4, 2, QUARTER + 1e-6))
        assert abs(lo[4] - hi[4]) == pytest.approx(math.pi / 2, abs=1e-5)
        assert lo[2] == 4 and hi[2] == 2  # sides swapped across the wrap

    def test_roundtrip(self):
        c = AcuteAngleCodec()
        for box in seeded_boxes(200, seed=41):
            assert iou(box, c.decode(c.encode(box))) >= 1 - 1e-9


class TestLongEdge:
    def test_plain(self):
        enc = LongEdgeCodec().encode(OrientedBox(0, 0, 4, 2, math.pi / 6))
        assert list(enc) == pytest.approx([0, 0, 4, 2, math.pi / 6])

    def test_aspect_flip_near_square(self):
        c = LongEdgeCodec()
        eps = 1e-9
        wide = c.encode(OrientedBox(0, 0, 1 + eps, 1 - eps, math.pi / 6))
        tall = c.encode(OrientedBox(0, 0, 1 - eps, 1 + eps, math.pi / 6))
        assert wide[4] == pytest.approx(math.pi / 6)
        assert tall[4] == pytest.approx(math.pi / 6 - math.pi / 2)

    def test_square_tie_keeps_first_side(self):
        enc = LongEdgeCodec().encode(OrientedBox(0, 0, 2, 2, 0.3))
        assert enc[4] == pytest.approx(0.3)

    def test_roundtrip_non_square(self):
        c = LongEdgeCodec()
        for box in seeded_boxes(200, seed=42):
            if abs(box.w_side - box.h_side) < 1e-6:
                continue
            assert iou(box, c.decode(c.encode(box))) >= 1 - 1e-9


class TestCsl:
    def test_bin_center_roundtrips_exactly(self):
        c = CslCodec()
        theta = float(c.bin_centers[50])
        box = OrientedBox(0, 0, 4, 2, theta)
        assert iou(box, c.decode(c.encode(box))) >= 1 - 1e-9

    def test_bin_boundary_quantizes(self):
        c = CslCodec()
        theta = float(c.bin_centers[50]) + 0.5 * c.bin_width
        box = OrientedBox(0, 0, 4, 2, theta)
        dec = c.decode(c.encode(box))
        # off by half a bin in angle, so the roundtrip is visibly lossy
        assert iou(box, dec) < 1 - 1e-3
        err = abs(dec.theta - box.theta)
        assert min(err, math.pi / 2 - err) <= 0.5 * c.bin_width + 1e-12

    def test_window_against_hand_evaluation(self):
        c = CslCodec()
        sigma = 2.0 * math.pi / 90
        for theta in (0.1, 0.7, 1.2):
            box = OrientedBox(0, 0, 3, 1, theta)
            label = c.encode(box)[4:]
            assert label.max() == pytest.approx(math.exp(-0.5 * (min(
                abs(c.bin_centers[int(np.argmax(label))] - theta),
                math.pi - abs(c.bin_centers[int(np.argmax(label))] - theta)) / sigma) ** 2))
            for k in (10, 40, 77):
                d = abs(float(c.bin_centers[k]) - theta)
                d = min(d, math.pi - d)
                assert label[k] == pytest.approx(math.exp(-0.5 * (d / sigma) ** 2), abs=1e-12)
            assert int(np.argmax(label)) == int(np.argmin(np.abs(c.bin_centers - theta)))


class TestGlidingVertex:
    def test_axis_aligned_alphas_zero(self):
        enc = GlidingVertexCodec().encode(OrientedBox(0, 0, 4, 2, 0))
        assert list(enc) == [0, 0, 4, 2, 0, 0, 0, 0]

    def test_near_horizontal_alpha_jump(self):
        c = GlidingVertexCodec()
        plus = c.encode(OrientedBox(0, 0, 4, 2, 1e-4))
        minus = c.encode(OrientedBox(0, 0, 4, 2, -1e-4))
        assert float(np.max(np.abs(plus[4:] - minus[4:]))) > 0.5
        # yet the boxes are nearly identical
        assert iou(OrientedBox(0, 0, 4, 2, 1e-4), OrientedBox(0, 0, 4, 2, -1e-4)) > 0.999

    def test_roundtrip(self):
        c = GlidingVertexCodec()
        for box in seeded_boxes(200, seed=43):
            assert iou(box, c.decode(c.encode(box))) >= 1 - 1e-9

    def test_alphas_in_unit_interval(self):
        c = GlidingVertexCodec()
        for box in seeded_boxes(100, seed=44):
            enc = c.encode(box)
            assert np.all(enc[4:] >= 0.0) and np.all(enc[4:] <= 1.0)


class TestCobbCodecAdapter:
    def test_roundtrip_both_variants(self):
        for name in ("cobb", "cobb-ln"):
            c = get_codec(name)
            for box in seeded_boxes(100, seed=45, scale=0.2):
                assert iou(box, c.decode(c.encode(box))) >= 1 - 1e-9

    def test_loss_zero_on_equal(self):
        c = CobbCodec("sig")
        enc = c.encode(OrientedBox(0.1, 0.2, 0.5, 0.25, 0.7))
        assert c.loss(enc, enc) == 0.0

    def test_curve_components_are_raw_representation(self):
        from cobb.codec import encode as raw_encode

        c = CobbCodec("sig")
        box = OrientedBox(0, 0, 4, 2, 0.5)
        assert list(c.curve_components(box)) == pytest.approx(list(raw_encode(box).as_tuple()))


# -- the array forms ----------------------------------------------------------


def pixel_boxes(n, seed):
    """Seeded boxes at DOTA scale: centres up to 2e4, sides up to 300, aspect
    down to 1e-6; one in 10 takes theta from {0, pi/4, uniform} and one in 17
    is an exact square."""
    rng = np.random.Generator(np.random.PCG64(seed))
    boxes = []
    for i in range(n):
        cx, cy = (float(v) for v in rng.uniform(0.0, 2e4, 2))
        long = float(np.exp(rng.uniform(0.0, math.log(300.0))))
        short = long * 10.0 ** float(rng.uniform(-6.0, 0.0))
        w, h = (long, short) if rng.random() < 0.5 else (short, long)
        theta = float(rng.uniform(0.0, math.pi))
        if i % 10 == 0:
            theta = (0.0, QUARTER, theta)[int(rng.integers(3))]
        if i % 17 == 0:
            w = h = long
        boxes.append(OrientedBox(cx, cy, w, h, theta))
    return boxes


BATCH_BOXES = pixel_boxes(2000, 41)


def fields(box):
    return [box.cx, box.cy, box.w_side, box.h_side, box.theta]


def scalar_outcome(call, arg):
    """``call(arg)``, or the error it raises as ``(class, message)``."""
    try:
        return call(arg)
    except (CobbError, ArithmeticError) as e:
        return type(e), str(e)


def assert_raises_like(outcome, call, arg):
    with pytest.raises(outcome[0]) as got:
        call(arg)
    assert (type(got.value), str(got.value)) == outcome


@pytest.mark.parametrize("name", available_codecs())
def test_array_forms_equal_the_scalar_ones_bit_for_bit(name):
    codec = get_codec(name)
    want = np.array([codec.encode(b) for b in BATCH_BOXES])
    assert np.array_equal(codec.encode_many(BATCH_BOXES), want)
    noise = np.random.Generator(np.random.PCG64(42)).normal(0.0, 1e-3, want.shape)
    rows = np.vstack([want, want + noise])
    outcomes = [scalar_outcome(codec.decode, r) for r in rows]
    ok = [i for i, o in enumerate(outcomes) if isinstance(o, OrientedBox)]
    assert len(ok) > len(want)
    assert np.array_equal(codec.decode_many(rows[ok]), np.array([fields(outcomes[i]) for i in ok]))
    # rows the scalar decode rejects, each between two good rows
    for i in [i for i, o in enumerate(outcomes) if not isinstance(o, OrientedBox)][:10]:
        assert_raises_like(outcomes[i], codec.decode_many, rows[[ok[0], i, ok[0]]])


def tie_boxes():
    """Boxes whose candidates tie exactly: theta 0 (rs = 0, where candidates
    1 and 2 are both the HBB), squares at pi/4 (all four are the diamond),
    and theta at atan2(h, w) and atan2(w, h), where a term of the sign index
    is zero, on the angle and one ulp to either side."""
    rng = np.random.Generator(np.random.PCG64(44))
    boxes = []
    for _ in range(40):
        cx, cy = (float(v) for v in rng.uniform(0.0, 2e4, 2))
        w = float(np.exp(rng.uniform(0.0, math.log(300.0))))
        h = w * 10.0 ** float(rng.uniform(-6.0, 0.0))
        boxes += [OrientedBox(cx, cy, w, h, 0.0), OrientedBox(cx, cy, w, w, QUARTER)]
        for t in (math.atan2(h, w), math.atan2(w, h)):
            boxes += [OrientedBox(cx, cy, w, h, a) for a in (math.nextafter(t, 0.0), t, math.nextafter(t, 2.0))]
    return boxes


def near_tie(box):
    """Whether a second candidate scores 1 within 1e-9 in the box's score row."""
    return sum(v >= 1.0 - 1e-9 for v in cobb_codec.encode(box).scores) >= 2


def sign_index(box):
    c, s = math.cos(box.theta), math.sin(box.theta)
    return (box.w_side * c - box.h_side * s > 0.0) + 2 * (box.h_side * c - box.w_side * s < 0.0)


@pytest.mark.parametrize("name", ["cobb", "cobb-ln"])
def test_encode_many_asks_the_oracle_only_at_ties(name, monkeypatch):
    """The array form picks the candidate by the sign of two vertex
    coordinates, with no batch clipping; only rows where a second candidate
    ties within 1e-9 take the scalar oracle's pick, and each row stays equal
    to the scalar encode bit for bit."""
    codec = get_codec(name)
    ties = tie_boxes()
    assert any(sign_index(b) != cobb_codec.classify(b) for b in ties)  # the sign alone is not enough here
    uniform = [b for i, b in enumerate(pixel_boxes(2000, 43)) if i % 10 and i % 17]
    cases = [(ties, None), (BATCH_BOXES, 69), (uniform, 0)]
    wants = [np.array([codec.encode(b) for b in boxes]) for boxes, _ in cases]
    tied = [[b for b in boxes if near_tie(b)] for boxes, _ in cases]

    def refuse(a, b):
        raise AssertionError("batch clipping oracle called")

    seen, classify = [], cobb_codec.classify
    monkeypatch.setattr(cobb_codec, "classify", lambda box: seen.append(box) or classify(box))
    monkeypatch.setattr(geometry, "quad_intersection_area_many", refuse)
    for (boxes, count), want, expected in zip(cases, wants, tied):
        seen.clear()
        assert np.array_equal(codec.encode_many(boxes), want)
        assert seen == expected
        assert count is None or len(seen) == count


GOOD = OrientedBox(3.0, 4.0, 2.0, 1.0, 0.3)
NAN_TARGET = [0.0, 0.0, 0.0, 0.0, 0.5, math.nan, 0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "name, row",
    [
        ("cobb", NAN_TARGET),  # a non-finite target component
        ("cobb-ln", [0.0, 0.0, 0.0, 0.0, math.inf, 1.0, 0.0, 0.0, 0.0]),
        ("cobb", [0.0, 0.0, -800.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0]),  # a zero-extent decoded HBB
        ("cobb", [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),  # rs = 0 and a zero-area candidate
        ("cobb", [0.0, 0.0, 800.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0]),  # exp overflows
        ("acute", [0.0, 0.0, 0.0, 1.0, 0.2]),  # non-positive or non-finite sides
        ("acute", [0.0, 0.0, math.nan, 1.0, 0.2]),
        ("long-edge", [0.0, 0.0, 1.0, -1.0, 0.2]),
        ("csl", [0.0, 0.0, math.inf, 1.0] + [0.0] * 90),
        ("gv", [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
    ],
)
def test_decode_many_raises_what_decode_raises_for_the_first_bad_row(name, row):
    codec = get_codec(name)
    good = codec.encode(GOOD)
    outcome = scalar_outcome(codec.decode, row)
    assert not isinstance(outcome, OrientedBox)
    later = NAN_TARGET if name.startswith("cobb") else [0.0] * codec.dim
    assert_raises_like(outcome, codec.decode_many, [good, row, later, good])


@pytest.mark.parametrize("name", available_codecs())
@pytest.mark.parametrize(
    "box",
    [
        OrientedBox(0.0, 0.0, 1.5e308, 1.5e308, 0.7),  # the outer HBB overflows
        OrientedBox(0.0, 0.0, 1e-170, 1e-170, 0.5),  # products underflow to 0
        OrientedBox(1.7e308, 0.0, 1e308, 1.0, 0.3),  # a corner overflows
    ],
)
def test_encode_many_raises_what_encode_raises(name, box):
    codec = get_codec(name)
    outcome = scalar_outcome(codec.encode, box)
    if isinstance(outcome, np.ndarray):
        assert np.array_equal(codec.encode_many([GOOD, box])[1], outcome, equal_nan=True)
    else:
        assert_raises_like(outcome, codec.encode_many, [GOOD, box, GOOD])


@pytest.mark.parametrize("name", ["cobb", "cobb-ln", "acute", "long-edge", "csl"])
def test_array_forms_do_not_fall_back_on_valid_input(name, monkeypatch):
    codec = get_codec(name)
    rows = codec.encode_many(BATCH_BOXES[:300])

    def refuse(self, arg):
        raise AssertionError("scalar path called")

    monkeypatch.setattr(type(codec), "decode", refuse)
    if name.startswith("cobb"):
        monkeypatch.setattr(type(codec), "encode", refuse)
        assert np.array_equal(codec.encode_many(BATCH_BOXES[:300]), rows)
    assert codec.decode_many(rows).shape == (300, 5)


@pytest.mark.parametrize("name", available_codecs())
def test_array_forms_of_no_rows(name):
    codec = get_codec(name)
    assert codec.encode_many([]).shape == (0, codec.dim)
    assert codec.decode_many(np.empty((0, codec.dim))).shape == (0, 5)


@pytest.mark.parametrize("name", available_codecs())
def test_loss_many_equals_the_scalar_loss(name):
    codec = get_codec(name)
    rng = np.random.Generator(np.random.PCG64(43))
    shape = (60, codec.dim)
    # real encodings of boxes and their slightly rotated twins
    boxes = BATCH_BOXES[:200]
    real_a = codec.encode_many(boxes)
    real_b = codec.encode_many([OrientedBox(b.cx, b.cy, b.w_side, b.h_side, b.theta + 1e-3) for b in boxes])
    # exact component differences below, at and above the smooth-L1 knee
    base = 0.5 * rng.integers(-8, 9, shape)
    knee = rng.choice([0.0, 0.25, -0.75, 1.0, -1.0, 1.5, -4.0], shape)
    assert np.array_equal(base - (base - knee), knee)
    # signed zeros, and non-finite components
    zeros_a, zeros_b = rng.choice([0.0, -0.0], shape), rng.choice([0.0, -0.0], shape)
    odd = np.where(rng.random(shape) < 0.1, rng.choice([math.inf, -math.inf, math.nan], shape), base)
    a = np.vstack([real_a, base, zeros_a, odd])
    b = np.vstack([real_b, base - knee, zeros_b, base])
    want = np.array([codec.loss(x, y) for x, y in zip(a, b)])
    got = codec.loss_many(a, b)
    assert got.shape == (len(a),)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(codec.loss_many(a[:0], b[:0]), np.empty(0))
