"""Baseline codecs: roundtrips and the boundary behaviors that define them."""

import math

import numpy as np
import pytest

import reference_scalar as ref
from cobb import _kern, baselines, codec as cobb_codec, geometry, targets
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
from cobb.geometry import OrientedBox, iou, vertices_of
from test_codec import as_fields, seeded_boxes
from test_geometry import turns_one_way

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

    @pytest.mark.parametrize("name", [["cobb"], None, 3])
    def test_a_name_that_is_not_a_string(self, name):
        with pytest.raises(InvalidArgumentError, match="unknown codec"):
            get_codec(name)

    @pytest.mark.parametrize("name", available_codecs())
    def test_each_codec_class_has_its_own_encode_and_decode(self, name):
        cls = type(get_codec(name))
        missing = [m for m in ("encode", "decode") if m not in vars(cls)]
        assert not missing, (
            f"{cls.__name__} inherits {missing}: perfbench/spans.py traces each codec class's "
            "encode and decode from the class's own __dict__"
        )


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

    def test_encoding_is_translation_invariant(self):
        """Moving a box moves only the centre columns: far out, every other
        column equals the origin encoding bit for bit, also for thin boxes
        within 1e-10 of an axis, where two corners tie after rounding."""
        c = GlidingVertexCodec()
        origin = np.vstack([thin_fields(600, seed=47), [0.0, 0.0, 0.25, 0.002, -1e-10]])
        want = c.encode_many(origin)
        for offset in (2e4, 2e4 + 0.5, 1e6):
            moved = origin + [offset, offset, 0.0, 0.0, 0.0]
            got = c.encode_many(moved)
            assert_same_bits(got[:, :2], moved[:, :2])
            assert_same_bits(got[:, 2:], want[:, 2:])
        # corner picks used to give this box a_right = a_left = 0.0, a row
        # whose slide points are collinear
        box = OrientedBox(20000.5, 20000.5, 0.25, 0.002, -1e-10)
        enc = c.encode(box)
        assert enc[5] == enc[7] == pytest.approx(0.9999999875, rel=1e-12)
        assert iou(box, c.decode(enc)) > 1 - 1e-6

    def test_extents_stay_positive_at_the_smallest_sides(self):
        """The outer extents are at least the shorter side times about
        cos(pi/4), so at the smallest subnormal side neither rounds to 0 and
        each slide fraction is a ratio in [0, 1]."""
        c = GlidingVertexCodec()
        angles = [*np.linspace(0.0, 0.5 * math.pi, 48, endpoint=False), 1e-300, math.nextafter(0.5 * math.pi, 0.0)]
        sides = [(5e-324, 5e-324), (5e-324, 1.0), (1.0, 5e-324)]
        fields = np.array([(0.0, 0.0, w, h, t) for w, h in sides for t in angles])
        enc = c.encode_many(fields)
        assert (enc[:, 2:4] > 0.0).all() and (enc[:, 4:] >= 0.0).all() and (enc[:, 4:] <= 1.0).all()
        assert_same_bits(enc, [c.encode(OrientedBox(*r)) for r in fields.tolist()])

    def test_a_box_whose_corners_overflow_encodes(self):
        """No corner is built, so only an overflowing extent stops the
        encoder; the row's slide points overflow, so decoding it raises."""
        c = GlidingVertexCodec()
        enc = c.encode(OrientedBox(*CORNER_OVERFLOW))
        assert np.isfinite(enc).all()
        with pytest.raises(InvalidArgumentError, match="coordinate must be finite"):
            c.decode(enc)


def thin_fields(n, seed):
    """``(n, 5)`` fields of boxes at the origin: long side 1 to 10, aspect
    1e-6 to 1, every other angle within 1e-10 of 0 or pi/2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    long = rng.uniform(1.0, 10.0, n)
    near_axis = rng.choice([0.0, 0.5 * math.pi], n) + rng.uniform(-1e-10, 1e-10, n)
    theta = np.where(np.arange(n) % 2 == 0, near_axis, rng.uniform(0.0, math.pi, n))
    return np.column_stack([np.zeros((n, 2)), long, long * 10.0 ** rng.uniform(-6.0, 0.0, n), theta])


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
        boxes = [
            OrientedBox(0, 0, 4, 2, 0.5),
            OrientedBox(0, 0, 4, 2, 0.0),
            OrientedBox(3.5, -2.0, 1, 1, QUARTER),
            OrientedBox(1e4, 2e4, 300.0, 0.01, 1.2),
        ]
        for name in ("cobb", "cobb-ln"):
            rows = get_codec(name).curve_components(as_fields(boxes))
            assert rows.shape == (len(boxes), 9)
            assert [tuple(r) for r in rows] == [cobb_codec.encode(b).as_tuple() for b in boxes]


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


# -- the scalar encoders and decoders, the reference the array forms are checked against


def acute_encode(box):
    """``acute``: the sides and angle, a quarter turn back from pi/4 on."""
    return np.array([box.cx, box.cy, *ref.acute(box.w_side, box.h_side, box.theta)], dtype=float)


def long_edge_encode(box):
    """``long-edge``: the long side, the short side and the long side's angle."""
    return np.array([box.cx, box.cy, *ref.long_edge_angle(box.w_side, box.h_side, box.theta)], dtype=float)


def csl_encode(box):
    """``csl``: the long-edge sides, then the angle's periodic Gaussian
    label over the bin centres."""
    lng, shrt, t = ref.long_edge_angle(box.w_side, box.h_side, box.theta)
    d = np.abs(CslCodec.bin_centers - t)
    d = np.minimum(d, math.pi - d)
    sigma = CslCodec.window_sigma * CslCodec.bin_width
    return np.concatenate([[box.cx, box.cy, lng, shrt], np.exp(-0.5 * (d / sigma) ** 2)])


def gv_encode(box):
    """``gv``: the outer HBB and the four slide fractions."""
    hbb = geometry.outer_hbb(box)
    s = abs(math.sin(box.theta))
    a_tb, a_rl = box.h_side * s / hbb.w, box.w_side * s / hbb.h
    return np.array([hbb.xc, hbb.yc, hbb.w, hbb.h, a_tb, a_rl, a_tb, a_rl], dtype=float)


def reference_encode(codec):
    """The scalar encoder of ``codec``; the nine-parameter codecs keep theirs
    in the package."""
    return {"acute": acute_encode, "long-edge": long_edge_encode, "csl": csl_encode, "gv": gv_encode}.get(
        codec.name, codec.encode
    )


def box_decode(vec):
    """``acute`` and ``long-edge``: the row is the box's fields."""
    return OrientedBox(float(vec[0]), float(vec[1]), float(vec[2]), float(vec[3]), float(vec[4]))


def csl_decode(vec):
    """``csl``: the long-edge fields, with the angle at the label's argmax
    bin centre."""
    theta = CslCodec.bin_centers[int(np.argmax(np.asarray(vec[4:], dtype=float)))]
    return OrientedBox(float(vec[0]), float(vec[1]), float(vec[2]), float(vec[3]), float(theta))


def slide_points(row):
    """The four points a ``gv`` row slides onto its HBB sides: top, right,
    bottom, left."""
    xc, yc, w, h, at, ar, ab, al = (float(v) for v in row[:8])
    x_lo, x_hi = xc - 0.5 * w, xc + 0.5 * w
    y_lo, y_hi = yc - 0.5 * h, yc + 0.5 * h
    return [(x_hi - at * w, y_lo), (x_hi, y_hi - ar * h), (x_lo + ab * w, y_hi), (x_lo, y_lo + al * h)]


def gv_decode(vec):
    """``gv``: the minimum-area rectangle around the four slide points."""
    if float(vec[2]) <= 0.0 or float(vec[3]) <= 0.0:
        raise InvalidArgumentError("decoded HBB extents must be positive")
    return geometry.min_area_rect(slide_points(vec))


def reference_decode(codec):
    """The scalar decoder of ``codec``; the nine-parameter codecs keep theirs
    in the package."""
    return {"acute": box_decode, "long-edge": box_decode, "csl": csl_decode, "gv": gv_decode}.get(codec.name, codec.decode)


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


def assert_same_bits(got, want):
    """Equal shapes and equal bytes: unlike ``np.array_equal``, tells -0.0
    from 0.0, which the JSON report writes differently."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def boundary_fields():
    """Box fields at the codecs' branch points: theta 0 and -0.0, pi/4 and
    pi/2 each one ulp to either side, centres at +-0.0, squares and aspect
    1e-6."""
    angles = [0.0, -0.0]
    for t in (QUARTER, 0.5 * math.pi):
        angles += [math.nextafter(t, 0.0), t, math.nextafter(t, 2.0)]
    centres = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.5e4, -2e4)]
    sides = [(2.0, 2.0), (2.0, 1.0), (1.0, 2.0), (300.0, 3e-4), (3e-4, 300.0)]
    return np.array([(cx, cy, w, h, t) for cx, cy in centres for w, h in sides for t in angles])


@pytest.mark.parametrize("name", available_codecs())
def test_array_forms_equal_the_scalar_ones_bit_for_bit(name):
    codec = get_codec(name)
    encode = reference_encode(codec)
    want = np.array([encode(b) for b in BATCH_BOXES])
    assert_same_bits(codec.encode_many(as_fields(BATCH_BOXES)), want)
    assert_same_bits([codec.encode(b) for b in BATCH_BOXES[::7]], want[::7])
    # fields not in constructed form: negative angles, theta >= pi/2 and
    # >= pi, large multiples of pi; each row encodes as its constructed box
    raw = as_fields(BATCH_BOXES[:350])
    raw[:, 4] += np.resize([-math.pi, -0.25, 0.5 * math.pi, math.pi, 1.25 * math.pi, 1e6 * math.pi, -3e8 * math.pi], 350)
    assert (raw[:, 4] < 0.0).any() and (raw[:, 4] >= math.pi).any()
    edges = boundary_fields()
    for fields in (raw, edges):
        boxes = [OrientedBox(*r) for r in fields.tolist()]
        scalar = [encode(b) for b in boxes]
        assert_same_bits(codec.encode_many(fields), scalar)
        assert_same_bits([codec.encode(b) for b in boxes], scalar)
    noise = np.random.Generator(np.random.PCG64(42)).normal(0.0, 1e-3, want.shape)
    rows = np.vstack([want, want + noise, scalar])  # the edges' rows
    outcomes = [scalar_outcome(reference_decode(codec), r) for r in rows]
    ok = [i for i, o in enumerate(outcomes) if isinstance(o, OrientedBox)]
    assert len(ok) > len(want)
    assert_same_bits(codec.decode_many(rows[ok]), as_fields(outcomes[i] for i in ok))
    assert_same_bits(as_fields(codec.decode(rows[i]) for i in ok[::97]), as_fields(outcomes[i] for i in ok[::97]))
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
        assert_same_bits(codec.encode_many(as_fields(boxes)), want)
        assert seen == expected
        assert count is None or len(seen) == count


def test_gv_decode_rows_that_fall_back_equal_the_scalar_decode(monkeypatch):
    """Rows whose four slide points do not turn one way at every vertex
    take the scalar fit: each equals the scalar decode bit for bit, and a
    row it rejects raises its error."""
    codec = GlidingVertexCodec()
    odd = [
        [3.0, 4.0, 2.0, 1.0, 1.0, 0.3, 0.6, 0.0],  # top and left at the top-left corner
        [3.0, 4.0, 2.0, 1.0, 0.0, 0.4, 1.0, 0.5],  # top, right and bottom on the right side
        [3.0, 4.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0],  # all four on a diagonal
    ]
    # boxes of aspect 1e-14 far out: some slide points round onto a line
    # (at aspect 1e-13 every row decodes)
    rng = np.random.Generator(np.random.PCG64(46))
    centres, theta = rng.uniform(0.0, 2e4, (2, 300)), rng.uniform(0.0, math.pi, 300)
    thin = codec.encode_many(np.stack([*centres, np.full(300, 100.0), np.full(300, 1e-12), theta], axis=1))
    rows = np.vstack([codec.encode_many(as_fields(BATCH_BOXES[:20])), odd, thin])
    outcomes = [scalar_outcome(gv_decode, r) for r in rows]
    ok = [i for i, o in enumerate(outcomes) if isinstance(o, OrientedBox)]
    bad = [i for i, o in enumerate(outcomes) if not isinstance(o, OrientedBox)]
    scalar, calls = geometry.min_area_rect, []
    monkeypatch.setattr(geometry, "min_area_rect", lambda pts: calls.append(pts) or scalar(pts))
    assert_same_bits(codec.decode_many(rows[ok]), as_fields(outcomes[i] for i in ok))
    assert calls == [slide_points(rows[i]) for i in ok if not turns_one_way(slide_points(rows[i]))]
    assert len(calls) > 2 and bad[0] == 22 and len(bad) > 10  # the two odd rows decode, the diagonal raises
    for i in bad:
        assert_raises_like(outcomes[i], codec.decode_many, rows[[ok[0], i, ok[0]]])


GOOD = OrientedBox(3.0, 4.0, 2.0, 1.0, 0.3)
NAN_TARGET = [0.0, 0.0, 0.0, 0.0, 0.5, math.nan, 0.0, 0.0, 1.0]
EXP_OVERFLOW = [0.0, 0.0, 800.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0]
ZERO_EXTENT = [0.0, 0.0, -800.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0]
ZERO_AREA = {  # rs = 0 and score row [1, 0, 0, 0]: the diagonal candidate 0, which decodes to its needle
    "cobb": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    "cobb-ln": [0.0, 0.0, 0.0, 0.0, -2000.0, 1.0, 0.0, 0.0, 0.0],
}
GV_NAN_CENTRE = [math.nan, 0.0, 2.0, 1.0, 0.1, 0.2, 0.3, 0.4]
GV_ZERO_EXTENT = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "name, row",
    [
        ("cobb", NAN_TARGET),  # a non-finite target component
        ("cobb-ln", [0.0, 0.0, 0.0, 0.0, math.inf, 1.0, 0.0, 0.0, 0.0]),
        ("cobb", [0.0, 0.0, -800.0, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0]),  # a zero-extent decoded HBB
        ("cobb", [ZERO_AREA["cobb"], EXP_OVERFLOW]),  # a zero-area candidate decodes; exp overflows
        ("cobb", EXP_OVERFLOW),  # exp overflows
        ("acute", [0.0, 0.0, 0.0, 1.0, 0.2]),  # non-positive or non-finite sides
        ("acute", [0.0, 0.0, math.nan, 1.0, 0.2]),
        ("long-edge", [0.0, 0.0, 1.0, -1.0, 0.2]),
        ("csl", [0.0, 0.0, math.inf, 1.0] + [0.0] * 90),
        ("gv", GV_ZERO_EXTENT),
        ("gv", [0.0, 0.0, 1e-310, 1e-310, 0.5, 0.5, 0.5, 0.5]),  # subnormal extents: collinear
        # a fit error and an extent error, in either order: the first row's wins
        ("gv", [GV_NAN_CENTRE, GV_ZERO_EXTENT]),  # coordinate must be finite, got nan
        ("gv", [GV_ZERO_EXTENT, GV_NAN_CENTRE]),  # decoded HBB extents must be positive
        # two rows of different kinds, in either order
        *[
            (name, pair)
            for name in ("cobb", "cobb-ln")
            for a, b in ((EXP_OVERFLOW, ZERO_EXTENT), (ZERO_AREA[name], NAN_TARGET))
            for pair in ([a, b], [b, a])
        ],
    ],
)
def test_decode_many_raises_what_decode_raises_for_the_first_bad_row(name, row):
    """``row``, or each of two rows in order, between good rows and before a
    later rejected row: the error of the first of them that the scalar
    decoder rejects (a zero-area pick is not rejected)."""
    codec = get_codec(name)
    good = codec.encode(GOOD)
    bad = np.atleast_2d(np.asarray(row, dtype=float))
    outcomes = (scalar_outcome(reference_decode(codec), r) for r in bad)
    outcome = next(o for o in outcomes if not isinstance(o, OrientedBox))
    later = NAN_TARGET if name.startswith("cobb") else [0.0] * codec.dim
    assert_raises_like(outcome, codec.decode_many, [good, *bad, later, good])


HBB_OVERFLOW = [0.0, 0.0, 1.5e308, 1.5e308, 0.7]  # the outer HBB overflows
UNDERFLOW = [0.0, 0.0, 1e-170, 1e-170, 0.5]  # products underflow to 0
CORNER_OVERFLOW = [1.7e308, 0.0, 1e308, 1.0, 0.3]  # a corner overflows
NAN_ANGLE = [0.0, 0.0, 2.0, 1.0, math.nan]  # fields the constructor rejects
ZERO_SIDE = [0.0, 0.0, 2.0, 0.0, 0.3]


@pytest.mark.parametrize("name", available_codecs())
@pytest.mark.parametrize(
    "box",
    [
        HBB_OVERFLOW,
        UNDERFLOW,
        CORNER_OVERFLOW,
        NAN_ANGLE,
        ZERO_SIDE,
        [0.0, 0.0, -2.0, 1.0, 0.3],
        # two rows of different kinds, in either order
        *[
            pair
            for a, b in ((HBB_OVERFLOW, CORNER_OVERFLOW), (UNDERFLOW, HBB_OVERFLOW), (NAN_ANGLE, ZERO_SIDE))
            for pair in ([a, b], [b, a])
        ],
    ],
)
def test_encode_many_raises_what_encode_raises(name, box):
    """``box``, or each of two boxes in order, after a good row, against
    the reference scalar encoder; ``encode`` of the first box too."""
    codec = get_codec(name)
    encode = reference_encode(codec)
    boxes = np.atleast_2d(np.asarray(box, dtype=float)).tolist()
    first = scalar_outcome(lambda row: OrientedBox(*row), boxes[0])
    if isinstance(first, OrientedBox):
        want = scalar_outcome(encode, first)
        if isinstance(want, np.ndarray):
            assert_same_bits(codec.encode(first), want)
        else:
            assert_raises_like(want, codec.encode, first)
    outcome = scalar_outcome(lambda rows: np.array([encode(OrientedBox(*row)) for row in rows]), boxes)
    good = as_fields([GOOD])[0]
    if isinstance(outcome, np.ndarray):
        assert_same_bits(codec.encode_many([good, *boxes])[1:], outcome)
        return
    # a later row the constructor rejects: the first rejected row still raises
    assert_raises_like(outcome, codec.encode_many, [good, *boxes, [0.0, 0.0, 1.0, math.inf, 0.3], good])


ONE_REJECTED = {
    # array method: (owner and name of the scalar method it falls back on, the rejected row)
    "cobb.encode_many": ((CobbCodec, "encode"), UNDERFLOW),
    "gv.encode_many": ((baselines, "outer_hbb"), HBB_OVERFLOW),
    "cobb.decode_many": ((targets, "decode_target"), EXP_OVERFLOW),
    "cobb.curve_components": ((cobb_codec, "encode"), UNDERFLOW),
}


@pytest.mark.parametrize("case", ONE_REJECTED)
def test_only_the_rejected_row_reaches_the_scalar_method(case, monkeypatch):
    """Of 300 valid pixel-scale rows and one rejected row, only the rejected
    one goes through the scalar method, which raises its error."""
    (owner, attr), bad = ONE_REJECTED[case]
    name, method = case.split(".")
    codec = get_codec(name)
    good = as_fields(BATCH_BOXES[:300])
    if method == "decode_many":
        good = codec.encode_many(good)
    encode = reference_encode(codec)
    want = scalar_outcome(codec.decode if method == "decode_many" else lambda row: encode(OrientedBox(*row)), bad)
    scalar, calls = getattr(owner, attr), []
    monkeypatch.setattr(owner, attr, lambda *args: calls.append(args) or scalar(*args))
    assert_raises_like(want, getattr(codec, method), np.vstack([good, bad]))
    assert len(calls) == 1


@pytest.mark.parametrize("name", available_codecs())
def test_array_forms_do_not_fall_back_on_valid_input(name, monkeypatch):
    codec = get_codec(name)
    fields = as_fields(BATCH_BOXES[:300])
    rows = codec.encode_many(fields)
    boxes = codec.decode_many(rows)

    def refuse(*args):
        raise AssertionError("scalar path called")

    for method in ("encode", "decode"):
        monkeypatch.setattr(type(codec), method, refuse)
    monkeypatch.setattr(geometry, "min_area_rect", refuse)
    assert_same_bits(codec.encode_many(fields), rows)
    assert_same_bits(codec.decode_many(rows), boxes)


@pytest.mark.parametrize("name", available_codecs())
def test_array_forms_of_no_rows(name):
    codec = get_codec(name)
    assert codec.encode_many(np.empty((0, 5))).shape == (0, codec.dim)
    assert codec.decode_many(np.empty((0, codec.dim))).shape == (0, 5)


SQUARE = [0.0, 2.0, 2.0, 0.0]  # x of a square; rolled by one, its y
WIDTH_CASES = {
    "oriented_many": (geometry.oriented_many, as_fields([GOOD])[0]),
    "vertices_many": (geometry.vertices_many, as_fields([GOOD])[0]),
    "iou_many": (lambda a: geometry.iou_many(a, a), vertices_of(GOOD).flat),
    "quad_intersection_area_many": (lambda a: _kern.quad_intersection_area_many(a, a), vertices_of(GOOD).flat),
    "min_area_rect_many": (lambda a: geometry.min_area_rect_many(a, np.roll(a, 1, axis=-1)), SQUARE),
    "acute.encode_many": (AcuteAngleCodec().encode_many, as_fields([GOOD])[0]),
    "cobb.encode_many": (CobbCodec("sig").encode_many, as_fields([GOOD])[0]),
    "acute.decode_many": (AcuteAngleCodec().decode_many, AcuteAngleCodec().encode(GOOD)),
    "gv.decode_many": (GlidingVertexCodec().decode_many, GlidingVertexCodec().encode(GOOD)),
    "acute.decode": (lambda a: as_fields([AcuteAngleCodec().decode(a)]), AcuteAngleCodec().encode(GOOD)),
    "cobb.decode": (lambda a: as_fields([CobbCodec("sig").decode(a)]), CobbCodec("sig").encode(GOOD)),
    "acute.loss_many": (lambda a: AcuteAngleCodec().loss_many(a, a), AcuteAngleCodec().encode(GOOD)),
    "cobb.loss_many": (lambda a: CobbCodec("sig").loss_many(a, a), CobbCodec("sig").encode(GOOD)),
}


@pytest.mark.parametrize("name", WIDTH_CASES)
def test_array_inputs_of_the_wrong_width_raise(name):
    """A 1-D array of exactly one row's width is one row; an array whose last
    axis is not the row width raises, where reshaping would reflow it into
    other rows."""
    call, row = WIDTH_CASES[name]
    row = np.asarray(row, dtype=float)
    one = call(row)
    assert len(one) == 1
    assert_same_bits(one, call(row[None]))
    for wrong in (np.tile(row, (3, 2)), np.tile(row, 2), row[:-1], np.tile(row, (2, 1)).T):
        with pytest.raises(InvalidArgumentError, match=f"need rows of {len(row)} values"):
            call(wrong)


def test_decode_takes_exactly_one_row():
    codec = AcuteAngleCodec()
    rows = codec.encode_many(as_fields(BATCH_BOXES[:2]))
    assert codec.decode(rows[:1]) == codec.decode(rows[0])
    for wrong in (rows, rows[:0]):
        with pytest.raises(InvalidArgumentError, match=f"decode takes one row, got {len(wrong)}"):
            codec.decode(wrong)


def test_cobb_decode_takes_one_row_of_nine_values():
    """The nine-parameter codecs' own scalar decoder takes a row as
    :meth:`BoxCodec.decode` does, where it read the first nine values of
    anything indexable."""
    codec = CobbCodec("sig")
    row = codec.encode(GOOD)
    assert codec.decode(row[None]) == codec.decode(row) == codec.decode(row.tolist())
    for wrong in (np.arange(1, 12) * 0.1, np.arange(1, 9) * 0.1):
        with pytest.raises(InvalidArgumentError, match=f"need rows of 9 values, got an array of shape \\({len(wrong)},\\)"):
            codec.decode(wrong)
    with pytest.raises(InvalidArgumentError, match="decode takes one row, got 2"):
        codec.decode(np.tile(row, (2, 1)))


def test_paired_array_inputs_need_equal_row_counts():
    codec = AcuteAngleCodec()
    rows = codec.encode_many(as_fields(BATCH_BOXES[:3]))
    with pytest.raises(InvalidArgumentError, match="need equal row counts, got 3 and 1"):
        codec.loss_many(rows, rows[:1])
    with pytest.raises(InvalidArgumentError, match="need equal row counts, got 3 and 2"):
        geometry.min_area_rect_many(np.tile(SQUARE, (3, 1)), np.tile(np.roll(SQUARE, 1), (2, 1)))


@pytest.mark.parametrize("name", available_codecs())
def test_loss_many_equals_the_scalar_loss(name):
    codec = get_codec(name)
    rng = np.random.Generator(np.random.PCG64(43))
    shape = (60, codec.dim)
    # real encodings of boxes and their slightly rotated twins
    boxes = BATCH_BOXES[:200]
    turned = as_fields(boxes)
    turned[:, 4] += 1e-3
    real_a, real_b = codec.encode_many(as_fields(boxes)), codec.encode_many(turned)
    # exact component differences below, at and above the smooth-L1 knee
    base = 0.5 * rng.integers(-8, 9, shape)
    knee = rng.choice([0.0, 0.25, -0.75, 1.0, -1.0, 1.5, -4.0], shape)
    assert np.array_equal(base - (base - knee), knee)
    # signed zeros, and non-finite components
    zeros_a, zeros_b = rng.choice([0.0, -0.0], shape), rng.choice([0.0, -0.0], shape)
    odd = np.where(rng.random(shape) < 0.1, rng.choice([math.inf, -math.inf, math.nan], shape), base)
    a = np.vstack([real_a, base, zeros_a, odd])
    b = np.vstack([real_b, base - knee, zeros_b, base])
    if isinstance(codec, CobbCodec):
        vec = lambda r: targets.TargetVector(*r[:5], tuple(r[5:]), codec.variant, codec.lam)
        want = [targets.cobb_loss(vec(x), vec(y)) for x, y in zip(a.tolist(), b.tolist())]
    else:
        want = [sum(ref.smooth_l1(p - q) for p, q in zip(x, y)) for x, y in zip(a.tolist(), b.tolist())]
    got = codec.loss_many(a, b)
    assert got.shape == (len(a),)
    assert np.array_equal(got, np.array(want), equal_nan=True)
    assert np.array_equal([codec.loss(x, y) for x, y in zip(a, b)], got, equal_nan=True)
    assert np.array_equal(codec.loss_many(a[:0], b[:0]), np.empty(0))


@pytest.mark.parametrize("name", available_codecs())
def test_loss_takes_one_row_of_the_codec_width(name):
    codec = get_codec(name)
    row = codec.encode(OrientedBox(0.0, 0.0, 1.0, 0.5, 0.1))
    for short in (row[:3], row[:-1]):
        with pytest.raises(InvalidArgumentError, match=f"need rows of {codec.dim} values"):
            codec.loss(row, short)
        with pytest.raises(InvalidArgumentError, match=f"need rows of {codec.dim} values"):
            codec.loss(short, row)
    with pytest.raises(InvalidArgumentError, match="loss takes one row, got 2"):
        codec.loss(np.stack([row, row]), np.stack([row, row]))
