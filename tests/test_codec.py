"""Codec math against the polygon oracle and hand-derived values."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cobb.codec import (
    CobbVector,
    candidate_box,
    classify,
    decode,
    encode,
    four_candidates,
    iou_matrix,
    rs_from_ra,
    sliding_ratio,
)
from cobb.baselines import get_codec
from cobb.errors import DegenerateGeometryError, InvalidArgumentError
from cobb.geometry import (
    HorizontalBox,
    OrientedBox,
    iou,
    iou_many,
    min_area_rect,
    outer_hbb,
    vertices_many,
    vertices_of,
)

SQRT3 = math.sqrt(3.0)
RS_PI6 = SQRT3 / (2.0 + SQRT3)  # sliding ratio of the 4x2 box at 30 degrees


def seeded_boxes(n, seed, scale=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        w = scale * float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        h = scale * float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        out.append(
            OrientedBox(
                float(rng.uniform(-10, 10)),
                float(rng.uniform(-10, 10)),
                w,
                h,
                float(rng.uniform(0, math.pi)),
            )
        )
    return out


def ra_from_rs(rs, w, h, branch):
    """Area ratio of the candidates with sliding ratio ``rs``: the inverse of
    :func:`rs_from_ra` on its ra <= 0.5 (``"below"``) or ra >= 0.5
    (``"above"``) branch."""
    r2 = min(w / h, h / w) ** 2
    u = 4.0 * rs * (1.0 - rs)
    v = u * ((r2 + 1.0) - r2 * u) / 4.0
    root = math.sqrt(max(0.0, 1.0 - 4.0 * v))
    return 0.5 * (1.0 - root) if branch == "below" else 0.5 * (1.0 + root)


def quad_sliding_ratio(quad, hbb):
    """Independent re-derivation of the sliding ratio from raw vertices."""
    if hbb.w < hbb.h:
        c = sorted(quad.flat[0::2])
        return (c[1] - c[0]) / hbb.w
    c = sorted(quad.flat[1::2])
    return (c[1] - c[0]) / hbb.h


class TestSlidingRatio:
    def test_axis_aligned_is_zero(self):
        assert sliding_ratio(OrientedBox(3, -1, 5, 2, 0)) == 0.0

    def test_diamond_square_is_half(self):
        assert sliding_ratio(OrientedBox(0, 0, 2, 2, math.pi / 4)) == pytest.approx(0.5)

    def test_pi_over_6(self):
        assert sliding_ratio(OrientedBox(0, 0, 4, 2, math.pi / 6)) == pytest.approx(RS_PI6, abs=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 2e4, 1e6])
    def test_thin_boxes_round_trip_far_from_the_origin(self, offset):
        # rs from sorted absolute vertex coordinates carried ~1e-10 of
        # rounding at a 1e6 offset, more than a box of aspect 1e-6 absorbs
        rng = np.random.Generator(np.random.PCG64(41))
        worst = 0.0
        for _ in range(500):
            long = float(rng.uniform(1.0, 10.0))
            box = OrientedBox(
                offset + float(rng.uniform(0.0, 1.0)), offset + float(rng.uniform(0.0, 1.0)),
                long, 1e-6 * long, float(rng.uniform(0.0, math.pi)),
            )
            back = decode(encode(box))
            # both shapes re-centred on the box centre
            at_origin = OrientedBox(0.0, 0.0, box.w_side, box.h_side, box.theta)
            moved = OrientedBox(back.cx - box.cx, back.cy - box.cy, back.w_side, back.h_side, back.theta)
            worst = max(worst, 1.0 - iou(at_origin, moved))
        assert worst <= 1e-8


class TestFourCandidates:
    def test_rs_zero_candidates_sit_on_hbb_corners(self):
        cands = four_candidates(HorizontalBox(0, 0, 4, 2), 0.0)
        corners = {(-2, -1), (2, -1), (2, 1), (-2, 1)}
        for q in cands:
            assert set(zip(q.flat[0::2], q.flat[1::2])) <= corners
        # the pair above the half-area branch is the full HBB, the other
        # pair degenerates to the diagonals
        areas = [q.area for q in cands]
        assert areas[1] == pytest.approx(8.0) and areas[2] == pytest.approx(8.0)
        assert areas[0] == 0.0 and areas[3] == 0.0

    def test_rs_half_square_is_diamond(self):
        cands = four_candidates(HorizontalBox(0, 0, 2, 2), 0.5)
        diamond = {(0, -1), (1, 0), (0, 1), (-1, 0)}
        for q in cands:
            assert set(zip(q.flat[0::2], q.flat[1::2])) == diamond

    def test_contains_the_source_box(self):
        box = OrientedBox(0, 0, 4, 2, math.pi / 6)
        cands = four_candidates(outer_hbb(box), sliding_ratio(box))
        assert max(iou(box, q) for q in cands) >= 1 - 1e-9

    def test_candidates_share_hbb_and_rs(self):
        for box in seeded_boxes(40, seed=11):
            hbb = outer_hbb(box)
            rs = sliding_ratio(box)
            if rs < 1e-3:
                continue
            cands = four_candidates(hbb, rs)
            for q in cands:
                xs, ys = q.flat[0::2], q.flat[1::2]
                assert max(xs) - min(xs) == pytest.approx(hbb.w, abs=1e-9 * box.diagonal)
                assert max(ys) - min(ys) == pytest.approx(hbb.h, abs=1e-9 * box.diagonal)
                assert quad_sliding_ratio(q, hbb) == pytest.approx(rs, abs=1e-9)

    def test_branch_area_split(self):
        for box in seeded_boxes(40, seed=12):
            hbb = outer_hbb(box)
            cands = four_candidates(hbb, sliding_ratio(box))
            areas = [q.area for q in cands]
            half = 0.5 * hbb.w * hbb.h
            assert areas[0] <= half + 1e-9 and areas[3] <= half + 1e-9
            assert areas[1] >= half - 1e-9 and areas[2] >= half - 1e-9

    def test_rs_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            four_candidates(HorizontalBox(0, 0, 1, 1), 0.6)
        # within clamping slack is fine
        four_candidates(HorizontalBox(0, 0, 1, 1), 0.5 + 1e-13)


class TestClassify:
    def test_axis_aligned_picks_lowest_matching(self):
        # candidates 1 and 2 coincide with the box (the HBB itself); 0 and 3
        # degenerate to the diagonals, so the lowest matching index is 1
        assert classify(OrientedBox(0, 0, 4, 2, 0)) == 1

    def test_pi_over_6_unique_candidate(self):
        box = OrientedBox(0, 0, 4, 2, math.pi / 6)
        idx = classify(box)
        cands = four_candidates(outer_hbb(box), sliding_ratio(box))
        assert iou(box, cands[idx]) >= 1 - 1e-9

    def test_mirror_changes_class(self):
        box = OrientedBox(0, 0, 4, 2, math.pi / 6)
        mirror = OrientedBox(0, 0, 4, 2, math.pi - math.pi / 6)
        assert classify(box) != classify(mirror)

    def test_does_not_depend_on_where_the_box_sits(self):
        # a thin box far from the origin: clipping in absolute coordinates
        # chose candidate 0, whose round trip misses the box entirely
        far = OrientedBox(
            1e6 + 0.8474337369, 1e6 + 0.763774619, 7.144982684668243, 7.144982684668243e-06, 0.801322977421273
        )
        at_origin = OrientedBox(0.0, 0.0, far.w_side, far.h_side, far.theta)
        assert classify(far) == classify(at_origin) == 3
        back = decode(encode(far))
        moved = OrientedBox(back.cx - far.cx, back.cy - far.cy, back.w_side, back.h_side, back.theta)
        assert 1.0 - iou(at_origin, moved) <= 1e-5


class TestIoUMatrix:
    def test_diamond_all_ones(self):
        m = iou_matrix(2, 2, 0.5)
        assert all(v == pytest.approx(1.0, abs=1e-12) for row in m for v in row)

    def test_rs_zero_continuous_limit(self):
        # the below-half candidates collapse onto the HBB diagonals: their
        # overlap with everything vanishes while the above-half pair merges
        m = iou_matrix(4, 2, 0.0)
        expected = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
        for i in range(4):
            for j in range(4):
                assert m[i][j] == pytest.approx(expected[i][j], abs=1e-12)
        # and the limit is approached smoothly from positive rs
        near = iou_matrix(4, 2, 1e-9)
        assert all(abs(near[i][j] - m[i][j]) < 1e-6 for i in range(4) for j in range(4))

    def test_structure(self):
        m = iou_matrix(3.1, 1.7, 0.37)
        for i in range(4):
            assert m[i][i] == 1.0
            for j in range(4):
                assert m[i][j] == m[j][i]
                assert 0.0 <= m[i][j] <= 1.0
        assert m[0][1] == m[2][3] and m[0][2] == m[1][3]

    @pytest.mark.parametrize("w,h", [(2 * SQRT3 + 1, 2 + SQRT3), (1.3, 2.9), (2.0, 2.0)])
    def test_matches_oracle(self, w, h):
        rng = np.random.Generator(np.random.PCG64(5))
        for rs in [RS_PI6, 0.02, 0.499, 0.5] + list(rng.uniform(1e-6, 0.5, 40)):
            cands = four_candidates(HorizontalBox(0, 0, w, h), float(rs))
            m = iou_matrix(w, h, float(rs))
            for i in range(4):
                for j in range(i + 1, 4):
                    assert m[i][j] == pytest.approx(iou(cands[i], cands[j]), abs=1e-7)

    def test_invalid_args(self):
        with pytest.raises(InvalidArgumentError):
            iou_matrix(0.0, 1.0, 0.2)
        with pytest.raises(InvalidArgumentError):
            iou_matrix(1.0, 1.0, -0.2)


class TestEncodeDecode:
    def test_axis_aligned(self):
        v = encode(OrientedBox(0, 0, 4, 2, 0))
        assert (v.xc, v.yc, v.w, v.h, v.rs) == (0, 0, 4, 2, 0)
        # the box is the coincident above-half pair; the degenerate diagonal
        # candidates score zero against it
        assert v.scores == (0.0, 1.0, 1.0, 0.0)

    def test_diamond_square(self):
        s = math.sqrt(2.0)
        v = encode(OrientedBox(1, 1, s, s, math.pi / 4))
        assert (v.w, v.h) == (pytest.approx(2.0), pytest.approx(2.0))
        assert v.rs == pytest.approx(0.5)
        assert v.scores == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)

    def test_true_class_scores_one(self):
        for box in seeded_boxes(30, seed=13):
            v = encode(box)
            assert max(v.scores) == 1.0
            assert v.scores[classify(box)] == 1.0

    def test_decode_trivial(self):
        out = decode(CobbVector(0, 0, 4, 2, 0.0, (1, 1, 1, 1)))
        assert iou(out, OrientedBox(0, 0, 4, 2, 0)) == pytest.approx(1.0)

    def test_roundtrip_seeded(self):
        worst = 1.0
        for box in seeded_boxes(500, seed=14):
            worst = min(worst, iou(box, decode(encode(box))))
        assert worst >= 1 - 1e-9

    def test_perturbed_scores_decode_near_second_best(self):
        for box in seeded_boxes(40, seed=15):
            v = encode(box)
            c = classify(box)
            order = sorted(range(4), key=lambda i: -v.scores[i])
            j = next(i for i in order if i != c and v.scores[i] < 1.0 - 1e-12)
            scores = list(v.scores)
            scores[j] = 1.0 + 1e-6  # push the second-best class to win
            scores[c] = 1.0
            from cobb.codec import CobbVector

            out = decode(CobbVector(v.xc, v.yc, v.w, v.h, v.rs, tuple(scores)))
            assert iou(box, out) >= v.scores[j] - 1e-6

    def test_mirror_pairs_share_base_and_permute_scores(self):
        for box in seeded_boxes(25, seed=16):
            mirror = OrientedBox(-box.cx, box.cy, box.w_side, box.h_side, math.pi - box.theta)
            v, vm = encode(box), encode(mirror)
            assert vm.w == pytest.approx(v.w, abs=1e-9 * box.diagonal)
            assert vm.h == pytest.approx(v.h, abs=1e-9 * box.diagonal)
            assert vm.rs == pytest.approx(v.rs, abs=1e-9)
            assert sorted(vm.scores) == pytest.approx(sorted(v.scores), abs=1e-7)

    def test_encoding_continuity_under_rotation(self):
        from cobb.audit import normalize_box
        from cobb.geometry import rotate

        for box in seeded_boxes(15, seed=17):
            box = normalize_box(box)
            gaps = []
            for step in (1e-3, 1e-4, 1e-5):
                a = np.array(encode(box).as_tuple())
                b = np.array(encode(rotate(box, step)).as_tuple())
                gaps.append(float(np.max(np.abs(a - b))))
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[2] <= 1e-3

    def test_branch_switch_stability(self):
        # decoding across the w/h ordering flip moves the box only slightly
        from cobb.codec import CobbVector

        for rs in (0.1, 0.3, 0.45):
            lo = decode(CobbVector(0, 0, 1 - 1e-6, 1.0, rs, (0, 1, 0, 0)))
            hi = decode(CobbVector(0, 0, 1 + 1e-6, 1.0, rs, (0, 1, 0, 0)))
            assert 1 - iou(lo, hi) <= 1e-4


class TestCandidateBox:
    def test_matches_min_area_rect_of_the_candidate(self):
        rng = np.random.Generator(np.random.PCG64(31))
        worst, checked = 0.0, 0
        while checked < 400:
            w = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            hbb = HorizontalBox(0.0, 0.0, w, 1.0)
            rs, i = float(rng.uniform(0.0, 0.5)), int(rng.integers(4))
            quad = four_candidates(hbb, rs)[i]
            if quad.area < 1e-3 * w:
                continue
            corners = zip(quad.flat[0::2], quad.flat[1::2])
            worst = max(worst, 1.0 - iou(candidate_box(hbb, rs, i), min_area_rect(corners)))
            checked += 1
        assert worst <= 1e-9

    def test_decode_does_not_depend_on_the_center(self):
        for box in seeded_boxes(200, seed=32, scale=10.0):
            v = encode(OrientedBox(0.0, 0.0, box.w_side, box.h_side, box.theta))
            at_origin = decode(v)
            far = decode(CobbVector(2e4 + 0.3, 1.7e4, v.w, v.h, v.rs, v.scores))
            assert (far.cx, far.cy) == (2e4 + 0.3, 1.7e4)
            assert (far.w_side, far.h_side, far.theta) == (at_origin.w_side, at_origin.h_side, at_origin.theta)

    def test_score_ties_do_not_depend_on_the_center(self):
        # candidates 1 and 2 tie; comparing their shoelace areas in absolute
        # coordinates picked 2 at this center and 1 at the origin
        w, h, rs = 1.4586932877108225, 3.968606702469787, 0.31493636020075005
        at_origin = decode(CobbVector(0.0, 0.0, w, h, rs, (0, 1, 1, 0)))
        far = decode(CobbVector(181.56913298587278, 720.3431132161568, w, h, rs, (0, 1, 1, 0)))
        assert (far.w_side, far.h_side, far.theta) == (at_origin.w_side, at_origin.h_side, at_origin.theta)

    def test_needle_short_side_keeps_relative_precision(self):
        # candidate 0 of a 4x2 HBB has the short edge (2 - x_s, 1 - y_s) with
        # x_s = 2 sqrt(1 - rs (1 - rs)) and y_s = 1 - 2 rs
        with localcontext() as ctx:
            ctx.prec = 60
            for rs in (1e-3, 1e-6, 1e-9):
                d = Decimal(rs)
                short = ((2 - 2 * (1 - d * (1 - d)).sqrt()) ** 2 + (2 * d) ** 2).sqrt()
                box = candidate_box(HorizontalBox(0.0, 0.0, 4.0, 2.0), rs, 0)
                assert abs(Decimal(min(box.w_side, box.h_side)) / short - 1) <= Decimal("4e-16")

    def test_zero_area_candidate_raises(self):
        # rs = 0 makes candidate 0 the HBB diagonal
        with pytest.raises(DegenerateGeometryError):
            decode(CobbVector(0, 0, 4, 2, 0.0, (1, 0, 0, 0)))

    def test_invalid_index_or_extents(self):
        with pytest.raises(InvalidArgumentError):
            candidate_box(HorizontalBox(0, 0, 4, 2), 0.2, 4)
        with pytest.raises(InvalidArgumentError):
            candidate_box(HorizontalBox(0, 0, 0, 2), 0.2, 1)


class TestRsRaRelation:
    def test_ra_one_is_rs_zero(self):
        assert rs_from_ra(1.0, 3, 2) == 0.0

    def test_square_half_area_is_diagonal(self):
        # the inscribed diamond: verified independently via sliding_ratio
        assert rs_from_ra(0.5, 2, 2) == pytest.approx(0.5, abs=1e-12)
        assert sliding_ratio(OrientedBox(0, 0, math.sqrt(2), math.sqrt(2), math.pi / 4)) == pytest.approx(0.5)

    def test_against_bisection_oracle(self):
        # bisect the candidate family on polygon area to hit ra = 0.75,
        # then measure rs straight off the quad
        w, h, target = 2.0, 1.0, 0.75
        hbb = HorizontalBox(0, 0, w, h)
        lo, hi = 0.0, 0.5  # candidate 1 area ratio falls from 1 to 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            ra_mid = four_candidates(hbb, mid)[1].area / (w * h)
            lo, hi = (lo, mid) if ra_mid < target else (mid, hi)
        measured_rs = quad_sliding_ratio(four_candidates(hbb, lo)[1], hbb)
        assert rs_from_ra(target, w, h) == pytest.approx(measured_rs, abs=1e-9)

    def test_measured_boxes(self):
        for box in seeded_boxes(200, seed=18):
            hbb = outer_hbb(box)
            ra = box.area / (hbb.w * hbb.h)
            assert rs_from_ra(ra, hbb.w, hbb.h) == pytest.approx(sliding_ratio(box), abs=1e-7)

    def test_inverse_roundtrip_and_area_oracle(self):
        w, h = 3.0, 2.0
        for branch in ("below", "above"):
            for rs in (0.0, 0.1, 0.3, 0.5):
                ra = ra_from_rs(rs, w, h, branch)
                assert rs_from_ra(max(ra, 1e-300), w, h) == pytest.approx(rs, abs=1e-9)
            ra = ra_from_rs(0.3, w, h, branch)
            idx = 1 if branch == "above" else 0
            area = four_candidates(HorizontalBox(0, 0, w, h), 0.3)[idx].area
            assert ra == pytest.approx(area / (w * h), abs=1e-9)
        assert ra_from_rs(0.0, w, h, "above") == 1.0
        assert ra_from_rs(0.5, w, h, "below") == pytest.approx(0.5)
        assert ra_from_rs(0.5, w, h, "above") == pytest.approx(0.5)

    def test_monotone_on_grid(self):
        for aspect in (1.0, 1.5, 4.0):
            ras = np.linspace(1e-6, 1.0, 1000)
            rss = [rs_from_ra(min(r, 0.9999999), aspect, 1.0) for r in ras]
            # strictly increasing up to ra = 0.5, strictly decreasing after
            peak = int(np.argmin(np.abs(ras - 0.5)))
            assert all(a < b + 1e-15 for a, b in zip(rss[:peak], rss[1:peak]))
            assert all(a > b - 1e-15 for a, b in zip(rss[peak:-1], rss[peak + 1:]))

    def test_invalid_ra(self):
        with pytest.raises(InvalidArgumentError):
            rs_from_ra(0.0, 1, 1)
        with pytest.raises(InvalidArgumentError):
            rs_from_ra(1.2, 1, 1)


@given(
    st.floats(0.1, 6), st.floats(0.1, 6),
    st.floats(-10, 10), st.floats(-10, 10), st.floats(0, math.pi),
)
def test_roundtrip_property(w, h, cx, cy, theta):
    box = OrientedBox(cx, cy, w, h, theta)
    assert iou(box, decode(encode(box))) >= 1 - 1e-9


# Sides 1-300 with aspect down to 1e-3, centres within 1e3 of the origin.
# The symmetries are exact while no product underflows, so a nonzero angle
# stays above 1e-100.
box_lists = st.lists(
    st.builds(
        lambda cx, cy, side, aspect, theta: OrientedBox(cx, cy, side, side * aspect, theta),
        st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1.0, 300.0), st.floats(1e-3, 1.0),
        st.just(0.0) | st.floats(1e-100, math.pi),
    ),
    min_size=1, max_size=8,
)


@given(box_lists)
def test_scaling_by_four_is_exact(boxes):
    """4x scales the outer HBB by 4 and keeps rs and the scores bit for bit."""
    scaled = [OrientedBox(4 * b.cx, 4 * b.cy, 4 * b.w_side, 4 * b.h_side, b.theta) for b in boxes]
    for b, s in zip(boxes, scaled):
        v, u = encode(b), encode(s)
        assert (u.xc, u.yc, u.w, u.h) == (4 * v.xc, 4 * v.yc, 4 * v.w, 4 * v.h)
        assert (u.rs, u.scores) == (v.rs, v.scores)
    for name in ("cobb", "cobb-ln"):
        codec = get_codec(name)
        rows, got = codec.encode_many(boxes), codec.encode_many(scaled)
        assert np.array_equal(got[:, :2], 4 * rows[:, :2])  # tx, ty against the unit proposal
        assert np.array_equal(got[:, 4:], rows[:, 4:])


@given(box_lists)
def test_translation_is_exact(boxes):
    """Moving by (1024, -2048) keeps w, h, rs and the scores bit for bit."""
    moved = [OrientedBox(b.cx + 1024.0, b.cy - 2048.0, b.w_side, b.h_side, b.theta) for b in boxes]
    for b, m in zip(boxes, moved):
        v, u = encode(b), encode(m)
        assert (u.w, u.h, u.rs, u.scores) == (v.w, v.h, v.rs, v.scores)
    for name in ("cobb", "cobb-ln"):
        codec = get_codec(name)
        assert np.array_equal(codec.encode_many(moved)[:, 2:], codec.encode_many(boxes)[:, 2:])


QUARTER_TURN = (3, 1, 2, 0)  # score j of the turned box is score QUARTER_TURN[j] of the box


@given(box_lists)
def test_quarter_turn_is_exact(boxes):
    """Swapping the sides at the same angle swaps w and h, keeps rs bit for
    bit and permutes the score row by 0 <-> 3 (1 and 2 stay)."""
    # a square is its own turn, and a square HBB sends a box and its turn
    # down the same w >= h branch, so neither has the map
    boxes = [b for b in boxes if b.w_side != b.h_side and outer_hbb(b).w != outer_hbb(b).h]
    turned = [OrientedBox(b.cx, b.cy, b.h_side, b.w_side, b.theta) for b in boxes]
    for b, t in zip(boxes, turned):
        v, u = encode(b), encode(t)
        assert (u.xc, u.yc, u.w, u.h, u.rs) == (v.xc, v.yc, v.h, v.w, v.rs)
        assert u.scores == tuple(v.scores[i] for i in QUARTER_TURN)
    for name in ("cobb", "cobb-ln"):
        codec = get_codec(name)
        rows, got = codec.encode_many(boxes), codec.encode_many(turned)
        assert np.array_equal(got[:, [0, 1, 3, 2, 4]], rows[:, :5])  # tw <-> th
        assert np.array_equal(got[:, 5:], rows[:, 5:][:, QUARTER_TURN])


MIRROR = (3, 2, 1, 0)  # score j of the mirrored box is score MIRROR[j] of the box


def symmetry_boxes():
    """3,000 seeded boxes: sides 1-300, aspect 1e-3 to 1, centres within 1e3."""
    rng = np.random.Generator(np.random.PCG64(17))
    boxes = []
    for _ in range(3000):
        side = float(rng.uniform(1.0, 300.0))
        boxes.append(OrientedBox(
            float(rng.uniform(-1e3, 1e3)), float(rng.uniform(-1e3, 1e3)),
            side, side * float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, math.pi)),
        ))
    return boxes


def test_mirror_holds_to_rounding():
    """cx -> -cx, theta -> -theta negates xc, keeps w, h and rs and reverses
    the score row, within 1e-12: the mirrored angle is rounded, so the map
    is not bit for bit (largest delta 4.6e-14 on these boxes)."""
    boxes = symmetry_boxes()
    mirrored = [OrientedBox(-b.cx, b.cy, b.w_side, b.h_side, -b.theta) for b in boxes]
    for b, m in zip(boxes, mirrored):
        v, u = encode(b), encode(m)
        assert (u.xc, u.yc) == (-v.xc, v.yc)
        assert (u.w, u.h, u.rs) == pytest.approx((v.w, v.h, v.rs), rel=1e-12, abs=1e-12)
        assert u.scores == pytest.approx(tuple(v.scores[i] for i in MIRROR), rel=0.0, abs=1e-12)
    for name in ("cobb", "cobb-ln"):
        codec = get_codec(name)
        rows, got = codec.encode_many(boxes), codec.encode_many(mirrored)
        want = np.column_stack([-rows[:, 0], rows[:, 1:5], rows[:, 5:][:, MIRROR]])
        assert np.array_equal(got[:, :2], want[:, :2])
        assert np.allclose(got[:, 2:], want[:, 2:], rtol=0.0, atol=1e-12)


def test_decode_keeps_the_quarter_turn_and_the_mirror():
    """decode of the turned vector (w <-> h, scores by QUARTER_TURN) is the
    turned box, and decode of the mirrored vector (xc -> -xc, scores by
    MIRROR) the mirrored box, to 1e-12.  The turn is compared field by field
    (bit for bit on 1,948 of these boxes, largest delta 4.4e-16).  The
    mirror's angle is rounded, so it is compared by the IoU of the two
    shapes centred on the origin (largest 1 - IoU 1.5e-13), where the
    clipping oracle keeps its precision."""
    boxes = symmetry_boxes()
    for b in boxes:
        v = encode(b)
        d = decode(v)
        u = decode(CobbVector(v.xc, v.yc, v.h, v.w, v.rs, tuple(v.scores[i] for i in QUARTER_TURN)))
        assert (u.cx, u.cy, u.w_side, u.h_side, u.theta) == pytest.approx(
            (d.cx, d.cy, d.h_side, d.w_side, d.theta), rel=0.0, abs=1e-12
        )
        m = decode(CobbVector(-v.xc, v.yc, v.w, v.h, v.rs, tuple(v.scores[i] for i in MIRROR)))
        assert (m.cx, m.cy) == (-d.cx, d.cy)
        mirror = OrientedBox(0.0, 0.0, d.w_side, d.h_side, -d.theta)
        assert iou(OrientedBox(0.0, 0.0, m.w_side, m.h_side, m.theta), mirror) >= 1.0 - 1e-12
    centred = lambda f: vertices_many(np.column_stack([np.zeros((len(f), 2)), f[:, 2:]]))
    for name in ("cobb", "cobb-ln"):
        codec = get_codec(name)
        rows = codec.encode_many(boxes)
        d = codec.decode_many(rows)
        turned = codec.decode_many(np.column_stack([rows[:, [0, 1, 3, 2, 4]], rows[:, 5:][:, QUARTER_TURN]]))
        assert np.allclose(turned, d[:, [0, 1, 3, 2, 4]], rtol=0.0, atol=1e-12)
        m = codec.decode_many(np.column_stack([-rows[:, 0], rows[:, 1:5], rows[:, 5:][:, MIRROR]]))
        assert np.array_equal(m[:, :2], d[:, :2] * [-1.0, 1.0])
        assert (iou_many(centred(m), centred(d * [1.0, 1.0, 1.0, 1.0, -1.0])) >= 1.0 - 1e-12).all()


@given(box_lists)
def test_decode_is_exact_under_scaling_and_translation(boxes):
    """decode commutes with 4x scaling and a (1024, -2048) move of the vector."""
    for b in boxes:
        v = encode(b)
        d = decode(v)
        got = decode(CobbVector(4 * v.xc, 4 * v.yc, 4 * v.w, 4 * v.h, v.rs, v.scores))
        assert (got.cx, got.cy, got.w_side, got.h_side, got.theta) == (4 * d.cx, 4 * d.cy, 4 * d.w_side, 4 * d.h_side, d.theta)
        got = decode(CobbVector(v.xc + 1024.0, v.yc - 2048.0, v.w, v.h, v.rs, v.scores))
        assert (got.cx, got.cy, got.w_side, got.h_side, got.theta) == (d.cx + 1024.0, d.cy - 2048.0, d.w_side, d.h_side, d.theta)
    for name in ("cobb", "cobb-ln"):
        codec = get_codec(name)
        rows = codec.encode_many(boxes)
        want = codec.decode_many(rows) + [1024.0, -2048.0, 0.0, 0.0, 0.0]
        assert np.array_equal(codec.decode_many(rows + [1024.0, -2048.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), want)


# Boxes whose candidate IoUs have no float64 closed form: squared HBB
# extents that overflow or underflow, or sums of them that overflow.
EXTREME_BOXES = [
    OrientedBox(0.0, 0.0, 1e200, 1e-200, 0.3),  # scores were (1.0, nan, nan, nan)
    OrientedBox(0.0, 0.0, 1e308, 1.0, 0.3),  # so were these
    OrientedBox(0.0, 0.0, 1e-170, 1e-170, 0.5),  # a bare ZeroDivisionError
    OrientedBox(0.0, 0.0, 1e154, 1e154, 0.3),  # finite but wrong scores
]


@pytest.mark.parametrize("box", EXTREME_BOXES)
def test_extreme_scales_raise_a_typed_error(box):
    with pytest.raises(DegenerateGeometryError, match="out of range"):
        encode(box)
    with pytest.raises(DegenerateGeometryError, match="out of range"):
        get_codec("cobb").encode_many([OrientedBox(3.0, 4.0, 2.0, 1.0, 0.3), box])


def test_every_scale_encodes_to_the_same_scores_or_raises():
    """Power-of-two scales from 2**-540 to 2**519: the sliding ratio and the
    scores of the unit-scale box, or a typed error, never silent garbage."""
    for box in seeded_boxes(8, 17):
        v = encode(box)
        for k in range(-540, 520, 9):
            f = 2.0**k
            try:
                u = encode(OrientedBox(0.0, 0.0, box.w_side * f, box.h_side * f, box.theta))
            except DegenerateGeometryError:
                continue
            assert u.rs == pytest.approx(v.rs, rel=1e-15)
            assert u.scores == pytest.approx(v.scores, abs=1e-14)
