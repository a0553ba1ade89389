"""Regression targets: bias formulas, variant ratio maps, loss, sensitivity."""

import math
from dataclasses import astuple

import numpy as np
import pytest

import reference_scalar as ref
from cobb import codec
from cobb.codec import four_candidates
from cobb.baselines import get_codec
from cobb.errors import DegenerateGeometryError, InvalidArgumentError
from cobb.geometry import HorizontalBox, OrientedBox, iou, min_area_rect, rotate_about
from cobb.targets import (
    DEFAULT_LAMBDA,
    Proposal,
    TargetVector,
    cobb_loss,
    decode_target,
    encode_target,
    sensitivity_probe,
    _encode_targets_many,
    _rs_from_rt,
    _smooth_l1,
)
from test_codec import seeded_boxes
from test_scalar_reference import bits


def box_with_rs(rs, w=4.0, h=2.0, branch="below"):
    """Construct a box with a prescribed sliding ratio via its candidate."""
    idx = 0 if branch == "below" else 1
    f = four_candidates(HorizontalBox(0, 0, w, h), rs)[idx].flat
    return min_area_rect(zip(f[0::2], f[1::2]))


def seeded_proposals(n, seed, oriented):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(n):
        theta = float(rng.uniform(0, math.pi)) if oriented else 0.0
        out.append(
            Proposal(
                float(rng.uniform(-5, 5)),
                float(rng.uniform(-5, 5)),
                float(rng.uniform(0.5, 6)),
                float(rng.uniform(0.5, 6)),
                theta,
            )
        )
    return out


class TestEncodeTarget:
    def test_axis_aligned_at_own_hbb(self):
        gt = OrientedBox(0, 0, 4, 2, 0)
        t = encode_target(gt, Proposal.horizontal(0, 0, 4, 2), "sig")
        assert (t.tx, t.ty, t.tw, t.th, t.rt) == (0, 0, 0, 0, 0)
        assert t.st == (0.0, 1.0, 1.0, 0.0)

    def test_bias_formula(self):
        gt = OrientedBox(1, 2, 4, 2, 0)
        t = encode_target(gt, Proposal.horizontal(0, 0, 2, 4), "sig")
        assert t.tx == pytest.approx(0.5)       # (1 - 0) / 2
        assert t.ty == pytest.approx(0.5)       # (2 - 0) / 4
        assert t.tw == pytest.approx(math.log(2.0))
        assert t.th == pytest.approx(math.log(0.5))

    def test_ratio_targets_at_quarter(self):
        gt = box_with_rs(0.25, branch="below")
        p = Proposal.horizontal(0, 0, 4, 2)
        assert encode_target(gt, p, "sig").rt == pytest.approx(0.5, abs=1e-9)
        assert encode_target(gt, p, "ln").rt == pytest.approx(-1.0, abs=1e-7)

    def test_ln_branch_above(self):
        gt = box_with_rs(0.25, branch="above")
        t = encode_target(gt, Proposal.horizontal(0, 0, 4, 2), "ln")
        assert t.rt == pytest.approx(1.0 + math.log2(0.75), abs=1e-7)

    def test_default_lambdas(self):
        gt = OrientedBox(0, 0, 4, 2, 0.4)
        assert encode_target(gt, Proposal.horizontal(0, 0, 1, 1), "sig").lam == 2.0
        assert encode_target(gt, Proposal.horizontal(0, 0, 1, 1), "ln").lam == 1.0

    def test_scores_are_powered(self):
        from cobb.codec import encode

        gt = OrientedBox(0, 0, 4, 2, 0.4)
        t = encode_target(gt, Proposal.horizontal(0, 0, 1, 1), "sig")
        raw = encode(gt).scores
        assert t.st == pytest.approx(tuple(s**2 for s in raw))

    def test_oriented_proposal_coincident(self):
        gt = OrientedBox(0, 0, 4, 2, math.pi / 6)
        p = Proposal.oriented(0, 0, 4, 2, math.pi / 6)
        t = encode_target(gt, p, "sig")
        assert (t.tx, t.ty) == (pytest.approx(0, abs=1e-12), pytest.approx(0, abs=1e-12))
        assert t.tw == pytest.approx(0, abs=1e-9) and t.th == pytest.approx(0, abs=1e-9)
        assert t.rt == pytest.approx(0, abs=1e-9)
        assert t.st == pytest.approx((0, 1, 1, 0), abs=1e-4)

    @pytest.mark.parametrize("variant", ["sig", "ln"])
    @pytest.mark.parametrize("side, proposal_side", [(1e-150, 1e200), (1e150, 1e-200)])
    def test_extent_ratio_out_of_float_range_is_typed(self, variant, side, proposal_side):
        # the ratio underflows to 0 (log's domain error) or overflows to inf
        gt = OrientedBox(0.0, 0.0, side, side, 0.3)
        p = Proposal.horizontal(0.0, 0.0, proposal_side, proposal_side)
        with pytest.raises(DegenerateGeometryError, match="extent ratios"):
            encode_target(gt, p, variant)
        # the array form, which runs with float errors ignored, masks such rows for the scalar one
        with np.errstate(all="ignore"):
            _, bad = _encode_targets_many(np.array([[0.0, 0.0, side, side, 0.3]]), p, variant)
        assert bad.tolist() == [True]


class TestProposal:
    def test_zero_angle_oriented_is_horizontal(self):
        p = Proposal.oriented(1.5, -2.0, 3.0, 2.0, 0.0)
        assert p == Proposal.horizontal(1.5, -2.0, 3.0, 2.0)
        for gt in seeded_boxes(20, seed=25):
            for variant in ("sig", "ln"):
                assert encode_target(gt, p, variant) == encode_target(gt, Proposal.horizontal(1.5, -2.0, 3.0, 2.0), variant)

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, field, bad):
        args = [0.0, 0.0, 1.0, 1.0, 0.3]
        args[field] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            Proposal(*args)


class TestDecodeTarget:
    def test_zero_target(self):
        t = TargetVector(0, 0, 0, 0, 0, (1, 1, 1, 1), "sig", 2.0)
        out = decode_target(t, Proposal.horizontal(0, 0, 4, 2))
        assert iou(out, OrientedBox(0, 0, 4, 2, 0)) == pytest.approx(1.0)

    def test_ln_rt_zero_is_branch_merge(self):
        t = TargetVector(0, 0, 0, 0, 0.0, (1, 0, 0, 0), "ln", 1.0)
        out = decode_target(t, Proposal.horizontal(0, 0, 2, 2))
        # rs = 0.5 either way: the inscribed diamond
        assert iou(out, OrientedBox(0, 0, math.sqrt(2), math.sqrt(2), math.pi / 4)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("variant", ["sig", "ln"])
    @pytest.mark.parametrize("oriented", [False, True])
    def test_roundtrip(self, variant, oriented):
        boxes = seeded_boxes(300, seed=21)
        proposals = seeded_proposals(300, seed=22, oriented=oriented)
        worst = 1.0
        for gt, p in zip(boxes, proposals):
            t = encode_target(gt, p, variant)
            worst = min(worst, iou(gt, decode_target(t, p)))
        assert worst >= 1 - 1e-9

    @pytest.mark.parametrize("variant", ["sig", "ln"])
    def test_horizontal_proposal_is_codec_decode(self, variant):
        for gt, p in zip(seeded_boxes(50, seed=23), seeded_proposals(50, seed=24, oriented=False)):
            t = encode_target(gt, p, variant)
            vec = codec.CobbVector(
                t.tx * p.wp + p.xp, t.ty * p.hp + p.yp, p.wp * math.exp(t.tw), p.hp * math.exp(t.th),
                _rs_from_rt(t.rt, variant), t.st,
            )
            assert decode_target(t, p) == codec.decode(vec)

    def test_out_of_range_rt_clamped(self):
        t = TargetVector(0, 0, 0, 0, 1.7, (1, 0, 0, 0), "sig", 2.0)
        out = decode_target(t, Proposal.horizontal(0, 0, 2, 2))
        assert iou(out, OrientedBox(0, 0, math.sqrt(2), math.sqrt(2), math.pi / 4)) == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_rejected(self):
        t = TargetVector(0, 0, math.nan, 0, 0, (1, 1, 1, 1), "sig", 2.0)
        with pytest.raises(InvalidArgumentError):
            decode_target(t, Proposal.horizontal(0, 0, 1, 1))

    @pytest.mark.parametrize("st", [(1.0,), (0.0, 0.0, 0.0, 0.5, 1.0)])
    def test_needs_four_scores(self, st):
        t = TargetVector(0, 0, 0, 0, 0.5, st, "sig", 2.0)
        with pytest.raises(InvalidArgumentError, match=f"need four scores, got {len(st)}"):
            decode_target(t, Proposal.horizontal(0, 0, 1, 1))

    @pytest.mark.parametrize("variant", ["sig", "ln"])
    @pytest.mark.parametrize("tw, th", [(800.0, 0.0), (0.0, 710.0)])
    def test_overflowing_extent_target_is_typed(self, variant, tw, th):
        row = [0.0, 0.0, tw, th, 0.5, 1.0, 0.0, 0.0, 0.0]
        t = TargetVector(*row[:5], tuple(row[5:]), variant, DEFAULT_LAMBDA[variant])
        with pytest.raises(DegenerateGeometryError, match="overflow"):
            decode_target(t, Proposal.horizontal(0, 0, 1, 1))
        cobb = get_codec("cobb" if variant == "sig" else "cobb-ln")
        with pytest.raises(DegenerateGeometryError, match="overflow"):
            cobb.decode(row)
        with pytest.raises(DegenerateGeometryError, match="overflow"):
            cobb.decode_many([cobb.encode(OrientedBox(3.0, 4.0, 2.0, 1.0, 0.3)), row])


class TestEveryFinitePredictionDecodes:
    """A detector head decodes whatever it predicts.  A pick of candidate 0
    or 3 at rs = 0 (a ``sig`` ratio target at or below 0, an ``ln`` one at
    or above 1) is an HBB diagonal, and decodes to its needle, with the
    least positive float as its short side, so no such row makes
    ``decode_many`` raise for its batch."""

    PROPOSALS = (Proposal.horizontal(1000.5, 600.25, 40.0, 12.0), Proposal.oriented(1000.5, 600.25, 40.0, 12.0, 0.7))

    @pytest.mark.parametrize("variant", ["sig", "ln"])
    def test_random_predictions_equal_the_reference_chain(self, variant):
        # components N(0, sigma) and scores U(-0.2, 1.2) against pixel proposals:
        # a quarter of the sig rows pick a needle at every sigma, and about a
        # sixth of the ln rows at sigma 3.  The reference chain has the needle
        # where the earlier decode chain raised and is that chain elsewhere, so
        # every other row keeps its bits
        rng = np.random.Generator(np.random.PCG64(31))
        needles = 0
        for sigma in (0.1, 1.0, 3.0):
            for p in self.PROPOSALS:
                for c, s in zip(rng.normal(0.0, sigma, (250, 5)).tolist(), rng.uniform(-0.2, 1.2, (250, 4)).tolist()):
                    t = TargetVector(*c, tuple(s), variant, DEFAULT_LAMBDA[variant])
                    box = decode_target(t, p)
                    assert bits(box) == bits(ref.decode_target(t, p))
                    needles += min(box.w_side, box.h_side) == 5e-324
        assert needles > 100

    @pytest.mark.parametrize("name", ["cobb", "cobb-ln"])
    def test_noisy_encodings_of_thin_boxes(self, name):
        # DOTA-like thin boxes (aspect 0.05-0.2, any angle, unit diagonal) plus
        # noise of sigma 0.1: about 1 % of the sig rows pick a needle, no ln row
        cobb = get_codec(name)
        rng = np.random.Generator(np.random.PCG64(32))
        a = np.exp(rng.uniform(math.log(0.05), math.log(0.2), 20_000))
        w = 1.0 / np.hypot(1.0, a)
        fields = np.column_stack([np.zeros_like(a), np.zeros_like(a), w, a * w, rng.uniform(0.0, math.pi, a.size)])
        rows = cobb.encode_many(fields) + rng.normal(0.0, 0.1, (a.size, 9))
        boxes = cobb.decode_many(rows)
        assert np.isfinite(boxes).all() and (boxes[:, 2:4] > 0.0).all()
        needles = np.flatnonzero(boxes[:, 2:4].min(axis=1) == 5e-324)
        assert len(needles) > 100 if name == "cobb" else len(needles) == 0
        for i in needles[:20]:
            assert bits(tuple(boxes[i].tolist())) == bits(astuple(cobb.decode(rows[i])))

    def test_audit_perturbations_of_a_thin_diagonal_box(self):
        # the audit's perturbation norm, 1e-4, in 256 random directions takes
        # the sig ratio target of a diagonal box of aspect 1e-5 (2e-5) below 0
        cobb = get_codec("cobb")
        a = 1e-5
        w = 1.0 / math.hypot(1.0, a)
        row = cobb.encode(OrientedBox(0.0, 0.0, w, a * w, math.pi / 4))
        directions = np.random.Generator(np.random.PCG64(33)).standard_normal((256, 9))
        rows = row + 1e-4 * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        boxes = cobb.decode_many(rows)
        assert np.isfinite(boxes).all() and (boxes[:, 2:4].min(axis=1) == 5e-324).any()


class TestEquivariance:
    def test_translation_and_scale(self):
        gt = OrientedBox(1, -2, 3, 1.5, 0.7)
        p = Proposal.horizontal(0.5, -1, 2, 3)
        base = encode_target(gt, p, "sig")
        moved = encode_target(
            OrientedBox(gt.cx + 5, gt.cy - 3, gt.w_side, gt.h_side, gt.theta),
            Proposal.horizontal(p.xp + 5, p.yp - 3, p.wp, p.hp),
            "sig",
        )
        assert np.allclose(base.as_tuple(), moved.as_tuple(), atol=1e-12)
        s = 2.5
        scaled = encode_target(
            OrientedBox(gt.cx * s, gt.cy * s, gt.w_side * s, gt.h_side * s, gt.theta),
            Proposal.horizontal(p.xp * s, p.yp * s, p.wp * s, p.hp * s),
            "sig",
        )
        assert np.allclose(base.as_tuple(), scaled.as_tuple(), atol=1e-9)

    def test_joint_rotation_about_proposal_center(self):
        gt = OrientedBox(1.3, 0.4, 3, 1.5, 0.7)
        p = Proposal.oriented(1.0, 0.2, 2, 3, 0.5)
        base = encode_target(gt, p, "sig")
        for phi in (0.3, 1.1, 2.6):
            gt2 = rotate_about(gt, p.xp, p.yp, phi)
            p2 = Proposal.oriented(p.xp, p.yp, p.wp, p.hp, p.theta_p + phi)
            t2 = encode_target(gt2, p2, "sig")
            assert np.allclose(base.as_tuple(), t2.as_tuple(), atol=1e-9)


def test_scores_given_as_a_list_are_stored_as_a_tuple():
    t = TargetVector(0.5, 0.0, 0.1, -0.1, 0.3, [0.0, 1.0, 1.0, 0.25], "sig", 2.0)
    u = TargetVector(0.5, 0.0, 0.1, -0.1, 0.3, (0.0, 1.0, 1.0, 0.25), "sig", 2.0)
    assert t.st == (0.0, 1.0, 1.0, 0.25) and type(t.st) is tuple
    assert t.as_tuple() == (0.5, 0.0, 0.1, -0.1, 0.3, 0.0, 1.0, 1.0, 0.25)
    assert t == u and hash(t) == hash(u)
    assert cobb_loss(t, u) == 0.0
    assert decode_target(t, Proposal.horizontal(0, 0, 2, 2)) == decode_target(u, Proposal.horizontal(0, 0, 2, 2))


class TestLoss:
    def test_zero_iff_equal(self):
        gt = OrientedBox(0, 0, 4, 2, 0.8)
        t = encode_target(gt, Proposal.horizontal(0, 0, 3, 3), "sig")
        assert cobb_loss(t, t) == 0.0

    def test_quadratic_knee(self):
        a = TargetVector(0, 0, 0, 0, 0, (0, 0, 0, 0), "sig", 2.0)
        b = TargetVector(1.0, 0, 0, 0, 0, (0, 0, 0, 0), "sig", 2.0)
        c = TargetVector(0.5, 0, 0, 0, 0, (0, 0, 0, 0), "sig", 2.0)
        assert cobb_loss(a, b) == pytest.approx(0.5)
        assert cobb_loss(a, c) == pytest.approx(0.125)

    def test_matches_second_path(self):
        rng = np.random.Generator(np.random.PCG64(33))
        for _ in range(50):
            a = rng.normal(size=9)
            b = rng.normal(size=9)
            ta = TargetVector(*a[:5], tuple(a[5:]), "sig", 2.0)
            tb = TargetVector(*b[:5], tuple(b[5:]), "sig", 2.0)
            d = np.abs(a - b)
            sl1 = np.where(d < 1.0, 0.5 * d * d, d - 0.5)
            expected = sl1[:4].sum() + sl1[4] + sl1[5:].sum()
            got = cobb_loss(ta, tb)
            assert got == pytest.approx(expected, rel=1e-12)
            assert got > 0.0  # nonnegative, zero only on equality

    def test_variant_mismatch(self):
        a = TargetVector(0, 0, 0, 0, 0, (0, 0, 0, 0), "sig", 2.0)
        b = TargetVector(0, 0, 0, 0, 0, (0, 0, 0, 0), "ln", 1.0)
        with pytest.raises(InvalidArgumentError):
            cobb_loss(a, b)

    @pytest.mark.parametrize("st", [(1.0,), (0.0, 0.0, 0.0, 0.5, 1.0)])
    def test_needs_four_scores(self, st):
        four = TargetVector(0, 0, 0, 0, 0, (1.0, 0.0, 0.0, 0.0), "sig", 2.0)
        other = TargetVector(0, 0, 0, 0, 0, st, "sig", 2.0)
        for pred, target in ((four, other), (other, four)):
            with pytest.raises(InvalidArgumentError, match="need four scores"):
                cobb_loss(pred, target)

    def test_smooth_l1_shape(self):
        assert _smooth_l1(0.0) == 0.0
        assert _smooth_l1(2.0) == pytest.approx(1.5)
        assert _smooth_l1(-0.5) == pytest.approx(0.125)


class TestSensitivityProbe:
    SQUARE = HorizontalBox(0, 0, 1, 1)

    def test_identical_decodes_give_zero(self):
        # beyond the clamp both parameters decode to the same box
        assert sensitivity_probe("r_ln", 1.0, 1e-4, self.SQUARE) == 0.0

    def test_r_ln_stays_bounded(self):
        mid = sensitivity_probe("r_ln", 0.5, 1e-4, self.SQUARE)
        high = sensitivity_probe("r_ln", 0.9, 1e-4, self.SQUARE)
        assert 0 < mid < 10 and 0 < high < 10
        assert max(mid, high) / min(mid, high) < 10

    def test_area_ratio_form_diverges_near_zero(self):
        r = 1e-3
        direct = sensitivity_probe("r_ln", r, 1e-4, self.SQUARE)
        via_area = sensitivity_probe("f_ln_of_ra", r, 1e-4, self.SQUARE)
        assert via_area >= 10 * direct

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            sensitivity_probe("r_ln", 0.5, 0.0, self.SQUARE)
        with pytest.raises(InvalidArgumentError):
            sensitivity_probe("f_ln_of_ra", 1.5, 1e-4, self.SQUARE)
        with pytest.raises(InvalidArgumentError):
            sensitivity_probe("nope", 0.5, 1e-4, self.SQUARE)

    @pytest.mark.parametrize("r, eps", [(0.5, math.inf), (0.5, math.nan), (math.nan, 1e-4), (-math.inf, 1e-4)])
    def test_non_finite_args(self, r, eps):
        # an infinite eps used to return 0.0: (1 - IoU) / inf
        with pytest.raises(InvalidArgumentError, match="finite"):
            sensitivity_probe("r_ln", r, eps, self.SQUARE)
