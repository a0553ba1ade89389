"""Continuity audit: probe behavior, determinism, witnesses, NAE."""

import math
from collections import Counter

import numpy as np
import pytest

from cobb.audit import (
    MetricReport,
    ProbeConfig,
    _EncodeOnce,
    _nae_summary,
    build_families,
    check_decoding_completeness,
    nae,
    normalize_box,
    probe_decoding_robustness,
    probe_loss_continuity,
    probe_target_continuity,
    replay_witness,
    run_audit,
)
from cobb.baselines import AcuteAngleCodec, available_codecs, get_codec
from cobb.errors import InvalidArgumentError, UndefinedNormalizationError
from cobb.geometry import OrientedBox, rotate

CFG = ProbeConfig(samples=24, seed=9)


class TestNae:
    def test_perfect_predictions(self):
        assert nae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_case(self):
        # ((0-0)^2 + (0-1)^2)/2 / (1-0)^2
        assert nae([0, 0], [0, 1]) == pytest.approx(0.5)

    def test_second_path(self):
        rng = np.random.Generator(np.random.PCG64(77))
        p, t = rng.normal(size=50), rng.normal(size=50)
        expected = np.mean((p - t) ** 2) / (t.max() - t.min()) ** 2
        assert nae(p, t) == pytest.approx(float(expected), rel=1e-12)

    def test_constant_truths(self):
        with pytest.raises(UndefinedNormalizationError):
            nae([1, 2], [3, 3])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            nae([1], [1, 2])


class TestConfig:
    def test_steps_must_decrease(self):
        with pytest.raises(InvalidArgumentError):
            ProbeConfig(steps=(1e-4, 1e-3))
        with pytest.raises(InvalidArgumentError):
            ProbeConfig(steps=())

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            ProbeConfig(families=("near-vertical",))

    # each config below used to audit nothing, or fail halfway through a run

    def test_families_must_not_be_empty(self):
        with pytest.raises(InvalidArgumentError, match="families"):
            ProbeConfig(families=())

    @pytest.mark.parametrize("directions", [0, -1])
    def test_directions_must_be_positive(self, directions):
        with pytest.raises(InvalidArgumentError, match="directions"):
            ProbeConfig(directions=directions)

    @pytest.mark.parametrize("perturbation", [0.0, -1e-4, math.inf, math.nan])
    def test_perturbation_must_be_positive_and_finite(self, perturbation):
        with pytest.raises(InvalidArgumentError, match="perturbation"):
            ProbeConfig(perturbation=perturbation)

    @pytest.mark.parametrize("steps", [(math.inf,), (math.inf, 1e-3), (1e-3, math.nan)])
    def test_steps_must_be_finite(self, steps):
        with pytest.raises(InvalidArgumentError, match="steps"):
            ProbeConfig(steps=steps)

    def test_lists_become_tuples(self):
        cfg = ProbeConfig(steps=[1e-3, 1e-4], families=["random"])
        assert cfg.steps == (1e-3, 1e-4) and cfg.families == ("random",)
        assert hash(cfg) == hash(ProbeConfig(steps=(1e-3, 1e-4), families=("random",)))


class TestFamilies:
    def test_deterministic(self):
        # two separate builds: the cached function would return one object
        a = build_families.__wrapped__(CFG)
        b = build_families.__wrapped__(CFG)
        assert a is not b
        assert list(a) == list(b)
        for fam in a:
            assert a[fam] == b[fam]

    def test_built_once_per_config(self):
        fams = build_families(CFG)
        assert build_families(ProbeConfig(samples=24, seed=9)) is fams
        assert fams == build_families.__wrapped__(CFG)
        with pytest.raises(TypeError):
            fams["random"] = ()

    def test_normalized_unit_diagonal(self):
        for boxes in build_families(CFG).values():
            for box in boxes:
                assert box.diagonal == pytest.approx(1.0, abs=1e-12)
                assert (box.cx, box.cy) == (0.0, 0.0)

    def test_seed_changes_samples(self):
        other = build_families(ProbeConfig(samples=24, seed=10))
        assert other["random"] != build_families(CFG)["random"]


class TestProbes:
    def test_cobb_rotation_passes(self):
        res = probe_target_continuity(get_codec("cobb"), "rotation", CFG)
        assert res.verdict == "pass"
        assert [s.delta for s in res.steps] == list(CFG.steps)

    def test_acute_rotation_fails_with_witness(self):
        res = probe_target_continuity(get_codec("acute"), "rotation", CFG)
        assert res.verdict == "fail"
        assert res.steps[-1].gap > 0.1
        assert res.witness is not None

    def test_loss_gap_zero_for_identical_encodings(self):
        # a square rotating by delta has identical long-edge sides; angle
        # moves slightly, so the loss is tiny but the probe applies cleanly
        res = probe_loss_continuity(get_codec("cobb"), "rotation", CFG)
        assert res.verdict == "pass"
        assert res.steps[-1].gap <= CFG.loss_tol

    def test_completeness_csl_fails(self):
        res = check_decoding_completeness(get_codec("csl"), CFG)
        assert res.verdict == "fail"

    def test_robustness_zero_perturbation_rejected(self):
        with pytest.raises(InvalidArgumentError):
            probe_decoding_robustness(get_codec("cobb"), CFG, 0.0)

    def test_witness_replay_reproduces_gap(self):
        for codec_name, probe, kwargs in (
            ("acute", probe_target_continuity, {"transform": "rotation"}),
            ("long-edge", probe_loss_continuity, {"transform": "aspect"}),
        ):
            codec = get_codec(codec_name)
            res = probe(codec, cfg=CFG, **kwargs)
            replayed = replay_witness(codec, res.name, res.witness)
            worst = max(s.gap for s in res.steps)
            assert replayed == pytest.approx(worst, rel=1e-9)

    def test_robustness_witness_replay(self):
        codec = get_codec("csl")
        res = probe_decoding_robustness(codec, CFG)
        assert replay_witness(codec, res.name, res.witness) == pytest.approx(
            res.steps[0].gap, rel=1e-9
        )


class TestRunAudit:
    def test_deterministic_reports(self):
        from cobb.cli import reports_to_json

        codecs = [get_codec("cobb"), get_codec("acute")]
        r1 = run_audit(codecs, CFG)
        r2 = run_audit([get_codec("cobb"), get_codec("acute")], CFG)
        assert reports_to_json(r1) == reports_to_json(r2)

    def test_report_contents(self):
        reports = run_audit([get_codec("gv")], CFG)
        assert len(reports) == 1
        rep = reports[0]
        assert isinstance(rep, MetricReport)
        assert [m.name for m in rep.metrics] == [
            "target-rotation",
            "target-aspect",
            "loss-rotation",
            "loss-aspect",
            "decoding-completeness",
            "decoding-robustness",
        ]
        assert set(rep.extras["nae"]) == {"xy", "wh", "alpha"}
        # the alpha channel is the discontinuous one: hardest to estimate
        assert rep.extras["nae"]["alpha"] > rep.extras["nae"]["wh"]

    def test_cobb_extras_include_ratio_sensitivity(self):
        rep = run_audit([get_codec("cobb")], CFG)[0]
        rs = rep.extras["ratio_sensitivity"]
        assert rs["f_ln_ra@1e-3"] >= 10 * rs["r_ln@1e-3"]

    @pytest.mark.parametrize("name", available_codecs())
    def test_same_results_as_the_metrics_on_a_bare_codec(self, name):
        cfg = ProbeConfig(samples=4, seed=5)
        assert len(cfg.steps) == 3
        rep = run_audit([get_codec(name)], cfg)[0]
        codec = get_codec(name)
        assert rep.metrics == [
            probe_target_continuity(codec, "rotation", cfg),
            probe_target_continuity(codec, "aspect", cfg),
            probe_loss_continuity(codec, "rotation", cfg),
            probe_loss_continuity(codec, "aspect", cfg),
            check_decoding_completeness(codec, cfg),
            probe_decoding_robustness(codec, cfg),
        ]
        assert rep.extras["nae"] == _nae_summary(codec, cfg)

    def test_each_box_encoded_once(self):
        encoded = Counter()

        class Counting(AcuteAngleCodec):
            def encode(self, box):
                encoded[box] += 1
                return super().encode(box)

        run_audit([Counting()], ProbeConfig(samples=4, seed=5))
        assert encoded and set(encoded.values()) == {1}

    def test_shared_encoding_is_read_only(self):
        codec = _EncodeOnce(get_codec("cobb"))
        box = build_families(CFG)["random"][0]
        enc = codec.encode(box)
        assert codec.encode(box) is enc
        with pytest.raises(ValueError):
            enc[0] = 0.0
        assert codec.name == "cobb" and codec.dim == 9


def test_normalize_box():
    b = normalize_box(OrientedBox(3, -4, 6, 8, 0.3))
    assert (b.cx, b.cy) == (0.0, 0.0)
    assert math.hypot(b.w_side, b.h_side) == pytest.approx(1.0)


def test_diamond_cusp_shrinks_as_square_root():
    """The worst robustness configuration is a cusp, not an ambiguity.

    At a square outer box with sliding ratio one half, an extent perturbation
    of size m tilts the decoded shape by ~sqrt(2*sqrt(2)*m): the response
    vanishes as m goes to zero (pointwise robustness), just slower than
    linearly, which is what trips the audit's linear gate.
    """
    import math

    from cobb.geometry import iou

    c = get_codec("cobb")
    s = 1 / math.sqrt(2)
    x = OrientedBox(0, 0, s, s, math.pi / 4)
    enc = c.encode(x)
    gaps = []
    for mag in (1e-3, 1e-4, 1e-5, 1e-6):
        d = np.zeros(9)
        d[2], d[3] = mag / math.sqrt(2), -mag / math.sqrt(2)
        gap = 1.0 - iou(x, c.decode(enc + d))
        gaps.append(gap)
        assert gap == pytest.approx(math.sqrt(2 * math.sqrt(2) * mag), rel=0.06)
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_robustness_notes_distinguish_cusp_from_ambiguity():
    cobb_res = probe_decoding_robustness(get_codec("cobb"), CFG)
    csl_res = probe_decoding_robustness(get_codec("csl"), CFG)
    assert cobb_res.verdict == "fail" and "vanishing" in cobb_res.notes
    assert csl_res.verdict == "fail" and "ambiguity" in csl_res.notes


def test_pass_requires_monotone_gaps():
    """A single lucky small gap at the finest step cannot pass on its own."""
    from cobb.audit import StepGap, _verdict

    lucky = [StepGap(1e-3, 1e-5), StepGap(1e-4, 5e-2), StepGap(1e-5, 1e-9)]
    res = _verdict("target-rotation", lucky, tol=1e-3)
    assert res.verdict == "fail" and "monotone" in res.notes
    shrinking = [StepGap(1e-3, 1e-2), StepGap(1e-4, 1e-3), StepGap(1e-5, 1e-4)]
    assert _verdict("target-rotation", shrinking, tol=1e-3).verdict == "pass"


@pytest.mark.parametrize("jumpy", ["acute", "gv"])
def test_jump_witness_where_continuous_codec_stays_flat(jumpy):
    """At the jumpy codec's own worst configuration and a 1e-5 rotation, the
    nine-parameter encoding barely moves."""
    codec = get_codec(jumpy)
    cfg = ProbeConfig(steps=(1e-5,), samples=24, seed=9)
    res = probe_target_continuity(codec, "rotation", cfg)
    assert res.steps[-1].gap > 0.1
    box = OrientedBox(*res.witness["box"])
    cobb = get_codec("cobb")
    a = cobb.encode(box)
    b = cobb.encode(rotate(box, 1e-5))
    assert float(np.max(np.abs(a - b))) <= 1e-3
