"""Continuity audit: probe behavior, determinism, witnesses, NAE."""

import math
from collections import Counter

import numpy as np
import pytest

from cobb import audit
from cobb.audit import (
    COMPLETENESS_TOL,
    LOSS_TOL,
    ROBUSTNESS_K,
    TARGET_GAP_TOL,
    MetricReport,
    MetricResult,
    ProbeConfig,
    StepGap,
    _box_params,
    _family_rows,
    _nae_summary,
    _rng,
    _transform_gap,
    _twin_boxes,
    _twin_rows,
    _verdict,
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
from cobb.baselines import AcuteAngleCodec, BoxCodec, available_codecs, get_codec
from cobb.errors import InvalidArgumentError, UndefinedNormalizationError
from cobb.geometry import OrientedBox, iou, rotate, vertices_of

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

    @pytest.mark.parametrize(
        "predictions, truths",
        [([math.nan, 1.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, math.inf]), ([-math.inf, 1.0], [0.0, 1.0])],
    )
    def test_non_finite_values(self, predictions, truths):
        # a NaN encoding used to reach the report as a NaN NAE
        with pytest.raises(InvalidArgumentError, match="finite"):
            nae(predictions, truths)


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

    def test_seed_must_not_be_negative(self):
        with pytest.raises(InvalidArgumentError, match="seed"):
            ProbeConfig(seed=-1)

    @pytest.mark.parametrize(
        "name, value", [("samples", 1.5), ("samples", 4.0), ("seed", 1.5), ("directions", 2.5), ("directions", "8")]
    )
    def test_counts_and_seed_must_be_integers(self, name, value):
        # a float used to pass here and raise a bare TypeError inside run_audit
        with pytest.raises(InvalidArgumentError, match=name):
            ProbeConfig(steps=(1e-3,), **{name: value})

    @pytest.mark.parametrize("perturbation", [0.0, -1e-4, math.inf, math.nan])
    def test_perturbation_must_be_positive_and_finite(self, perturbation):
        with pytest.raises(InvalidArgumentError, match="perturbation"):
            ProbeConfig(perturbation=perturbation)

    @pytest.mark.parametrize("steps", [(math.inf,), (math.inf, 1e-3), (1e-3, math.nan)])
    def test_steps_must_be_finite(self, steps):
        with pytest.raises(InvalidArgumentError, match="steps"):
            ProbeConfig(steps=steps)

    @pytest.mark.parametrize(
        "name, value",
        [("steps", ("1e-3",)), ("steps", (1e-3, "1e-4")), ("perturbation", "1e-4"), ("steps", 1e-3)],
    )
    def test_steps_and_perturbation_must_be_numbers(self, name, value):
        # a string used to escape as a bare TypeError from the comparisons
        with pytest.raises(InvalidArgumentError, match=name):
            ProbeConfig(**{name: value})

    def test_families_must_not_be_a_bare_string(self):
        # the string used to split into letters: "unknown families: ['a', 'd', ...]"
        with pytest.raises(InvalidArgumentError, match="families must be a sequence"):
            ProbeConfig(families="random")

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
        assert res.steps[-1].gap <= LOSS_TOL

    def test_completeness_csl_fails(self):
        res = check_decoding_completeness(get_codec("csl"), CFG)
        assert res.verdict == "fail"

    def test_witness_replay_reproduces_gap(self):
        # the array probes equal the scalar reference bit for bit
        for codec_name, probe, kwargs in (
            ("acute", probe_target_continuity, {"transform": "rotation"}),
            ("long-edge", probe_loss_continuity, {"transform": "aspect"}),
            ("cobb", probe_loss_continuity, {"transform": "rotation"}),
            ("cobb-ln", probe_target_continuity, {"transform": "aspect"}),
        ):
            codec = get_codec(codec_name)
            res = probe(codec, cfg=CFG, **kwargs)
            replayed = replay_witness(codec, res.name, res.witness)
            assert replayed == max(s.gap for s in res.steps)

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

    def test_each_twin_built_once(self, monkeypatch):
        built = []
        transformed = audit._transformed

        def counting(box, transform, delta):
            built.append((box, transform, delta))
            return transformed(box, transform, delta)

        monkeypatch.setattr(audit, "_transformed", counting)
        _twin_boxes.cache_clear()
        cfg = ProbeConfig(samples=4, seed=5)
        run_audit([get_codec("cobb"), get_codec("acute")], cfg)
        boxes = [box for fam in build_families(cfg).values() for box in fam]
        assert len(built) == len(boxes) * len(cfg.steps) * 2
        assert set(built) == {(b, t, d) for b in boxes for d in cfg.steps for t in ("rotation", "aspect")}

    def test_shared_encoding_is_read_only(self):
        codec = get_codec("cobb")
        rows = _family_rows(codec, CFG)
        assert _family_rows(codec, CFG) is rows
        twins = _twin_rows(codec, CFG)
        assert set(twins) == set(_twin_boxes(CFG))
        for array in [rows, *(column for columns in twins.values() for column in columns)]:
            assert array.shape == (len(rows), codec.dim)
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_each_box_encoded_once(self):
        batches, encoded = [], Counter()

        class Counting(AcuteAngleCodec):
            def encode_many(self, boxes):
                batches.append(list(boxes))
                return super().encode_many(boxes)

            def encode(self, box):
                encoded[box] += 1
                return super().encode(box)

        run_audit([Counting()], ProbeConfig(samples=4, seed=5))
        # the six metrics share the three batches' encodings: every box is
        # encoded once per place it holds in a batch, and never again
        assert encoded and encoded == Counter(box for batch in batches for box in batch)

    def test_encodes_in_three_batches_of_distinct_boxes(self):
        batches = []

        class Recording(AcuteAngleCodec):
            def encode_many(self, boxes):
                batches.append(list(boxes))
                return super().encode_many(boxes)

        cfg = ProbeConfig(samples=4, seed=5)
        run_audit([Recording()], cfg)
        # family boxes, their twins, the NAE sample, each as given: the a = 1
        # near-diagonal straddles at atan2(1, 1) - delta/2 and pi/4 - delta/2
        # are one box, encoded once per place it holds
        boxes = [box for fam in build_families(cfg).values() for box in fam]
        twins = [twin for columns in _twin_boxes(cfg).values() for column in columns for twin in column]
        assert [len(batch) for batch in batches] == [52, 468, 64]
        assert batches[0] == boxes and batches[1] == twins
        # those straddles are the only repeats: the batches hold 49 and 441 distinct boxes
        assert [len(set(batch)) for batch in batches] == [49, 441, 64]
        assert list(dict.fromkeys(batches[0])) == list(dict.fromkeys(boxes))
        assert list(dict.fromkeys(batches[1])) == list(dict.fromkeys(twins))

    @pytest.mark.parametrize("probe", [check_decoding_completeness, probe_decoding_robustness])
    def test_decoding_probes_build_no_twin(self, probe):
        batches = []

        class Recording(AcuteAngleCodec):
            def encode_many(self, boxes):
                batches.append(len(boxes))
                return super().encode_many(boxes)

        cfg = ProbeConfig(samples=3, seed=123)
        calls = [_twin_boxes.cache_info(), _twin_rows.cache_info()]
        probe(Recording(), cfg)
        assert [_twin_boxes.cache_info(), _twin_rows.cache_info()] == calls
        assert batches == [sum(len(fam) for fam in build_families(cfg).values())]


def scalar_completeness(codec, cfg):
    """The completeness probe as a loop over the scalar oracle."""
    worst = StepGap(0.0, -1.0)
    for fam, boxes in build_families(cfg).items():
        for box in boxes:
            gap = 1.0 - iou(vertices_of(box), codec.decode(codec.encode(box)))
            if gap > worst.gap:
                worst = StepGap(0.0, gap, {"family": fam, "box": _box_params(box)})
    verdict = "pass" if worst.gap <= COMPLETENESS_TOL else "fail"
    return MetricResult("decoding-completeness", [worst], verdict, worst.witness)


def scalar_robustness(codec, cfg):
    """The robustness probe's worst gap and witness as a loop over the scalar oracle."""
    worst = StepGap(cfg.perturbation, -1.0)
    for fi, (fam, boxes) in enumerate(build_families(cfg).items()):
        rng = _rng(cfg.seed, 202, fi)
        for box in boxes:
            enc = codec.encode(box)
            dirs = rng.standard_normal((cfg.directions, codec.dim))
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            for d in dirs / np.where(norms == 0.0, 1.0, norms):
                gap = 1.0 - iou(vertices_of(box), codec.decode(enc + cfg.perturbation * d))
                if gap > worst.gap:
                    witness = {"family": fam, "box": _box_params(box), "perturbation": [float(v) for v in cfg.perturbation * d]}
                    worst = StepGap(cfg.perturbation, gap, witness)
    verdict = "pass" if worst.gap <= ROBUSTNESS_K * cfg.perturbation else "fail"
    return worst, verdict


def scalar_continuity(codec, kind, transform, cfg):
    """A continuity probe as the loop over :func:`_transform_gap` per box."""
    steps = []
    for delta in cfg.steps:
        worst = StepGap(delta, -1.0)
        for fam, boxes in build_families(cfg).items():
            for box in boxes:
                gap = _transform_gap(codec, kind, box, transform, delta)
                if gap > worst.gap:
                    witness = {"family": fam, "box": _box_params(box), "transform": transform, "delta": delta}
                    worst = StepGap(delta, gap, witness)
        steps.append(worst)
    return _verdict(f"{kind}-{transform}", steps, TARGET_GAP_TOL if kind == "target" else LOSS_TOL)


@pytest.mark.parametrize("name", available_codecs())
def test_array_continuity_probes_equal_the_scalar_loop(name):
    cfg = ProbeConfig(samples=6, seed=11)
    assert len(cfg.steps) == 3
    codec = get_codec(name)
    for transform in ("rotation", "aspect"):
        assert probe_target_continuity(codec, transform, cfg) == scalar_continuity(codec, "target", transform, cfg)
        assert probe_loss_continuity(codec, transform, cfg) == scalar_continuity(codec, "loss", transform, cfg)


class Scripted(BoxCodec):
    """One-component codec: 0.0 for every box but the scripted ones."""

    name, dim = "scripted", 1

    def __init__(self, values):
        self.values = values

    def encode(self, box):
        return np.array([self.values.get(box, 0.0)])


@pytest.mark.parametrize("kind", ["target", "loss"])
def test_continuity_witness_is_the_first_largest_gap_and_never_nan(kind):
    cfg = ProbeConfig(samples=4, seed=5)
    boxes = [box for fam in build_families(cfg).values() for box in fam]
    probe = probe_target_continuity if kind == "target" else probe_loss_continuity
    # per step: box 0 a NaN gap, boxes 2 and 5 the same largest gap
    values = {}
    for delta in cfg.steps:
        values[rotate(boxes[0], delta)] = math.nan
        values[rotate(boxes[2], delta)] = values[rotate(boxes[5], delta)] = 3.0
    codec = Scripted(values)
    res = probe(codec, "rotation", cfg)
    want_gap = 3.0 if kind == "target" else 2.5  # smooth-L1 above the knee
    assert [s.gap for s in res.steps] == [want_gap] * len(cfg.steps)
    assert {tuple(s.witness["box"]) for s in res.steps} == {tuple(_box_params(boxes[2]))}
    assert res == scalar_continuity(codec, kind, "rotation", cfg)
    # every gap NaN: no witness, as the loop leaves it
    res = probe(Scripted({rotate(b, d): math.nan for b in boxes for d in cfg.steps}), "rotation", cfg)
    assert [(s.gap, s.witness) for s in res.steps] == [(-1.0, None)] * len(cfg.steps)
    assert res.witness is None


@pytest.mark.parametrize("name", available_codecs())
def test_batched_decoding_probes_equal_the_scalar_loop(name):
    cfg = ProbeConfig(samples=6, seed=11, directions=5)
    codec = get_codec(name)
    assert check_decoding_completeness(codec, cfg) == scalar_completeness(codec, cfg)
    res = probe_decoding_robustness(codec, cfg)
    worst, verdict = scalar_robustness(codec, cfg)
    assert (res.steps, res.verdict, res.witness) == ([worst], verdict, worst.witness)


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
