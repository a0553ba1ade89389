"""Continuity audit: probe behavior, determinism, witnesses, NAE."""

import math
import re
from collections import Counter

import numpy as np
import pytest

from cobb import audit, codec as cobb_codec
from cobb.audit import (
    COMPLETENESS_TOL,
    FAMILY_NAMES,
    LOSS_TOL,
    ROBUSTNESS_K,
    TARGET_GAP_TOL,
    MetricReport,
    MetricResult,
    ProbeConfig,
    StepGap,
    _members,
    _nae_sample,
    _nae_summary,
    _normalized,
    _rng,
    _transform_gap,
    _twins,
    _verdict,
    build_families,
    check_decoding_completeness,
    probe_decoding_robustness,
    probe_loss_continuity,
    probe_target_continuity,
    replay_witness,
    run_audit,
)
from cobb.baselines import AcuteAngleCodec, BoxCodec, available_codecs, get_codec
from cobb.errors import CobbError, InvalidArgumentError
from cobb.geometry import OrientedBox, iou, rotate, vertices_of
from test_baselines import assert_same_bits
from test_codec import as_fields

CFG = ProbeConfig(samples=24, seed=9)


def family_fields(cfg):
    """The fields of every family box, in family order."""
    return _members(build_families(cfg))[1]


def nae(predictions, truths) -> float:
    """Mean squared error normalized by the squared ground-truth range: the
    scalar NAE that each column of the audit's NAE summary is checked
    against (:func:`per_column_nae` skips a column of constant truths)."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise InvalidArgumentError("predictions and truths must be equal-length, non-empty")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise InvalidArgumentError("predictions and truths must be finite")
    spread = float(np.max(t) - np.min(t))
    return float(np.mean((p - t) ** 2) / spread**2)


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


def recorded(monkeypatch, owner, name):
    """A list that gets ``(args, result)`` of each call of ``owner.name``
    from here on."""
    calls, method = [], getattr(owner, name)

    def call(*args):
        calls.append((args, method(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, call)
    return calls


def per_column_nae(codec, rows):
    """The per-column :func:`nae` loop that :func:`_nae_summary` replaced,
    on the encodings of :func:`_nae_sample` (truths, then their rotated
    twins)."""
    truths, preds = np.split(rows, 2)
    out = {}
    for gname, idxs in codec.parameter_groups().items():
        vals = []
        for i in idxs:
            spread = float(np.max(truths[:, i]) - np.min(truths[:, i]))
            if spread == 0.0:
                continue
            vals.append(nae(preds[:, i], truths[:, i]))
        if vals:
            out[gname] = float(np.mean(vals))
    return out


@pytest.mark.parametrize("name", available_codecs())
def test_nae_summary_is_the_per_column_nae_loop(name):
    """Bit for bit and in key order, at samples 1, 4 and 64 over several
    seeds (a mean along axis 0 of the 2-D array differs in the last bit)."""
    codec = get_codec(name)
    for samples in (1, 4, 64):
        for seed in (0, 4, 9, 31):
            rows = codec.encode_many(_nae_sample(ProbeConfig(samples=samples, seed=seed)))
            got, want = _nae_summary(codec, rows), per_column_nae(codec, rows)
            assert list(got) == list(want)
            assert_same_bits(list(got.values()), list(want.values()))


@pytest.mark.parametrize("bad", ["varying", "constant"])
def test_nae_summary_checks_finiteness_where_the_loop_did(bad):
    """A NaN in a column with a spread raises, as ``nae`` raised for it; a
    NaN prediction in a column whose truths are constant is skipped with
    the column, as the loop skipped it."""
    codec = AcuteAngleCodec()
    rows = codec.encode_many(_nae_sample(ProbeConfig(samples=4, seed=2)))
    n = len(rows) // 2
    rows[:n, 2] = 0.5  # constant truths in column 2
    rows[n, 2 if bad == "constant" else 0] = math.nan
    if bad == "varying":
        for summary in (_nae_summary, per_column_nae):
            with pytest.raises(InvalidArgumentError, match="finite"):
                summary(codec, rows)
    else:
        got = _nae_summary(codec, rows)
        assert set(got) == {"xy", "wh", "angle"} and got == per_column_nae(codec, rows)


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

    def test_families_must_not_repeat(self):
        # a repeat used to build both draws and keep only the last, so the
        # audit ran on another sample than the single family
        with pytest.raises(InvalidArgumentError, match="families must not repeat"):
            ProbeConfig(families=("random", "near-square", "random"))

    def test_families_must_not_be_a_bare_string(self):
        # the string used to split into letters: "unknown families: ['a', 'd', ...]"
        with pytest.raises(InvalidArgumentError, match="families must be a sequence"):
            ProbeConfig(families="random")

    def test_lists_become_tuples(self):
        cfg = ProbeConfig(steps=[1e-3, 1e-4], families=["random"])
        assert cfg.steps == (1e-3, 1e-4) and cfg.families == ("random",)
        assert hash(cfg) == hash(ProbeConfig(steps=(1e-3, 1e-4), families=("random",)))


def scalar_families(cfg):
    """The loop that :func:`build_families` replaced: one ``rng.uniform``
    call per drawn value and one box per row."""
    rows, ends = [], []
    for fi, fam in enumerate(cfg.families):
        rng = _rng(cfg.seed, 101, fi)
        for _ in range(cfg.samples):
            a = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            if fam == "near-horizontal":
                theta = float(rng.uniform(-1e-3, 1e-3))
            elif fam == "near-square":
                a = 1.0 + float(rng.uniform(-1e-3, 1e-3))
                theta = float(rng.uniform(0.0, math.pi))
            elif fam == "near-diagonal":
                theta = math.atan2(1.0, a) + float(rng.uniform(-1e-3, 1e-3))
            else:
                theta = float(rng.uniform(0.0, math.pi))
            rows.append((0.0, 0.0, a, 1.0, theta))
        for delta in cfg.steps:
            if fam == "near-horizontal":
                rows += [(0.0, 0.0, a, 1.0, -0.5 * delta) for a in (2.0, 4.0, 0.5, 0.25)]
            elif fam == "near-square":
                rows += [(0.0, 0.0, 1.0 - 0.25 * delta, 1.0, theta) for theta in (math.pi / 6, math.pi / 3)]
            elif fam == "near-diagonal":
                for a in (1.0, 2.0, 4.0):
                    rows.append((0.0, 0.0, a, 1.0, math.atan2(1.0, a) - 0.5 * delta))
                    rows.append((0.0, 0.0, a, 1.0, 0.25 * math.pi - 0.5 * delta))
        ends.append(len(rows))
    boxes = [normalize_box(OrientedBox(*row)) for row in rows]
    return dict(zip(cfg.families, np.split(as_fields(boxes), ends[:-1])))


class TestFamilies:
    @pytest.mark.parametrize("samples", [1, 4, 64])
    def test_array_draws_equal_the_scalar_loop(self, samples):
        # bit for bit, for a subset of the families and other orders too
        for seed in (0, 5, 9, 31):
            for families in (FAMILY_NAMES, FAMILY_NAMES[::-1], ("random", "near-diagonal"), ("near-square",)):
                for steps in ((1e-3, 1e-4, 1e-5), (1e-4,)):
                    cfg = ProbeConfig(samples=samples, seed=seed, families=families, steps=steps)
                    got, want = build_families(cfg), scalar_families(cfg)
                    assert list(got) == list(want)
                    for fam in got:
                        assert_same_bits(got[fam], want[fam])

    def test_deterministic(self):
        a = build_families(CFG)
        b = build_families(CFG)
        assert a is not b
        assert list(a) == list(b)
        for fam in a:
            assert np.array_equal(a[fam], b[fam])

    def test_built_once_per_config(self, monkeypatch):
        # one build per run_audit call, whatever the number of codecs
        builds = recorded(monkeypatch, audit, "build_families")
        run_audit([get_codec("cobb"), get_codec("acute")], CFG)
        ((_, fams),) = builds
        fresh = build_families(CFG)
        assert list(fams) == list(fresh) and all(np.array_equal(fams[f], fresh[f]) for f in fams)
        with pytest.raises(TypeError):
            fams["random"] = ()
        for rows in fams.values():
            assert rows.shape[1] == 5 and len(rows) >= CFG.samples
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0

    def test_normalized_unit_diagonal(self):
        for rows in build_families(CFG).values():
            for row in rows.tolist():
                box = OrientedBox(*row)
                assert [box.cx, box.cy, box.w_side, box.h_side, box.theta] == row  # constructed form
                assert math.hypot(box.w_side, box.h_side) == pytest.approx(1.0, abs=1e-12)
                assert (box.cx, box.cy) == (0.0, 0.0)

    def test_seed_changes_samples(self):
        other = build_families(ProbeConfig(samples=24, seed=10))
        assert not np.array_equal(other["random"], build_families(CFG)["random"])


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
        # the NAE rows of the shared batch equal the NAE sample encoded on its own,
        # and NAE is the one extra of every codec
        assert rep.extras == {"nae": _nae_summary(codec, codec.encode_many(_nae_sample(cfg)))}

    def test_each_twin_built_once(self, monkeypatch):
        # per run, whatever the number of codecs: one _twins call per
        # (transform, delta) on the family fields, shared by the continuity
        # probes of every codec, then one NAE sample and its rotated twins
        built, twins = [], audit._twins

        def counting(fields, transform, delta):
            built.append((fields.tobytes(), transform, delta))
            return twins(fields, transform, delta)

        monkeypatch.setattr(audit, "_twins", counting)
        samples = recorded(monkeypatch, audit, "_nae_sample")
        cfg = ProbeConfig(samples=4, seed=5)
        run_audit([get_codec("cobb"), get_codec("acute")], cfg)
        family = family_fields(cfg).tobytes()
        per_run = [(family, t, d) for d in cfg.steps for t in ("rotation", "aspect")]
        ((_, sample),) = samples
        assert built[:-1] == per_run
        assert built[-1][:2] == (np.split(sample, 2)[0].tobytes(), "rotation")

    def test_shared_encoding_is_read_only(self, monkeypatch):
        # the six metrics and the NAE extra of a codec read one array of
        # family fields and views of one encode_many batch (the family rows,
        # each twin column, the NAE rows), none of which they can change
        codec = get_codec("cobb")
        batches = recorded(monkeypatch, codec, "encode_many")
        continuity = recorded(monkeypatch, audit, "_continuity")
        decoding = recorded(monkeypatch, audit, "_decoding_gaps")
        robustness = recorded(monkeypatch, audit, "_robustness")
        summaries = recorded(monkeypatch, audit, "_nae_summary")
        run_audit([codec], CFG)
        (((_, _, _, fields, rows, _), _),), ((robust, _),) = decoding, robustness
        ((_, batch),), (((_, nae_rows), _),) = batches, summaries
        twins = continuity[0][0][7]
        assert len(continuity) == 4
        assert all(args[5] is fields and args[6] is rows and args[7] is twins for args, _ in continuity)
        assert robust[3] is fields and robust[4] is rows
        assert set(twins) == {(t, d) for d in CFG.steps for t in ("rotation", "aspect")}
        assert fields.shape == (len(rows), 5)
        columns = [column for columns in twins.values() for column in columns]
        assert all(column.shape[0] == len(rows) for column in columns)
        assert nae_rows.shape[0] == 2 * max(CFG.samples, 32)
        views = [rows, *columns, nae_rows]
        assert all(view.base is batch for view in views)
        assert_same_bits(np.concatenate(views), batch)
        for array in [fields, batch, *views]:
            with pytest.raises(ValueError):
                array[0, 0] = 0.0

    def test_each_box_encoded_once(self, monkeypatch):
        batches, encoded = [], Counter()

        class Counting(AcuteAngleCodec):
            def encode_many(self, fields):
                batches.append(np.array(fields))
                return super().encode_many(fields)

            def _encode_rows(self, fields):  # the one encoder, which encode calls too
                encoded.update(OrientedBox(*row) for row in fields.tolist())
                return super()._encode_rows(fields)

        cfg = ProbeConfig(samples=4, seed=5)
        run_audit([Counting()], cfg)
        # the six metrics share the batch's encodings: every box is
        # encoded once per place it holds in a batch, and never again
        assert encoded and encoded == Counter(OrientedBox(*row) for batch in batches for row in batch.tolist())

        def refuse(self, box):
            raise AssertionError("scalar encode called")

        # the real codec encodes those batches on arrays, never box by box
        monkeypatch.setattr(AcuteAngleCodec, "encode", refuse)
        run_audit([AcuteAngleCodec()], cfg)

    def test_encodes_in_one_batch_of_distinct_boxes(self):
        batches = []

        class Recording(AcuteAngleCodec):
            def encode_many(self, fields):
                batches.append(np.array(fields))
                return super().encode_many(fields)

        cfg = ProbeConfig(samples=4, seed=5)
        run_audit([Recording()], cfg)
        # family boxes, their twins, the NAE sample, in that order, each as
        # given: the a = 1 near-diagonal straddles at atan2(1, 1) - delta/2
        # and pi/4 - delta/2 are one box, encoded once per place it holds
        boxes = family_fields(cfg)
        twins = [c for d in cfg.steps for t in ("rotation", "aspect") for c in _twins(boxes, t, d)]
        blocks = [boxes, np.concatenate(twins), _nae_sample(cfg)]
        assert [len(batch) for batch in batches] == [584]
        assert [len(block) for block in blocks] == [52, 468, 64]
        assert_same_bits(batches[0], np.concatenate(blocks))
        # those straddles are the only repeats: the blocks hold 49, 441 and 64 distinct boxes
        assert [len(set(map(tuple, block.tolist()))) for block in blocks] == [49, 441, 64]

    def test_builds_no_box_per_family_twin_or_nae_row(self, monkeypatch):
        """A cobb run passes field arrays from families to twins to NAE.  It
        builds boxes only for the tie rows it hands to the scalar oracle,
        inside the oracle and the scalar decode, and for the robustness
        note's two re-decodes of the witness.  It used to build 330: 56
        family boxes, 140 twins, 128 NAE rows, 4 in the ratio probes (no
        longer run) and 2 in the note."""
        built, seen, post_init = [], [], OrientedBox.__post_init__

        def exempt(fn, record=None):
            def run(*args):
                if record is not None:
                    record.append(args[0])
                n = len(built)
                try:
                    return fn(*args)
                finally:
                    del built[n:]  # the callee's own boxes

            return run

        codec = get_codec("cobb")
        monkeypatch.setattr(OrientedBox, "__post_init__", lambda box: built.append(box) or post_init(box))
        monkeypatch.setattr(cobb_codec, "classify", exempt(cobb_codec.classify, seen))
        monkeypatch.setattr(codec, "decode", exempt(codec.decode))
        rep = run_audit([codec], ProbeConfig(samples=4, seed=5, steps=(1e-4,)))[0]
        got = list(built)
        robustness = rep.metrics[-1]
        assert robustness.notes  # the diamond cusp fails the linear gate and is re-decoded
        tie = [any(b is s for s in seen) for b in got]
        assert sum(tie) == len(seen)
        assert [b for b, t in zip(got, tie) if not t] == [OrientedBox(*robustness.witness["box"])] * 2

    @pytest.mark.parametrize("probe", [check_decoding_completeness, probe_decoding_robustness])
    def test_decoding_probes_build_no_twin(self, probe, monkeypatch):
        batches = []

        class Recording(AcuteAngleCodec):
            def encode_many(self, fields):
                batches.append(len(fields))
                return super().encode_many(fields)

        def refuse(*args):
            raise AssertionError("twins built")

        cfg = ProbeConfig(samples=3, seed=123)
        monkeypatch.setattr(audit, "_twins", refuse)
        probe(Recording(), cfg)
        assert batches == [len(family_fields(cfg))]

    def test_runs_share_no_state(self, monkeypatch):
        """Each run encodes its own rows: a codec audited again, after
        another codec or right after itself, gets the same batches and the
        same report."""
        from cobb.cli import reports_to_json

        batches = []

        class Recording(AcuteAngleCodec):
            def encode_many(self, fields):
                batches.append(len(fields))
                return super().encode_many(fields)

        a, b = Recording(), get_codec("cobb")
        cfg = ProbeConfig(samples=4, seed=5)
        runs = []
        for codec in (a, b, a, a):
            del batches[:]
            runs.append((reports_to_json(run_audit([codec], cfg)), list(batches)))
        assert runs[0] == runs[2] == runs[3] and runs[0][1] == [584]
        assert runs[1][1] == []

    def test_module_keeps_no_cache(self):
        assert [name for name, value in vars(audit).items() if hasattr(value, "cache_info")] == []


def scalar_completeness(codec, cfg):
    """The completeness probe as a loop over the scalar oracle."""
    worst = StepGap(0.0, -1.0, None)
    for fam, rows in build_families(cfg).items():
        for row in rows.tolist():
            box = OrientedBox(*row)
            gap = 1.0 - iou(vertices_of(box), codec.decode(codec.encode(box)))
            if gap > worst.gap:
                worst = StepGap(0.0, gap, {"family": fam, "box": row})
    verdict = "pass" if worst.gap <= COMPLETENESS_TOL else "fail"
    return MetricResult("decoding-completeness", [worst], verdict, "")


def scalar_robustness(codec, cfg):
    """The robustness probe's worst gap and witness as a loop over the scalar oracle."""
    worst = StepGap(cfg.perturbation, -1.0, None)
    for fi, (fam, rows) in enumerate(build_families(cfg).items()):
        rng = _rng(cfg.seed, 202, fi)
        for row in rows.tolist():
            box = OrientedBox(*row)
            enc = codec.encode(box)
            dirs = rng.standard_normal((cfg.directions, codec.dim))
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            for d in dirs / np.where(norms == 0.0, 1.0, norms):
                gap = 1.0 - iou(vertices_of(box), codec.decode(enc + cfg.perturbation * d))
                if gap > worst.gap:
                    witness = {"family": fam, "box": row, "perturbation": [float(v) for v in cfg.perturbation * d]}
                    worst = StepGap(cfg.perturbation, gap, witness)
    verdict = "pass" if worst.gap <= ROBUSTNESS_K * cfg.perturbation else "fail"
    return worst, verdict


def scalar_continuity(codec, kind, transform, cfg):
    """A continuity probe as the loop over :func:`_transform_gap` per box."""
    steps = []
    for delta in cfg.steps:
        worst = StepGap(delta, -1.0, None)
        for fam, rows in build_families(cfg).items():
            for row in rows.tolist():
                gap = _transform_gap(codec, kind, row, transform, delta)
                if gap > worst.gap:
                    witness = {"family": fam, "box": row, "transform": transform, "delta": delta}
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

    def _encode_rows(self, fields):
        return np.array([self.values.get(OrientedBox(*row), 0.0) for row in fields.tolist()]).reshape(-1, 1)


@pytest.mark.parametrize("kind", ["target", "loss"])
def test_continuity_witness_is_the_first_largest_gap_and_never_nan(kind):
    cfg = ProbeConfig(samples=4, seed=5)
    rows = family_fields(cfg).tolist()
    boxes = [OrientedBox(*row) for row in rows]
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
    assert {tuple(s.witness["box"]) for s in res.steps} == {tuple(rows[2])}
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


@pytest.mark.parametrize("name", available_codecs())
def test_every_decoding_gap_is_the_scalar_oracle(name, monkeypatch):
    """Every row the decoding probes score, not only the worst one a
    witness replays, is the scalar ``1 - iou(box, codec.decode(row))``, bit
    for bit.  The robustness probe's one batch holds the family rows, then
    each box's perturbed rows."""
    cfg = ProbeConfig(samples=1, seed=7)
    codec = get_codec(name)
    decodes = recorded(monkeypatch, codec, "decode_many")
    scores = recorded(monkeypatch, audit, "iou_many")
    probe_decoding_robustness(codec, cfg)
    ((_, batch),) = scores
    encodings = np.asarray(decodes[0][0][0])  # any later decode is the robustness note's
    fields = family_fields(cfg)
    n, d = len(fields), cfg.directions
    assert len(encodings) == len(batch) == n * (1 + d)
    assert np.array_equal(encodings[:n], codec.encode_many(fields))
    boxes = [OrientedBox(*row) for row in fields.tolist()]
    owners = [*range(n), *(i // d for i in range(n * d))]
    want = [1.0 - iou(boxes[b], codec.decode(row)) for b, row in zip(owners, encodings)]
    assert_same_bits(1.0 - batch, want)


def test_run_audit_encodes_each_codec_in_one_batch(monkeypatch):
    """Every codec of a run encodes the family boxes, their twins and the
    NAE sample in one ``encode_many`` call, over the same rows."""
    cfg = ProbeConfig(samples=2, seed=23, directions=3)
    codecs = [get_codec(name) for name in available_codecs()]
    encodes = [recorded(monkeypatch, codec, "encode_many") for codec in codecs]
    run_audit(codecs, cfg)
    rows = len(family_fields(cfg)) * (1 + 3 * len(cfg.steps)) + 2 * 32
    assert [[len(out) for _, out in calls] for calls in encodes] == [[rows]] * len(codecs)
    ((args, _),) = encodes[0]
    assert all(np.array_equal(calls[0][0][0], args[0]) for calls in encodes)


@pytest.mark.parametrize("samples", [4, 64])
def test_a_run_of_all_codecs_is_their_single_codec_runs(samples):
    """The inputs that every codec of a run shares leave each report as a
    run of that codec alone gives it, byte for byte, in either order."""
    from cobb.cli import reports_to_json

    cfg = ProbeConfig(samples=samples, seed=7)
    names = available_codecs()
    alone = [run_audit([get_codec(name)], cfg)[0] for name in names]
    assert reports_to_json(run_audit([get_codec(name) for name in names], cfg)) == reports_to_json(alone)
    assert reports_to_json(run_audit([get_codec(name) for name in names[::-1]], cfg)) == reports_to_json(alone[::-1])


def test_run_audit_decodes_and_scores_each_codec_in_one_batch(monkeypatch):
    """Completeness and robustness share one ``decode_many`` and one
    ``iou_many`` call per codec, over the family rows and the perturbed
    rows.  The only other decodes are the robustness note's two one-row
    ``decode`` calls, which reach ``decode_many`` for a baseline codec."""
    cfg = ProbeConfig(samples=2, seed=23, directions=3)
    codecs = [get_codec(name) for name in available_codecs()]
    decodes = [recorded(monkeypatch, codec, "decode_many") for codec in codecs]
    scores = recorded(monkeypatch, audit, "iou_many")
    reports = run_audit(codecs, cfg)
    rows = len(family_fields(cfg)) * (1 + cfg.directions)
    assert [len(out) for _, out in scores] == [rows] * len(codecs)
    for codec, report, calls in zip(codecs, reports, decodes):
        noted = report.metrics[-1].notes != "" and type(codec).decode is BoxCodec.decode
        assert [len(out) for _, out in calls] == [rows] + [1] * (2 if noted else 0), codec.name


@pytest.mark.parametrize("name", available_codecs())
def test_completeness_alone_decodes_and_scores_the_family_rows_only(name, monkeypatch):
    """One ``decode_many`` and one ``iou_many`` call, each on exactly the
    family rows: no perturbed row is drawn, decoded or scored."""
    cfg = ProbeConfig(samples=3, seed=23)
    codec = get_codec(name)
    decodes = recorded(monkeypatch, codec, "decode_many")
    scores = recorded(monkeypatch, audit, "iou_many")
    check_decoding_completeness(codec, cfg)
    fields = family_fields(cfg)
    ((args, _),) = decodes
    assert np.array_equal(args[0], codec.encode_many(fields))
    ((args, _),) = scores
    assert len(args[0]) == len(args[1]) == len(fields)


def normalize_box(box):
    """The scalar reference of :func:`_normalized`: translate to the origin
    and scale to unit diagonal."""
    s = 1.0 / math.hypot(box.w_side, box.h_side)
    return OrientedBox(0.0, 0.0, box.w_side * s, box.h_side * s, box.theta)


def test_normalize_box():
    (b,) = _normalized([[3, -4, 6, 8, 0.3]]).tolist()
    assert b[:2] == [0.0, 0.0]
    assert math.hypot(b[2], b[3]) == pytest.approx(1.0)
    # un-normalized angles are constructed first, bit for bit
    rows = [[3.0, -4.0, 6.0, 8.0, t] for t in (-0.3, 2.0, 4.0, 1e6 * math.pi, -7.5)]
    assert np.array_equal(_normalized(rows), as_fields(normalize_box(OrientedBox(*row)) for row in rows))


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 0.5, -0.5, 0.0])
def test_twins_equal_the_scalar_transforms(delta):
    """Rotation twins are ``rotate`` of each box; aspect twins are the box
    with ``w_side`` and with ``h_side`` scaled by ``1 + delta``, each
    normalized; every row bit for bit.  Rows: family boxes and a square at
    pi/4."""
    square = _normalized([[0.0, 0.0, 3.0, 3.0, math.pi / 4]])
    fields = np.concatenate([family_fields(ProbeConfig(samples=8, seed=3)), square])
    boxes = [OrientedBox(*row) for row in fields.tolist()]
    (turned,) = _twins(fields, "rotation", delta)
    assert np.array_equal(turned, as_fields(rotate(b, delta) for b in boxes))
    ratio = 1.0 + delta
    wide, tall = _twins(fields, "aspect", delta)
    assert np.array_equal(wide, as_fields(normalize_box(OrientedBox(b.cx, b.cy, b.w_side * ratio, b.h_side, b.theta)) for b in boxes))
    assert np.array_equal(tall, as_fields(normalize_box(OrientedBox(b.cx, b.cy, b.w_side, b.h_side * ratio, b.theta)) for b in boxes))
    assert wide[-1, 4] == tall[-1, 4] == math.pi / 4
    if delta == 0.0:
        assert np.allclose(wide, fields, rtol=0.0, atol=1e-15) and np.allclose(tall, fields, rtol=0.0, atol=1e-15)
    # one delta per row, as the NAE summary's noise
    deltas = np.linspace(-delta, delta, len(boxes))
    (turned,) = _twins(fields, "rotation", deltas)
    assert np.array_equal(turned, as_fields(rotate(b, float(d)) for b, d in zip(boxes, deltas)))


@pytest.mark.parametrize(
    "transform, delta, first_twin",
    [
        ("aspect", -1.0, [0.0, 0.0, 0.0, 1.0, 0.3]),  # a zero side
        ("aspect", math.nan, [0.0, 0.0, math.nan, 1.0, 0.3]),
        ("rotation", math.inf, [0.0, 0.0, 2.0, 1.0, math.inf]),
    ],
)
def test_twins_raise_the_constructors_error(transform, delta, first_twin):
    with pytest.raises(CobbError) as want:
        OrientedBox(*first_twin)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        _twins(np.array([[0.0, 0.0, 2.0, 1.0, 0.3], [0.0, 0.0, 1.0, 1.0, 0.3]]), transform, delta)
    with pytest.raises(InvalidArgumentError, match="unknown transform"):
        _twins(np.array([[0.0, 0.0, 2.0, 1.0, 0.3]]), "shear", 1e-3)



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

    lucky = [StepGap(1e-3, 1e-5, None), StepGap(1e-4, 5e-2, None), StepGap(1e-5, 1e-9, None)]
    res = _verdict("target-rotation", lucky, tol=1e-3)
    assert res.verdict == "fail" and "monotone" in res.notes
    shrinking = [StepGap(1e-3, 1e-2, None), StepGap(1e-4, 1e-3, None), StepGap(1e-5, 1e-4, None)]
    assert _verdict("target-rotation", shrinking, tol=1e-3).verdict == "pass"


@pytest.mark.parametrize("seed", [0, 7])
def test_every_witness_is_its_worst_steps(seed):
    """In a run of all six codecs, each metric's witness is that of its first
    step with the largest gap, and replaying it gives that gap."""
    codecs = [get_codec(name) for name in available_codecs()]
    for codec, report in zip(codecs, run_audit(codecs, ProbeConfig(samples=4, seed=seed))):
        for m in report.metrics:
            gaps = [s.gap for s in m.steps]
            worst = m.steps[gaps.index(max(gaps))]
            assert m.witness is worst.witness is not None
            assert replay_witness(codec, m.name, m.witness) == worst.gap


def test_a_tie_between_steps_takes_the_first_witness():
    steps = [StepGap(1e-3, 0.5, {"at": 0}), StepGap(1e-4, 1.0, {"at": 1}), StepGap(1e-5, 1.0, {"at": 2})]
    assert MetricResult("target-rotation", steps, "fail", "").witness == {"at": 1}


def test_a_nan_completeness_gap_fails(monkeypatch):
    """A NaN gap is no pass, and its row is the witness."""
    scores = audit.iou_many

    def nan_at_2(a, b):
        out = scores(a, b)
        out[2] = math.nan
        return out

    monkeypatch.setattr(audit, "iou_many", nan_at_2)
    res = check_decoding_completeness(get_codec("cobb"), CFG)
    assert math.isnan(res.steps[0].gap) and res.verdict == "fail"
    assert res.witness["box"] == family_fields(CFG)[2].tolist()


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
