"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion runs at its stated tolerance.  The decoding-robustness
criteria check the continuity each codec actually has.  The nine-parameter
codec responds to an encoding perturbation p like a square root at the
inscribed diamond (square outer box, sliding ratio one half): its worst gap
stays under sqrt(2*sqrt(2)*p) and vanishes with p, while a codec with
decoding ambiguity keeps a fixed gap.  The gliding-vertex codec is
discontinuous in its encoder near horizontal (the slide fractions flip
0 <-> 1) and linear in its decoder there.  The README analyses both.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from cobb import codec as codec_mod
from cobb.audit import (
    ProbeConfig,
    probe_decoding_robustness,
    probe_target_continuity,
    replay_witness,
    run_audit,
)
from cobb.baselines import get_codec
from cobb.cli import main as cli_main
from cobb.geometry import HorizontalBox, OrientedBox, iou, outer_hbb
from cobb.targets import Proposal, decode_target, encode_target, sensitivity_probe
from test_curves import column_jumps, max_neighbor_step

SEED = 20250810
AUDIT_CFG = ProbeConfig(samples=64, seed=7)

EXPECTED_VERDICTS = {
    # (tar-rot, tar-asp, loss-rot, loss-asp, dec-complete, dec-robust)
    "cobb": ("pass", "pass", "pass", "pass", "pass", "fail"),
    "acute": ("fail", "pass", "fail", "pass", "pass", "pass"),
    "long-edge": ("fail", "fail", "fail", "fail", "pass", "pass"),
    "csl": ("pass", "fail", "pass", "fail", "fail", "fail"),
    "gv": ("fail", "pass", "fail", "pass", "pass", "pass"),
}
# The audit's diagnosis of a failed decoding-robustness cell: the diamond cusp
# vanishes with the perturbation, decoding ambiguity does not.
EXPECTED_ROBUSTNESS_NOTES = {
    "cobb": "vanishing with the perturbation",
    "csl": "persistent (decoding ambiguity)",
}
METRIC_ORDER = (
    "target-rotation",
    "target-aspect",
    "loss-rotation",
    "loss-aspect",
    "decoding-completeness",
    "decoding-robustness",
)


def _verdict(num: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _random_boxes(n, rng, centers=10.0):
    out = []
    for _ in range(n):
        out.append(
            OrientedBox(
                float(rng.uniform(-centers, centers)),
                float(rng.uniform(-centers, centers)),
                float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))),
                float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))),
                float(rng.uniform(0.0, math.pi)),
            )
        )
    return out


@pytest.fixture(scope="module")
def audit_reports():
    codecs = [get_codec(n) for n in ("cobb", "acute", "long-edge", "csl", "gv")]
    return {r.codec: r for r in run_audit(codecs, AUDIT_CFG)}


def test_criterion_1_closed_form_matrix_vs_oracle():
    rng = np.random.Generator(np.random.PCG64(SEED))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        w = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        h = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        rs = float(rng.uniform(1e-7, 0.5))
        cands = codec_mod.four_candidates(HorizontalBox(0.0, 0.0, w, h), rs)
        m = codec_mod.iou_matrix(w, h, rs)
        for i in range(4):
            for j in range(i + 1, 4):
                worst = max(worst, abs(m[i][j] - iou(cands[i], cands[j])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed <= 10.0
    assert _verdict(
        "1", ok, f"score matrix vs polygon oracle over 10000 draws: "
        f"max|closed-oracle|={worst:.3g} (<=1e-7), {elapsed:.2f}s (<=10s)"
    )


def test_criterion_2_decoding_completeness_roundtrips():
    rng = np.random.Generator(np.random.PCG64(SEED + 1))
    worst = 1.0
    for box in _random_boxes(10_000, rng):
        worst = min(worst, iou(box, codec_mod.decode(codec_mod.encode(box))))
    detail = [f"raw codec worst IoU={worst:.12f}"]
    ok = worst >= 1 - 1e-9

    for variant in ("sig", "ln"):
        for kind in ("horizontal", "oriented"):
            rng = np.random.Generator(np.random.PCG64(SEED + 2))
            w = 1.0
            for box in _random_boxes(10_000, rng):
                theta = float(rng.uniform(0, math.pi)) if kind == "oriented" else 0.0
                p = Proposal(
                    float(rng.uniform(-5, 5)),
                    float(rng.uniform(-5, 5)),
                    float(rng.uniform(0.5, 6.0)),
                    float(rng.uniform(0.5, 6.0)),
                    theta,
                )
                w = min(w, iou(box, decode_target(encode_target(box, p, variant), p)))
            detail.append(f"{variant}/{kind} worst={w:.12f}")
            ok = ok and w >= 1 - 1e-9
    assert _verdict("2", ok, "10000-box roundtrips (>=1-1e-9 each): " + "; ".join(detail))


def _diamond_cusp(codec_name: str) -> tuple[bool, str]:
    """Criterion-3a gate on a codec's worst decoding-robustness response.

    At each perturbation p the worst 1-IoU must stay under the inscribed-
    diamond envelope sqrt(2*sqrt(2)*p), its witness must be the diamond
    (outer-box aspect in [0.985, 1.015], sliding ratio >= 0.4975), and the
    audit must call the response vanishing.  No complete decoder can do
    better there: with the diamond's HBB extents perturbed by +-5e-5 and rs
    kept, all four candidates are real rectangles 1-IoU = 0.01395 from it.
    """
    ok, parts = True, []
    for p in (1e-4, 1e-6):
        res = probe_decoding_robustness(get_codec(codec_name), dataclasses.replace(AUDIT_CFG, perturbation=p))
        gap, envelope = res.steps[0].gap, math.sqrt(2 * math.sqrt(2) * p)
        box = OrientedBox(*res.witness["box"])
        hbb = outer_hbb(box)
        aspect, rs = hbb.w / hbb.h, codec_mod.sliding_ratio(box)
        ok = (
            ok
            and gap <= envelope
            and 0.985 <= aspect <= 1.015
            and rs >= 0.4975
            and "vanishing with the perturbation" in res.notes
        )
        parts.append(
            f"p={p:g}: worst 1-IoU={gap:.4g} vs {envelope:.4g} at {res.witness['family']} "
            f"aspect={aspect:.4f} rs={rs:.5f}, {res.notes.rpartition(' -- ')[2]}"
        )
    return ok, "; ".join(parts)


def test_criterion_3a_cobb_decoding_robustness():
    ok, detail = _diamond_cusp("cobb")
    # control: a codec with decoding ambiguity must not meet the same gate
    csl_ok, csl_detail = _diamond_cusp("csl")
    assert _verdict(
        "3a", ok and not csl_ok,
        "nine-parameter codec: worst 1-IoU <= sqrt(2*sqrt(2)*p), witness the inscribed "
        "diamond (aspect in [0.985,1.015], rs>=0.4975), note 'vanishing with the "
        f"perturbation': {detail}; control csl meets the same gate: {csl_ok} ({csl_detail})",
    )


def test_criterion_3b_gv_fails_near_horizontal():
    gv = get_codec("gv")
    cfg = ProbeConfig(samples=AUDIT_CFG.samples, seed=AUDIT_CFG.seed, families=("near-horizontal",))
    enc = probe_target_continuity(gv, "rotation", cfg)
    jump = enc.verdict == "fail" and all(s.gap >= 0.5 for s in enc.steps)
    witnessed = all(
        s.witness["family"] == "near-horizontal"
        and replay_witness(gv, "target-rotation", s.witness) == s.gap
        for s in enc.steps
    )
    slopes = [probe_decoding_robustness(gv, dataclasses.replace(cfg, perturbation=p)).steps[0].gap / p for p in (1e-4, 1e-5, 1e-6)]
    linear = max(slopes) <= 1.01 * min(slopes)
    steps = ", ".join(f"{s.gap:.7g}@{s.delta:g}" for s in enc.steps)
    assert _verdict(
        "3b", jump and witnessed and linear,
        f"gliding-vertex encoder jumps near horizontal: target-rotation gaps {steps} "
        f"(>=0.5 at every step, verdict {enc.verdict}); witnesses near-horizontal and "
        f"replayed exactly: {witnessed}; decoder linear there: 1-IoU/p = "
        + ", ".join(f"{r:.4g}" for r in slopes) + " at p=1e-4, 1e-5, 1e-6 (equal within 1%)",
    )


@pytest.mark.parametrize("codec_name", list(EXPECTED_VERDICTS))
def test_criterion_4_verdict_table(audit_reports, codec_name):
    report = audit_reports[codec_name]
    verdicts = {m.name: m.verdict for m in report.metrics}
    got = tuple(verdicts[m] for m in METRIC_ORDER)
    want = EXPECTED_VERDICTS[codec_name]
    diffs = [
        f"{m}: got {g}, want {w}"
        for m, g, w in zip(METRIC_ORDER, got, want)
        if g != w
    ]
    note = EXPECTED_ROBUSTNESS_NOTES.get(codec_name, "")
    got_note = next(m.notes for m in report.metrics if m.name == "decoding-robustness")
    if note not in got_note:
        diffs.append(f"decoding-robustness note: got {got_note!r}, want {note!r}")
    ok = not diffs
    summary = "/".join(got) + (f", robustness {note}" if note else "")
    assert _verdict(
        "4", ok,
        f"verdict row for {codec_name}: "
        + (f"matches the expected continuity pattern ({summary})" if ok else "; ".join(diffs)),
    )


def test_criterion_5_rs_ra_relation():
    rng = np.random.Generator(np.random.PCG64(SEED + 3))
    worst = 0.0
    for box in _random_boxes(1000, rng):
        hbb = outer_hbb(box)
        ra = box.area / (hbb.w * hbb.h)
        worst = max(worst, abs(codec_mod.rs_from_ra(ra, hbb.w, hbb.h) - codec_mod.sliding_ratio(box)))
    ok = worst <= 1e-7

    monotone = True
    for aspect in np.linspace(1.0, 8.0, 10):
        grid = np.linspace(1e-6, 0.5, 1000)
        vals = [codec_mod.rs_from_ra(float(r), float(aspect), 1.0) for r in grid]
        monotone = monotone and all(a < b for a, b in zip(vals, vals[1:]))
    ok = ok and monotone
    assert _verdict(
        "5", ok,
        f"1000 measured boxes: max|rs_from_ra - sliding_ratio|={worst:.3g} (<=1e-7); "
        f"strictly monotone on 1000-point grids for 10 aspects: {monotone}",
    )


def test_criterion_6_ratio_sensitivity_gap():
    square = HorizontalBox(0.0, 0.0, 1.0, 1.0)
    direct = sensitivity_probe("r_ln", 1e-3, 1e-4, square)
    via_area = sensitivity_probe("f_ln_of_ra", 1e-3, 1e-4, square)
    ratio = via_area / direct
    ok = ratio >= 10.0
    assert _verdict(
        "6", ok,
        f"shape sensitivity at parameter 1e-3: log-area-ratio form {via_area:.3f} vs "
        f"log-sliding-ratio form {direct:.3f} ({ratio:.1f}x, required >=10x)",
    )


def test_criterion_7_curve_structure(tmp_path):
    from cobb.curves import rotation_sweep

    grid = 1440
    step = 2 * math.pi / grid
    header, rows = rotation_sweep(get_codec("cobb"), OrientedBox(0, 0, 4, 2, 0), grid)
    cont = all(max_neighbor_step(rows[:, c]) <= 16 * step for c in range(1, rows.shape[1]))

    header_a, rows_a = rotation_sweep(get_codec("acute"), OrientedBox(0, 0, 4, 2, 0), grid)
    theta = rows_a[:, header_a.index("theta")]
    jumps = column_jumps(theta[: grid // 2 + 1], threshold=1.0)
    locs = [float(rows_a[j, 0]) for j in jumps]
    sizes = [abs(theta[j + 1] - theta[j]) for j in jumps]
    acute_ok = (
        len(jumps) == 2
        and abs(locs[0] - math.pi / 4) <= 2 * step
        and abs(locs[1] - 3 * math.pi / 4) <= 2 * step
        and all(abs(s - math.pi / 2) < 0.02 for s in sizes)
    )
    ok = cont and acute_ok
    assert _verdict(
        "7", ok,
        f"continuous nine-parameter columns: {cont}; acute angle column shows exactly "
        f"two ~pi/2 jumps per half turn at ~pi/4 and ~3pi/4: {acute_ok} (locs={locs})",
    )


def test_criterion_8_deterministic_reports(tmp_path):
    args = ["audit", "--codec", "csl", "--seed", "11", "--samples", "16"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(args + ["--out", str(a)])
    code_b = cli_main(args + ["--out", str(b)])
    ok = a.read_bytes() == b.read_bytes() and code_a == code_b
    assert _verdict(
        "8", ok, f"two audit runs with identical flags and seed are byte-identical: {ok}"
    )
