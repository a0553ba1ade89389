"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cobb import geometry  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request, tmp_path_factory):
    """One untraced and two traced tiny runs of a workload, same seed."""
    saved, run.SETUP_REPEATS = run.SETUP_REPEATS, 1
    try:
        return request.param, [
            run.execute(request.param, 3, 0.01, trace, sizes=workloads.TINY, out_dir=tmp_path_factory.mktemp("out"))["result"]
            for trace in (False, True, True)
        ]
    finally:
        run.SETUP_REPEATS = saved


def test_smoke_every_metric_with_its_unit(runs):
    _, results = runs
    for got, key in zip(results, ("end_to_end", "per_layer")):
        assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: m["unit"] for k, m in got["metrics"].items()} == want


def test_trace_counts_repeat_exactly(runs):
    name, (_, a, b) = runs
    a, b = a["metrics"], b["metrics"]
    counts = {k: m["value"] for k, m in a.items() if m["unit"] == "count"}
    assert counts == {k: b[k]["value"] for k in counts}
    assert a["geometry.iou.calls"]["value"] > 0
    if name == "targets":
        assert a["codec.classify.iou_per_call"]["value"] == 4.0


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "targets", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and '"correct"' not in done.stdout


# -- each output check rejects a corrupted result ---------------------------


def test_roundtrip_check_rejects_corruption():
    gt = geometry.OrientedBox(15000.0, 9000.0, 40.0, 12.0, 0.3)
    assert workloads.check_roundtrip(gt, gt, 0.5)[0]
    moved = geometry.OrientedBox(gt.cx + 1e-3, gt.cy, gt.w_side, gt.h_side, gt.theta)
    assert not workloads.check_roundtrip(gt, moved, 0.5)[0]
    assert not workloads.check_roundtrip(gt, gt, float("nan"))[0]


@pytest.fixture(scope="module")
def audit_item(tmp_path_factory):
    w = workloads.AuditWorkload(5, tmp_path_factory.mktemp("audit"), workloads.TINY)
    w.setup()
    return w, w.item(0)


def test_audit_check_rejects_corruption(audit_item):
    w, item = audit_item
    assert w.check(item) == []
    assert sorted(item.out) == sorted(f"{c}@{s}" for c in spans.CODEC_NAMES for s in w.steps)
    got = item.out["cobb@1e-4"]
    reports = json.loads(got["report"])
    for step in reports[0]["metrics"][0]["steps"]:
        step["gap"] += 1e-3
    assert workloads.check_audit_report(json.dumps(reports))
    reports[0]["metrics"][0]["witness"] = None
    assert workloads.check_audit_report(json.dumps(reports))

    def corrupted(**change):
        return dataclasses.replace(item, out={**item.out, "cobb@1e-4": {**got, **change}})

    assert w.check(corrupted(report=got["report"].replace(b"seed", b"Seed", 1)))
    assert w.check(corrupted(rc=2))


@pytest.fixture(scope="module")
def export_item(tmp_path_factory):
    w = workloads.ExportWorkload(5, tmp_path_factory.mktemp("export"), workloads.TINY)
    w.setup()
    return w, w.item(0)


def test_export_check_rejects_corruption(export_item):
    w, item = export_item
    assert w.check(item) == []
    assert w.skipped == sum(len(d.planted) for d in w.dota.values()) > 0
    out, dota, sample = item.out["convert-1"], w.dota["convert-1"], w.samples["convert-1"]
    head, *rows = out["csv"].splitlines()
    assert len(rows) == len(dota.records)

    def convert_problems(rows, log=out["log"]):
        return workloads.check_convert(dota, "\n".join([head, *rows]) + "\n", log, sample)

    assert convert_problems(rows[:-1])  # a record lost
    first = sorted(dota.planted)[0]
    assert convert_problems(rows, out["log"].replace(f"skipped line {first}:", "skipped line 1:"))
    bad = rows[:]
    fields = bad[sample[0]].split(",")
    bad[sample[0]] = ",".join(fields[:2] + [repr(float(fields[2]) + 1e-3)] + fields[3:])
    assert convert_problems(bad)  # a sampled row no longer decodes to the fit
    bad[0] = "bogus-category," + rows[0].split(",", 1)[1]
    assert convert_problems(bad)

    curve = item.out["rotation"]["csv"]
    points, box, picks = w.points["rotation"], w.box, w.samples["rotation"]
    assert workloads.check_curve(curve, box, "rotation", points, picks) == []
    assert workloads.check_curve(curve, box, "rotation", points + 1, picks)
    moved = geometry.OrientedBox(box.cx + 1e-3, box.cy, box.w_side, box.h_side, box.theta)
    assert workloads.check_curve(curve, moved, "rotation", points, picks)

    changed = dict(item.out, aspect=dict(item.out["aspect"], csv=item.out["aspect"]["csv"] + "\n"))
    assert any("differs" in p for p in w.check(dataclasses.replace(item, out=changed)))
