"""cobb benchmark: one seeded workload per run, timed closed-loop in one thread.

    python3 perfbench/run.py --workload targets --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Imports ``cobb`` from ``src/`` of the checkout this file sits in (the pure
Python kernel unless a compiled one was built there).  With ``--trace 0`` it
runs workload items back to back for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it repeats a fixed unit of work, alternately
untraced and traced, and reports the per-layer metrics.  Human-readable lines come first;
the last stdout line is one JSON object (correct, attempted, failed,
metrics).  Exits 1 when any output check fails.  Work files go to
``.perfbench/`` in the checkout; traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# The host is shared: for stretches from milliseconds to minutes it runs
# this process up to ~2x slower, so the mean item time of a run moves by
# up to ~2x with how much of the run such stretches cover.  ``item_cost``
# is therefore the mean item time over the mean time of a fixed reference
# unit timed every ``REF_PERIOD_S`` of the same run: a slow stretch
# lengthens both alike and cancels, while a change to ``cobb`` moves only
# the item.  Raw items per second are reported beside it.
REF_PERIOD_S = 0.02

ITEMS = {
    "targets": "one encode_target -> cobb_loss -> decode_target round trip",
    "audit": "one `cobb audit --samples 4` of each of the six codecs at each of three step sizes, with its JSON report",
    "export": "one `cobb convert` of each generated DOTA file plus the rotation and aspect `cobb curves`",
}


def _import_cobb():
    if not (SRC / "cobb" / "__init__.py").is_file():
        sys.exit(f"error: no cobb package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cobb

    if Path(cobb.__file__).resolve().parent != SRC / "cobb":
        sys.exit(f"error: imported cobb from {cobb.__file__}, not from {SRC}")
    return cobb


def _import_seconds() -> float:
    """Time to import cobb (numpy included) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cobb.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def _metadata(cobb, workload, seed) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    # hand-written sources only: no generated C, no egg-info
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(SRC.rglob("*"))
        if p.suffix in (".py", ".pyx") and not any(part.endswith(".egg-info") for part in p.parts)
    )
    return {
        "kernel": cobb.KERNEL_IMPLEMENTATION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": src_lines,
        "workload": workload.name,
        "item": ITEMS[workload.name],
        "seed": seed,
    }


def _time_setup(workload) -> list[float]:
    """Set-up times of ``SETUP_REPEATS`` repetitions; the last one is kept."""
    totals = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        totals.append(imported + time.perf_counter() - t0)
    return totals


def reference_unit() -> None:
    """A fixed piece of pure-Python work (float arithmetic, dict updates)
    that uses no part of ``cobb``; its time tracks the speed of the host."""
    d, s = {}, 0.0
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0.0) + i * 0.5
        s += (i * 1.0001) % 3.0


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t0


def _measure(workload, seconds: float):
    """Closed loop: the next item starts when the previous one returns.

    Between items, the reference unit runs once per ``REF_PERIOD_S`` of
    the loop, so its times sample the host over the same stretch of time.
    Returns item latencies, each item's seconds per command, the reference
    times, the items attempted, the failed ones and what the checks found.
    """
    lat, parts, refs, failed, problems = [], [], [], 0, []
    next_ref = time.perf_counter()
    deadline = next_ref + seconds
    i = 0
    while i < workload.min_items or time.perf_counter() < deadline:
        while time.perf_counter() >= next_ref:
            refs.append(_time_reference())
            next_ref += REF_PERIOD_S
        try:
            it = workload.item(i)
            p = workload.check(it)
        except Exception as exc:  # a raising library call is a failed operation
            it, p = None, [f"item {i}: {type(exc).__name__}: {exc}"]
        if it is not None:
            lat.append(it.seconds)
            parts.append(it.parts)
        failed += bool(p)
        problems += p
        i += 1
    return lat, parts, refs, i, failed, problems


def _trace(workload, seconds: float, tracer):
    """Alternate untraced and traced repetitions of the workload's fixed unit.

    Alternating keeps slow phases of a shared machine out of the overhead
    ratio; counts come from the first traced repetition.
    """
    indices = list(workload.unit())
    walls = {False: [], True: []}
    attempted, failed, problems = 0, 0, []
    deadline = time.perf_counter() + seconds
    while not walls[True] or time.perf_counter() < deadline:
        for traced in (False, True):
            tracer.run = len(walls[True])
            t0 = time.perf_counter()
            with tracer if traced else contextlib.nullcontext():
                items = [workload.item(i) for i in indices]
            walls[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.end_run()
            for it in items:
                p = workload.check(it)
                attempted += 1
                failed += bool(p)
                problems += p
    ratios = [b / a for a, b in zip(walls[False], walls[True])]
    return _quantile(ratios, 50), attempted, failed, problems


def per_layer_metrics(summary: dict, overhead: float) -> dict:
    from spans import SPANS, TIMED_SPANS

    m = {}
    for span in SPANS:
        s = summary["spans"][span]
        m[f"{span}.calls"] = (s["calls"], "count")
        if span in TIMED_SPANS:
            m[f"{span}.self_s"] = (s["self_s"], "s")
            m[f"{span}.p50_us"] = (s["p50_us"], "us")
    for name, v in summary["ratios"].items():
        m[name] = (v, "ratio")
    m["dota.read_dota_file.skipped"] = (summary["counts"]["dota.read_dota_file.skipped"], "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def execute(name: str, seed: int, seconds: float, trace: bool, sizes=None, out_dir: Path = OUT) -> dict:
    """Run one workload; returns meta, named lines, problems and the result."""
    cobb = _import_cobb()
    import workloads
    from spans import Tracer

    workdir = out_dir / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, sizes or workloads.FULL)
        meta = _metadata(cobb, workload, seed)
        setups = _time_setup(workload)
        if trace:
            tracer = Tracer()
            overhead, attempted, failed, problems = _trace(workload, seconds, tracer)
            summary = tracer.summary()
            metrics = per_layer_metrics(summary, overhead)
            named = [
                (f"span {span}", f"calls={s['calls']} self_s={s['self_s']:.6f} total_s={s['total_s']:.6f} p50_us={s['p50_us']:.3f}", "")
                for span, s in summary["spans"].items()
            ]
            (out_dir / "traces").mkdir(exist_ok=True)
            tracer.dump(out_dir / "traces" / f"{name}-seed{seed}.npz")
            with open(out_dir / "traces" / f"{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=1)
        else:
            lat, parts, refs, attempted, failed, problems = _measure(workload, seconds)
            # more set-ups after the loop, so the median spans the run's slow
            # and fast phases on a shared machine
            setup_s = _quantile(setups + _time_setup(workload), 50)
            item_s, ref_s = float(np.mean(lat)), float(np.mean(refs))
            metrics = {
                "setup_s": (setup_s, "s"),
                "item_cost": (item_s / ref_s, "ref"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            named = workload.report(lat, parts) if lat else []
            named += [
                ("items_per_s", 1.0 / item_s, "1/s"),
                ("reference_unit_us", ref_s * 1e6, "us"),
                ("items", len(lat), "count"),
                ("error_rate", failed / attempted, "ratio"),
            ]
        meta["output_sha256"] = workload.output_sha256()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results" / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "named": named, "problems": problems, **result}, fh, indent=1)
    return {"meta": meta, "named": named, "problems": problems, "result": result}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    run = execute(name, seed, seconds, trace)
    print("meta " + json.dumps(run["meta"], sort_keys=True))
    for p in run["problems"][:20]:
        print(f"check failed: {p}")
    for key, value, unit in run["named"]:
        text = value if isinstance(value, str) else f"{value:.6g}"
        print(f"{name} {key} = {text} {unit}".rstrip())
    for key, m in run["result"]["metrics"].items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*ITEMS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in ITEMS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
