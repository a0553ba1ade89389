"""Outside-in span tracing of the ``cobb`` package.

The tracer wraps a fixed list of public functions from the outside: each
wrapper is installed at every ``cobb.*`` module binding of the function (a
module that did ``from cobb.geometry import iou`` calls its own name, so
patching ``cobb.geometry.iou`` alone would miss it), and restored on exit.
Nothing under ``src/`` changes.

Each call records one span (name, start, end, parent span, run id) into flat
in-memory arrays; self time is derived afterwards by subtracting the
durations of each span's children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

CODEC_NAMES = ("cobb", "cobb-ln", "acute", "long-edge", "csl", "gv")
_CODEC_CLASSES = ("CobbCodec", "AcuteAngleCodec", "LongEdgeCodec", "CslCodec", "GlidingVertexCodec")

# Module-level functions: span name -> (module, attribute).
FUNCTION_SPANS = {
    "_kern.quad_intersection_area": ("_kern", "quad_intersection_area"),
    **{f"geometry.{f}": ("geometry", f) for f in ("vertices_of", "outer_hbb", "iou", "min_area_rect")},
    **{
        f"codec.{f}": ("codec", f)
        for f in ("sliding_ratio", "classify", "four_candidates", "iou_matrix", "select_candidate", "encode", "decode")
    },
    **{
        f"targets.{f}": ("targets", f)
        for f in ("encode_target", "decode_target", "cobb_loss", "sensitivity_probe")
    },
    **{
        f"audit.{f}": ("audit", f)
        for f in (
            "build_families",
            "probe_target_continuity",
            "probe_loss_continuity",
            "check_decoding_completeness",
            "probe_decoding_robustness",
            "run_audit",
        )
    },
    **{f"dota.{f}": ("dota", f) for f in ("read_dota_file", "parse_dota_line", "record_box", "convert_annotations")},
    **{f"curves.{f}": ("curves", f) for f in ("rotation_sweep", "aspect_sweep", "emit_curves")},
    **{f"cli.{f}": ("cli", f) for f in ("main", "reports_to_json")},
}
FROM_POINTS = "geometry.ConvexQuad.from_points"
CODEC_SPANS = tuple(f"baselines.{c}.{m}" for c in CODEC_NAMES for m in ("encode", "decode"))
SPANS = tuple(FUNCTION_SPANS) + (FROM_POINTS,) + CODEC_SPANS

# Spans every workload calls, each once per box.  Only these report times
# (self time, per-call median) among the per-layer metrics: a span a workload
# never calls would read a constant zero.  Counts are reported for every span,
# and every span's times land in the trace files.
TIMED_SPANS = (
    "_kern.quad_intersection_area",
    "geometry.vertices_of",
    "geometry.outer_hbb",
    "geometry.iou",
    "geometry.min_area_rect",
    FROM_POINTS,
    "codec.sliding_ratio",
    "codec.classify",
    "codec.four_candidates",
    "codec.iou_matrix",
    "codec.encode",
    "targets.encode_target",
)


def _cobb_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "cobb" or name.startswith("cobb."))]


class Tracer:
    """Records spans while installed; ``run`` tags spans of one repetition."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.runs = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.run = 0
        self._ids = {name: i for i, name in enumerate(SPANS)}
        self._undo: list[tuple[object, str, object]] = []
        self._done: list[dict] = []  # statistics of each finished repetition
        self._kept: dict[str, np.ndarray] | None = None  # spans of the first one
        # first repetition only: (codec name, box params) of every
        # BoxCodec.encode call, and lines skipped by read_dota_file
        self.encode_keys: list[tuple] = []
        self.skipped = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span):
        """``fn`` recording one span per call (hot path: locals only)."""
        span_id = self._ids[span]
        names, parents, runs, starts, ends, stack = self.names, self.parents, self.runs, self.starts, self.ends, self._stack
        clock, tracer = time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            runs.append(tracer.run)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_read_dota(self, fn, span):
        inner = self._wrap(fn, span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            records, skipped = inner(*args, **kwargs)
            if self.run == 0:
                self.skipped += len(skipped)
            return records, skipped

        return wrapper

    def _wrap_codec_method(self, fn, method):
        """One span name per codec instance: ``baselines.<codec.name>.<method>``."""
        inner = {c: self._wrap(fn, f"baselines.{c}.{method}") for c in CODEC_NAMES}

        @functools.wraps(fn)
        def wrapper(codec, arg):
            if method == "encode" and self.run == 0:
                self.encode_keys.append((codec.name, arg.cx, arg.cy, arg.w_side, arg.h_side, arg.theta))
            return inner[codec.name](codec, arg)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for span, (module, attr) in FUNCTION_SPANS.items():
            orig = getattr(importlib.import_module(f"cobb.{module}"), attr)
            wrap = self._wrap_read_dota if span == "dota.read_dota_file" else self._wrap
            wrapper = wrap(orig, span)
            for mod in _cobb_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        geometry = importlib.import_module("cobb.geometry")
        orig = geometry.ConvexQuad.__dict__["from_points"]
        self._undo.append((geometry.ConvexQuad, "from_points", orig))
        geometry.ConvexQuad.from_points = staticmethod(self._wrap(orig.__func__, FROM_POINTS))
        baselines = importlib.import_module("cobb.baselines")
        for cls_name in _CODEC_CLASSES:
            cls = getattr(baselines, cls_name)
            for method in ("encode", "decode"):
                orig = cls.__dict__[method]
                self._undo.append((cls, method, orig))
                setattr(cls, method, self._wrap_codec_method(orig, method))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.names, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "run": np.array(self.runs, dtype=np.int32),
            "start_ns": np.array(self.starts, dtype=np.int64),
            "end_ns": np.array(self.ends, dtype=np.int64),
        }

    def end_run(self) -> None:
        """Fold the spans of the finished repetition into per-run statistics.

        Only the first repetition's spans stay in memory (for ``dump``); later
        ones are summarised and dropped.
        """
        a = self._arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        self_ns = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        parent_name = np.full(len(name), -1, dtype=np.int32)
        parent_name[has_parent] = name[parent[has_parent]]
        ids = self._ids
        is_iou = name == ids["geometry.iou"]
        per_span = {}
        for span, sid in ids.items():
            d = dur[name == sid]
            per_span[span] = {
                "calls": len(d),
                "self_ns": float(self_ns[name == sid].sum()),
                "total_ns": float(d.sum()),
                "p50_ns": float(np.median(d)) if len(d) else None,
            }
        stats = {
            "spans": per_span,
            "iou_in_classify": int(np.count_nonzero(is_iou & (parent_name == ids["codec.classify"]))),
            "iou_ns": float(dur[is_iou].sum()),
            "kern_in_iou_ns": float(dur[(name == ids["_kern.quad_intersection_area"]) & (parent_name == ids["geometry.iou"])].sum()),
        }
        self._done.append(stats)
        if self._kept is None:
            self._kept = a
        for column in (self.names, self.parents, self.runs, self.starts, self.ends):
            del column[:]

    def summary(self) -> dict:
        """Per-span counts and times plus the ratio metrics.

        Counts come from the first repetition, so they repeat exactly; self
        and total times are means over repetitions, per-call latency is the
        median over repetitions of each repetition's median.
        """
        first, n = self._done[0], len(self._done)
        spans = {}
        for span in SPANS:
            per_run = [r["spans"][span] for r in self._done]
            p50s = [s["p50_ns"] for s in per_run if s["p50_ns"] is not None]
            spans[span] = {
                "calls": first["spans"][span]["calls"],
                "self_s": sum(s["self_ns"] for s in per_run) / n / 1e9,
                "total_s": sum(s["total_ns"] for s in per_run) / n / 1e9,
                "p50_us": float(np.median(p50s)) / 1e3 if p50s else 0.0,
            }
        classify_calls = spans["codec.classify"]["calls"]
        iou_ns = sum(r["iou_ns"] for r in self._done)
        keys = self.encode_keys
        return {
            "spans": spans,
            "ratios": {
                "codec.classify.iou_per_call": first["iou_in_classify"] / classify_calls if classify_calls else 0.0,
                # 1.0 when no codec encodes ran: nothing was repeated
                "audit.encode.distinct_ratio": len(set(keys)) / len(keys) if keys else 1.0,
                "geometry.iou.kern_share": sum(r["kern_in_iou_ns"] for r in self._done) / iou_ns if iou_ns else 0.0,
            },
            "counts": {
                "dota.read_dota_file.skipped": self.skipped,
                "trace.spans": len(self._kept["name"]),
                "trace.runs": n,
            },
        }

    def dump(self, path) -> None:
        """Write the first repetition's spans (names index ``span_names``)."""
        np.savez(path, span_names=np.array(SPANS), **self._kept)
