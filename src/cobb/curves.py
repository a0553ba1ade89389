"""Encoding-component sweeps: the data behind the continuity figures.

A sweep rotates a box through a full turn (or scales one side through a ratio
grid) and records every encoding component at each grid point, so jumps are
visible as large neighbor steps.
"""

from __future__ import annotations

import math

import numpy as np

from cobb.baselines import BoxCodec
from cobb.codec import FLOAT_FMT
from cobb.errors import InvalidArgumentError
from cobb.geometry import OrientedBox, rotate

_RATIO_RANGE = (0.25, 4.0)  # aspect sweep: w_side scaled from 1/4 to 4


def rotation_sweep(codec: BoxCodec, box: OrientedBox, grid_points: int = 1440) -> tuple[list[str], np.ndarray]:
    """Components over grid rotations covering [0, 2*pi)."""
    if grid_points < 8:
        raise InvalidArgumentError("need at least 8 grid points")
    names = list(codec.curve_component_names or codec.component_names)
    rows = np.empty((grid_points, 1 + len(names)))
    for i in range(grid_points):
        t = 2.0 * math.pi * i / grid_points
        rows[i, 0] = t
        rows[i, 1:] = codec.curve_components(rotate(box, t))
    return ["sweep"] + names, rows


def aspect_sweep(codec: BoxCodec, box: OrientedBox, grid_points: int = 513) -> tuple[list[str], np.ndarray]:
    """Components over a log-spaced side-ratio grid (w_side scaled by the ratio)."""
    if grid_points < 8:
        raise InvalidArgumentError("need at least 8 grid points")
    lo, hi = _RATIO_RANGE
    names = list(codec.curve_component_names or codec.component_names)
    ratios = np.exp(np.linspace(math.log(lo), math.log(hi), grid_points))
    rows = np.empty((grid_points, 1 + len(names)))
    for i, r in enumerate(ratios):
        b = OrientedBox(box.cx, box.cy, box.w_side * float(r), box.h_side, box.theta)
        rows[i, 0] = r
        rows[i, 1:] = codec.curve_components(b)
    return ["sweep"] + names, rows


def emit_curves(codec: BoxCodec, sweep: str, box: OrientedBox, out_path, grid_points: int = 1440) -> int:
    """Write a sweep CSV; returns the number of data rows."""
    if sweep == "rotation":
        header, rows = rotation_sweep(codec, box, grid_points)
    elif sweep == "aspect":
        header, rows = aspect_sweep(codec, box, grid_points)
    else:
        raise InvalidArgumentError(f"unknown sweep {sweep!r}")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")
    return rows.shape[0]


def column_jumps(values, threshold: float) -> list[int]:
    """Indices i where |values[i+1] - values[i]| exceeds the threshold."""
    v = np.asarray(values, dtype=float)
    return [int(i) for i in np.nonzero(np.abs(np.diff(v)) > threshold)[0]]


def max_neighbor_step(values) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.max(np.abs(np.diff(v)))) if v.size > 1 else 0.0
