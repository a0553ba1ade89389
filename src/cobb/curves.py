"""Encoding-component sweeps: the data behind the continuity figures.

A sweep rotates a box through a full turn (or scales one side through a ratio
grid) and records every encoding component at each grid point, so jumps are
visible as large neighbor steps.  The codec encodes the grid's box fields in
one array call, equal bit for bit to encoding each grid box on its own.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from cobb.baselines import BoxCodec
from cobb.codec import FLOAT_FMT
from cobb.errors import InvalidArgumentError
from cobb.geometry import OrientedBox, oriented_many

_RATIO_RANGE = (0.25, 4.0)  # aspect sweep: w_side scaled from 1/4 to 4


def _check_grid(grid_points) -> None:
    if not isinstance(grid_points, numbers.Integral):
        raise InvalidArgumentError(f"grid_points must be an integer, got {grid_points!r}")
    if grid_points < 8:
        raise InvalidArgumentError("need at least 8 grid points")


def _sweep(codec: BoxCodec, column, box: OrientedBox, w_side, theta) -> tuple[list[str], np.ndarray]:
    """The header and the rows: the sweep column, then the components of the
    grid boxes (``box`` with each ``w_side`` and ``theta``) from one
    :meth:`BoxCodec.curve_components` call on their constructed fields."""
    fields = oriented_many(np.column_stack(np.broadcast_arrays(box.cx, box.cy, w_side, box.h_side, theta)))
    names = list(codec.curve_component_names or codec.component_names)
    return ["sweep"] + names, np.column_stack([column, codec.curve_components(fields)])


def rotation_sweep(codec: BoxCodec, box: OrientedBox, grid_points: int) -> tuple[list[str], np.ndarray]:
    """Components over grid rotations covering [0, 2*pi) (``rotate`` by each)."""
    _check_grid(grid_points)
    turns = 2.0 * math.pi * np.arange(grid_points) / grid_points
    return _sweep(codec, turns, box, box.w_side, box.theta + turns)


def aspect_sweep(codec: BoxCodec, box: OrientedBox, grid_points: int) -> tuple[list[str], np.ndarray]:
    """Components over a log-spaced side-ratio grid (w_side scaled by the ratio)."""
    _check_grid(grid_points)
    lo, hi = _RATIO_RANGE
    ratios = np.exp(np.linspace(math.log(lo), math.log(hi), grid_points))
    with np.errstate(over="ignore"):  # an overflowing side is the constructor's error
        sides = box.w_side * ratios
    return _sweep(codec, ratios, box, sides, box.theta)


def emit_curves(codec: BoxCodec, sweep: str, box: OrientedBox, out_path, grid_points: int) -> int:
    """Write a sweep CSV; returns the number of data rows."""
    if sweep == "rotation":
        header, rows = rotation_sweep(codec, box, grid_points)
    elif sweep == "aspect":
        header, rows = aspect_sweep(codec, box, grid_points)
    else:
        raise InvalidArgumentError(f"unknown sweep {sweep!r}")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        row_fmt = ",".join([FLOAT_FMT] * len(header)) + "\n"
        fh.writelines(row_fmt % tuple(row) for row in rows.tolist())
    return rows.shape[0]
