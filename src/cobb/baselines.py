"""Reference OBB codecs behind one interface.

Four classic parameterizations (acute-angle, long-edge, circular-smooth-label
angle classification, gliding-vertex) plus the continuous nine-parameter
codec, each exposing ``encode`` to a flat vector and ``decode`` back to an
:class:`~cobb.geometry.OrientedBox`.  The continuity audit and the CLI drive
codecs exclusively through this interface.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from cobb import codec as cobb_codec
from cobb import targets
from cobb._kern import _row_pairs, _rows
from cobb.errors import InvalidArgumentError
from cobb.geometry import (
    OrientedBox,
    _Arrays,
    _extents,
    _Floats,
    _rowwise,
    _scalar_rows,
    min_area_rect_many,
    oriented_many,
    outer_hbb,
)
from cobb.targets import Proposal, TargetVector

_QUARTER_PI = 0.25 * math.pi
_HALF_PI = 0.5 * math.pi


class BoxCodec:
    """Interface shared by all codecs."""

    name: str = ""
    dim: int = 0
    component_names: tuple[str, ...] = ()

    def encode(self, box: OrientedBox) -> np.ndarray:
        raise NotImplementedError

    def decode(self, vec) -> OrientedBox:
        """The box of one ``(dim,)`` row: one row of :meth:`decode_many`."""
        return OrientedBox(*self.decode_many(self._one_row(vec))[0].tolist())

    def _one_row(self, vec, method: str = "decode") -> np.ndarray:
        """``(dim,)`` or ``(1, dim)`` ``vec`` as one row; any other shape raises."""
        rows = _rows(vec, self.dim)
        if len(rows) != 1:
            raise InvalidArgumentError(f"{method} takes one row, got {len(rows)}")
        return rows

    def encode_many(self, fields) -> np.ndarray:
        """``(N, dim)`` rows: :meth:`encode` of ``OrientedBox(*row)`` for each
        row of ``(N, 5)`` fields ``(cx, cy, w_side, h_side, theta)``, bit for
        bit.

        The first row that the constructor or :meth:`encode` rejects raises
        its error, as encoding the rows one by one would.
        """
        p = _rows(fields, 5)
        ok = np.isfinite(p).all(axis=1) & (p[:, 2] > 0) & (p[:, 3] > 0)  # the rows the constructor accepts
        k = len(p) if ok.all() else int(np.argmin(ok))
        with np.errstate(all="ignore"):
            out = self._encode_rows(oriented_many(p[:k]))
        if k < len(p):
            OrientedBox(*p[k].tolist())  # raises the constructor's error
        return out

    def decode_many(self, rows) -> np.ndarray:
        """``(N, 5)`` fields ``(cx, cy, w_side, h_side, theta)`` of the boxes
        decoded from ``(N, dim)`` rows; the first row the codec rejects
        raises its error."""
        with np.errstate(all="ignore"):
            return self._decode_rows(_rows(rows, self.dim))

    def _encode_rows(self, fields: np.ndarray) -> np.ndarray:
        """Array form of :meth:`encode` on ``(N, 5)`` constructed-box fields;
        by default :meth:`encode` of each row in turn."""
        return np.array([self.encode(OrientedBox(*r)) for r in fields.tolist()], dtype=float).reshape(-1, self.dim)

    def _decode_rows(self, rows: np.ndarray) -> np.ndarray:
        """The codec's one decoder: ``(N, 5)`` fields of ``(N, dim)`` rows; the first row it rejects raises."""
        raise NotImplementedError

    def loss(self, a, b) -> float:
        """The loss of two ``(dim,)`` rows: one row of :meth:`loss_many`."""
        return float(self.loss_many(self._one_row(a, "loss"), self._one_row(b, "loss"))[0])

    def loss_many(self, a, b) -> np.ndarray:
        """``(N,)``: the loss of each pair of rows of two ``(N, dim)``
        arrays: smooth-L1 of each component, added by ``_add_terms``.

        By default the components are added column by column, left to right,
        by Python's ``sum``; ``np.sum`` adds in pairs and can differ in the
        last bit.
        """
        a, b = _row_pairs(a, b, self.dim)
        with np.errstate(over="ignore"):  # the branch a large difference does not take
            return self._add_terms(targets._smooth_l1(a - b, _Arrays).T)

    _add_terms = staticmethod(sum)

    def curve_components(self, fields: np.ndarray) -> np.ndarray:
        """``(N, len(names))`` components plotted by the sweep CSVs, one row
        per row of ``(N, 5)`` constructed-box fields (defaults to
        :meth:`encode_many`)."""
        return self.encode_many(fields)

    curve_component_names: tuple[str, ...] | None = None


class CobbCodec(BoxCodec):
    """Continuous codec in regression-target form against a fixed proposal.

    The encoding is the proposal-relative target (center offsets, log
    extents, ratio target, powered scores) against the unit horizontal
    proposal, so the audit exercises the same path a detector head would.
    Curve sweeps report the raw representation (outer HBB, sliding ratio,
    scores) instead.
    """

    dim = 9
    component_names = ("tx", "ty", "tw", "th", "rt", "s0", "s1", "s2", "s3")
    curve_component_names = ("xc", "yc", "w", "h", "rs", "s0", "s1", "s2", "s3")

    def __init__(self, variant: str):
        if variant not in ("sig", "ln"):
            raise InvalidArgumentError(f"unknown variant {variant!r}")
        self.variant = variant
        self.lam = targets.DEFAULT_LAMBDA[variant]
        self.name = "cobb" if variant == "sig" else "cobb-ln"
        self.proposal = Proposal.horizontal(0.0, 0.0, 1.0, 1.0)

    def encode(self, box: OrientedBox) -> np.ndarray:
        t = targets.encode_target(box, self.proposal, self.variant)
        return np.array(t.as_tuple(), dtype=float)

    def decode(self, vec) -> OrientedBox:
        """The box of one ``(9,)`` row, as :meth:`BoxCodec.decode` takes it."""
        (row,) = self._one_row(vec).tolist()
        return targets.decode_target(TargetVector(*row[:5], tuple(row[5:]), self.variant, self.lam), self.proposal)

    def _encode_rows(self, fields):
        out, bad = targets._encode_targets_many(fields, self.proposal, self.variant)
        return _scalar_rows(out, bad, lambda r: self.encode(OrientedBox(*r)), fields)

    def _decode_rows(self, rows):
        out, bad = targets._decode_targets_many(rows, self.proposal, self.variant)
        return _scalar_rows(out, bad, lambda r: astuple(self.decode(r)), rows)

    _add_terms = staticmethod(targets._loss)  # as cobb_loss adds them

    def curve_components(self, fields: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            fields = oriented_many(fields)
            out, bad = cobb_codec._encode_many(fields)
        return _scalar_rows(out, bad, lambda r: cobb_codec.encode(OrientedBox(*r)).as_tuple(), fields)

    def parameter_groups(self) -> dict[str, list[int]]:
        return {"xy": [0, 1], "wh": [2, 3], "r": [4], "scores": [5, 6, 7, 8]}


def _acute(w, h, t, xp=_Floats):
    """Sides and angle in [-pi/4, pi/4) of a box with sides ``w``, ``h`` at
    angle ``t`` in [0, pi/2): from pi/4 on, a quarter turn back."""
    return xp.where(t >= _QUARTER_PI, (h, w, t - _HALF_PI), (w, h, t))


class AcuteAngleCodec(BoxCodec):
    """(cx, cy, w, h, theta) with theta wrapped into [-pi/4, pi/4)."""

    name = "acute"
    dim = 5
    component_names = ("cx", "cy", "w", "h", "theta")

    def encode(self, box: OrientedBox) -> np.ndarray:
        return np.array([box.cx, box.cy, *_acute(box.w_side, box.h_side, box.theta)], dtype=float)

    decode = BoxCodec.decode  # a method of its own, as perfbench/spans.py traces each class's decode

    def _encode_rows(self, fields):
        cx, cy, w, h, t = fields.T
        return np.column_stack([cx, cy, *_acute(w, h, t, _Arrays)])

    def _decode_rows(self, rows):
        return oriented_many(rows)

    def parameter_groups(self) -> dict[str, list[int]]:
        return {"xy": [0, 1], "wh": [2, 3], "angle": [4]}


def _long_edge_angle(w, h, theta, xp=_Floats):
    """Long side, short side and long-side angle in [-pi/2, pi/2) of a box
    with sides ``w``, ``h`` at angle ``theta`` in [0, pi/2)."""
    lng, shrt, t = xp.where(w >= h, (w, h, theta), (h, w, theta + _HALF_PI))
    return lng, shrt, xp.where(t >= _HALF_PI, t - math.pi, t)


class LongEdgeCodec(BoxCodec):
    """(cx, cy, long, short, theta of the long side in [-pi/2, pi/2)).

    Exact squares keep the first side's angle (documented tie rule).
    """

    name = "long-edge"
    dim = 5
    component_names = ("cx", "cy", "long", "short", "theta")

    def encode(self, box: OrientedBox) -> np.ndarray:
        return np.array([box.cx, box.cy, *_long_edge_angle(box.w_side, box.h_side, box.theta)], dtype=float)

    decode = BoxCodec.decode  # a method of its own, as perfbench/spans.py traces each class's decode

    def _encode_rows(self, fields):
        cx, cy, w, h, theta = fields.T
        return np.column_stack([cx, cy, *_long_edge_angle(w, h, theta, _Arrays)])

    def _decode_rows(self, rows):
        return oriented_many(rows)

    def parameter_groups(self) -> dict[str, list[int]]:
        return {"xy": [0, 1], "wh": [2, 3], "angle": [4]}


class CslCodec(BoxCodec):
    """Long-edge box with the angle as a circularly smoothed classification.

    The angle lives in a label vector: a periodic Gaussian window over
    ``bins`` discrete angles covering the long-edge period pi.  Decoding
    takes the argmax bin center, which quantizes the angle to half a bin.
    """

    name = "csl"
    bins = 90
    window_sigma = 2.0  # in bins
    dim = 4 + bins
    component_names = ("cx", "cy", "long", "short") + tuple(f"bin{i}" for i in range(bins))
    bin_width = math.pi / bins
    bin_centers = -_HALF_PI + bin_width * np.arange(bins)

    def window(self, theta_long) -> np.ndarray:
        """The label of one long-edge angle, or one label row per angle of an
        ``(N,)`` array."""
        d = np.abs(self.bin_centers - np.asarray(theta_long, dtype=float)[..., None])
        d = np.minimum(d, math.pi - d)  # circular distance, period pi
        sigma = self.window_sigma * self.bin_width
        return np.exp(-0.5 * (d / sigma) ** 2)

    def encode(self, box: OrientedBox) -> np.ndarray:
        lng, shrt, t = _long_edge_angle(box.w_side, box.h_side, box.theta)
        return np.concatenate([[box.cx, box.cy, lng, shrt], self.window(t)])

    decode = BoxCodec.decode  # a method of its own, as perfbench/spans.py traces each class's decode

    def _encode_rows(self, fields):
        cx, cy, w, h, theta = fields.T
        lng, shrt, t = _long_edge_angle(w, h, theta, _Arrays)
        return np.column_stack([cx, cy, lng, shrt, self.window(t)])

    def _decode_rows(self, rows):
        return oriented_many(np.column_stack([rows[:, :4], self.bin_centers[np.argmax(rows[:, 4:], axis=1)]]))

    def parameter_groups(self) -> dict[str, list[int]]:
        return {"xy": [0, 1], "wh": [2, 3], "label": list(range(4, self.dim))}


class GlidingVertexCodec(BoxCodec):
    """Outer HBB plus four vertex slide fractions.

    Each box vertex sits on one HBB side; ``alpha_i`` is its fractional
    position along that side measured from the side's counterclockwise-first
    corner (y-down frame): top from the top-right corner leftward, right from
    the bottom-right corner upward, bottom from the bottom-left rightward,
    left from the top-left downward.  For theta in [0, pi/2) and outer
    extents ``W``, ``H`` that is ``a_top = a_bottom = h_side * sin(theta) / W``
    and ``a_right = a_left = w_side * sin(theta) / H``, in [0, 1] in floats
    and zero for an axis-aligned box: the encoder builds no corner, and bottom
    repeats top and left repeats right for every rectangle.  Decoding rebuilds
    the (possibly irregular) quad and refines it with the minimum-area
    enclosing rectangle.
    """

    name = "gv"
    dim = 8
    component_names = ("xc", "yc", "w", "h", "a_top", "a_right", "a_bottom", "a_left")

    def encode(self, box: OrientedBox) -> np.ndarray:
        hbb = outer_hbb(box)
        s = abs(math.sin(box.theta))
        a_tb, a_rl = box.h_side * s / hbb.w, box.w_side * s / hbb.h
        return np.array([hbb.xc, hbb.yc, hbb.w, hbb.h, a_tb, a_rl, a_tb, a_rl], dtype=float)

    decode = BoxCodec.decode  # a method of its own, as perfbench/spans.py traces each class's decode

    def _encode_rows(self, fields):
        cx, cy, w_side, h_side, theta = fields.T
        c, s = np.abs(_rowwise(math.cos, theta)), np.abs(_rowwise(math.sin, theta))
        w, h = _extents(w_side, h_side, c, s)
        a_tb, a_rl = h_side * s / w, w_side * s / h
        out = np.stack([cx, cy, w, h, a_tb, a_rl, a_tb, a_rl], axis=1)
        # outer_hbb raises where an extent overflows: encode raises it for the first such row
        return _scalar_rows(out, ~(np.isfinite(w) & np.isfinite(h)), lambda r: self.encode(OrientedBox(*r)), fields)

    def _decode_rows(self, rows):
        xc, yc, w, h, at, ar, ab, al = rows.T
        x_lo, x_hi = xc - 0.5 * w, xc + 0.5 * w
        y_lo, y_hi = yc - 0.5 * h, yc + 0.5 * h
        x = np.stack([x_hi - at * w, x_hi, x_lo + ab * w, x_lo], axis=1)
        y = np.stack([y_lo, y_hi - ar * h, y_hi, y_lo + al * h], axis=1)
        bad = (w <= 0.0) | (h <= 0.0)
        if bad.any():
            first = int(np.argmax(bad))
            min_area_rect_many(x[:first], y[:first])  # an earlier row's fit error comes first
            raise InvalidArgumentError("decoded HBB extents must be positive")
        return min_area_rect_many(x, y)

    def parameter_groups(self) -> dict[str, list[int]]:
        return {"xy": [0, 1], "wh": [2, 3], "alpha": [4, 5, 6, 7]}


_CODECS = {
    "cobb": lambda: CobbCodec("sig"),
    "cobb-ln": lambda: CobbCodec("ln"),
    "acute": AcuteAngleCodec,
    "long-edge": LongEdgeCodec,
    "csl": CslCodec,
    "gv": GlidingVertexCodec,
}


def available_codecs() -> tuple[str, ...]:
    return tuple(_CODECS)


def get_codec(name: str) -> BoxCodec:
    """Instantiate a codec by registry name."""
    factory = _CODECS.get(name)
    if factory is None:
        raise InvalidArgumentError(f"unknown codec {name!r}; available: {', '.join(_CODECS)}")
    return factory()
