"""The clipping kernel: quad area and convex-quad intersection area.

Quads are flat 8-sequences ``(x0, y0, x1, y1, x2, y2, x3, y3)``; the
``_many`` form takes ``(N, 8)`` arrays of them and repeats the scalar float
operations row by row, so each row is bit-identical to the scalar result.
"""

import numpy as np

from cobb.errors import InvalidArgumentError

IMPLEMENTATION = "python"


def _rows(values, width: int) -> np.ndarray:
    """``values`` as an ``(N, width)`` float array; a 1-D array of exactly
    ``width`` values is one row.  An array whose last axis is not ``width``
    raises :class:`InvalidArgumentError` rather than being reflowed."""
    a = np.asarray(values, dtype=float)
    if a.shape[-1:] != (width,):
        raise InvalidArgumentError(f"need rows of {width} values, got an array of shape {a.shape}")
    return a.reshape(-1, width)


def _row_pairs(a, b, width: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rows` of ``a`` and of ``b``, which must have equal row counts."""
    a, b = _rows(a, width), _rows(b, width)
    if len(a) != len(b):
        raise InvalidArgumentError(f"need equal row counts, got {len(a)} and {len(b)}")
    return a, b


def shoelace2(x0, y0, x1, y1, x2, y2, x3, y3):
    """Twice the signed area of a quad; floats or equal-shape arrays."""
    return x0 * y1 - x1 * y0 + x1 * y2 - x2 * y1 + x2 * y3 - x3 * y2 + x3 * y0 - x0 * y3


def quad_area(q):
    """Unsigned area of a quadrilateral given as a flat 8-sequence."""
    return 0.5 * abs(shoelace2(*q))


def _signed_area2(pts):
    n = len(pts)
    s = 0.0
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def quad_intersection_area(a, b):
    """Area of the intersection of two convex quads (flat 8-sequences).

    Successive half-plane clipping of ``a`` against the edges of ``b``.
    Degenerate (zero-area) inputs yield 0.
    """
    area_b2 = shoelace2(*b)
    if area_b2 == 0.0:
        return 0.0
    poly = [(a[0], a[1]), (a[2], a[3]), (a[4], a[5]), (a[6], a[7])]
    clip = [(b[0], b[1]), (b[2], b[3]), (b[4], b[5]), (b[6], b[7])]
    if area_b2 < 0.0:
        clip.reverse()
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        if not poly:
            return 0.0
        ex, ey = bx - ax, by - ay
        if ex == 0.0 and ey == 0.0:
            continue
        # walk the edges p -> q from poly[0]; each vertex's side of the
        # clip line is computed once and carried to the next edge
        out = []
        px, py = poly[0]
        dp = ex * (py - ay) - ey * (px - ax)
        for qx, qy in poly[1:] + poly[:1]:
            dq = ex * (qy - ay) - ey * (qx - ax)
            if dp >= 0.0:
                out.append((px, py))
            if (dp > 0.0 and dq < 0.0) or (dp < 0.0 and dq > 0.0):
                t = dp / (dp - dq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
            px, py, dp = qx, qy, dq
        poly = out
    if len(poly) < 3:
        return 0.0
    return 0.5 * abs(_signed_area2(poly))


def quad_intersection_area_many(a, b):
    """Row-wise :func:`quad_intersection_area` of two ``(N, 8)`` arrays.

    A masked Sutherland-Hodgman: row ``r``'s polygon fills the first
    ``n[r]`` slots of the coordinate arrays.  Per clip edge, each vertex's
    side value is computed once; every kept vertex and crossing is emitted
    in the scalar walk's order and compacted with a cumulative sum of the
    masks, and the width grows to the largest row count.
    """
    a, b = _row_pairs(a, b, 8)
    rows = np.arange(len(a))
    area_b2 = shoelace2(*b.T)
    # a clockwise clip quad is walked in reverse; a zero-area one clips all
    cw = (area_b2 < 0.0)[:, None]
    cx = np.where(cw, b[:, 6::-2], b[:, 0::2])
    cy = np.where(cw, b[:, 7::-2], b[:, 1::2])
    x, y = a[:, 0::2], a[:, 1::2]
    n = np.where(area_b2 == 0.0, 0, 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(4):
            ax, ay = cx[:, k, None], cy[:, k, None]
            ex, ey = cx[:, (k + 1) % 4, None] - ax, cy[:, (k + 1) % 4, None] - ay
            live = (ex != 0.0) | (ey != 0.0)  # a zero-length edge clips nothing
            slot = np.arange(x.shape[1])
            valid = slot < n[:, None]
            nxt = np.where(slot + 1 < n[:, None], slot + 1, 0)
            d = ex * (y - ay) - ey * (x - ax)
            dn, xn, yn = (np.take_along_axis(v, nxt, axis=1) for v in (d, x, y))
            keep = valid & ((d >= 0.0) | ~live)
            cross = valid & live & (((d > 0.0) & (dn < 0.0)) | ((d < 0.0) & (dn > 0.0)))
            t = d / (d - dn)
            # slot 2j holds vertex j, slot 2j + 1 its crossing
            mask = np.stack((keep, cross), axis=2).reshape(len(a), 2 * len(slot))
            px = np.stack((x, x + t * (xn - x)), axis=2).reshape(mask.shape)
            py = np.stack((y, y + t * (yn - y)), axis=2).reshape(mask.shape)
            n = mask.sum(axis=1)
            r, c = np.nonzero(mask)
            dest = (np.cumsum(mask, axis=1) - 1)[r, c]
            x = np.zeros((len(a), n.max(initial=0)))
            y = np.zeros_like(x)
            x[r, dest], y[r, dest] = px[r, c], py[r, c]
    s = np.zeros(len(a))
    for j in range(x.shape[1]):
        jn = np.where(j + 1 < n, j + 1, 0)
        s = np.where(j < n, s + (x[:, j] * y[rows, jn] - x[rows, jn] * y[:, j]), s)
    return np.where(n < 3, 0.0, 0.5 * np.abs(s))
