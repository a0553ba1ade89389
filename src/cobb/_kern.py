"""The clipping kernel: quad area and convex-quad intersection area.

Quads are flat 8-sequences ``(x0, y0, x1, y1, x2, y2, x3, y3)``; the
``_many`` form takes ``(N, 8)`` arrays of them and repeats the scalar float
operations row by row, so each row is bit-identical to the scalar result.
It works slot-major: the polygons being clipped are ``(slots, N)`` arrays.
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


def quad_intersection_area(a, b):
    """Area of the intersection of two convex quads (flat 8-sequences).

    Successive half-plane clipping of ``a`` against the edges of ``b``.
    Degenerate (zero-area) inputs yield 0.
    """
    area_b2 = shoelace2(*b)
    if area_b2 == 0.0:
        return 0.0
    # the clip quad's corners, reversed where the shoelace sum is negative, and its first corner again
    if area_b2 < 0.0:
        clip = ((b[6], b[7]), (b[4], b[5]), (b[2], b[3]), (b[0], b[1]), (b[6], b[7]))
    else:
        clip = ((b[0], b[1]), (b[2], b[3]), (b[4], b[5]), (b[6], b[7]), (b[0], b[1]))
    # the clipped polygon's vertices, its first vertex repeated at the end
    first = (a[0], a[1])
    poly = [first, (a[2], a[3]), (a[4], a[5]), (a[6], a[7]), first]
    bx, by = clip[0]
    for c in clip[1:]:
        ax, ay = bx, by
        bx, by = c
        ex, ey = bx - ax, by - ay
        if ex == 0.0 and ey == 0.0:
            continue
        # walk the edges p -> q; each vertex's side of the clip line is
        # computed once and carried to the next edge
        out = []
        push = out.append
        walk = iter(poly)
        px, py = next(walk)
        dp = ex * (py - ay) - ey * (px - ax)
        for qx, qy in walk:
            dq = ex * (qy - ay) - ey * (qx - ax)
            if dp >= 0.0:
                push((px, py))
                if dp > 0.0 and dq < 0.0:
                    t = dp / (dp - dq)
                    push((px + t * (qx - px), py + t * (qy - py)))
            elif dp < 0.0 and dq > 0.0:  # not ``else``: a NaN side crosses nothing
                t = dp / (dp - dq)
                push((px + t * (qx - px), py + t * (qy - py)))
            px, py, dp = qx, qy, dq
        if not out:
            return 0.0
        push(out[0])
        poly = out
    if len(poly) < 4:  # fewer than 3 vertices
        return 0.0
    walk = iter(poly)
    px, py = next(walk)
    s = 0.0
    for qx, qy in walk:
        s += px * qy - qx * py
        px, py = qx, qy
    return 0.5 * abs(s)


def quad_intersection_area_many(a, b):
    """Row-wise :func:`quad_intersection_area` of two ``(N, 8)`` arrays.

    A masked Sutherland-Hodgman with row ``r`` in column ``r`` of ``(slots,
    N)`` x and y arrays: its ``n[r]`` vertices, then vertex 0 again in slot
    ``n[r]``, so a vertex's successor is the next slot.  Per clip edge, the
    kept vertices and crossings are compacted in the scalar walk's order by
    one running count down the slots and one flat scatter; the area is
    summed slot by slot from 0.0, as the scalar loop sums it.
    """
    a, b = _row_pairs(a, b, 8)
    cols = np.arange(len(a))
    with np.errstate(all="ignore"):
        area_b2 = shoelace2(*b.T)
        # a clockwise clip quad is walked in reverse; a zero-area one clips all
        cw = area_b2 < 0.0
        cx = np.where(cw, b.T[6::-2], b.T[0::2])
        cy = np.where(cw, b.T[7::-2], b.T[1::2])
        ex, ey = cx[[1, 2, 3, 0]] - cx, cy[[1, 2, 3, 0]] - cy
        dead = (ex == 0.0) & (ey == 0.0)  # a zero-length edge clips nothing
        x, y = a.T[[0, 2, 4, 6, 0]], a.T[[1, 3, 5, 7, 1]]
        n = np.where(area_b2 == 0.0, 0, 4)
        for k in range(4):
            if len(x) == 1:
                break  # every polygon is empty: no slot left to count down
            d = ex[k] * (y - cy[k]) - ey[k] * (x - cx[k])
            p, q = d[:-1], d[1:]
            valid = np.arange(len(p))[:, None] < n
            t = p / (p - q)
            # entry 2j is vertex j, entry 2j + 1 the crossing on its edge
            cross = ((p > 0.0) & (q < 0.0)) | ((p < 0.0) & (q > 0.0))
            keep = (np.stack(((p >= 0.0) | dead[k], cross), axis=1) & valid[:, None]).reshape(2 * len(p), -1)
            px = np.stack((x[:-1], x[:-1] + t * (x[1:] - x[:-1])), axis=1).reshape(-1)
            py = np.stack((y[:-1], y[:-1] + t * (y[1:] - y[:-1])), axis=1).reshape(-1)
            count = np.add.accumulate(keep, axis=0, dtype=np.intp)
            n = count[-1]
            w = n.max(initial=0)
            # kept entries go to their compacted slot, the others to slot w + 1, cut off after
            dest = (np.where(keep, count - 1, w + 1) * len(cols) + cols).reshape(-1)
            x, y = np.empty((w + 2, len(cols))), np.empty((w + 2, len(cols)))
            x.reshape(-1)[dest], y.reshape(-1)[dest] = px, py
            x[n, cols], y[n, cols] = x[0], y[0]
            x, y = x[:-1], y[:-1]
        terms = np.where(np.arange(len(x) - 1)[:, None] < n, x[:-1] * y[1:] - x[1:] * y[:-1], 0.0)
        s = np.zeros(len(a))
        for term in terms:
            s = s + term
    return np.where(n < 3, 0.0, 0.5 * np.abs(s))
