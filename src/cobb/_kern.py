"""The clipping kernel: quad area and convex-quad intersection area.

Quads are flat 8-sequences ``(x0, y0, x1, y1, x2, y2, x3, y3)``.
"""

IMPLEMENTATION = "python"


def quad_area(q):
    """Unsigned area of a quadrilateral given as a flat 8-sequence."""
    s = (
        q[0] * q[3] - q[2] * q[1]
        + q[2] * q[5] - q[4] * q[3]
        + q[4] * q[7] - q[6] * q[5]
        + q[6] * q[1] - q[0] * q[7]
    )
    return 0.5 * abs(s)


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
    area_b2 = (
        b[0] * b[3] - b[2] * b[1]
        + b[2] * b[5] - b[4] * b[3]
        + b[4] * b[7] - b[6] * b[5]
        + b[6] * b[1] - b[0] * b[7]
    )
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
