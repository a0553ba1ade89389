"""Reference forms of the scalar encode path, kept to test the fast forms
against bit for bit.

- :func:`from_points`: the winding and start found with a shoelace loop
  over a list of point tuples and a ``min`` over tuple keys.
- :func:`quad_intersection_area`: the clipping walk on a list of
  ``(x, y)`` tuples, with a copy of the polygon per clip edge and a
  ``% n`` area sum.
- :func:`vertices_of`: the corners built in a loop, the start found with a
  ``min`` over tuple keys.
- :func:`iou`: the oracle taking both quads' areas anew on every call,
  clipping with the reference walk.
- :func:`select_candidate`: the argmax as a ``min`` over tuple keys.
- :func:`four_candidates`, :func:`classify` and :func:`encode`: each step
  takes the outer HBB and the sliding ratio anew (four ``outer_hbb`` calls
  per ``encode``), and ``rs`` is clamped twice per candidate set.  The
  candidates are built by the reference :func:`from_points` and compared by
  the reference :func:`vertices_of` and :func:`iou`, each quad's area taken
  12 times per ``classify``.
- :func:`slide_gaps`, :func:`closed_forms`, :func:`pairwise`,
  :func:`candidate_sides`, :func:`rt_from_rs`, :func:`rs_from_rt`,
  :func:`target`, :func:`hbb_of`, :func:`smooth_l1`, :func:`cobb_loss`,
  :func:`acute` and
  :func:`long_edge_angle`: the float formulas with ``if`` branches, which
  the shared formulas of :mod:`cobb.codec`, :mod:`cobb.targets` and
  :mod:`cobb.baselines` equal bit for bit, as floats and as arrays.
- :func:`decode`, :func:`candidate_box` and :func:`decode_target`: the
  decode chain as it built a :class:`cobb.codec.CobbVector` per target and
  a :class:`HorizontalBox` per vector, each checked again on the way down,
  with its own copy of the sliding-ratio clamp.
- :func:`turned`, :func:`extents`, :func:`corners`, :func:`concave`,
  :func:`calipers` and :func:`rect_of`: the geometry formulas as the
  ``OrientedBox`` constructor, ``outer_hbb``, ``vertices_of``, the
  ``ConvexQuad`` convexity check and the ``min_area_rect`` edge loop wrote
  them for floats before :mod:`cobb.geometry` shared them with the arrays
  (``concave`` with its zero-span guard, ``calipers`` with ``None`` for
  the empty extremes).
"""

import math

from cobb import codec, geometry, targets
from cobb._kern import quad_area, shoelace2
from cobb.errors import DegenerateGeometryError, InvalidArgumentError, UndefinedIoUError
from cobb.geometry import ConvexQuad, HorizontalBox, OrientedBox


def from_points(points) -> ConvexQuad:
    pts = [(p[0], p[1]) for p in points]
    if len(pts) != 4:
        raise InvalidArgumentError(f"quad needs 4 vertices, got {len(pts)}")
    # CCW in y-down frame <=> negative shoelace sum in raw coordinates.
    s = 0.0
    for i in range(4):
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % 4]
        s += ax * by - bx * ay
    if s > 0:
        pts = pts[::-1]
    start = min(range(4), key=lambda i: (pts[i][1], pts[i][0]))
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts[start:] + pts[:start]
    return ConvexQuad((x0, y0, x1, y1, x2, y2, x3, y3))


def vertices_of(box) -> ConvexQuad:
    c, s = math.cos(box.theta), math.sin(box.theta)
    hw, hh = 0.5 * box.w_side, 0.5 * box.h_side
    cx, cy = box.cx, box.cy
    f = []
    for dx, dy in ((-hw, hh), (hw, hh), (hw, -hh), (-hw, -hh)):
        f += (cx + dx * c + dy * s, cy - dx * s + dy * c)
    start = 2 * min(range(4), key=lambda i: (f[2 * i + 1], f[2 * i]))
    return ConvexQuad(tuple(f[start:] + f[:start]))


def iou(a, b) -> float:
    fa, fb = as_quad(a).flat, as_quad(b).flat
    area_a, area_b = quad_area(fa), quad_area(fb)
    if not (math.isfinite(area_a) and math.isfinite(area_b)):
        raise UndefinedIoUError("IoU of a shape whose area overflows float64 is undefined")
    if area_a == 0.0 and area_b == 0.0:
        raise UndefinedIoUError("IoU of two zero-area shapes is undefined")
    inter = quad_intersection_area(fa, fb)
    union = area_a + area_b - inter
    if union <= 0.0:
        raise UndefinedIoUError("empty union")
    v = inter / union
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def as_quad(shape) -> ConvexQuad:
    if isinstance(shape, OrientedBox):
        return vertices_of(shape)
    if isinstance(shape, ConvexQuad):
        return shape
    raise InvalidArgumentError(f"expected OrientedBox or ConvexQuad, got {type(shape).__name__}")


def select_candidate(scores) -> int:
    return min(range(4), key=lambda i: (-scores[i], i in (0, 3), i))


def signed_area2(pts):
    n = len(pts)
    s = 0.0
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def quad_intersection_area(a, b):
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
    return 0.5 * abs(signed_area2(poly))


def four_candidates(hbb: HorizontalBox, rs: float) -> tuple[ConvexQuad, ...]:
    if hbb.w <= 0.0 or hbb.h <= 0.0:
        raise InvalidArgumentError("HBB extents must be positive")
    rs = codec._clamp_rs(rs)
    xc, yc, w, h = hbb.xc, hbb.yc, hbb.w, hbb.h
    gx, gy = slide_gaps(w, h, rs)
    xs, ys = 0.5 * w - gx, 0.5 * h - gy
    top, bot = yc - 0.5 * h, yc + 0.5 * h
    lef, rig = xc - 0.5 * w, xc + 0.5 * w
    return (
        from_points([(xc - xs, top), (rig, yc + ys), (xc + xs, bot), (lef, yc - ys)]),
        from_points([(xc + xs, top), (rig, yc + ys), (xc - xs, bot), (lef, yc - ys)]),
        from_points([(xc - xs, top), (rig, yc - ys), (xc + xs, bot), (lef, yc + ys)]),
        from_points([(xc + xs, top), (rig, yc - ys), (xc - xs, bot), (lef, yc + ys)]),
    )


def classify(box: OrientedBox) -> int:
    hbb = geometry.outer_hbb(box)
    cands = four_candidates(HorizontalBox(0.0, 0.0, hbb.w, hbb.h), codec.sliding_ratio(box))
    q = vertices_of(OrientedBox(0.0, 0.0, box.w_side, box.h_side, box.theta))
    best, best_iou = 0, -1.0
    for i, quad in enumerate(cands):
        v = iou(q, quad) if quad_area(quad.flat) > 0.0 else 0.0
        if v > best_iou:
            best, best_iou = i, v
    return best


def encode(box: OrientedBox) -> codec.CobbVector:
    hbb = geometry.outer_hbb(box)
    rs = codec.sliding_ratio(box)
    row = codec.iou_matrix(hbb.w, hbb.h, rs)[classify(box)]
    return codec.CobbVector(hbb.xc, hbb.yc, hbb.w, hbb.h, rs, tuple(row))


def slide_gaps(w, h, rs):
    if w >= h:
        k = 4.0 * (h / w) ** 2 * rs * (1.0 - rs)
        return 0.5 * w * k / (1.0 + math.sqrt(max(0.0, 1.0 - k))), rs * h
    k = 4.0 * (w / h) ** 2 * rs * (1.0 - rs)
    return rs * w, 0.5 * h * k / (1.0 + math.sqrt(max(0.0, 1.0 - k)))


def closed_forms(w, h, rs):
    rsx = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * (h * h) / (w * w) * rs * (1.0 - rs))))
    rsy = rs
    l1 = math.hypot(rsx * w, rsy * h)
    l2 = math.hypot((1.0 - rsx) * w, (1.0 - rsy) * h)
    l3 = math.hypot(rsx * w, (1.0 - rsy) * h)
    l4 = math.hypot((1.0 - rsx) * w, rsy * h)

    i01 = (1.0 - ((1.0 - 2.0 * rsx) * rsx * w * w) / ((1.0 - rsy) * h * h)) * l1 * l2
    iou01 = i01 / (l1 * l2 + l3 * l4 - i01)

    i02 = (1.0 - ((1.0 - 2.0 * rsy) * rsy * h * h) / ((1.0 - rsx) * w * w)) * l1 * l2
    iou02 = i02 / (l1 * l2 + l3 * l4 - i02)

    i03 = (rsx + rsy - 2.0 * rsx * rsy) ** 2 / ((1.0 - rsx) * (1.0 - rsy)) * w * h / 2.0
    iou03 = i03 / (2.0 * l1 * l2 - i03) if i03 != 0.0 else 0.0

    h1 = 0.5 * w - (0.5 - rsy) / (1.0 - rsy) * rsx * w
    h2 = 0.5 * h - (0.5 - rsx) / (1.0 - rsx) * rsy * h
    tana = ((0.5 - rsx) / (1.0 - rsx) * l4) / (l3 / (2.0 * (1.0 - rsy)))
    tanb = ((0.5 - rsy) / (1.0 - rsy) * l3) / (l4 / (2.0 * (1.0 - rsx)))
    if tana * tanb != 0.0:
        i12 = 2.0 * tana * tanb / (tana + tanb) * (h1 * h1 + h2 * h2) + 2.0 * h1 * h2
        iou12 = i12 / (2.0 * l3 * l4 - i12)
    else:
        iou12 = 2.0 * h1 * h2 / (2.0 * l3 * l4 - 2.0 * h1 * h2)
    return iou01, iou02, iou03, iou12


def pairwise(w, h, rs):
    if w >= h:
        return closed_forms(w, h, rs)
    m02, m01, m03, m12 = closed_forms(h, w, rs)
    return m01, m02, m03, m12


def candidate_sides(w, h, rs, i):
    """``(la, lb, theta)`` of candidate ``i`` for ``rs`` in [0, 0.5]."""
    gx, gy = slide_gaps(w, h, rs)
    fx, fy = w - gx, h - gy
    ax, bx = (gx, -fx) if i in (1, 3) else (fx, -gx)
    ay, by = (fy, gy) if i in (0, 1) else (gy, fy)
    la, lb = math.hypot(ax, ay), math.hypot(bx, by)
    if la < lb:
        ax, ay, la, lb = bx, by, lb, la
    return la, lb, math.atan2(-ay, ax)


def rt_from_rs(rs, ra, variant):
    if variant == "sig":
        return 2.0 * rs
    if ra < 0.5:
        return 1.0 + math.log2(rs) if rs > 0.0 else -math.inf
    return 1.0 + math.log2(1.0 - rs)


def rs_from_rt(rt, variant):
    if variant == "sig":
        rt = min(max(rt, 0.0), 1.0)
        return 0.5 * rt
    rt = min(rt, 1.0)
    if rt <= 0.0:
        return min(2.0 ** (rt - 1.0), 0.5)
    return 1.0 - 2.0 ** (rt - 1.0)


def target(xc, yc, w, h, rs, ra, scores, p, variant):
    lam = targets.DEFAULT_LAMBDA[variant]
    rw, rh = w / p.wp, h / p.hp
    return (
        (xc - p.xp) / p.wp,
        (yc - p.yp) / p.hp,
        math.log(rw),
        math.log(rh),
        rt_from_rs(rs, ra, variant),
        tuple(s**lam for s in scores),
    )


def hbb_of(tx, ty, tw, th, rt, p, variant):
    w, h = p.wp * math.exp(tw), p.hp * math.exp(th)
    return tx * p.wp + p.xp, ty * p.hp + p.yp, w, h, rs_from_rt(rt, variant)


def smooth_l1(diff):
    d = abs(diff)
    return 0.5 * d * d if d < 1.0 else d - 0.5


def cobb_loss(pred, target):
    box_term = (
        smooth_l1(pred.tx - target.tx)
        + smooth_l1(pred.ty - target.ty)
        + smooth_l1(pred.tw - target.tw)
        + smooth_l1(pred.th - target.th)
    )
    r_term = smooth_l1(pred.rt - target.rt)
    s_term = sum(smooth_l1(p - q) for p, q in zip(pred.st, target.st))
    return box_term + r_term + s_term


def acute(w, h, t):
    if t >= 0.25 * math.pi:
        t -= 0.5 * math.pi
        w, h = h, w
    return w, h, t


def long_edge_angle(w, h, theta):
    if w >= h:
        lng, shrt, t = w, h, theta
    else:
        lng, shrt, t = h, w, theta + 0.5 * math.pi
    if t >= 0.5 * math.pi:
        t -= math.pi
    return lng, shrt, t


def turned(w, h, theta):
    t = math.fmod(theta, math.pi)
    if t < 0:
        t += math.pi
    if t >= math.pi:  # fmod rounding at the boundary
        t -= math.pi
    if t >= 0.5 * math.pi:
        return h, w, t - 0.5 * math.pi
    return w, h, t


def extents(w_side, h_side, c, s):
    c, s = abs(c), abs(s)
    return w_side * c + h_side * s, w_side * s + h_side * c


def corners(cx, cy, w_side, h_side, c, s):
    hw, hh = 0.5 * w_side, 0.5 * h_side
    f = []
    for dx, dy in ((-hw, hh), (hw, hh), (hw, -hh), (-hw, -hh)):
        f += (cx + dx * c + dy * s, cy - dx * s + dy * c)
    return tuple(f)


def concave(f):
    x0, y0, x1, y1, x2, y2, x3, y3 = f
    scale = max(abs(x1 - x0) + abs(y1 - y0), abs(x2 - x0) + abs(y2 - y0), abs(x3 - x0) + abs(y3 - y0)) or 1.0
    tol = geometry.GEOM_EPS * scale * scale
    pts = list(zip(f[0::2], f[1::2]))
    turns = []
    for i in range(4):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
        turns.append((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    return max(turns) > tol and min(turns) < -tol


def calipers(ux, uy, points):
    lo_u = hi_u = lo_v = hi_v = None
    for px, py in points:
        u = px * ux + py * uy
        v = -px * uy + py * ux
        lo_u = u if lo_u is None or u < lo_u else lo_u
        hi_u = u if hi_u is None or u > hi_u else hi_u
        lo_v = v if lo_v is None or v < lo_v else lo_v
        hi_v = v if hi_v is None or v > hi_v else hi_v
    return (hi_u - lo_u) * (hi_v - lo_v), ux, uy, lo_u, hi_u, lo_v, hi_v


def rect_of(ux, uy, lo_u, hi_u, lo_v, hi_v):
    cu, cv = 0.5 * (lo_u + hi_u), 0.5 * (lo_v + hi_v)
    return cu * ux - cv * uy, cu * uy + cv * ux, hi_u - lo_u, hi_v - lo_v, math.atan2(-uy, ux)


def clamp_rs(rs, tol=1e-12):
    if not math.isfinite(rs) or rs < -tol or rs > 0.5 + tol:
        raise InvalidArgumentError(f"sliding ratio outside [0, 0.5]: {rs!r}")
    return min(max(rs, 0.0), 0.5)


def candidate_box(hbb, rs, i):
    if hbb.w <= 0.0 or hbb.h <= 0.0 or i not in range(4):
        raise InvalidArgumentError(f"need positive HBB extents and index 0..3, got {hbb}, {i!r}")
    la, lb, theta = candidate_sides(hbb.w, hbb.h, clamp_rs(rs), i)
    if lb == 0.0:
        raise DegenerateGeometryError(f"candidate {i} of {hbb}, rs={rs!r} has zero area")
    return OrientedBox(hbb.xc, hbb.yc, la, lb, theta)


def decode(v):
    if len(v.scores) != 4:
        raise InvalidArgumentError(f"need four scores, got {len(v.scores)}")
    geometry._require_finite("score", *v.scores)
    if not (v.w > 0.0 and v.h > 0.0):
        raise InvalidArgumentError("decoded HBB extents must be positive")
    hbb = HorizontalBox(v.xc, v.yc, v.w, v.h)
    rs = clamp_rs(v.rs, tol=math.inf)
    return candidate_box(hbb, rs, select_candidate(v.scores))


def decode_target(t, proposal):
    geometry._require_finite("target component", *t.as_tuple())
    try:
        hbb = hbb_of(t.tx, t.ty, t.tw, t.th, t.rt, proposal, t.variant)
    except OverflowError:
        raise DegenerateGeometryError(f"extent targets {t.tw!r}, {t.th!r} overflow") from None
    box = decode(codec.CobbVector(*hbb, t.st))
    if proposal.theta_p != 0.0:
        box = geometry.rotate_about(box, proposal.xp, proposal.yp, proposal.theta_p)
    return box
