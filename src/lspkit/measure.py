"""Neighborhood-measure estimators, box dimension, Minkowski content, and
scaling-exponent regression.

Volumes are Lebesgue (a constant multiple of the n-dimensional Hausdorff
measure; the constant cancels in every exponent fit).  Ball/box geometry
follows the sup norm by default so sampling windows and ball volumes are
exact.  Every estimator reads an exact kernel where one applies and samples
only where none does:

- in ambient dimension 1, point sets and attractors, in windows and balls
  alike, read ``neighborhood_length_1d``.  A point set's delta-neighborhood
  is merged once into disjoint intervals (``_merge_union``) and each window
  reads its length from them (``_union_length_in``).  An attractor's length
  comes from its gap structure, with no cylinder cut: the hull widened by
  delta, less each gap shrunk by delta (``_attractor_length_in``).  It needs
  first-level hulls that do not overlap; an attractor whose hulls overlap is
  refused with ``ArgumentError``;
- balls about the set (``fit_lsp``) read ``_local_volumes``, closed forms
  that hold about every center on the set, so no center is drawn: one
  point in either metric, an axis-aligned plane in the sup metric, and a
  plane, a circle or a sphere in the Euclidean metric;
- windows (``boxdim`` and ``minkowski``) read ``exact_volumes``: the 1-D
  lengths above, and about a planar attractor with no rotating map whose
  images tile the hull of its fixed points with triangular gaps (the
  r = 0.5 gasket) a finite sum: the hull's Steiner area less every gap
  image eroded by delta (``_tiling_volumes``), the class recognised in
  exact rational arithmetic (``_triangle_tiling``).

Everything else is Monte Carlo: the other windows above dimension 1 (the
r < 0.5 gaskets, rotating maps, attractors in dimension 3 and up, images
that overlap, and every model but an attractor), and in balls tilted sup
planes (a box cut by a slab), circles and spheres under the sup metric (a
box cut by a shell), polylines, point sets of more than one point, and
attractors in dimension 2 and up.

Hit tests use the configured metric for every model, attractors included.
An attractor's hits at every scale come from one walk of its cylinder tree
(``sets.cut_hits``) down to a floor of ``_FLOOR`` times the scale, which
builds neither a cut nor a KD-tree: a point hits when it lies within delta
of the attractor itself, exact to that floor.  Only ``sets.distance_to_set``
measures circles and spheres in the Euclidean norm whatever the metric; it
does not measure attractors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ArgumentError, ToolkitError
from .sets import (
    IFS,
    AffinePlane,
    Circle,
    IFSAttractor,
    PointSet,
    Sphere,
    SetModel,
    _sum_squares,
    attractor_bounds,
    cut_hits,
    cylinder_cut,  # unread here; perfbench's tracer wraps measure.cylinder_cut
    distance_to_set,
    model_window,
    sample_on_set,
)

DEFAULT_SAMPLES = 100_000
_BALL_BLOCK = 2**20  # most candidate coordinates per block of a Euclidean sample_in_ball draw, 8 MB
_FLOOR = 1e-9  # attractor hit tests are exact to _FLOOR * delta (``_hit_counts``)
_DISTANCE_BLOCK = 16_384  # rows per exact-distance pass of _hit_counts


def __getattr__(name):
    """``cKDTree``, with scipy.spatial imported on its first read (PEP 562).

    Importing scipy.spatial takes longer than importing the rest of
    ``lspkit.cli``, and only ``_hit_counts`` on a point set of more than 64
    points builds a tree, so commands that build none never load scipy.  The
    class is bound into the module's globals, so later reads, and rebinding
    ``measure.cKDTree``, work as for an eager import; ``_hit_counts`` reads
    that global.
    """
    if name != "cKDTree":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.spatial import cKDTree

    globals()["cKDTree"] = cKDTree
    return cKDTree


@dataclass
class ScalingFit:
    exponent: float
    exponent_stderr: float
    intercept: float
    residual_max: float
    points: list = field(default_factory=list)


@dataclass
class LspFit(ScalingFit):
    kappa_hat: float = float("nan")
    kappa_stderr: float = float("nan")
    c3_hat: float = float("nan")
    c4_hat: float = float("nan")


def ball_volume(n, r, metric="sup"):
    if metric == "sup":
        return (2.0 * r) ** n
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * r**n


def sample_in_ball(center, r, k, rng, metric="sup", out=None):
    """Uniform samples inside B(center, r), written into ``out`` if given; rejection
    from the box for the Euclidean case.

    A Euclidean batch is drawn and tested ``_BALL_BLOCK`` coordinates at a
    time from the one stream, so its memory stays bounded however small the
    ball's share of the box (2.5e-3 in R^10); the points kept and the
    generator's end state are those of one draw of the whole batch.
    """
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    out = np.empty((k, n)) if out is None else out
    if metric == "sup":
        # rng.uniform(-r, r)'s arithmetic, -r + 2r * u, written in place
        rng.random(out=out)
        out *= 2.0 * r
        out += -r
    else:
        got = 0
        # batches sized to the acceptance rate (plus 1 % and 16 rows); the points
        # kept are the first k of the uniform stream whatever the batch sizes
        rate = ball_volume(n, 1.0, "euclidean") / 2.0**n
        block = max(1, _BALL_BLOCK // n)
        while got < k:
            batch = int((k - got) / rate * 1.01) + 16
            for start in range(0, batch, block):
                cand = rng.uniform(-r, r, size=(min(block, batch - start), n))
                keep = np.compress(_sum_squares(cand) <= r * r, cand, axis=0)
                take = min(len(keep), k - got)
                out[got : got + take] = keep[:take]
                got += take
    # column by column: numpy adds a broadcast row of a few numbers to every
    # row several times slower than it adds one number to a column
    for j in range(n):
        out[:, j] += center[j]
    return out


# ---------------------------------------------------------------------------
# exact 1-D path


def _merge_union(lo, hi):
    """Sorted disjoint (starts, ends) of the union of the intervals
    [lo[i], hi[i]], in the inputs' dtypes (None for an empty union).  The
    order of intervals that share a start moves no output."""
    lo = np.asarray(lo)
    if len(lo) == 0:
        return None
    order = np.argsort(lo)
    a = lo[order]
    reach = np.maximum.accumulate(np.asarray(hi)[order])
    first = np.flatnonzero(np.concatenate([[True], a[1:] > reach[:-1]]))
    return a[first], reach[np.concatenate([first[1:] - 1, [len(a) - 1]])]


def _union_length_in(union, lo, hi):
    """Length of a merged union (from ``_merge_union``) inside each window
    [lo[i], hi[i]]; each window costs two ``searchsorted`` reads."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if union is None:
        return np.zeros(np.broadcast(lo, hi).shape)
    starts, ends = union
    cum = np.concatenate([[0.0], np.cumsum(ends - starts)])  # union length before each piece

    def covered(x):  # union length in (-inf, x]
        k = np.searchsorted(starts, x, side="right")
        over = np.where(k > 0, ends[np.maximum(k - 1, 0)] - x, 0.0)
        return cum[k] - np.maximum(over, 0.0)

    return np.maximum(covered(hi) - covered(lo), 0.0)


_OVERLAP_TOL = 1e-12  # first-level hulls may overlap by this share of the hull (rounding)


def _gap_layout(ifs: IFS):
    """Hull and first-level layout of a 1-D attractor K with disjoint hulls.

    Each map is x -> a x + t with a = +-ratio.  The hull [p, q] ends are the
    least and largest of the maps' fixed points, the images of those under
    every map, and the fixed points of every two-map composition.  All lie
    on K, and each end of the hull is one of them: an end that a
    preserving map reaches is its fixed point, and one that a reversing map
    reaches is that map's image of the other end, itself a fixed point or,
    when a second reversing map reaches it, making the end a fixed point
    of the two maps' composition.

    Returns p, the hull length, the ratios, the reversing maps, and, per
    orientation (row 0 as is, row 1 mirrored), each map's hull start and
    the first-level gaps (u, v), all measured from the node's hull start.
    """
    ratios = ifs.ratios
    flips = np.array([m.rotation is not None and m.rotation[0, 0] < 0 for m in ifs.maps])
    a = np.where(flips, -ratios, ratios)
    t = np.array([m.translation[0] for m in ifs.maps])
    fixed = t / (1.0 - a)
    ends = np.concatenate([
        fixed,
        (a[:, None] * fixed[None, :] + t[:, None]).ravel(),
        ((a[:, None] * t[None, :] + t[:, None]) / (1.0 - a[:, None] * a[None, :])).ravel(),
    ])
    p, q = float(ends.min()), float(ends.max())
    first = np.minimum(a * p, a * q) + t
    last = np.maximum(a * p, a * q) + t
    order = np.argsort(first, kind="stable")
    u, v = last[order][:-1], first[order][1:]
    if np.any(u - v > _OVERLAP_TOL * (q - p)):
        raise ArgumentError(
            "exact 1-D path needs an attractor whose first-level hulls do not overlap"
        )
    v = np.maximum(u, v)
    kids = np.stack([first - p, q - last])
    gaps_u = np.stack([u - p, q - v])
    gaps_v = np.stack([v - p, q - u])
    return p, q - p, ratios, flips, kids, gaps_u, gaps_v


def _excess_table(ratios, gaps, deltas):
    """Sorted scales and the excess of a cylinder at each, per delta.

    A cylinder of scale S has gaps of lengths S g_k at its first level and
    its children's gaps below; the excess E(S) = sum_k max(S g_k - 2 delta,
    0) + sum_i E(S r_i) is the length those gaps keep outside the
    delta-neighborhood, and it depends on the scale alone.  The table holds
    every scale that children products reach from 1 while S max(g) >
    2 delta for the least delta (as floats, the products a descent
    computes), one row per distinct scale as in ``sets.cut_size``, and one
    column per delta of ``deltas``; E is 0 below it.
    """
    levels = [np.ones(1)]
    while levels[-1].size:
        kids = np.unique(levels[-1][:, None] * ratios)
        levels.append(kids[kids * gaps.max() > 2.0 * deltas.min()])
    scales = np.unique(np.concatenate(levels))
    excess = np.zeros((scales.size, deltas.size))
    column = np.arange(deltas.size)
    for level in reversed(levels[:-1]):
        own = np.clip(level[:, None, None] * gaps - 2.0 * deltas[:, None], 0.0, None).sum(axis=2)
        kids = _lookup(scales, excess, (level[:, None] * ratios)[:, :, None], column).sum(axis=1)
        excess[np.searchsorted(scales, level)] = own + kids
    return scales, excess


def _lookup(scales, excess, s, k):
    """Excess at scales ``s`` in delta columns ``k``; 0 at a scale the table does not hold."""
    idx = np.minimum(np.searchsorted(scales, s), scales.size - 1)
    return np.where(scales[idx] == s, excess[idx, k], 0.0)


def _attractor_length_in(ifs: IFS, delta, lo, hi):
    """Length of the delta-neighborhood of a 1-D attractor K inside each
    window [lo[i], hi[i]], exact up to rounding; ``delta``, ``lo`` and
    ``hi`` broadcast together.

    With hull [p, q] and every gap (u, v) of [p, q] minus K,

        |N_delta(K) & [a, b]| = |[p - delta, q + delta] & [a, b]|
                                - sum over gaps of |(u + delta, v - delta) & [a, b]|.

    The gaps are the first-level gaps scaled into every cylinder.  A
    cylinder wholly inside a window removes its scale's excess
    (``_excess_table``); one wholly outside removes nothing; only the
    cylinders that straddle a window end are descended, their own gaps
    clipped to the window.  A descent stops once scale * max gap <= 2
    delta, below which no gap outlives the shrinking.  A reversing map
    mirrors its child's layout.  Each window costs O(depth * maps), and
    its length does not depend on the other windows of the call.
    """
    delta, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (delta, lo, hi)))
    p, span, ratios, flips, kids, gaps_u, gaps_v = _gap_layout(ifs)
    length = np.clip(np.minimum(hi, p + span + delta) - np.maximum(lo, p - delta), 0.0, None)
    gaps = gaps_v[0] - gaps_u[0]
    gmax = gaps.max()
    a, b, d = lo.ravel(), hi.ravel(), delta.ravel()
    # the windows whose delta some gap outlives; their deltas lead the sorted table columns
    w = np.flatnonzero(2.0 * d < gmax)
    if not w.size:
        return length
    deltas, k = np.unique(d, return_inverse=True)
    scales, excess = _excess_table(ratios, gaps, deltas[2.0 * deltas < gmax])
    removed = np.zeros(a.size)
    # the frontier: window, hull start, scale and orientation of each node
    x = np.full(w.size, p)
    s = np.ones(w.size)
    f = np.zeros(w.size, dtype=np.intp)
    while w.size:
        end = x + s * span
        inside = (a[w] <= x) & (end <= b[w])
        held = w[inside]
        removed += np.bincount(held, weights=_lookup(scales, excess, s[inside], k[held]), minlength=a.size)
        cross = ~inside & (end > a[w]) & (x < b[w]) & (s * gmax > 2.0 * d[w])
        w, x, s, f = w[cross], x[cross], s[cross], f[cross]
        u = x[:, None] + s[:, None] * gaps_u[f] + d[w, None]
        v = x[:, None] + s[:, None] * gaps_v[f] - d[w, None]
        cut = np.clip(np.minimum(v, b[w, None]) - np.maximum(u, a[w, None]), 0.0, None)
        removed += np.bincount(w, weights=cut.sum(axis=1), minlength=a.size)
        x = (x[:, None] + s[:, None] * kids[f]).ravel()
        s = (s[:, None] * ratios).ravel()
        f = (f[:, None] ^ flips).ravel()
        w = np.repeat(w, ratios.size)
    return np.clip(length - removed.reshape(length.shape), 0.0, None)


def _reads_lengths(m: SetModel):
    """Whether ``neighborhood_length_1d`` reads m's volumes: a point set or attractor on the line."""
    return m.ambient_dim == 1 and isinstance(m, (PointSet, IFSAttractor))


def neighborhood_length_1d(m: SetModel, delta, lo, hi):
    """Length of the delta-neighborhood of a 1-D point set or attractor
    inside each window [lo[i], hi[i]]; ``delta``, ``lo`` and ``hi``
    broadcast together.  The one exact path of the estimators.

    Raises ``ArgumentError`` for an attractor whose first-level hulls
    overlap.
    """
    if isinstance(m, IFSAttractor):
        return _attractor_length_in(m.ifs, delta, lo, hi)
    if not isinstance(m, PointSet):
        raise ArgumentError("exact 1-D path supports point sets and attractors only")
    delta, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (delta, lo, hi)))
    pts = m.points[:, 0]
    out = np.empty(delta.shape)
    for d in np.unique(delta):
        at = delta == d
        out[at] = _union_length_in(_merge_union(pts - d, pts + d), lo[at], hi[at])
    return out


# ---------------------------------------------------------------------------
# closed-form local volumes


def _regularized_beta(x, a, b):
    """I_x(a, b), the regularized incomplete beta function, for 0 <= x <= 1.

    The recurrence I_x(a, b) = I_x(a + 1, b) + x^a (1 - x)^b / (a B(a, b))
    (DLMF 8.17.20), summed downward from a: each term is the one before
    times x (a + b + j) / (a + 1 + j), all positive, so nothing cancels.
    (Run upward from a = 1/2 or 1, as the half-integer arguments of a
    plane's volume allow in finitely many steps, it subtracts terms of size
    x^(1/2) to leave one of size x^a: a line in R^8 at delta = r / 128
    would keep three digits.)  Past x = (a + 1) / (a + b + 2) it sums
    1 - I_(1-x)(b, a) (DLMF 8.17.4), whose terms fall faster.
    """
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _regularized_beta(1.0 - x, b, a)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    term = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta) / a
    total, j = 0.0, 0
    while total + term != total:
        total += term
        term *= x * (a + b + j) / (a + 1.0 + j)
        j += 1
    return total


def _disc_segment(rho, b, c):
    """Area of a disc of radius ``rho`` beyond a chord at signed distance
    ``b`` from its center, of half-length ``c``.

    A thin segment (angle theta = atan2(c, b) below 0.25) is c^2 (theta -
    sin theta cos theta) / sin^2 theta, its numerator summed as the series
    of (2 theta - sin 2 theta) / 2 over theta^2: no cancellation, and no
    rho^2, which overflows for a circle of radius 1e300.
    """
    theta = math.atan2(c, b)
    if theta >= 0.25:
        return rho * rho * theta - b * c
    if theta == 0.0:
        return 0.0
    term, total, k = 2.0 * theta / 3.0, 0.0, 1
    while total + term != total:
        total += term
        term *= -4.0 * theta * theta / ((2 * k + 2) * (2 * k + 3))
        k += 1
    return c * c * total * (theta / math.sin(theta)) ** 2


def _ball_cap(rho, h):
    """Volume of the cap of height ``h`` (0 <= h <= 2 rho) that a plane cuts
    from a ball of radius ``rho``."""
    return math.pi * h * (h * (rho - h / 3.0))


def _lens(n, big_r, r, e):
    """Volume of B(O, big_r + e) & B(x, r) in R^n (n = 2 or 3), |x - O| = big_r.

    With rho = big_r + e, the two spheres meet on the plane at distance
    a = s - e from x toward O, where s = (r^2 - e^2) / (2 big_r) is the
    height of the cap B(O, rho) keeps beyond it.  Every quantity is formed
    from e, r and their ratios to big_r, so nothing squares big_r.
    """
    rho = big_r + e
    if rho <= 0.0 or -e >= r:  # an empty ball, or one clear of B(x, r)
        return 0.0
    if e >= r:
        return ball_volume(n, r, "euclidean")
    if r - e >= 2.0 * big_r:
        return ball_volume(n, rho, "euclidean")
    s = (r - e) / (2.0 * big_r) * (r + e)
    a = s - e
    if n == 3:
        return _ball_cap(r, r - a) + _ball_cap(rho, s)
    c = math.sqrt(max((r - a) * (r + a), 0.0))
    return _disc_segment(r, a, c) + _disc_segment(rho, big_r - a, c)


def _local_volumes(m: SetModel, deltas, r, metric):
    """vol(B(x, r) & N_delta(m)) at each delta for any x on m, in closed
    form (Weyl, Amer. J. Math. 61, 1939), or None where m has none in
    ``metric``.

    - one point: vol B(delta);
    - an axis-aligned l-plane in the sup metric: (2r)^l (2 delta)^(n-l);
    - an l-plane in the Euclidean metric: V_n r^n I_(delta^2/r^2)((n - l)/2,
      l/2 + 1), the law of the squared norm of a uniform point of the ball
      projected off the plane;
    - a Euclidean circle or sphere of radius R: the lens B(O, R + delta) &
      B(x, r) less the lens B(O, max(R - delta, 0)) & B(x, r).
    A delta of r or more reads as r.
    """
    n = m.ambient_dim
    if isinstance(m, PointSet) and len(m.points) == 1:
        return ball_volume(n, np.minimum(deltas, r), metric)
    if isinstance(m, AffinePlane) and metric == "euclidean":
        a, b = (n - m.plane_dim) / 2.0, m.plane_dim / 2.0 + 1.0
        share = [_regularized_beta(min(d / r, 1.0) ** 2, a, b) for d in deltas]
        return ball_volume(n, r, metric) * np.array(share)
    if isinstance(m, AffinePlane) and m.free_axes is not None:
        return (2.0 * r) ** m.plane_dim * (2.0 * np.minimum(deltas, r)) ** (n - m.plane_dim)
    if isinstance(m, (Circle, Sphere)) and metric == "euclidean":
        big_r = float(m.radius)
        return np.array([_lens(n, big_r, r, d) - _lens(n, big_r, r, -d) for d in deltas])
    return None


def exact_volumes(m: SetModel, deltas, window, metric="sup"):
    """Exact volumes of the delta-neighborhood of m inside the window
    ``(lo, hi)``, one per delta of the 1-D array ``deltas``, or None where
    m has no exact path in ``metric`` and the window estimators sample.

    In dimension 1 a point set or attractor reads ``neighborhood_length_1d``;
    a planar triangle tiling reads ``_tiling_volumes``.
    """
    deltas = np.asarray(deltas, dtype=float)
    lo, hi = window
    if _reads_lengths(m):
        return neighborhood_length_1d(m, deltas, lo[0], hi[0])
    if isinstance(m, IFSAttractor):
        return _tiling_volumes(m.ifs, deltas, lo, hi, metric)
    return None


# ---------------------------------------------------------------------------
# exact window volumes of self-similar triangle tilings

_TILING_MAPS = 64  # most maps whose first-level gaps are worked out in exact arithmetic
_TILING_SCALES = 2**16  # most distinct word scales a tiling sum reads


def _cross(o, a, b):
    """(a - o) x (b - o): positive when b lies left of the line from o to a."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edges(poly):
    return zip(poly, poly[1:] + poly[:1])


def _area(poly):
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in _edges(poly)) / 2


def _lower_chain(points):
    """The lower convex-hull chain of ``points``, sorted by x and then y,
    with no three collinear (Andrew's monotone chain, Inf. Process. Lett. 9,
    1979); reversed points give the upper chain."""
    chain = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()  # the last vertex does not lie below the chord to p
        chain.append(p)
    return chain


def _convex_hull(points):
    """Vertices of the convex hull of exact points, counterclockwise, no
    three collinear."""
    pts = sorted(set(points))
    return _lower_chain(pts)[:-1] + _lower_chain(pts[::-1])[:-1]


def _split(poly, p, q):
    """The parts of the convex polygon ``poly`` on or left of, and on or
    right of, the line from p to q, and whether each has positive area
    (``poly`` has)."""
    side = [_cross(p, q, v) for v in poly]
    left, right = [], []
    for k, (a, sa) in enumerate(zip(poly, side)):
        if sa >= 0:
            left.append(a)
        if sa <= 0:
            right.append(a)
        b, sb = poly[(k + 1) % len(poly)], side[(k + 1) % len(poly)]
        if sa * sb < 0:
            t = sa / (sa - sb)
            cut = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            left.append(cut)
            right.append(cut)
    return (left, max(side) > 0), (right, min(side) < 0)


def _minus(piece, image):
    """Convex pieces with disjoint interiors whose union is the closure of
    ``piece`` less the convex ``image``: the part outside each edge of the
    image and inside the edges before it."""
    pieces = []
    for p, q in _edges(image):
        (piece, inside), (out, outside) = _split(piece, p, q)
        if outside:
            pieces.append(out)
        if not inside:
            break
    return pieces


def _share_an_edge(a, b):
    """Whether convex polygons a and b share a boundary segment of positive length."""
    for p, q in _edges(a):
        d = (q[0] - p[0], q[1] - p[1])
        for e in _edges(b):
            if _cross(p, q, e[0]) == 0 and _cross(p, q, e[1]) == 0:
                # both on the line: overlap their spans along it, p at 0 and q at d . d
                t = sorted((v[0] - p[0]) * d[0] + (v[1] - p[1]) * d[1] for v in e)
                if min(d[0] * d[0] + d[1] * d[1], t[1]) > max(0, t[0]):
                    return True
    return False


def _triangle_tiling(ifs: IFS):
    """The hull C and first-level gaps of a planar IFS whose images tile C
    with triangular gaps, as exact counterclockwise vertex lists, or None.

    With no rotating map, C = conv K is the hull of the maps' fixed points
    and every image f_i(C) = r_i C + t_i lies in C.  The set is in the class
    when every edge of C is covered by the images' edges (then dC, every
    image's boundary and so every gap's boundary lie in K), the images'
    interiors are disjoint (their areas add up to that of their union), and
    each component of C less the images is a triangle.  Every test is made
    in exact rational arithmetic on the float inputs.
    """
    from fractions import Fraction  # here, so that importing lspkit.measure alone does not load it

    if ifs.ambient_dim != 2 or len(ifs.maps) > _TILING_MAPS or any(m.rotation is not None for m in ifs.maps):
        return None
    maps = [(Fraction(m.ratio), tuple(map(Fraction, m.translation))) for m in ifs.maps]
    hull = _convex_hull([(t[0] / (1 - r), t[1] / (1 - r)) for r, t in maps])
    if len(hull) < 3:
        return None
    images = [[(r * v[0] + t[0], r * v[1] + t[1]) for v in hull] for r, t in maps]
    for k, (a, b) in enumerate(_edges(hull)):
        d = (b[0] - a[0], b[1] - a[1])
        cover = sorted(
            ((img[k][0] - a[0]) * d[0] + (img[k][1] - a[1]) * d[1], r)
            for (r, _), img in zip(maps, images)
            if _cross(a, b, img[k]) == 0 and _cross(a, b, img[(k + 1) % len(hull)]) == 0
        )
        reach, length = 0, d[0] * d[0] + d[1] * d[1]
        for start, r in cover:
            if start > reach:
                return None
            reach = max(reach, start + r * length)
        if reach < length:
            return None
    pieces = [hull]
    for image in images:
        pieces = [part for piece in pieces for part in _minus(piece, image)]
    if sum(map(_area, pieces)) != _area(hull) * (1 - sum(r * r for r, _ in maps)):
        return None  # the images overlap
    # pieces that share an edge belong to one gap (union-find)
    root = list(range(len(pieces)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in combinations(range(len(pieces)), 2):
        if _share_an_edge(pieces[i], pieces[j]):
            root[find(j)] = find(i)
    gaps = []
    for g in {find(i) for i in range(len(pieces))}:
        parts = [p for i, p in enumerate(pieces) if find(i) == g]
        tri = _convex_hull([v for p in parts for v in p])
        if len(tri) != 3 or _area(tri) != sum(map(_area, parts)):
            return None
        gaps.append(tri)
    return hull, gaps


def _edge_width(poly, metric):
    """Sum of |e| h_Q(n) over the edges e of ``poly``, Q the metric's unit
    ball and n the edge's unit normal: sum(|e_x| + |e_y|) in the sup metric,
    the perimeter in the Euclidean one."""
    sides = [(b[0] - a[0], b[1] - a[1]) for a, b in _edges(poly)]
    if metric == "sup":
        return sum(abs(x) + abs(y) for x, y in sides)
    return math.fsum(math.hypot(x, y) for x, y in sides)


def _tiling_volumes(ifs: IFS, deltas, lo, hi, metric):
    """vol N_delta(K) at each delta for an attractor in ``_triangle_tiling``'s
    class whose window [lo, hi] holds C + delta Q, or None.

    K is C less every gap image f_w(G), and the boundaries of C and of each
    gap lie in K, so (Lapidus & Pearse, Acta Appl. Math. 112, 2010)

        vol N_delta(K) = vol(C + delta Q) - sum over w and G of vol(f_w(G) - delta Q).

    The first term is Steiner's area, A + delta W + vol(Q) delta^2, with W
    ``_edge_width``.  A triangle eroded by delta Q is homothetic to it, by
    (1 - delta / rho)_+ with rho = 2 area / W.  Words of one float ratio
    product s are grouped, as ``sets.cut_size`` groups them, carrying the
    sum of s_w^2 over the group; a group with s rho <= delta for every delta
    erodes its gaps and its descendants' to nothing, so the sum is finite.
    """
    if not deltas.min() > 0:
        return None
    tiling = _triangle_tiling(ifs)
    if tiling is None:
        return None
    hull, gaps = tiling
    corners = np.array(hull, dtype=float)
    dmax = deltas.max()
    if np.any(corners.min(axis=0) - dmax < lo) or np.any(corners.max(axis=0) + dmax > hi):
        return None
    ball = 4.0 if metric == "sup" else math.pi
    vols = float(_area(hull)) + float(_edge_width(hull, metric)) * deltas + ball * deltas * deltas
    areas = [float(_area(g)) for g in gaps]
    rhos = [float(2 * _area(g) / _edge_width(g, metric)) for g in gaps]
    ratios, reach = ifs.ratios, max(rhos, default=0.0)
    removed = np.zeros(deltas.shape)
    s, mass = np.ones(1), np.ones(1)
    read = 0
    while s.size:
        read += s.size
        if read > _TILING_SCALES:
            return None
        for area, rho in zip(areas, rhos):
            shrink = np.clip(1.0 - deltas / (s[:, None] * rho), 0.0, None)
            removed += area * (mass[:, None] * (shrink * shrink)).sum(axis=0)
        s, group = np.unique(np.multiply.outer(s, ratios), return_inverse=True)
        mass = np.bincount(group.ravel(), weights=np.multiply.outer(mass, ratios * ratios).ravel())
        live = s * reach > deltas.min()
        s, mass = s[live], mass[live]
    return vols - removed


# ---------------------------------------------------------------------------
# hit testing


def _cell_order(pts):
    """Order of ``pts`` along a Z-order curve over a grid of their bounding
    box, so that points close in the order lie close in space.

    The key has 16 bits: 16 // n bits of cell index on each of the first
    min(n, 16) axes, interleaved through a table of each index spread
    apart.  It is built one column at a time, so no temporary is larger
    than a column, and sorted by numpy's radix sort.
    """
    axes = min(pts.shape[1], 16)
    bits = 16 // axes
    v = np.arange(2**bits)
    spread = sum(((v >> b) & 1) << (axes * b) for b in range(bits)).astype(np.uint16)
    key = np.zeros(len(pts), dtype=np.uint16)
    for i in range(axes):
        col = pts[:, i]
        lo, hi = col.min(), col.max()
        cell = col - lo
        cell *= (2**bits - 1) / (hi - lo if hi > lo else 1.0)
        key |= spread[cell.astype(np.intp)] << i
    return np.argsort(key, kind="stable")


def _hit_counts(m: SetModel, clouds, deltas, metric="sup"):
    """counts[i, j]: points of ``clouds[i]`` within ``deltas[j]`` of m.

    Every delta reads the same clouds.  Models with an exact distance make
    one distance pass per cloud and count each delta against it: a point
    set of more than 64 points queries a KD-tree over its points, bounded
    by the largest delta (sliding-midpoint splits and uncompacted nodes
    build faster, and nearest-neighbour distances do not depend on the
    tree's shape), and every other model reads ``distance_to_set``.  The
    pass runs ``_DISTANCE_BLOCK`` rows at a time, so its temporaries stay
    small; each point's distance does not depend on the rows around it, so
    the counts are those of one pass over the whole cloud.

    Attractors walk their cylinder tree (``sets.cut_hits``) down to one
    floor: the cut at contraction target ``_FLOOR`` * delta / (2 r0), whose
    balls, centered on the attractor A, have radius at most ``_FLOOR`` *
    delta / 2, below the walk's ``slack`` (1e-9 delta plus 1e-12 of the
    extent |z0| + r0, which absorbs the rounding of the compositions and of
    the distances, a few hundred ulps).  The walk decides such a cut to the
    slack: a hit lies within delta of a cut center, so of A, and a miss at
    least delta - slack from A.  Each cloud is put once in Z-order
    (``_cell_order``), which keeps the walk's blocks of consecutive points
    tight; a count does not depend on the order.  The deltas are walked
    from coarse to fine, and a finer delta tests only the points that hit
    at the previous one, whenever delta <= delta_prev - 2 slack_prev;
    otherwise (a repeated delta) it tests every point.  The counts are
    those of a full test at every delta, because a point that misses at
    delta_c misses at every such delta_f: it lies at least delta_c -
    slack_c >= delta_f + slack_c from A, farther than delta_f from every
    cut center even with rounding.  A point's hit or miss does not depend
    on the other points tested with it, so each kept point is decided by
    the same arithmetic as in a full test.
    """
    deltas = np.asarray(deltas, dtype=float)
    counts = np.zeros((len(clouds), len(deltas)), dtype=np.int64)
    if isinstance(m, IFSAttractor):
        z0, r0 = attractor_bounds(m.ifs)
        clouds = [np.take(pts, _cell_order(pts), axis=0) for pts in clouds]
        extent_slack = 1e-12 * (float(np.linalg.norm(z0)) + r0)
        live = [None] * len(clouds)  # rows of each cloud that hit at prev; None: all
        prev = None
        for j in np.argsort(-deltas, kind="stable"):
            d = deltas[j]
            if prev is None or not d <= prev - 2.0 * (1e-9 * prev + extent_slack):
                live = [None] * len(clouds)
            target = _FLOOR * d / (2 * r0)
            for i, pts in enumerate(clouds):
                hit = cut_hits(m.ifs, pts if live[i] is None else pts[live[i]], d, target, metric)
                live[i] = np.flatnonzero(hit) if live[i] is None else live[i][hit]
                counts[i, j] = live[i].size
            prev = d
        return counts
    dmax = float(deltas.max())
    tree = None
    if isinstance(m, PointSet) and len(m.points) > 64:
        kdtree = globals().get("cKDTree") or __getattr__("cKDTree")
        tree = kdtree(m.points, balanced_tree=False, compact_nodes=False)
    for i, pts in enumerate(clouds):
        for lo in range(0, len(pts), _DISTANCE_BLOCK):
            block = pts[lo : lo + _DISTANCE_BLOCK]
            if tree is None:
                dist = distance_to_set(m, block, metric=metric)
            else:  # inf from dmax on
                dist, _ = tree.query(block, k=1, p=np.inf if metric == "sup" else 2, distance_upper_bound=dmax)
            for j, d in enumerate(deltas):
                counts[i, j] += np.count_nonzero(dist < d)
    return counts


def _mc_volume(vol, hits, samples):
    """Monte Carlo volumes and binomial standard errors from hit counts."""
    p = np.asarray(hits) / samples
    return vol * p, vol * np.sqrt(np.maximum(p * (1 - p), 1e-300) / samples)


# ---------------------------------------------------------------------------
# operations


def _window_volumes(m, scales, samples_per_scale, rng, metric):
    """Estimated vol of the delta-neighborhood per scale over a bounding window,
    the scales sorted descending.  Needs >= 4 scales spanning >= 2 decades and
    some scale with positive measure.

    The window is fixed by the largest scale, and one uniform window sample
    serves every scale: each scale counts its hits among the same points.
    It is ``rng.uniform(lo, hi)``'s draw bit for bit, and leaves the
    generator in the same state: ``rng.random`` scaled in place to
    lo + (hi - lo) * u by column below 8 coordinates, where numpy runs a
    broadcast row of a few numbers several times slower, and by row from 8 on.
    An attractor's hits are exact to ``_FLOOR`` times each scale, and a
    scale below the previous one re-tests only the previous scale's hits
    (see ``_hit_counts``).
    """
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    if len(scales) < 4 or scales.max() / scales.min() < 100:
        raise ArgumentError("need >= 4 scales spanning >= 2 decades")
    lo, hi = model_window(m, margin=float(scales.max()) * 1.5)
    vols = exact_volumes(m, scales, (lo, hi), metric)
    if vols is None:
        n = m.ambient_dim
        pts = rng.random((samples_per_scale, n))
        span = hi - lo
        if n < 8:
            for j in range(n):
                pts[:, j] *= span[j]
                pts[:, j] += lo[j]
        else:
            pts *= span
            pts += lo
        counts = _hit_counts(m, [pts], scales, metric=metric)[0]
        vols, _ = _mc_volume(float(np.prod(span)), counts, samples_per_scale)
    if np.all(vols <= 0):
        raise ToolkitError("zero measure at every scale")
    return scales, vols


def _least_squares(a, y):
    """Coefficients of y ~ a, their standard errors and the residuals."""
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    cov = float(resid @ resid) / max(len(y) - a.shape[1], 1) * np.linalg.inv(a.T @ a)
    return coef, [math.sqrt(max(v, 0.0)) for v in np.diag(cov)], resid


def _ols_line(x, y):
    coef, se, resid = _least_squares(np.vstack([x, np.ones_like(x)]).T, y)
    return coef[0], coef[1], se[0], resid


def _support_slopes(x, y):
    """Slopes of the support lines below and above the points (x, y) that
    are highest, resp. lowest, at mean(x): the lower and upper convex-hull
    edges that span it, from Andrew's monotone chain (``_lower_chain``).
    At a hull vertex, up to 1e-12 of the x span, every slope between
    its two edges is optimal and the left edge's is taken.  x needs 2
    distinct values.
    """
    reach = float(np.mean(x)) - 1e-12 * float(np.ptp(x))
    out = []
    for sign in (1.0, -1.0):  # the upper hull is the lower hull of (x, -y)
        hull = _lower_chain(sorted(zip(x.tolist(), (sign * y).tolist())))
        (x0, y0), (x1, y1) = next((a, b) for a, b in zip(hull, hull[1:]) if b[0] >= reach)
        out.append(sign * (y1 - y0) / (x1 - x0))
    return out[0], out[1]  # below, above


def box_dimensions(m: SetModel, scales, samples_per_scale=DEFAULT_SAMPLES, *, rng, metric="sup"):
    """Lower/upper box-dimension fits from neighborhood volumes.

    The central estimate is n minus the least-squares slope of log volume
    against log delta; the lower/upper split is n minus the slopes of the
    convex-hull edges below and above the points that span the mean log
    delta (``_support_slopes``).  Where the mean is a hull vertex, as for an
    odd number of evenly spaced scales, the edge toward finer scales is taken.
    Only ``exponent`` differs between the two fits: both carry the
    least-squares fit's ``intercept``, ``exponent_stderr`` and ``residual_max``,
    not those of their own support lines.
    """
    n = m.ambient_dim
    sc, vols = _window_volumes(m, scales, samples_per_scale, rng, metric)
    keep = vols > 0
    x = np.log(sc[keep])
    y = np.log(vols[keep])
    if x.size < 3 or np.ptp(x) == 0:
        raise ToolkitError("too few distinct scales with positive measure")
    slope, intercept, slope_se, resid = _ols_line(x, y)
    s_lo, s_hi = _support_slopes(x, y)
    dims = sorted([n - s_lo, n - s_hi])
    pts = list(zip(x.tolist(), y.tolist()))
    rmax = float(np.max(np.abs(resid)))
    lower = ScalingFit(dims[0], slope_se, intercept, rmax, pts)
    upper = ScalingFit(dims[1], slope_se, intercept, rmax, pts)
    return lower, upper


def minkowski_content(m: SetModel, d, scales, samples_per_scale=DEFAULT_SAMPLES, *, rng, metric="sup"):
    """Min and max over scales of delta**-(n-d) * vol of the neighborhood.

    Uses the classical normalization (negative exponent on delta), which
    keeps the content positive and finite for the catalogue sets.
    """
    n = m.ambient_dim
    sc, vols = _window_volumes(m, scales, samples_per_scale, rng, metric)
    contents = vols * sc ** (-(n - d))
    return float(np.min(contents)), float(np.max(contents))


def regress_lsp(log_delta, log_r, log_h):
    """Two-variable least squares log H ~ a*log delta + b*log r + const.

    This is the regression backbone of :func:`fit_lsp`, exposed so its
    correctness can be checked on synthetic power-law data with no geometry
    attached.
    """
    ld = np.asarray(log_delta, dtype=float)
    lr = np.asarray(log_r, dtype=float)
    lh = np.asarray(log_h, dtype=float)
    if np.std(ld) < 1e-12 or np.std(lr) < 1e-12:
        raise ArgumentError("delta and r grids must both vary")
    coef, se, resid = _least_squares(np.vstack([ld, lr, np.ones_like(ld)]).T, lh)
    return {
        "delta_exp": float(coef[0]),
        "r_exp": float(coef[1]),
        "intercept": float(coef[2]),
        "delta_exp_stderr": se[0],
        "r_exp_stderr": se[1],
        "residuals": resid,
    }


def fit_lsp(
    m: SetModel,
    r_grid,
    delta_ratios,
    samples=DEFAULT_SAMPLES,
    *,
    rng,
    centers_per_cell=4,
    metric="sup",
):
    """Fit the local scaling exponent kappa from neighborhood measures.

    Each (r, delta = ratio * r) cell averages vol(B(x, r) & N_delta(m)) over
    centers x on the model.  The model log H = (1-kappa)*n log delta +
    kappa*n log r + const is fitted by least squares and kappa read off the
    r coefficient.  Envelope constants are reported relative to the fitted
    exponents.

    Balls read their exact kernels directly, not ``exact_volumes``, which
    answers windows:
    - in ambient dimension 1, point sets and attractors read exact lengths
      about ``centers_per_cell`` centers drawn for each r in turn, every
      cell of every r in one ``neighborhood_length_1d`` call;
    - one point, an axis-aligned sup-metric plane, and a Euclidean plane,
      circle or sphere have a closed form that holds about every center
      (``_local_volumes``), every cell of an r in one call: no center and no
      cloud is drawn, ``samples`` and ``centers_per_cell`` go unread, and the
      fit is deterministic.
    Every other model (tilted sup planes, sup-metric circles and spheres,
    polylines, sets of several points, attractors in dimension 2 and up)
    draws centers and one Monte Carlo cloud of ``samples`` points per
    center; that one draw (and one distance pass per cloud) serves every
    delta of an r.

    ``kappa_stderr`` is the ordinary least-squares standard error.  Where
    cells are sampled, cells that share an r share their draws, so their
    errors are correlated and it understates the seed-to-seed spread of
    ``kappa_hat``.  Where every volume is exact, it measures only how far
    the volumes are from a power law in delta and r.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    delta_ratios = np.asarray(delta_ratios, dtype=float)
    if np.any(delta_ratios >= 1.0):
        raise ArgumentError("every delta must stay below its paired r")
    n = m.ambient_dim
    deltas = r_grid[:, None] * delta_ratios  # row i: the deltas of r_grid[i]
    if _reads_lengths(m):
        # centers for each r in turn, then every cell of every r in one call
        c0 = np.stack([sample_on_set(m, centers_per_cell, rng)[:, 0] for _ in r_grid])[:, None, :]
        r = r_grid[:, None, None]
        vals = neighborhood_length_1d(m, deltas[..., None], c0 - r, c0 + r)
        cells = [(v, np.zeros_like(v)) for v in vals]
    else:
        cells, clouds = [], None  # per r: vals[j, i] and errs[j, i] at delta j about center i
        for r, ds in zip(r_grid, deltas):
            vols = _local_volumes(m, ds, float(r), metric)
            if vols is not None:
                cells.append((vols[:, None], np.zeros((len(ds), 1))))
                continue
            centers = sample_on_set(m, centers_per_cell, rng)
            if clouds is None:  # every r refills the same clouds, so their pages are touched once
                clouds = np.empty((centers_per_cell, samples, n))
            # one draw per r serves every delta = ratio * r
            for c, cloud in zip(centers, clouds):
                sample_in_ball(c, r, samples, rng, metric=metric, out=cloud)
            counts = _hit_counts(m, clouds, ds, metric=metric)
            cells.append(_mc_volume(ball_volume(n, r, metric), counts.T, samples))
    rows = []
    for r, ds, (vals, errs) in zip(r_grid, deltas, cells):
        for d, v, e in zip(ds, vals, errs):
            mean = float(np.mean(v))
            if mean > 0:
                stderr = float(np.linalg.norm(e)) / len(e)
                rows.append((math.log(r), math.log(d), math.log(mean), stderr / mean, mean))
    if len(rows) < 4:
        raise ToolkitError("not enough cells with positive measure")
    lr, ld, lh, ses, hs = map(np.array, zip(*rows))
    reg = regress_lsp(ld, lr, lh)
    kappa_hat = reg["r_exp"] / n
    kappa_se = reg["r_exp_stderr"] / n
    scale = np.exp(ld * (1 - kappa_hat) * n + lr * kappa_hat * n)
    ratios = hs / scale
    return LspFit(
        exponent=reg["r_exp"],
        exponent_stderr=reg["r_exp_stderr"],
        intercept=reg["intercept"],
        residual_max=float(np.max(np.abs(reg["residuals"]))),
        points=list(zip(lr.tolist(), ld.tolist(), lh.tolist(), ses.tolist())),
        kappa_hat=float(kappa_hat),
        kappa_stderr=float(kappa_se),
        c3_hat=float(np.min(ratios)),
        c4_hat=float(np.max(ratios)),
    )

