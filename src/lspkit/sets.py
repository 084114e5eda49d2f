"""Concrete set models with distance queries, surface sampling, and isometries.

The catalogue covers point sets, affine planes, parametric manifolds
(circle / sphere / polyline), and self-similar attractors of contracting
similarity systems.  ``distance_to_set`` gives exact closed forms for every
model but attractors: a tilted plane's sup distance is the largest
|v . (x - base)| over its dual vertices v (``AffinePlane.sup_duals``), and a
polyline's is the minimum of a convex piecewise-linear function of the
segment parameter over its kinks (``_sup_segment_min``).

Attractors are measured through their cylinder tree, never through
``distance_to_set``, which refuses them.  ``_expand`` is the one engine: it
turns a frontier of word nodes (scale, linear part, offset) into their
children and reference centers.  ``cylinder_cut`` keeps expanding until
every word's contraction is at most a target; ``cut_size`` counts that cut
from the ratios alone; and ``cut_hits``, the one attractor hit test,
decides which points lie within delta of a cut center without building the
cut: it walks (block, node) pairs, then (point, node) pairs, and prunes
each node by its box, or by its hub ball when a map rotates
(``_node_bounds``).  The estimators walk it to a cut far finer than delta,
which it decides to its rounding slack, so their hits are those of the
attractor itself; a walk that needs more than a fixed number of node
visits per point, as on maps whose images overlap heavily, is refused.

Metric conventions: the ambient metric is the sup norm by default (balls are
boxes, which keeps volumes exact in the estimators) with Euclidean
selectable.  ``_norm`` is the one kernel for the norm of a difference in
the configured metric, computed as a cKDTree query computes it, and every
module calls it (Euclidean sums go through ``_sum_squares``); given the
point it measures from, it forms each difference one coordinate column at
a time, as the distances of ``distance_to_set`` do.
``distance_to_set`` measures circles and spheres in the Euclidean norm,
their natural exact geometry, whatever the metric; the attractor hit test
``cut_hits`` uses the configured metric.
Mixing the two norms only moves the constants in scaling estimates, never
the exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .errors import ArgumentError, ToolkitError

ORTHO_TOL = 1e-12
SAMPLE_TOL = 1e-9  # attractor samples use words whose cylinders are below this radius
MAX_DUAL_ZERO_SETS = 1024  # C(n, l + 1) a tilted sup plane may enumerate: any plane in n <= 12
_DUAL_ROWS = 1024  # points per block of a tilted sup plane's (rows, duals) array, 8 MB at the cap


def _as_points(x, n):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != n:
        raise ArgumentError(f"expected points in dimension {n}, got shape {pts.shape}")
    return pts


def _sum_squares(diff):
    """Squared norms of the rows of ``diff``, summed as scipy's cKDTree sums
    them: in four lanes over the first multiple of four coordinates, the
    lanes added left to right, then the rest one at a time.  Rows of up to
    seven coordinates are thus summed left to right, as ``np.sum`` sums them.
    """
    sq = diff * diff
    n = sq.shape[-1]
    head = n // 4 * 4
    for i in range(4, head):
        sq[..., i % 4] += sq[..., i]
    total = sq[..., 0]
    for i in (*range(1, min(n, 4)), *range(max(head, 4), n)):
        total += sq[..., i]
    return total


def _norm(diff, metric, origin=None):
    """Norms of the rows of ``diff`` in ``metric``, as a cKDTree query computes them.

    Sup: the largest absolute coordinate.  Euclidean: the square root of
    ``_sum_squares``.  A query bounded by delta keeps the sums below
    fl(delta**2), which every root below delta satisfies, so in both
    metrics a point hits exactly when this distance is below delta.  A
    single row gives a 0-d array.

    With an ``origin``, the norms of the rows of ``diff`` (rows, n) less
    it, held by coordinate: ``origin[i]`` is a number, or a column of one
    number per row, for axis i.  Each difference is formed one column at a
    time as its own contiguous array, which numpy runs several times faster
    than a broadcast row of a few numbers; the norms are those of the
    broadcast difference bit for bit.  A Euclidean norm of 8 or more
    coordinates takes the broadcast difference, whose squares
    ``_sum_squares`` adds in cKDTree's lanes.
    """
    euclidean = metric == "euclidean"
    if origin is not None and euclidean and diff.shape[-1] >= 8:
        diff, origin = diff - np.transpose(origin), None
    if origin is None and euclidean:
        return np.sqrt(_sum_squares(diff))
    dist = None
    for i in range(diff.shape[-1]):  # column by column: a reduction over a short last axis is slow
        if origin is None:
            col = np.abs(diff[..., i : i + 1])[..., 0]
        else:
            col = diff[:, i] - origin[i]
            if euclidean:
                np.multiply(col, col, out=col)
            else:
                np.abs(col, out=col)
        if dist is None:
            dist = col
        elif euclidean:
            dist += col
        else:
            np.maximum(dist, col, out=dist)
    return np.sqrt(dist, out=dist) if euclidean else dist


@dataclass(frozen=True)
class PointSet:
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ArgumentError("point set must be non-empty")
        object.__setattr__(self, "points", pts)

    @property
    def ambient_dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class AffinePlane:
    """Affine subspace base + span(basis rows), dim l < n.

    ``extent`` bounds the parameter window used for sampling and windowed
    volume estimates (the plane itself is unbounded).
    """

    base: np.ndarray
    basis: np.ndarray
    extent: float = 1.0
    # mask of the coordinate axes the basis spans, or None (``_spanned_axes``)
    free_axes: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if base.ndim != 1 or basis.ndim != 2 or basis.shape[1] != base.shape[0]:
            raise ArgumentError("plane basis rows must have the base's dimension")
        if not self.extent > 0:
            raise ArgumentError("plane extent must be positive")
        if basis.shape[0] >= base.shape[0]:
            raise ArgumentError("plane dimension must be below the ambient dimension")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=ORTHO_TOL):
            raise ArgumentError("basis rows must be orthonormal to 1e-12")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "free_axes", _spanned_axes(basis))

    @property
    def ambient_dim(self):
        return self.base.shape[0]

    @property
    def plane_dim(self):
        return self.basis.shape[0]

    @cached_property
    def sup_duals(self):
        """Rows v with sup distance max_v |v . (x - base)|, computed on first use:
        the vertices of {y orthogonal to the span : ||y||_1 <= 1} (l1 is the
        sup norm's dual), one per sign pair, with repeats.  Each zero set of
        n - l - 1 coordinates gives W^T z, W the orthonormal complement rows
        and z the last right singular vector of W's columns there; every vertex
        is one, and no row leaves the set, so none overshoots.
        """
        l, n = self.basis.shape
        if math.comb(n, l + 1) > MAX_DUAL_ZERO_SETS:
            raise ArgumentError(f"a tilted sup-metric plane of dimension {l} in dimension {n} has C({n}, {l + 1}) = "
                                f"{math.comb(n, l + 1)} dual zero sets, above {MAX_DUAL_ZERO_SETS}")
        comp = np.linalg.svd(self.basis, full_matrices=True)[2][l:]
        zeros = np.array(list(combinations(range(n), n - l - 1)), dtype=np.intp)
        v = np.linalg.svd(comp.T[zeros], full_matrices=True)[2][:, -1] @ comp
        return v / np.abs(v).sum(axis=1, keepdims=True)


def _round_parts(m, name, dim):
    """Store the ``center`` of the frozen circle or sphere ``m`` as a float
    vector of length ``dim``; a non-finite center or radius, or a radius of
    0 or less, is refused by name."""
    c = np.asarray(m.center, dtype=float)
    if c.shape != (dim,):
        raise ArgumentError(f"{name} lives in dimension {dim}")
    if not np.all(np.isfinite(c)):
        raise ArgumentError(f"{name} center {c.tolist()} must be finite")
    if not (math.isfinite(m.radius) and m.radius > 0):
        raise ArgumentError(f"{name} radius {m.radius!r} must be finite and above 0")
    object.__setattr__(m, "center", c)


@dataclass(frozen=True)
class Circle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        _round_parts(self, "circle", 2)

    @property
    def ambient_dim(self):
        return 2


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        _round_parts(self, "sphere", 3)

    @property
    def ambient_dim(self):
        return 3


@dataclass(frozen=True)
class Polyline:
    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.shape[0] < 2:
            raise ArgumentError("polyline needs >= 2 vertices")
        object.__setattr__(self, "vertices", v)

    @property
    def ambient_dim(self):
        return self.vertices.shape[1]


def _rigid_parts(m):
    """Store the ``translation`` and ``rotation`` of the frozen map ``m`` as
    float arrays: a vector, and None or an orthogonal matrix of its size."""
    t = np.asarray(m.translation, dtype=float)
    if t.ndim != 1:
        raise ArgumentError("translation must be a vector")
    object.__setattr__(m, "translation", t)
    if m.rotation is not None:
        rot = np.asarray(m.rotation, dtype=float)
        if rot.shape != (len(t), len(t)) or not np.allclose(rot @ rot.T, np.eye(len(t)), atol=ORTHO_TOL):
            raise ArgumentError(f"rotation must be an orthogonal {len(t)} x {len(t)} matrix to 1e-12")
        object.__setattr__(m, "rotation", rot)


@dataclass(frozen=True)
class IFSMap:
    """Contracting similarity x -> ratio * rotation @ x + translation."""

    ratio: float
    translation: np.ndarray
    rotation: np.ndarray | None = None

    def __post_init__(self):
        _rigid_parts(self)
        if not (0 < self.ratio < 1):
            raise ArgumentError("similarity ratio must lie in (0, 1)")

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.rotation is not None:
            x = x @ self.rotation.T
        return self.ratio * x + self.translation


@dataclass(frozen=True)
class IFS:
    maps: tuple
    osc_declared: bool = True

    def __post_init__(self):
        maps = tuple(self.maps)
        if len(maps) < 2:
            raise ArgumentError("an IFS needs at least 2 maps")
        if len({m.translation.shape for m in maps}) > 1:
            raise ArgumentError("the maps of an IFS must share one dimension")
        object.__setattr__(self, "maps", maps)

    @property
    def ambient_dim(self):
        return self.maps[0].translation.shape[0]

    @property
    def ratios(self):
        return np.array([m.ratio for m in self.maps])


@dataclass(frozen=True)
class IFSAttractor:
    ifs: IFS

    @property
    def ambient_dim(self):
        return self.ifs.ambient_dim


SetModel = PointSet | AffinePlane | Circle | Sphere | Polyline | IFSAttractor


@dataclass(frozen=True)
class Isometry:
    """Rigid motion x -> rotation @ x + translation."""

    translation: np.ndarray
    rotation: np.ndarray | None = None

    def __post_init__(self):
        _rigid_parts(self)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.rotation is not None:
            x = x @ self.rotation.T
        return x + self.translation


# ---------------------------------------------------------------------------
# cylinder tree: one frontier engine for word cuts and hit tests


def _invariant_ball(ifs: IFS, maps):
    """A Euclidean ball B(c, rho) containing the attractor, centered at the
    mean c of the fixed points of ``maps``; rho = max_i |phi_i(c) - c| /
    (1 - max ratio) makes every map send the ball into itself."""
    eye = np.eye(ifs.ambient_dim)
    fixed = [
        np.linalg.solve(eye - m.ratio * (m.rotation if m.rotation is not None else eye), m.translation)
        for m in maps
    ]
    c = np.mean(fixed, axis=0)
    rho = max(np.linalg.norm(m.apply(c) - c) for m in ifs.maps) / (1.0 - float(np.max(ifs.ratios)))
    return c, max(rho, 1e-300)


def attractor_bounds(ifs: IFS):
    """A Euclidean ball B(z0, R0) containing the attractor, z0 on it: z0 is
    the fixed point of the first map."""
    return _invariant_ball(ifs, ifs.maps[:1])


def _cylinder_tree(ifs: IFS):
    """Per-map (ratios, linear parts, translations) and the root node.

    A node is (scales, linear parts, offsets), its offsets held by
    coordinate, one row per axis.  When no map rotates, the linear parts are None: a word's linear part is
    then its contraction product times the identity, carried as that scalar.
    """
    n = ifs.ambient_dim
    trans = np.stack([m.translation for m in ifs.maps])
    rmats = mats = None
    if any(m.rotation is not None for m in ifs.maps):
        eye = np.eye(n)
        rmats = np.stack([m.ratio * (m.rotation if m.rotation is not None else eye) for m in ifs.maps])
        mats = eye[None, :, :]
    return (ifs.ratios, rmats, trans), (np.ones(1), mats, np.zeros((n, 1)))


def _expand(nodes, parts, z0):
    """Children of the live nodes (scales, linear parts, offsets).

    Child ``a * p + i`` composes parent ``i`` of the p parents with map
    ``a``.  Returns the child nodes and each child's reference center, its
    image of ``z0``: a point of the attractor at the middle of a ball of
    radius scale * r0 that contains the child cylinder.  Offsets and
    centers are held by coordinate, (n, children), so that each step reads
    and writes whole rows, which numpy runs several times faster than
    rows of n numbers.
    """
    scales, mats, offs = nodes
    ratios, rmats, trans = parts
    n = offs.shape[0]
    s2 = np.multiply.outer(ratios, scales).reshape(-1)
    if mats is None:
        m2 = None
        o2 = np.multiply.outer(trans.T, scales)
        o2 += offs[:, None, :]
        o2 = o2.reshape(n, -1)
        centers = np.multiply.outer(z0, s2)
        centers += o2
    else:
        # m2 = mats @ rmats, summed over j in order as einsum sums it; the
        # matrix-vector products are einsum's, whose sums run in another
        # order, taken parent-major (the layout of the pinned results) and
        # then put in map-major order
        m2 = rmats[:, None, None, 0, :] * mats[None, :, :, 0, None]
        for j in range(1, n):
            m2 += rmats[:, None, None, j, :] * mats[None, :, :, j, None]
        m2 = m2.reshape(-1, n, n)
        k, p = len(ratios), len(scales)
        parent_major = np.arange(k * p).reshape(k, p).T.reshape(-1)
        map_major = np.arange(k * p).reshape(p, k).T.reshape(-1)
        o2 = (np.einsum("kij,mj->kmi", mats, trans) + offs.T[:, None, :]).reshape(-1, n)
        centers = o2 + np.einsum("kij,j->ki", m2[parent_major], z0)
        o2 = np.ascontiguousarray(o2[map_major].T)
        centers = np.ascontiguousarray(centers[map_major].T)
    return (s2, m2, o2), centers


def _select(nodes, rows):
    """The nodes at ``rows``, a mask or an index array."""
    scales, mats, offs = nodes
    if rows.dtype == bool:
        rows = np.flatnonzero(rows)
    return scales[rows], None if mats is None else mats[rows], np.take(offs, rows, axis=1)


def _join(parts):
    """The nodes of each of ``parts`` in turn."""
    scales, mats, offs = zip(*parts)
    return np.concatenate(scales), None if mats[0] is None else np.concatenate(mats), np.concatenate(offs, axis=1)


def cut_size(ifs: IFS, target, cap=10_000_000):
    """Number of balls ``cylinder_cut(ifs, target)`` returns, from the ratios alone.

    A node's children depend only on its float scale, so the frontier is
    carried as a table from scale to multiplicity and each level costs one
    entry per distinct scale (one for equal ratios).  The count is exact.
    Raises ``cylinder_cut``'s cap error when a level's children plus the
    words already emitted exceed ``cap``, before anything is expanded.
    """
    if not (0 < target):
        raise ArgumentError("target must be positive")
    if target >= 1.0:
        return 1
    ratios = ifs.ratios
    scales, mult = np.ones(1), np.ones(1, dtype=np.int64)
    emitted = 0
    while scales.size:
        s2 = (scales[:, None] * ratios[None, :]).reshape(-1)
        m2 = np.repeat(mult, ratios.size)
        if int(m2.sum()) + emitted > cap:
            raise ArgumentError(f"cylinder cut exceeds cap {cap}")
        fin = s2 <= target
        emitted += int(m2[fin].sum())
        scales, inv = np.unique(s2[~fin], return_inverse=True)
        mult = np.zeros(scales.size, dtype=np.int64)
        np.add.at(mult, inv, m2[~fin])
    return emitted


def cylinder_cut(ifs: IFS, target, cap=10_000_000):
    """Bounding balls (centers, radii) of the word cut at contraction ``target``.

    Expands the cylinder-tree frontier level by level and emits the words
    whose contraction product first drops to <= target, so the returned
    radii are at most ``target * r0`` and the balls jointly cover the
    attractor.  A cut of more than ``cap`` balls raises before any level
    is expanded (``cut_size``).
    """
    cut_size(ifs, target, cap)
    z0, r0 = attractor_bounds(ifs)
    if target >= 1.0:
        return z0[None, :].copy(), np.array([r0])
    parts, nodes = _cylinder_tree(ifs)
    k = len(ifs.maps)
    done_c, done_s = [], []
    while nodes[0].size:
        nodes, centers = _expand(nodes, parts, z0)
        # into word order: child a * p + i extends parent i by map a
        order = np.arange(centers.shape[1]).reshape(k, -1).T.reshape(-1)
        nodes = _select(nodes, order)
        scales = nodes[0]
        fin = scales <= target
        done_s.append(scales[fin])
        done_c.append(np.take(centers, order[fin], axis=1).T)
        nodes = _select(nodes, ~fin)
    del nodes, scales, centers  # free the last level before joining
    return np.concatenate(done_c, axis=0), np.concatenate(done_s) * r0


_WALK_BLOCK = 32  # consecutive query points per block of the block phase
_PAIR_CHUNK = 32768  # most pairs a walk step expands to, and most points handed down at once
_PAIR_BUDGET = 256  # most (block or point, node) pairs a hit test may expand per point


def _node_bounds(ifs: IFS, z0, metric):
    """Distance from boxes to the nodes' parts of the attractor, and the
    size of the attractor's bound.

    When no map rotates, the attractor lies in the box of the maps' fixed
    points p_a = t_a / (1 - r_a): its support function is
    h(u) = max_a <p_a, u>, since max_a (<t_a, u> + r_a h(u)) = h(u), the
    largest term being the one of the map whose <p_a, u> is largest.  A
    node x -> s x + o maps that box to s * box + o, so a node's part of the
    attractor lies in its box.  When a map rotates, the bound is the hub
    ball B(hub, rho) about the mean of all the fixed points
    (``_invariant_ball``), mapped to the ball of radius s * rho about the
    node's image of the hub.

    The returned ``gap(dlo, dhi, nodes)`` is the ``metric`` distance from
    each box [c + dlo, c + dhi] to its node's bound, c the node's reference
    center and dlo, dhi held by coordinate.  Each norm is at most the
    Euclidean one, so the distance to a Euclidean ball is at least the
    distance to its center less its radius.
    """
    if all(m.rotation is None for m in ifs.maps):
        fixed = np.stack([m.translation / (1.0 - m.ratio) for m in ifs.maps])
        lo, hi, rho = fixed.min(axis=0) - z0, fixed.max(axis=0) - z0, 0.0
        size = float(np.max(hi - lo))
    else:
        hub, rho = _invariant_ball(ifs, ifs.maps)
        lo = hi = hub - z0
        size = 2.0 * rho

    def gap(dlo, dhi, nodes):
        scales, mats, _ = nodes
        h = None if mats is None else (mats @ lo).T  # the nodes' images of hub - z0
        out = None
        for i in range(len(lo)):
            if h is None:
                g = np.maximum(scales * lo[i] - dhi[i], dlo[i] - scales * hi[i])
            else:
                g = np.maximum(h[i] - dhi[i], dlo[i] - h[i])
            np.maximum(g, 0.0, out=g)
            if out is None:
                out = g * g if metric == "euclidean" else g
            elif metric == "euclidean":
                out += g * g
            else:
                np.maximum(out, g, out=out)
        if metric == "euclidean":
            np.sqrt(out, out=out)
        return out if h is None else out - scales * rho

    return gap, size


def cut_hits(ifs: IFS, pts, delta, target, metric="sup"):
    """Mask of the points within ``delta`` of a center of ``cylinder_cut(ifs, target)``.

    Walks the cylinder tree against the points instead of building the
    cut, so the work follows the points and the depth, not the cut size.
    Each node of scale s has a bound that holds its part of the attractor
    (``_node_bounds``: its box, or its hub ball when a map rotates), so the
    centers of all its cut words lie there too, and a reference center c,
    its image of z0.  ``slack`` (1e-9 delta plus 1e-12 of |z0| + r0)
    absorbs the rounding of the compositions and of the distances.  A pair
    drops once its block's box or its point lies farther than ``reach``
    from the node's bound.

    - Block phase: the points are taken ``_WALK_BLOCK`` at a time in the
      order given, each block with its bounding box, and (block, node)
      pairs descend the tree.  The whole block hits once its farthest
      corner lies within delta - slack of c: the word that extends the
      node by map 0 until it reaches the cut has the center c up to
      rounding, since z0 is the fixed point of map 0.  A pair goes down to
      the point phase when the node is a cut word or no larger than the
      block.
    - Point phase: (point, node) pairs descend the same way.  A point hits
      once |x - c| < delta - slack at a node above the cut and once
      ``_norm`` is below delta at a cut word.

    A cut whose balls are wider than the slack (target * r0 > slack) is
    decided exactly: ``reach`` is delta + slack, each cut center is the one
    ``cylinder_cut`` emits bit for bit (children come from ``_expand`` on
    the pairs' own nodes), and the mask equals a bounded cKDTree query on
    the cut, whatever the order of the points.  A finer cut resolves the
    attractor A within the slack, and is decided to it: ``reach`` is just
    below delta - slack, so a hit lies within delta of A and a miss at
    least delta - slack from it (less rounding).  Deciding the band between
    exactly would follow a point at distance delta from a face of A that is
    flat along a face of the sup ball down to every cut word on that face.

    Both phases descend depth first and expand at most ``_PAIR_CHUNK`` // k
    pairs at a step, and the pairs handed down are walked once their blocks
    hold ``_PAIR_CHUNK`` points, so the arrays stay small however many
    points there are; points that lie close to their neighbours in the
    order given make tighter blocks and so a faster walk.  A call expands
    at most ``_PAIR_BUDGET`` pairs per point, and raises ``ArgumentError``
    past it: maps whose images overlap heavily keep too many nodes near
    each point at every depth.
    """
    z0, r0 = attractor_bounds(ifs)
    pts = np.asarray(pts, dtype=float)
    if target >= 1.0:
        return _norm(pts, metric, z0) < delta
    hit = np.zeros(len(pts), dtype=bool)
    if not len(pts):
        return hit
    slack = 1e-9 * delta + 1e-12 * (float(np.linalg.norm(z0)) + r0)
    reach = delta + slack if target * r0 > slack else np.nextafter(delta - slack, 0.0)
    gap, size = _node_bounds(ifs, z0, metric)
    parts, root = _cylinder_tree(ifs)
    k = len(ifs.maps)
    x = np.ascontiguousarray(pts.T)  # by coordinate, as the nodes are
    budget = _PAIR_BUDGET * len(pts)

    starts = np.arange(0, len(pts), _WALK_BLOCK)
    lo = np.minimum.reduceat(x, starts, axis=1)
    hi = np.maximum.reduceat(x, starts, axis=1)
    width = np.max(hi - lo, axis=0)
    full = np.zeros(len(starts), dtype=bool)  # blocks that hit whole
    step = max(1, _PAIR_CHUNK // k)

    def walk(who, nodes, centers, test, done):
        """Depth first from the pairs given: ``test`` marks hits and returns
        the rows to expand, which wait on a stack; each step expands at most
        ``step`` pairs off its top, those of points or blocks not ``done``."""
        nonlocal budget
        stack = []
        while True:
            rows = test(who, nodes, centers)
            if rows.size:
                stack.append((who[rows], _select(nodes, rows)))
            if not stack:
                return
            who, nodes = stack.pop()
            while stack and who.size + stack[-1][0].size <= step:
                more, extra = stack.pop()
                who, nodes = np.concatenate([who, more]), _join([nodes, extra])
            if who.size > step:
                stack.append((who[step:], _select(nodes, np.arange(step, who.size))))
                who, nodes = who[:step], _select(nodes, np.arange(step))
            rows = np.flatnonzero(~done[who])
            budget -= rows.size
            if budget < 0:
                n = len(z0)
                overlap = float(np.sum(ifs.ratios**n))
                raise ArgumentError(f"attractor hit test walked more than {_PAIR_BUDGET} cylinder pairs per point: "
                                    f"the maps' images overlap (sum of ratio**{n} = {overlap:.3g}; above 1 they must)")
            nodes, centers = _expand(_select(nodes, rows), parts, z0)
            who = np.tile(who[rows], k)

    def test_points(who, nodes, centers):
        diff = np.take(x, who, axis=1)
        diff -= centers
        leaf = nodes[0] <= target
        hit[who[_norm(diff.T, metric) < np.where(leaf, delta, delta - slack)]] = True
        keep = gap(diff, diff, nodes) <= reach
        keep &= ~leaf
        return np.flatnonzero(keep)

    pending = []  # (block, node) pairs handed down, with their nodes' reference centers

    def hand_down():
        """Walk a pair per point not yet hit of each pending pair's block, at
        most _PAIR_CHUNK of them at a time."""
        block, nodes, centers = zip(*pending)
        block, nodes, centers = np.concatenate(block), _join(nodes), np.concatenate(centers, axis=1)
        pending.clear()
        first = block * _WALK_BLOCK
        count = np.minimum(len(pts) - first, _WALK_BLOCK)
        count[full[block]] = 0
        ends = np.cumsum(count)
        begin = ends - count
        i = 0
        while i < len(block):
            j = max(int(np.searchsorted(ends, begin[i] + _PAIR_CHUNK, side="right")), i + 1)
            pair = np.repeat(np.arange(i, j), count[i:j])
            who = first[pair] + np.arange(pair.size) - (begin[pair] - begin[i])
            keep = np.flatnonzero(~hit[who])
            pair = pair[keep]
            walk(who[keep], _select(nodes, pair), np.take(centers, pair, axis=1), test_points, hit)
            i = j

    def test_blocks(who, nodes, centers):
        scales = nodes[0]
        dlo = np.take(lo, who, axis=1)
        dlo -= centers
        dhi = np.take(hi, who, axis=1)
        dhi -= centers
        full[who[_norm(np.maximum(-dlo, dhi).T, metric) < delta - slack]] = True
        keep = gap(dlo, dhi, nodes) <= reach
        keep &= ~full[who]
        deep = keep & ((scales <= target) | (scales * size <= width[who]))
        rows = np.flatnonzero(deep)
        if rows.size:
            pending.append((who[rows], _select(nodes, rows), np.take(centers, rows, axis=1)))
            if sum(len(p[0]) for p in pending) * _WALK_BLOCK >= _PAIR_CHUNK:
                hand_down()
        keep &= ~deep
        return np.flatnonzero(keep)

    blocks = np.arange(len(starts))
    walk(blocks, _select(root, np.zeros_like(blocks)), np.repeat(z0[:, None], len(starts), axis=1), test_blocks, full)
    if pending:
        hand_down()
    hit |= np.repeat(full, _WALK_BLOCK)[: len(pts)]
    return hit


# ---------------------------------------------------------------------------
# distances


def _spanned_axes(basis):
    """Mask of the coordinate axes spanned by orthonormal ``basis`` rows, or
    None when the span is not a coordinate subspace.  The test is exact: a
    span tilted off the axes by as little as 1e-12 is tilted, as the sup
    distance read from the fixed axes alone would be off by as much."""
    mags = np.abs(basis)
    free = mags.max(axis=0) == 1.0
    if np.count_nonzero(free) == len(basis) and not np.any(mags[:, ~free]):
        return free
    return None


def _sup_segment_min(cs, ds):
    """min over t in [0, 1] of max_i |c_i - t d_i|.

    ``cs`` and ``ds`` are held by coordinate: ``cs[i]`` holds the query
    offsets along axis i and ``ds[i]`` the segment direction's, broadcast
    against them.  The objective is convex and piecewise linear in t, so
    its minimum sits at t = 0 or 1 or at a kink: a zero c_i / d_i or a
    crossing (c_i -+ c_j) / (d_i -+ d_j), clipped to [0, 1].  Each
    candidate is scored one coordinate at a time into a running minimum, so
    no array is larger than an offset column.  A zero denominator gives an
    infinite candidate, which clips to an end, or a NaN one, which scores
    NaN and never wins (``fmin`` skips NaN).
    """
    n = len(cs)

    def candidates():
        yield from (0.0, 1.0)
        for i in range(n):
            yield cs[i] / ds[i]
            for j in range(i + 1, n):
                yield (cs[i] - cs[j]) / (ds[i] - ds[j])
                yield (cs[i] + cs[j]) / (ds[i] + ds[j])

    best = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in candidates():
            t = np.clip(t, 0.0, 1.0)
            f = np.abs(cs[0] - t * ds[0])
            for ci, di in zip(cs[1:], ds[1:]):
                np.maximum(f, np.abs(ci - t * di), out=f)
            best = f if best is None else np.fmin(best, f, out=best)
    return best


def _plane_distance(m: AffinePlane, pts, metric):
    if metric != "euclidean" and m.free_axes is not None:
        # axis-aligned span: free coordinates drop out of the sup distance
        fixed = ~m.free_axes
        return _norm(pts[:, fixed], "sup", m.base[fixed])
    if metric == "euclidean":
        diff = pts - m.base
        return _norm(diff, metric, ((diff @ m.basis.T) @ m.basis).T)  # less its projection on the span
    duals = m.sup_duals
    cols = [pts[:, i] - m.base[i] for i in range(len(m.base))]
    out = np.empty(len(pts))
    for lo in range(0, len(pts), _DUAL_ROWS):
        block = np.s_[lo : lo + _DUAL_ROWS]
        dots = cols[0][block, None] * duals[:, 0]
        for i in range(1, len(cols)):  # coordinate by coordinate: the same bits in any block
            dots += cols[i][block, None] * duals[:, i]
        np.abs(dots, out=dots).max(axis=1, out=out[block])
    return out


def _polyline_distance(m: Polyline, pts, metric):
    """The least distance to a segment, taken one segment at a time.

    Euclidean: to the nearest point a + t (b - a), t clipped to [0, 1].
    Sup: axis-aligned segments are boxes, whose nearest point clips each
    coordinate (a number on the axes the segment does not span); a tilted
    one reads ``_sup_segment_min``.
    """
    a = m.vertices[:-1]
    b = m.vertices[1:]
    seg = b - a  # (nseg, n)
    n = seg.shape[1]
    boxes = metric != "euclidean" and np.all(np.count_nonzero(seg, axis=1) <= 1)
    denom = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
    best = None
    for aj, sj, lo, hi, dj in zip(a, seg, np.minimum(a, b), np.maximum(a, b), denom):
        if metric == "euclidean":
            t = np.clip(np.sum((pts - aj) * sj, axis=1) / dj, 0.0, 1.0)
            d = _norm(pts, metric, [aj[i] + t * sj[i] for i in range(n)])
        elif boxes:
            d = _norm(pts, metric, [np.clip(pts[:, i], lo[i], hi[i]) if lo[i] < hi[i] else lo[i] for i in range(n)])
        else:
            d = _sup_segment_min([pts[:, i] - aj[i] for i in range(n)], sj)
        best = d if best is None else np.minimum(best, d, out=best)
    return best


def distance_to_set(m: SetModel, x, metric="sup"):
    """Distance from x (one point or a batch) to the model.

    Exact closed forms / projections for every model but an attractor,
    which raises ``ArgumentError``.  Circles and spheres use the Euclidean
    set-distance regardless of ``metric`` (see module docstring).

    The kernels work one coordinate column at a time: ``_norm`` forms each
    difference from a center, a point, a plane's base or a segment's
    nearest point as its own column, and a point set is measured one point
    and a polyline one segment at a time into a running minimum, so no
    (rows, points or segments, n) array is formed.  The distances are
    those of the broadcast expressions bit for bit (Euclidean plane and
    polyline residuals summed by ``_norm``).
    """
    if isinstance(m, IFSAttractor):
        raise ArgumentError("distance_to_set does not measure an IFS attractor; use cylinder_cut or cut_hits")
    pts = _as_points(x, m.ambient_dim)
    if isinstance(m, PointSet):
        d = _norm(pts, metric, m.points[0])
        for p in m.points[1:]:
            np.minimum(d, _norm(pts, metric, p), out=d)
    elif isinstance(m, AffinePlane):
        d = _plane_distance(m, pts, metric)
    elif isinstance(m, Circle) or isinstance(m, Sphere):
        d = _norm(pts, "euclidean", m.center)
        d -= m.radius
        np.abs(d, out=d)
    elif isinstance(m, Polyline):
        d = _polyline_distance(m, pts, metric)
    else:
        raise ArgumentError(f"unknown set model {type(m).__name__}")
    return d if np.ndim(x) == 2 else float(d[0])


# ---------------------------------------------------------------------------
# sampling


def sample_on_set(m: SetModel, k, rng):
    """k points on (or within SAMPLE_TOL of) the model."""
    if k < 1:
        raise ArgumentError("k must be >= 1")
    n = m.ambient_dim
    if isinstance(m, PointSet):
        idx = rng.integers(0, len(m.points), size=k)
        return m.points[idx].copy()
    if isinstance(m, AffinePlane):
        u = rng.uniform(-m.extent, m.extent, size=(k, m.plane_dim))
        return m.base + u @ m.basis
    if isinstance(m, Circle):
        theta = rng.uniform(0.0, 2 * math.pi, size=k)
        return m.center + m.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if isinstance(m, Sphere):
        v = rng.normal(size=(k, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return m.center + m.radius * v
    if isinstance(m, Polyline):
        seg = np.diff(m.vertices, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        s = rng.uniform(0.0, cum[-1], size=k)
        j = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
        t = (s - cum[j]) / np.maximum(lengths[j], 1e-300)
        return m.vertices[j] + t[:, None] * seg[j]
    if isinstance(m, IFSAttractor):
        ifs = m.ifs
        z0, r0 = attractor_bounds(ifs)
        rmax = float(np.max(ifs.ratios))
        depth = max(1, math.ceil(math.log(SAMPLE_TOL / max(r0, SAMPLE_TOL)) / math.log(rmax)))
        words = rng.integers(0, len(ifs.maps), size=(k, depth))
        pts = np.tile(z0, (k, 1))
        # z0 lies on the attractor, so word images stay exactly on it
        if all(mp.rotation is None for mp in ifs.maps):
            # one gather per level: IFSMap.apply's multiply, then add
            ratios, trans = ifs.ratios, np.stack([mp.translation for mp in ifs.maps])
            for col in range(depth - 1, -1, -1):
                w = words[:, col]
                pts = ratios[w][:, None] * pts + trans[w]
            return pts
        for col in range(depth - 1, -1, -1):
            for a, mp in enumerate(ifs.maps):
                mask = words[:, col] == a
                if np.any(mask):
                    pts[mask] = mp.apply(pts[mask])
        return pts
    raise ArgumentError(f"unknown set model {type(m).__name__}")


def model_window(m: SetModel, margin=0.0):
    """Axis-aligned bounding window (lo, hi) enclosing the model plus margin.

    Planes are windowed to their declared extent; attractors to their
    invariant bounding ball.
    """
    if isinstance(m, PointSet):
        lo, hi = m.points.min(axis=0), m.points.max(axis=0)
    elif isinstance(m, AffinePlane):
        corners = np.array(list(product((-m.extent, m.extent), repeat=m.plane_dim)))
        pts = m.base + corners @ m.basis
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    elif isinstance(m, (Circle, Sphere)):
        lo, hi = m.center - m.radius, m.center + m.radius
    elif isinstance(m, Polyline):
        lo, hi = m.vertices.min(axis=0), m.vertices.max(axis=0)
    elif isinstance(m, IFSAttractor):
        z0, r0 = attractor_bounds(m.ifs)
        lo, hi = z0 - r0, z0 + r0
    else:
        raise ArgumentError(f"unknown set model {type(m).__name__}")
    return lo - margin, hi + margin


# ---------------------------------------------------------------------------
# serialization


def model_from_json(obj) -> SetModel:
    """The set model that ``obj`` describes; a missing key, or rows of
    unequal lengths, raise ``ArgumentError``."""
    variant = obj.get("variant")
    try:
        if variant == "points":
            return PointSet(np.array(obj["points"], dtype=float))
        if variant == "plane":
            return AffinePlane(
                np.array(obj["base"], dtype=float),
                np.array(obj["basis"], dtype=float),
                extent=float(obj.get("extent", 1.0)),
            )
        if variant == "circle":
            return Circle(np.array(obj["center"], dtype=float), float(obj["radius"]))
        if variant == "sphere":
            return Sphere(np.array(obj["center"], dtype=float), float(obj["radius"]))
        if variant == "polyline":
            return Polyline(np.array(obj["vertices"], dtype=float))
        if variant == "ifs":
            maps = tuple(
                IFSMap(
                    float(e["ratio"]),
                    np.array(e["translation"], dtype=float),
                    np.array(e["rotation"], dtype=float) if "rotation" in e else None,
                )
                for e in obj["maps"]
            )
            return IFSAttractor(IFS(maps, bool(obj.get("osc", True))))
    except KeyError as exc:
        raise ArgumentError(f"a {variant} model needs the key {exc}") from exc
    except ValueError as exc:  # np.array of rows of unequal lengths; the models raise ToolkitErrors
        if isinstance(exc, ToolkitError):
            raise
        raise ArgumentError(f"a {variant} model holds rows of unequal lengths") from exc
    raise ArgumentError(f"unknown model variant {variant!r}")
