"""Concrete set models with distance queries, surface sampling, and isometries.

The catalogue covers point sets, affine planes, parametric manifolds
(circle / sphere / polyline), and self-similar attractors of contracting
similarity systems.  Distances are exact closed forms except for attractors,
where a branch-and-bound over cylinder words returns a value within a caller
tolerance of the true distance, and sup-metric planes in n >= 3 that are
neither hyperplanes nor coordinate planes, which solve one Chebyshev LP per
point.  The sup-metric polyline distance is an exact closed form: the
minimum of a convex piecewise-linear function of the segment parameter over
its kinks (``_sup_segment_min``).

Attractors have one cylinder-tree engine: ``_expand`` turns a frontier of
word nodes (scale, linear part, offset) into their children and reference
centers.  ``cylinder_cut`` keeps expanding until every word's contraction
is at most a target, and ``distance_to_attractor`` expands only the nodes
that can still beat a query point's best distance.

Metric conventions: the ambient metric is the sup norm by default (balls are
boxes, which keeps volumes exact in the estimators) with Euclidean
selectable.  Circles, spheres, and attractors always measure set-distance in
the Euclidean norm, their natural exact geometry; mixing the two norms only
moves the constants in scaling estimates, never the exponents.  Torus
variants reduce per coordinate mod 1 and take the minimum over unit shifts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ArgumentError, DomainError, UnsupportedCombination

ORTHO_TOL = 1e-12


def _as_points(x, n):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != n:
        raise ArgumentError(f"expected points in dimension {n}, got shape {pts.shape}")
    return pts


def _norm(diff, metric):
    if metric == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=-1))
    return np.max(np.abs(diff), axis=-1)


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

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.shape[0] >= base.shape[0]:
            raise ArgumentError("plane dimension must be below the ambient dimension")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(basis.shape[0]), atol=ORTHO_TOL):
            raise ArgumentError("basis rows must be orthonormal to 1e-12")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self):
        return self.base.shape[0]

    @property
    def plane_dim(self):
        return self.basis.shape[0]


@dataclass(frozen=True)
class Circle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.shape != (2,):
            raise ArgumentError("circle lives in dimension 2")
        if self.radius <= 0:
            raise ArgumentError("radius must be positive")
        object.__setattr__(self, "center", c)

    @property
    def ambient_dim(self):
        return 2


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.shape != (3,):
            raise ArgumentError("sphere lives in dimension 3")
        if self.radius <= 0:
            raise ArgumentError("radius must be positive")
        object.__setattr__(self, "center", c)

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


@dataclass(frozen=True)
class IFSMap:
    """Contracting similarity x -> ratio * rotation @ x + translation."""

    ratio: float
    translation: np.ndarray
    rotation: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "translation", t)
        if not (0 < self.ratio < 1):
            raise ArgumentError("similarity ratio must lie in (0, 1)")
        if self.rotation is not None:
            rot = np.asarray(self.rotation, dtype=float)
            if not np.allclose(rot @ rot.T, np.eye(rot.shape[0]), atol=ORTHO_TOL):
                raise ArgumentError("rotation must be orthogonal to 1e-12")
            object.__setattr__(self, "rotation", rot)

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
    """Rigid motion x -> rotation @ x + translation, optionally mod 1 (torus)."""

    translation: np.ndarray
    rotation: np.ndarray | None = None
    wrap: bool = False

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "translation", t)
        if self.rotation is not None:
            rot = np.asarray(self.rotation, dtype=float)
            if not np.allclose(rot @ rot.T, np.eye(rot.shape[0]), atol=ORTHO_TOL):
                raise ArgumentError("rotation must be orthogonal to 1e-12")
            object.__setattr__(self, "rotation", rot)

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.rotation is not None:
            x = x @ self.rotation.T
        out = x + self.translation
        if self.wrap:
            out = np.mod(out, 1.0)
        return out


def _is_signed_permutation(rot, tol=1e-9):
    mat = np.abs(np.asarray(rot))
    return bool(
        np.all(np.isclose(mat.sum(axis=0), 1.0, atol=tol))
        and np.all(np.isclose(mat.max(axis=0), 1.0, atol=tol))
    )


# ---------------------------------------------------------------------------
# cylinder tree: one frontier engine for word cuts and attractor distances


def attractor_bounds(ifs: IFS):
    """A Euclidean ball B(z0, R0) containing the attractor, z0 on it.

    z0 is the fixed point of the first map (a point of the attractor), and
    R0 = max_i |phi_i(z0) - z0| / (1 - max ratio) makes the ball invariant.
    """
    m0 = ifs.maps[0]
    n = ifs.ambient_dim
    a = m0.rotation if m0.rotation is not None else np.eye(n)
    z0 = np.linalg.solve(np.eye(n) - m0.ratio * a, m0.translation)
    rmax = float(np.max(ifs.ratios))
    shifts = [np.linalg.norm(m.apply(z0) - z0) for m in ifs.maps]
    r0 = max(shifts) / (1.0 - rmax)
    return z0, max(r0, 1e-300)


def _cylinder_tree(ifs: IFS):
    """Per-map (ratios, linear parts, translations) and the root node.

    When no map rotates, the linear parts are None: a word's linear part is
    then its contraction product times the identity, carried as that scalar.
    """
    n = ifs.ambient_dim
    trans = np.stack([m.translation for m in ifs.maps])
    rmats = mats = None
    if any(m.rotation is not None for m in ifs.maps):
        eye = np.eye(n)
        rmats = np.stack([m.ratio * (m.rotation if m.rotation is not None else eye) for m in ifs.maps])
        mats = eye[None, :, :]
    return (ifs.ratios, rmats, trans), (np.ones(1), mats, np.zeros((1, n)))


def _expand(nodes, parts, z0):
    """Children of the live nodes (scales, linear parts, offsets).

    Child ``p * k + a`` composes parent ``p`` with map ``a``.  Returns the
    child nodes and each child's reference center, its image of ``z0``: a
    point of the attractor at the middle of a ball of radius scale * r0 that
    contains the child cylinder.
    """
    scales, mats, offs = nodes
    ratios, rmats, trans = parts
    n = offs.shape[1]
    s2 = (scales[:, None] * ratios[None, :]).reshape(-1)
    if mats is None:
        m2 = None
        o2 = scales[:, None, None] * trans[None, :, :]
        o2 += offs[:, None, :]
        o2 = o2.reshape(-1, n)
        centers = s2[:, None] * z0[None, :]
        centers += o2
    else:
        m2 = np.einsum("kij,mjl->kmil", mats, rmats).reshape(-1, n, n)
        o2 = (np.einsum("kij,mj->kmi", mats, trans) + offs[:, None, :]).reshape(-1, n)
        centers = o2 + np.einsum("kij,j->ki", m2, z0)
    return (s2, m2, o2), centers


def _select(nodes, mask):
    return tuple(None if a is None else a[mask] for a in nodes)


def cylinder_cut(ifs: IFS, target, cap=10_000_000):
    """Bounding balls (centers, radii) of the word cut at contraction ``target``.

    Expands the cylinder-tree frontier level by level and emits the words
    whose contraction product first drops to <= target, so the returned
    radii are at most ``target * r0`` and the balls jointly cover the
    attractor.
    """
    if not (0 < target):
        raise ArgumentError("target must be positive")
    z0, r0 = attractor_bounds(ifs)
    if target >= 1.0:
        return z0[None, :].copy(), np.array([r0])
    parts, nodes = _cylinder_tree(ifs)
    done_c, done_s = [], []
    emitted = 0
    while nodes[0].size:
        nodes, centers = _expand(nodes, parts, z0)
        scales = nodes[0]
        if scales.size + emitted > cap:
            raise ArgumentError(f"cylinder cut exceeds cap {cap}")
        fin = scales <= target
        if fin.all():  # the whole level lands (equal ratios): keep it uncopied
            done_s.append(scales)
            done_c.append(centers)
            break
        if fin.any():
            done_s.append(scales[fin])
            done_c.append(centers[fin])
            emitted += done_s[-1].size
            nodes = _select(nodes, ~fin)
    del nodes, scales, centers  # free the last level before joining
    if len(done_c) == 1:
        return done_c[0], done_s[0] * r0
    return np.concatenate(done_c, axis=0), np.concatenate(done_s) * r0


_QUERY_BLOCK = 32  # query points sharing one frontier
_TABLE_ROWS = 4096  # frontier children per point-distance table


def distance_to_attractor(model: IFSAttractor, pts, tol=1e-9):
    """Euclidean distance from each query point to the attractor, within tol.

    Branch-and-bound on the cylinder-tree frontier that ``cylinder_cut``
    also expands.  Each child's reference center lies on the attractor, so
    its distance bounds the answer from above; a child stays live while its
    ball radius exceeds tol and its lower bound |x - c| - rad beats the
    current best of some query point.  Query points share a frontier in
    blocks of ``_QUERY_BLOCK``, and children are scored ``_TABLE_ROWS`` at a
    time, so memory stays linear in the frontier.
    """
    ifs = model.ifs
    z0, r0 = attractor_bounds(ifs)
    pts = np.asarray(pts, dtype=float)
    parts, root = _cylinder_tree(ifs)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _QUERY_BLOCK):
        block = pts[lo : lo + _QUERY_BLOCK]
        best = np.linalg.norm(block - z0, axis=1)  # z0 is on the attractor
        nodes = root
        while nodes[0].size:
            nodes, centers = _expand(nodes, parts, z0)
            rad = nodes[0] * r0
            live = rad > tol
            for i in range(0, rad.size, _TABLE_ROWS):
                rows = slice(i, i + _TABLE_ROWS)
                d = np.linalg.norm(block[None, :, :] - centers[rows, None, :], axis=2)
                np.minimum(best, d.min(axis=0), out=best)
                live[rows] &= np.any(d - rad[rows, None] < best[None, :], axis=1)
            nodes = _select(nodes, live)
        out[lo : lo + _QUERY_BLOCK] = best
    return out


# ---------------------------------------------------------------------------
# distances


def _spanned_axes(basis):
    """Mask of the coordinate axes spanned by orthonormal ``basis`` rows, or
    None when the span is not a coordinate subspace."""
    mags = np.abs(basis)
    free = np.isclose(mags.max(axis=0), 1.0, atol=1e-12)
    if np.count_nonzero(free) == len(basis) and np.allclose(mags.sum(axis=0)[~free], 0.0, atol=1e-12):
        return free
    return None


def _sup_segment_min(c, d):
    """min over t in [0, 1] of max_i |c_i - t d_i|.

    ``c`` holds query offsets in its last axis and ``d`` the segment
    direction, broadcast against ``c``.  The objective is convex and
    piecewise linear in t, so its minimum sits at t = 0 or 1 or at a kink: a
    zero c_i / d_i or a crossing (c_i -+ c_j) / (d_i -+ d_j), clipped to
    [0, 1].  Each candidate is scored one coordinate at a time into a running
    minimum, so no array is larger than ``c``.  A zero denominator gives an
    infinite candidate, which clips to an end, or a NaN one, which scores NaN
    and never wins (``fmin`` skips NaN).
    """
    n = c.shape[-1]
    cs = [c[..., i] for i in range(n)]
    ds = [d[..., i] for i in range(n)]

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
    diff = pts - m.base
    if metric == "euclidean":
        resid = diff - (diff @ m.basis.T) @ m.basis
        return np.linalg.norm(resid, axis=1)
    n, l = m.ambient_dim, m.plane_dim
    free = _spanned_axes(m.basis)
    if free is not None:
        # axis-aligned span: free coordinates drop out of the sup distance
        return np.max(np.abs(diff[:, ~free]), axis=1)
    if l == n - 1:
        # hyperplane: closed form |normal . diff| / ||normal||_1
        _, _, vt = np.linalg.svd(m.basis, full_matrices=True)
        normal = vt[-1]
        return np.abs(diff @ normal) / np.abs(normal).sum()
    # general low-dimensional plane under sup norm: Chebyshev projection LP
    from scipy.optimize import linprog

    out = np.empty(len(pts))
    for i, d in enumerate(diff):
        c = np.zeros(l + 1)
        c[-1] = 1.0
        rows = np.hstack([m.basis.T, -np.ones((n, 1))])
        a_ub = np.vstack([rows, -np.hstack([m.basis.T, np.ones((n, 1))])])
        b_ub = np.concatenate([d, -d])
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (l + 1))
        out[i] = res.x[-1]
    return out


def _polyline_distance(m: Polyline, pts, metric):
    a = m.vertices[:-1]
    b = m.vertices[1:]
    seg = b - a  # (nseg, n)
    if metric == "euclidean":
        ap = pts[:, None, :] - a[None, :, :]
        denom = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
        t = np.clip(np.sum(ap * seg[None, :, :], axis=2) / denom, 0.0, 1.0)
        nearest = a[None, :, :] + t[:, :, None] * seg[None, :, :]
        return np.min(np.linalg.norm(pts[:, None, :] - nearest, axis=2), axis=1)
    if np.all(np.count_nonzero(seg, axis=1) <= 1):
        # axis-aligned segments are boxes: per-coordinate outside-distance
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        out = np.maximum(lo[None, :, :] - pts[:, None, :], pts[:, None, :] - hi[None, :, :])
        return np.min(np.max(np.maximum(out, 0.0), axis=2), axis=1)
    c = pts[:, None, :] - a[None, :, :]
    return np.min(_sup_segment_min(c, seg[None, :, :]), axis=1)


def distance_to_set(m: SetModel, x, tol=1e-9, metric="sup", wrap=False):
    """Distance from x (one point or a batch) to the model.

    Exact closed forms / projections everywhere except attractors, which are
    resolved to within ``tol``.  Circles, spheres, and attractors use the
    Euclidean set-distance regardless of ``metric`` (see module docstring).
    With ``wrap`` the query is taken on the unit torus via minimum over unit
    shifts of the point.
    """
    n = m.ambient_dim
    pts = _as_points(x, n)
    if wrap:
        shifts = np.array(list(product((-1.0, 0.0, 1.0), repeat=n)))
        cand = pts[:, None, :] + shifts[None, :, :]
        flat = cand.reshape(-1, n)
        d = distance_to_set(m, flat, tol=tol, metric=metric, wrap=False)
        d = d.reshape(len(pts), -1).min(axis=1)
        return d if np.ndim(x) == 2 else float(d[0])

    if isinstance(m, PointSet):
        d = np.min(_norm(pts[:, None, :] - m.points[None, :, :], metric), axis=1)
    elif isinstance(m, AffinePlane):
        d = _plane_distance(m, pts, metric)
    elif isinstance(m, Circle) or isinstance(m, Sphere):
        d = np.abs(np.linalg.norm(pts - m.center, axis=1) - m.radius)
    elif isinstance(m, Polyline):
        d = _polyline_distance(m, pts, metric)
    elif isinstance(m, IFSAttractor):
        d = distance_to_attractor(m, pts, tol=tol)
    else:
        raise ArgumentError(f"unknown set model {type(m).__name__}")
    return d if np.ndim(x) == 2 else float(d[0])


# ---------------------------------------------------------------------------
# sampling


def sample_on_set(m: SetModel, k, rng, tol=1e-9):
    """k points on (or within sampling tolerance of) the model."""
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
        depth = max(1, math.ceil(math.log(max(tol, 1e-300) / max(r0, tol)) / math.log(rmax)))
        words = rng.integers(0, len(ifs.maps), size=(k, depth))
        pts = np.tile(z0, (k, 1))
        # z0 lies on the attractor, so word images stay exactly on it
        for col in range(depth - 1, -1, -1):
            for a, mp in enumerate(ifs.maps):
                mask = words[:, col] == a
                if np.any(mask):
                    pts[mask] = mp.apply(pts[mask])
        return pts
    raise ArgumentError(f"unknown set model {type(m).__name__}")


# ---------------------------------------------------------------------------
# similarity dimension


def similarity_dimension(ifs: IFS):
    """Solve sum ratios**d = 1 by bisection to 1e-12."""
    ratios = ifs.ratios
    lo, hi = 0.0, 1.0
    while np.sum(ratios**hi) > 1.0:
        hi *= 2.0
        if hi > 64:
            raise ArgumentError("similarity dimension out of range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(ratios**mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# isometry action


def transform_model(m: SetModel, iso: Isometry) -> SetModel:
    """Image of the model under the isometry; distances are equivariant.

    Equivariance is exact in the Euclidean metric for any orthogonal
    rotation, and in the sup metric when the rotation is a signed
    permutation.  Wrapped isometries require a signed-permutation (or
    identity) rotation, since only those act on the torus.
    """
    n = m.ambient_dim
    if iso.rotation is not None and iso.wrap and not _is_signed_permutation(iso.rotation):
        raise UnsupportedCombination("torus wrap requires an axis-preserving rotation")
    rot = iso.rotation

    def mov(points):
        return iso.apply(points)

    if isinstance(m, PointSet):
        return PointSet(mov(m.points))
    if isinstance(m, AffinePlane):
        basis = m.basis if rot is None else m.basis @ rot.T
        return AffinePlane(mov(m.base), basis, extent=m.extent)
    if isinstance(m, Circle):
        return Circle(mov(m.center), m.radius)
    if isinstance(m, Sphere):
        return Sphere(mov(m.center), m.radius)
    if isinstance(m, Polyline):
        return Polyline(mov(m.vertices))
    if isinstance(m, IFSAttractor):
        if iso.wrap:
            raise UnsupportedCombination("torus wrap of an attractor is not supported")
        maps = []
        for mp in m.ifs.maps:
            a = mp.rotation if mp.rotation is not None else np.eye(n)
            q = rot if rot is not None else np.eye(n)
            new_rot = q @ a @ q.T
            new_t = q @ mp.translation + iso.translation - mp.ratio * (new_rot @ iso.translation)
            maps.append(IFSMap(mp.ratio, new_t, None if rot is None and mp.rotation is None else new_rot))
        return IFSAttractor(IFS(tuple(maps), m.ifs.osc_declared))
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


def model_to_json(m: SetModel) -> dict:
    if isinstance(m, PointSet):
        return {"variant": "points", "points": m.points.tolist()}
    if isinstance(m, AffinePlane):
        return {
            "variant": "plane",
            "base": m.base.tolist(),
            "basis": m.basis.tolist(),
            "extent": m.extent,
        }
    if isinstance(m, Circle):
        return {"variant": "circle", "center": m.center.tolist(), "radius": m.radius}
    if isinstance(m, Sphere):
        return {"variant": "sphere", "center": m.center.tolist(), "radius": m.radius}
    if isinstance(m, Polyline):
        return {"variant": "polyline", "vertices": m.vertices.tolist()}
    if isinstance(m, IFSAttractor):
        maps = []
        for mp in m.ifs.maps:
            entry = {"ratio": mp.ratio, "translation": mp.translation.tolist()}
            if mp.rotation is not None:
                entry["rotation"] = mp.rotation.tolist()
            maps.append(entry)
        return {"variant": "ifs", "maps": maps, "osc": m.ifs.osc_declared}
    raise ArgumentError(f"unknown set model {type(m).__name__}")


def model_from_json(obj) -> SetModel:
    if isinstance(obj, str):
        obj = json.loads(obj)
    variant = obj.get("variant")
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
    raise ArgumentError(f"unknown model variant {variant!r}")


def write_points_csv(path, points):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(points):
            writer.writerow([repr(float(v)) for v in row])


def read_points_csv(path):
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    if not rows:
        raise DomainError(f"no points in {path}")
    return np.array(rows)
