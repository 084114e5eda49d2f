"""Reference oracles and fixtures for the set models.

The library measures attractors only through cylinder cuts and hit tests,
and ``sets.distance_to_set`` refuses them; ``distance_to_attractor`` is the
reference distance the tests check attractor geometry against (acceptance 4
among them).  ``transform_model`` moves a model by an isometry, to build
rotated and shifted fixtures and to check that distances are equivariant.
``torus_distance`` is the reference that ``randomsim``'s torus rules are
checked against.  ``proxy_tree`` and ``proxy_hits`` are the attractor hit
test that ``sets.cut_hits`` replaced: scipy's cKDTree over the proxy cut
``sets.cylinder_cut``, queried with the bound delta.  ``support_slopes_lp`` and ``plane_distance_lp`` are the
linear programs that ``measure._support_slopes`` and the sup-metric distance
to a tilted plane solve in closed form.
"""

from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from lspkit.errors import ArgumentError
from lspkit.measure import _CUT_CAP, _cut_target
from lspkit.sets import (
    IFS,
    AffinePlane,
    Circle,
    IFSAttractor,
    IFSMap,
    Isometry,
    PointSet,
    Polyline,
    Sphere,
    SetModel,
    _as_points,
    _cylinder_tree,
    _expand,
    _select,
    attractor_bounds,
    cylinder_cut,
    distance_to_set,
)

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
            centers = centers.T  # a row per child
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


def proxy_tree(model: IFSAttractor, delta, resolution=0.05):
    """scipy's cKDTree over the centers of the proxy cut that the attractor
    hit tests use at scale ``delta``: ``cylinder_cut`` at the estimators'
    contraction target, under their cap."""
    centers, _ = cylinder_cut(model.ifs, _cut_target(model.ifs, delta, resolution), cap=_CUT_CAP)
    return cKDTree(centers)


def proxy_hits(model: IFSAttractor, pts, delta, metric="sup", resolution=0.05, tree=None):
    """Reference for ``sets.cut_hits`` and the estimators' attractor hit
    counts: the points whose nearest proxy cut center lies below ``delta``
    in ``metric``, by a tree query bounded by delta (on ``tree``, else on
    ``proxy_tree``)."""
    tree = proxy_tree(model, delta, resolution) if tree is None else tree
    dist, _ = tree.query(pts, k=1, p=np.inf if metric == "sup" else 2, distance_upper_bound=delta)
    return dist < delta


def set_distance(m: SetModel, x, tol=1e-9, metric="sup"):
    """``distance_to_set``, with attractors measured by ``distance_to_attractor``
    (in the Euclidean norm, within ``tol``)."""
    if not isinstance(m, IFSAttractor):
        return distance_to_set(m, x, metric=metric)
    d = distance_to_attractor(m, _as_points(x, m.ambient_dim), tol=tol)
    return d if np.ndim(x) == 2 else float(d[0])


def transform_model(m: SetModel, iso: Isometry) -> SetModel:
    """Image of the model under the isometry; distances are equivariant.

    Equivariance is exact in the Euclidean metric for any orthogonal
    rotation, and in the sup metric when the rotation is a signed
    permutation.
    """
    n = m.ambient_dim
    rot = iso.rotation
    if isinstance(m, PointSet):
        return PointSet(iso.apply(m.points))
    if isinstance(m, AffinePlane):
        basis = m.basis if rot is None else m.basis @ rot.T
        return AffinePlane(iso.apply(m.base), basis, extent=m.extent)
    if isinstance(m, Circle):
        return Circle(iso.apply(m.center), m.radius)
    if isinstance(m, Sphere):
        return Sphere(iso.apply(m.center), m.radius)
    if isinstance(m, Polyline):
        return Polyline(iso.apply(m.vertices))
    if isinstance(m, IFSAttractor):
        maps = []
        for mp in m.ifs.maps:
            a = mp.rotation if mp.rotation is not None else np.eye(n)
            q = rot if rot is not None else np.eye(n)
            new_rot = q @ a @ q.T
            new_t = q @ mp.translation + iso.translation - mp.ratio * (new_rot @ iso.translation)
            maps.append(IFSMap(mp.ratio, new_t, None if rot is None and mp.rotation is None else new_rot))
        return IFSAttractor(IFS(tuple(maps), m.ifs.osc_declared))
    raise ArgumentError(f"unknown set model {type(m).__name__}")


def support_slopes_lp(x, y):
    """Reference for ``measure._support_slopes``: the slopes b of the lines
    a + b x below (above) every point (x, y) with the largest (least)
    a + b mean(x), each solved by HiGHS."""
    from scipy.optimize import linprog

    n = len(x)
    out = []
    for sign in (1.0, -1.0):
        c = -sign * np.array([n, float(np.sum(x))])
        a_ub = sign * np.vstack([np.ones(n), x]).T
        res = linprog(c, A_ub=a_ub, b_ub=sign * y, bounds=[(None, None)] * 2, method="highs")
        assert res.success
        out.append(res.x[1])
    return out[0], out[1]


def plane_distance_lp(m: AffinePlane, pts):
    """Reference sup-metric distance from each point to the plane: the least
    z with |d - B^T t| <= z coordinatewise, d = x - base, one HiGHS linear
    program in (t, z) per point, its vertex then re-solved exactly.

    HiGHS stops within its tolerances (1e-7), here up to about 1e-9 above
    the least z.  Each set of l + 1 coordinates whose residual d - B^T t
    comes within 1e-6 max|d| of HiGHS's z gives the t of B^T t + s z = d on
    those coordinates, s the residuals' signs; the least max|d - B^T t| over
    these t and HiGHS's own is returned.  Each is the value at a real t, so
    the reference is never below the distance.
    """
    from scipy.optimize import linprog

    n, l = m.ambient_dim, m.plane_dim
    cost = np.zeros(l + 1)
    cost[-1] = 1.0
    ones = np.ones((n, 1))
    a_ub = np.vstack([np.hstack([m.basis.T, -ones]), -np.hstack([m.basis.T, ones])])
    out = []
    for d in np.atleast_2d(pts) - m.base:
        res = linprog(cost, A_ub=a_ub, b_ub=np.concatenate([d, -d]), bounds=[(None, None)] * (l + 1), method="highs")
        assert res.success
        resid = d - m.basis.T @ res.x[:l]
        best = np.abs(resid).max()
        near = np.flatnonzero(np.abs(resid) >= res.x[-1] - 1e-6 * np.abs(d).max())
        for rows in map(list, combinations(near, l + 1)):
            a = np.hstack([m.basis.T[rows], np.sign(resid[rows])[:, None]])
            if abs(np.linalg.det(a)) > 1e-9:
                t = np.linalg.solve(a, d[rows])[:l]
                best = min(best, np.abs(d - m.basis.T @ t).max())
        out.append(best)
    return np.array(out)


def torus_distance(base: SetModel, trans, x, reach=4):
    """Sup-metric torus distance from x to base + t for each row t of trans,
    by brute force: the least distance from x - t to the copies base + k,
    every k_i in -reach..reach."""
    n = trans.shape[1]
    shifts = np.stack(np.meshgrid(*[np.arange(-reach, reach + 1.0)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    q = (x - trans)[:, None, :] + shifts[None, :, :]
    return distance_to_set(base, q.reshape(-1, n), metric="sup").reshape(len(trans), -1).min(axis=1)
