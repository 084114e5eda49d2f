"""Reference oracles and fixtures for the set models.

The library measures attractors only through cylinder cuts and hit tests,
and ``sets.distance_to_set`` refuses them; ``distance_to_attractor`` is the
reference distance the tests check attractor geometry against (acceptance 4
among them).  ``transform_model`` moves a model by an isometry, to build
rotated and shifted fixtures and to check that distances are equivariant.
``torus_distance`` is the reference that ``randomsim``'s torus rules are
checked against.  ``proxy_tree`` and ``proxy_hits`` are the attractor hit
test that ``sets.cut_hits`` replaced: scipy's cKDTree over the proxy cut
``sets.cylinder_cut`` at ``proxy_target``, queried with the bound delta.
``support_slopes_exact`` and ``plane_distance_lp`` solve the linear programs
that ``measure._support_slopes`` and the sup-metric distance to a tilted
plane solve in closed form, exactly: the first from the pairs of points in
integer arithmetic, the second by enumerating its vertices.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.spatial import cKDTree

from lspkit.errors import ArgumentError
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


PROXY_CAP = 5_000_000  # largest proxy cut ``proxy_tree`` builds


def proxy_target(ifs: IFS, delta, resolution):
    """Contraction target of the proxy cut at scale ``delta``: its balls
    have radius at most resolution * delta / 2."""
    _, r0 = attractor_bounds(ifs)
    return min(resolution * delta / (2 * r0), 1.0)


def proxy_tree(model: IFSAttractor, delta, resolution=0.05):
    """scipy's cKDTree over the centers of the proxy cut at scale ``delta``:
    ``cylinder_cut`` at ``proxy_target``, under ``PROXY_CAP``."""
    centers, _ = cylinder_cut(model.ifs, proxy_target(model.ifs, delta, resolution), cap=PROXY_CAP)
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


def support_slopes_exact(x, y):
    """Reference for ``measure._support_slopes``, in exact arithmetic: the
    slopes, as Fractions, of the lines a + b x below (above) every point
    (x, y) with the largest (least) a + b mean(x).  Such a line passes
    through two points strictly either side of the exact mean: a pair whose
    line is below (above) every point.  Raises ``StopIteration`` when none
    is, that is when the mean is a hull vertex and the slope is not unique."""
    (xs, e), (ys, f) = _integers(x), _integers(y)
    k, total = len(xs), sum(xs)
    out = []
    for sign in (1, -1):  # the upper hull is the lower hull of (x, -y)
        zs = [sign * v for v in ys]
        i, j = next(
            (i, j) for i in range(k) for j in range(k)
            if k * xs[i] < total < k * xs[j]
            and all((zs[l] - zs[i]) * (xs[j] - xs[i]) >= (zs[j] - zs[i]) * (xs[l] - xs[i]) for l in range(k))
        )
        out.append(sign * Fraction(zs[j] - zs[i], xs[j] - xs[i]) * Fraction(2**e, 2**f))
    return out[0], out[1]


def _gauss_jordan(a):
    """(D, X) with a X = D I for a square integer matrix a, D = +-det(a), by
    fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968),
    whose divisions are exact; (0, None) when a is singular."""
    k = len(a)
    rows = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(a)]
    prev = 1
    for p in range(k):
        q = next((i for i in range(p, k) if rows[i][p]), None)
        if q is None:
            return 0, None
        rows[p], rows[q] = rows[q], rows[p]
        piv = rows[p][p]
        for i in range(k):
            if i != p:
                f = rows[i][p]
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rows[i], rows[p])]
        prev = piv
    return prev, [r[k:] for r in rows]


def _integers(values):
    """Integers k_i and e with values_i = k_i / 2**e exactly."""
    fr = [Fraction(v) for v in values]
    e = max(f.denominator.bit_length() - 1 for f in fr)
    return [f.numerator << (e - f.denominator.bit_length() + 1) for f in fr], e


def plane_distance_lp(m: AffinePlane, pts):
    """Reference sup-metric distance from each point to the plane, the least
    z with |d - B^T t| <= z coordinatewise, d = x - base: exact rational
    arithmetic on the floats given, rounded once at the end.

    The linear program in (t, z) has an optimal vertex where l + 1 rows S
    are tight, B_S^T t + s z = d_S with signs s.  Its multipliers are
    proportional to s_i w_i, w a left null vector of B_S^T, so they are
    nonnegative only for s = sign(w) on the rows where w is nonzero (either
    sign where it is zero).  Each such vertex of each S is solved, and the
    least max|d - B^T t| over them is returned: each is the objective at a
    real t, so at least the distance, and the optimal vertex is one of
    them.  The entries are scaled to integers by powers of 2, so each
    vertex is an integer solve.
    """
    n, l = m.ambient_dim, m.plane_dim
    flat, _ = _integers(m.basis.T.ravel())
    bt = [flat[i * l : (i + 1) * l] for i in range(n)]  # 2**e B^T, by row
    vertices = []  # per vertex: S, and (D, X) with [u; z] = X d_S / D, u = t / 2**e
    for rows in combinations(range(n), l + 1):
        for j in range(l + 1):
            # w_j = -1 and, over the other rows R, sum_R w_i B_i = B_j
            others = rows[:j] + rows[j + 1 :]
            det, adj = _gauss_jordan([list(col) for col in zip(*(bt[i] for i in others))])
            if det:
                w = [sum(a * b for a, b in zip(r, bt[rows[j]])) * det for r in adj] + [-det * det]
                break
        else:
            continue  # B_S^T has rank below l: no vertex
        order = others + (rows[j],)
        zero = [i for i, v in enumerate(w) if v == 0]
        for flips in product((1, -1), repeat=len(zero)):
            s = [1 if v > 0 else -1 for v in w]
            for i, f in zip(zero, flips):
                s[i] = f
            det, x = _gauss_jordan([bt[i] + [si] for i, si in zip(order, s)])
            if det:
                vertices.append((order, det, x[:l]))
    out = []
    for x in np.atleast_2d(pts):
        d, e = _integers([Fraction(a) - Fraction(b) for a, b in zip(x, m.base)])
        best = None  # (numerator, denominator) of the least objective
        for rows, det, x in vertices:
            u = [sum(a * d[i] for a, i in zip(r, rows)) for r in x]  # det * u
            num = max(abs(d[i] * det - sum(a * b for a, b in zip(bt[i], u))) for i in range(n))
            if best is None or num * best[1] < best[0] * abs(det):
                best = num, abs(det)
        out.append(float(Fraction(best[0], best[1] << e)))
    return np.array(out)


def torus_distance(base: SetModel, trans, x, reach=4):
    """Sup-metric torus distance from x to base + t for each row t of trans,
    by brute force: the least distance from x - t to the copies base + k,
    every k_i in -reach..reach."""
    n = trans.shape[1]
    shifts = np.stack(np.meshgrid(*[np.arange(-reach, reach + 1.0)] * n, indexing="ij"), axis=-1).reshape(-1, n)
    q = (x - trans)[:, None, :] + shifts[None, :, :]
    return distance_to_set(base, q.reshape(-1, n), metric="sup").reshape(len(trans), -1).min(axis=1)
