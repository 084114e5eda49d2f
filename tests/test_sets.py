import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from lspkit import sets
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
    _sup_segment_min,
    attractor_bounds,
    cut_size,
    cylinder_cut,
    distance_to_set,
    model_from_json,
    _norm,
    sample_on_set,
)

from set_oracles import distance_to_attractor, plane_distance_lp, set_distance, transform_model


def middle_third():
    return IFSAttractor(
        IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    )


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotated_2d():
    return IFS(
        (
            IFSMap(0.5, np.array([0.0, 0.0]), rotation(0.4)),
            IFSMap(0.4, np.array([0.6, 0.1])),
            IFSMap(0.3, np.array([0.2, 0.6]), rotation(-1.1)),
        ),
        True,
    )


def _words_at_scale(ifs, r):
    """Reference oracle: tuple DFS for the words whose product first drops to <= r."""
    out = []
    stack = [((), 1.0)]
    while stack:
        word, prod = stack.pop()
        for a, ra in enumerate(ifs.ratios):
            p = prod * ra
            if p <= r:
                out.append(word + (a,))
            else:
                stack.append((word + (a,), p))
    return out


def _word_ball(ifs, word, z0, r0):
    """Reference oracle: the word's image of B(z0, r0), one map at a time."""
    pt = np.array(z0, dtype=float)
    for a in reversed(word):
        pt = ifs.maps[a].apply(pt)
    return pt, math.prod(ifs.maps[a].ratio for a in word) * r0


def test_point_distances():
    ps = PointSet(np.array([[0.0, 0.0]]))
    assert distance_to_set(ps, [3.0, 4.0], metric="euclidean") == pytest.approx(5.0)
    assert distance_to_set(ps, [3.0, 4.0], metric="sup") == pytest.approx(4.0)


def test_plane_distance():
    xaxis = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]))
    assert distance_to_set(xaxis, [7.0, -2.0]) == pytest.approx(2.0)
    assert distance_to_set(xaxis, [7.0, -2.0], metric="euclidean") == pytest.approx(2.0)
    # non-axis-aligned line in the plane: one dual vertex, its normal over its l1 norm
    diag = AffinePlane(np.zeros(2), np.array([[1.0, 1.0]]) / math.sqrt(2))
    # sup distance to {y=x} from (1, 0): the point (0.5, 0.5) realizes 0.5
    assert distance_to_set(diag, [1.0, 0.0], metric="sup") == pytest.approx(0.5)
    assert distance_to_set(diag, [1.0, 0.0], metric="euclidean") == pytest.approx(
        math.sqrt(2) / 2
    )


def test_coordinate_plane_sup_distance_reads_its_fixed_axes():
    # the xz-plane through (1, 2, 3) spans axes 0 and 2: the sup distance is |y - 2|
    plane = AffinePlane(np.array([1.0, 2.0, 3.0]), np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    assert plane.free_axes.tolist() == [True, False, True]
    pts = np.array([[5.0, -1.5, 0.0], [0.0, 2.25, 9.0], [1.0, 2.0, 3.0]])
    assert distance_to_set(plane, pts).tolist() == [3.5, 0.25, 0.0]
    # a tilted line spans no coordinate subspace, nor does one 1e-12 off an axis
    assert AffinePlane(np.zeros(2), np.array([[0.6, 0.8]])).free_axes is None
    assert AffinePlane(np.zeros(4), np.array([[0.0, 0.0, -1.0, -1e-12]])).free_axes is None


def _sup_plane_rounding(diff):
    """Bound on the rounding of the sup distance to a plane for offsets
    ``diff`` from its base: 64 ulps of 1 times max |diff| (the dual vertices
    come from an SVD, and about 5 were seen on random planes in n <= 8)."""
    return 64 * np.finfo(float).eps * np.abs(diff).max(axis=1)


@st.composite
def _planes(draw):
    """A plane of dimension l < n <= 8 through a base, with query points.

    The basis is the orthonormalised span of rows of arbitrary floats; a
    rank-deficient draw (such as the zero rows a search shrinks to) gives a
    coordinate plane.  The degenerate bases, zero coordinates and shared
    magnitudes, are the test's examples."""
    n = draw(st.integers(2, 8))
    l = draw(st.integers(1, n - 1))
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    rows = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=l, max_size=l)))
    q, r = np.linalg.qr(rows.T)
    if np.abs(np.diag(r)).min() < 1e-3:
        rows = np.eye(n)[:l]  # a coordinate plane in place of a rank-deficient draw
        q = rows.T
    coord = st.floats(-3.0, 3.0)
    base = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    pts = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=4)))
    return q.T, base, pts


def _case(basis, pts, base=None):
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    base = np.zeros(basis.shape[1]) if base is None else np.asarray(base, dtype=float)
    return basis, base, np.atleast_2d(np.asarray(pts, dtype=float))


@settings(max_examples=100, deadline=None)
@given(_planes())
# a line in R^3 off every axis, 0.5 from (1, 0, 0.3)
@example(_case(np.array([[1.0, 1.0, 0.0]]) / math.sqrt(2), [[1.0, 0.0, 0.3], [0.2, -0.4, 2.0]]))
# degenerate bases: zero entries and entries of equal size
@example(_case([[0.6, 0.8, 0.0]], [[1.0, 0.0, 0.3], [-0.5, 0.7, -1.2]], base=[0.1, 0.2, 0.3]))
@example(_case(np.array([[1.0, 1.0, 1.0, 0.0, 0.0]]) / math.sqrt(3), [[1.0, -1.0, 0.5, 0.2, -2.0], [0.3] * 5]))
# a tilted plane that contains the first coordinate axis, and a coordinate plane
@example(_case([[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0]], [[5.0, 1.0, -1.0, 0.5], [0.0, 0.3, 0.4, -0.2]]))
@example(_case([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], [[5.0, 1.0, -1.0, 0.5], [0.0, 0.3, 0.4, -0.2]], base=[1.0, 2.0, 3.0, 4.0]))
# the span of rows of small integers and multiples of 1/1024
@example(_case(np.linalg.qr(np.array([[2.0, -1.0, 0.0, 3 / 1024, 1.0], [0.0, 1.0, -2.0, 1.0, 5 / 1024]]).T)[0].T,
               [[1.0, -1.0, 0.5, 0.2, -2.0], [0.3] * 5], base=[0.0, 0.5, -0.5, 1.0, 0.25]))
# a line 1e-12 off the third axis: the distance 1 / (1 + 1e-12), once read as 1
@example(_case([[0.0, -0.0, -1.0, -1e-12]], [[0.0, 0.0, 0.0, 1.0]]))
# a point 1e-9 off the base: the distance is 1e-9 / 3, which HiGHS read as 5e-10
@example(_case(np.array([[-1.0, -2.0]]) / math.sqrt(5), [[0.0, 1e-9]]))
def test_tilted_plane_sup_distance_matches_the_lp(case):
    # the dual-vertex form (or a coordinate plane's slice) equals the
    # Chebyshev projection LP, solved exactly
    basis, base, pts = case
    plane = AffinePlane(base, basis)
    got = distance_to_set(plane, pts, metric="sup")
    assert np.all(np.abs(got - plane_distance_lp(plane, pts)) <= _sup_plane_rounding(pts - base))


def test_hyperplane_has_one_dual_vertex():
    line = AffinePlane(np.array([0.5, 0.5]), np.array([[0.6, 0.8]]))
    assert line.sup_duals.shape == (1, 2)
    assert np.abs(line.sup_duals[0]) == pytest.approx([0.8 / 1.4, 0.6 / 1.4], rel=1e-15)


def test_tilted_plane_distance_does_not_depend_on_its_block():
    # the dot products are summed coordinate by coordinate, so a point's
    # distance is the same bits whatever block it lands in
    rows = sets._DUAL_ROWS
    rng = np.random.default_rng(8)
    basis = np.linalg.qr(rng.normal(size=(5, 2)))[0].T
    plane = AffinePlane(rng.normal(size=5), basis)
    pts = rng.uniform(-2.0, 2.0, size=(2 * rows + 7, 5))
    whole = distance_to_set(plane, pts)
    parts = [distance_to_set(plane, pts[lo : lo + size]) for lo, size in ((0, 1), (1, rows + 3), (rows + 4, 2 * rows))]
    assert np.array_equal(np.concatenate(parts), whole)


def test_tilted_sup_plane_past_the_zero_set_cap_is_refused():
    # C(12, 6) = 924 zero sets are enumerated; C(13, 6) = 1716 are refused
    rng = np.random.default_rng(4)
    for n, l in ((12, 5), (13, 5)):
        plane = AffinePlane(np.zeros(n), np.linalg.qr(rng.normal(size=(n, l)))[0].T)
        pts = rng.uniform(-1.0, 1.0, size=(3, n))
        assert distance_to_set(plane, pts, metric="euclidean").shape == (3,)
        if math.comb(n, l + 1) <= sets.MAX_DUAL_ZERO_SETS:
            got = distance_to_set(plane, pts)
            assert np.all(np.abs(got - plane_distance_lp(plane, pts)) <= _sup_plane_rounding(pts))
        else:
            with pytest.raises(ArgumentError, match=r"plane of dimension 5 in dimension 13 has C\(13, 6\) = 1716"):
                distance_to_set(plane, pts)


def _chebyshev_exact(c, d):
    """Reference: min over t in [0, 1] of max_i |c_i - t d_i|, exactly.  The
    objective is the upper envelope of the lines +-(c_i - t d_i), so its
    least value is at t = 0 or 1 or where two of them cross, each scored in
    Fractions."""
    lines = [(s * Fraction(ci), s * Fraction(di)) for ci, di in zip(c, d) for s in (1, -1)]
    ts = {Fraction(0), Fraction(1)}
    ts.update((a - e) / (b - g) for (a, b), (e, g) in combinations(lines, 2) if b != g)
    return min(max(a - t * b for a, b in lines) for t in ts if 0 <= t <= 1)


def _segment_rounding(c, d):
    """Bound on the rounding of ``_sup_segment_min(c, d)``: 3 ulps of 1 times
    max |c| + max |d|.  A crossing t takes three roundings, which move the
    objective by 3 units of 2**-53 max |d|, and an offset |c_i - t d_i| two,
    of |d| and |c| + |d|: 2.5 ulps in all (0.27 were seen)."""
    return 3 * np.finfo(float).eps * (np.abs(c).max(axis=-1) + np.abs(d).max(axis=-1))


def _golden_section(c, d, steps=200):
    """Reference: the convex objective on [0, 1] by golden-section search."""
    def f(t):
        return np.max(np.abs(c - t * d))

    lo, hi = 0.0, 1.0
    phi = (math.sqrt(5) - 1) / 2
    for _ in range(steps):
        m1, m2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return f(0.5 * (lo + hi))


@pytest.mark.parametrize("n", [2, 3])
def test_sup_segment_min_matches_lp(n):
    rng = np.random.default_rng(40 + n)
    dirs = [rng.normal(size=n) for _ in range(6)]
    dirs += [np.ones(n), np.r_[1.0, -1.0, np.zeros(n - 2)]]  # d_i = +-d_j
    if n == 3:
        dirs.append(np.array([0.0, 0.0, 1.0]))  # along one axis
    cases = []
    for d in dirs:
        cases += [(c, d) for c in rng.uniform(-1.5, 1.5, size=(12, n))]
        cases += [(t * d, d) for t in (0.0, 0.3, 1.0)]  # on the segment
    cases += [(c, np.zeros(n)) for c in rng.uniform(-1, 1, size=(5, n))]  # zero length
    cases.append((np.zeros(n), np.zeros(n)))  # on a zero-length segment: every kink is 0/0
    c = np.array([cd[0] for cd in cases])
    d = np.array([cd[1] for cd in cases])
    got = _sup_segment_min(c.T, d.T)
    ref = [_chebyshev_exact(ci, di) for ci, di in cases]
    assert all(abs(Fraction(g) - r) <= bound for g, r, bound in zip(got, ref, _segment_rounding(c, d)))
    gs = np.array([_golden_section(ci, di) for ci, di in cases])
    assert np.all(got <= gs + 1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_tilted_polyline_sup_distance_matches_lp(n):
    rng = np.random.default_rng(7 + n)
    verts = rng.uniform(-1, 1, size=(4, n))
    if n == 3:
        verts[1] = verts[0] + np.array([0.0, 0.0, 0.8])  # one axis-aligned segment
    pts = np.vstack([rng.uniform(-1.5, 1.5, size=(40, n)), verts, 0.5 * (verts[1:] + verts[:-1])])
    got = distance_to_set(Polyline(verts), pts, metric="sup")
    for g, p in zip(got, pts):
        c, d = p - verts[:-1], verts[1:] - verts[:-1]
        ref = min(_chebyshev_exact(ci, di) for ci, di in zip(c, d))
        assert abs(Fraction(g) - ref) <= _segment_rounding(c, d).max()


def test_cantor_distance():
    K = middle_third()
    assert set_distance(K, [0.5], tol=1e-8) == pytest.approx(1 / 6, abs=1e-6)
    assert set_distance(K, [0.0], tol=1e-8) == pytest.approx(0.0, abs=1e-6)


def test_distance_to_set_refuses_attractors():
    with pytest.raises(ArgumentError, match="IFS attractor"):
        distance_to_set(middle_third(), [0.5])


def test_circle_sphere_polyline_distances():
    circ = Circle(np.zeros(2), 1.0)
    assert distance_to_set(circ, [2.0, 0.0]) == pytest.approx(1.0)
    sph = Sphere(np.zeros(3), 1.0)
    assert distance_to_set(sph, [0.0, 0.0, 0.25]) == pytest.approx(0.75)
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert distance_to_set(seg, [2.0, 0.0], metric="euclidean") == pytest.approx(1.0)
    assert distance_to_set(seg, [0.5, 0.3], metric="sup") == pytest.approx(0.3)
    assert distance_to_set(seg, [1.5, 0.2], metric="sup") == pytest.approx(0.5)


def test_sample_on_set():
    rng = np.random.default_rng(7)
    circ = Circle(np.zeros(2), 1.0)
    pts = sample_on_set(circ, 4, rng)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12

    K = middle_third()
    pts = sample_on_set(K, 100, np.random.default_rng(1))
    d = distance_to_attractor(K, pts, tol=1e-8)
    assert np.max(d) <= 1e-6

    ps = PointSet(np.array([[0.0], [1.0], [2.0]]))
    out = sample_on_set(ps, 10, rng)
    assert all(any(np.allclose(o, p) for p in ps.points) for o in out)


def test_words_at_scale():
    two_thirds = IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    assert sorted(_words_at_scale(two_thirds, 1 / 3)) == [(0,), (1,)]
    assert sorted(_words_at_scale(two_thirds, 0.2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    mixed = IFS((IFSMap(0.5, np.array([0.0])), IFSMap(0.25, np.array([0.5]))), True)
    assert sorted(_words_at_scale(mixed, 0.25)) == [(0, 0), (0, 1), (1,)]
    with pytest.raises(ArgumentError):
        cylinder_cut(mixed, 0.0)
    with pytest.raises(ArgumentError):
        cylinder_cut(mixed, 0.001, cap=10)


def test_words_sandwich_property():
    mixed = IFS((IFSMap(0.5, np.array([0.0])), IFSMap(0.3, np.array([0.6]))), True)
    for r in (0.3, 0.11, 0.042):
        for w in _words_at_scale(mixed, r):
            prod = math.prod(mixed.maps[a].ratio for a in w)
            parent = math.prod(mixed.maps[a].ratio for a in w[:-1])
            assert prod <= r < parent


@pytest.mark.parametrize(
    "ifs",
    [
        middle_third().ifs,
        IFS((IFSMap(0.5, np.array([0.0])), IFSMap(0.3, np.array([0.6]))), True),
        rotated_2d(),
    ],
    ids=["cantor", "mixed", "rotated-2d"],
)
@pytest.mark.parametrize("target", [0.3, 0.11, 0.042, 0.005])
def test_cylinder_cut_matches_word_oracle(ifs, target):
    centers, radii = cylinder_cut(ifs, target)
    z0, r0 = attractor_bounds(ifs)
    # the cut emits level by level, each level in lexicographic word order
    words = sorted(_words_at_scale(ifs, target), key=lambda w: (len(w), w))
    assert len(radii) == len(words)
    balls = [_word_ball(ifs, w, z0, r0) for w in words]
    ref_c = np.array([c for c, _ in balls])
    ref_r = np.array([rad for _, rad in balls])
    np.testing.assert_array_equal(radii, ref_r)
    assert np.max(np.abs(centers - ref_c)) <= 1e-12


def test_ifs_needs_two_maps():
    with pytest.raises(ArgumentError):
        IFS((IFSMap(0.5, np.array([0.0])),), True)


def test_transform_model_examples():
    ps = PointSet(np.array([[0.0, 0.0]]))
    ident = Isometry(translation=np.zeros(2))
    assert np.allclose(transform_model(ps, ident).points, ps.points)
    shifted = transform_model(ps, Isometry(translation=np.array([0.3, 0.4])))
    assert np.allclose(shifted.points, [[0.3, 0.4]])

    xaxis = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]))
    rot90 = transform_model(xaxis, Isometry(translation=np.zeros(2), rotation=rotation(math.pi / 2)))
    assert distance_to_set(rot90, [2.0, 0.0], metric="euclidean") == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(4))
def test_distance_equivariance(seed):
    rng = np.random.default_rng(100 + seed)
    models = [
        PointSet(rng.uniform(-1, 1, size=(5, 2))),
        AffinePlane(rng.uniform(-1, 1, size=2), np.array([[1.0, 0.0]]), extent=3.0),
        Circle(rng.uniform(-1, 1, size=2), 0.7),
        Polyline(rng.uniform(-1, 1, size=(4, 2))),
        middle_third_2d(),
    ]
    for _ in range(250):
        m = models[rng.integers(0, len(models))]
        theta = rng.uniform(0, 2 * math.pi)
        iso = Isometry(translation=rng.uniform(-1, 1, size=2), rotation=rotation(theta))
        x = rng.uniform(-2, 2, size=2)
        before = set_distance(m, x, tol=1e-9, metric="euclidean")
        after = set_distance(transform_model(m, iso), iso.apply(x), tol=1e-9, metric="euclidean")
        tol = 1e-6 if isinstance(m, IFSAttractor) else 1e-9
        assert after == pytest.approx(before, abs=tol, rel=tol)


def middle_third_2d():
    return IFSAttractor(
        IFS(
            (
                IFSMap(1 / 3, np.array([0.0, 0.0])),
                IFSMap(1 / 3, np.array([2 / 3, 0.1])),
            ),
            True,
        )
    )


def unequal_2d():
    maps = (
        IFSMap(0.5, np.array([0.0, 0.0])),
        IFSMap(0.3, np.array([0.7, 0.0])),
        IFSMap(0.25, np.array([0.1, 0.75])),
        IFSMap(0.2, np.array([0.8, 0.8])),
    )
    return IFS(maps, True)


def gasket_ifs():
    maps = (
        IFSMap(0.5, np.array([0.0, 0.0])),
        IFSMap(0.5, np.array([0.5, 0.0])),
        IFSMap(0.5, np.array([0.25, 0.5])),
    )
    return IFS(maps, True)


@pytest.mark.parametrize(
    "ifs",
    [
        middle_third().ifs,
        middle_third_2d().ifs,
        gasket_ifs(),
        unequal_2d(),
        IFS(tuple(IFSMap(0.5, np.array(c)) for c in np.vstack([np.zeros(3), 0.5 * np.eye(3)])), True),
    ],
    ids=["middle-third", "middle-third-2d", "gasket", "unequal", "gasket-3d"],
)
def test_attractor_samples_are_those_of_the_per_map_loop(ifs):
    # with no rotating map each level is one gather; an identity rotation
    # sends the same maps through the per-map loop, whose IFSMap.apply
    # multiplies by the identity exactly
    eye = np.eye(ifs.ambient_dim)
    looped = IFSAttractor(IFS(tuple(IFSMap(m.ratio, m.translation, eye) for m in ifs.maps), True))
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    for k in (1, 4, 300):
        assert np.array_equal(sample_on_set(IFSAttractor(ifs), k, rng), sample_on_set(looped, k, ref))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "ifs", [gasket_ifs(), unequal_2d(), rotated_2d()], ids=["equal", "unequal", "rotated"]
)
@pytest.mark.parametrize("target", [2.0, 1.0, 0.3, 0.11, 0.042, 0.005, 0.0011])
def test_cut_size_counts_the_cut(ifs, target):
    size = len(cylinder_cut(ifs, target)[1])
    assert cut_size(ifs, target) == size
    # a level's children plus the words emitted before it never exceed the
    # whole cut, so the cap trips exactly when the cut is larger than it
    for fn in (cut_size, cylinder_cut):
        if size > 10:
            with pytest.raises(ArgumentError, match="cylinder cut exceeds cap 10"):
                fn(ifs, target, cap=10)
        else:
            fn(ifs, target, cap=10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 12, 16])
def test_norm_matches_kdtree(n):
    # n >= 8 reaches scipy's four-lane Euclidean sum; a single row gives a
    # 0-d array that the running max writes into
    rng = np.random.default_rng(23)
    data = rng.uniform(-1.0, 1.0, size=(1, n)) * rng.uniform(0.1, 10.0, size=n)
    pts = rng.uniform(-3.0, 3.0, size=(20_000, n))
    tree = cKDTree(data)
    for metric, p in (("sup", np.inf), ("euclidean", 2)):
        want = tree.query(pts, p=p)[0]
        assert np.array_equal(_norm(pts - data[0], metric), want)
        assert np.array_equal(_norm((pts - data[0]).reshape(100, 200, n), metric), want.reshape(100, 200))
        assert float(_norm(pts[7] - data[0], metric)) == want[7]


# ---------------------------------------------------------------------------
# column-wise kernels against the broadcast expressions they replace

_NS = [1, 2, 3, 7, 8, 9, 16]
_ROWS = [0, 1, 100_000]


def _by_rows(fn, pts, block=2048):
    """``fn`` on ``pts`` in blocks of rows, joined: the broadcast references
    are row by row, and blocks keep their (rows, points, n) arrays small."""
    return np.concatenate([fn(pts[lo : lo + block]) for lo in range(0, max(len(pts), 1), block)])


def broadcast_distance(m, pts, metric, euclid=lambda x: _norm(x, "euclidean")):
    """The broadcast expressions ``distance_to_set`` computed before it
    worked by column, the Euclidean residuals of planes and polylines
    measured by ``euclid`` (``np.linalg.norm`` there before)."""
    if isinstance(m, PointSet):
        return np.min(_norm(pts[:, None, :] - m.points[None, :, :], metric), axis=1)
    if isinstance(m, (Circle, Sphere)):
        return np.abs(_norm(pts - m.center, "euclidean") - m.radius)
    if isinstance(m, AffinePlane):
        if metric != "euclidean" and m.free_axes is not None:
            return _norm(pts[:, ~m.free_axes] - m.base[~m.free_axes], "sup")
        diff = pts - m.base
        if metric == "euclidean":
            return euclid(diff - (diff @ m.basis.T) @ m.basis)
        dots = diff[:, :1] * m.sup_duals[:, 0]
        for i in range(1, diff.shape[1]):
            dots += diff[:, i, None] * m.sup_duals[:, i]
        return np.abs(dots).max(axis=1)
    a, b = m.vertices[:-1], m.vertices[1:]
    seg = b - a
    if metric == "euclidean":
        ap = pts[:, None, :] - a[None, :, :]
        denom = np.maximum(np.sum(seg * seg, axis=1), 1e-300)
        t = np.clip(np.sum(ap * seg[None, :, :], axis=2) / denom, 0.0, 1.0)
        nearest = a[None, :, :] + t[:, :, None] * seg[None, :, :]
        return np.min(euclid(pts[:, None, :] - nearest), axis=1)
    if np.all(np.count_nonzero(seg, axis=1) <= 1):
        out = np.maximum(np.minimum(a, b)[None] - pts[:, None, :], pts[:, None, :] - np.maximum(a, b)[None])
        return np.min(_norm(np.maximum(out, 0.0), "sup"), axis=1)
    c = pts[:, None, :] - a[None, :, :]
    return np.min(_sup_segment_min(np.moveaxis(c, -1, 0), seg.T[:, None, :]), axis=1)


def _kernel_models(n, rng):
    """Point sets of 1, 3 and 64 points, a circle or a sphere, planes with
    free axes and tilted ones, and axis-aligned and tilted polylines of 1
    and 3 segments, in dimension n."""
    models = {f"points{k}": PointSet(rng.uniform(-1.0, 1.0, size=(k, n))) for k in (1, 3, 64)}
    if n == 2:
        models["circle"] = Circle(np.array([0.3, -0.2]), 0.7)
    if n == 3:
        models["sphere"] = Sphere(np.array([0.3, -0.2, 0.1]), 0.7)
    if n >= 2:
        models["axis_plane"] = AffinePlane(rng.normal(size=n), np.eye(n)[[n - 1, 0]][: max(1, min(2, n - 1))])
        models["tilted_plane"] = AffinePlane(rng.normal(size=n), np.linalg.qr(rng.normal(size=(n, 1)))[0].T)
    steps = np.eye(n)[rng.integers(0, n, size=3)] * rng.uniform(-1.0, 1.0, size=(3, 1))
    for k in (1, 3):
        models[f"axis_polyline{k}"] = Polyline(np.cumsum(np.vstack([rng.normal(size=(1, n)), steps[:k]]), axis=0))
        if n >= 2:
            models[f"tilted_polyline{k}"] = Polyline(rng.normal(size=(k + 1, n)))
    return models


def _kernel_points(m, rows, rng):
    """``rows`` query points about the model at several scales, the first
    few on it: its points, vertices, base or a point of its circle."""
    n = m.ambient_dim
    pts = rng.uniform(-2.0, 2.0, size=(rows, n)) * 10.0 ** rng.integers(-3, 1, size=(rows, 1))
    if isinstance(m, (Circle, Sphere)):
        on = m.center + m.radius * np.eye(n)[:1]
    elif isinstance(m, PointSet):
        on = m.points
    elif isinstance(m, Polyline):
        on = m.vertices
    else:
        on = m.base[None]
    on = on[: min(rows, 4)]
    pts[: len(on)] = on
    return pts


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("n", _NS)
def test_norm_from_an_origin_is_the_broadcast_norm(n, metric):
    rng = np.random.default_rng(60 + n)
    for rows in _ROWS:
        pts = rng.uniform(-3.0, 3.0, size=(rows, n))
        point = rng.uniform(-1.0, 1.0, size=n)
        per_row = rng.uniform(-1.0, 1.0, size=(n, rows))  # held by coordinate
        assert np.array_equal(_norm(pts, metric, point), _norm(pts - point, metric))
        assert np.array_equal(_norm(pts, metric, per_row), _norm(pts - per_row.T, metric))
        assert np.array_equal(_norm(pts, metric, list(per_row)), _norm(pts - per_row.T, metric))


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("n", _NS)
def test_distance_kernels_are_the_broadcast_expressions(n, metric):
    # every column-wise kernel gives the bits of the broadcast expression it
    # replaced; the Euclidean plane and polyline residuals go through _norm.
    # From 7 coordinates on, 10,000 rows stand for 100,000, which would take
    # seconds a model (a tilted sup polyline scores 2 + n**2 kinks a segment)
    rng = np.random.default_rng(70 + n)
    for name, m in _kernel_models(n, rng).items():
        for rows in _ROWS if n <= 3 else [0, 1, 10_000]:
            pts = _kernel_points(m, rows, rng)
            got = distance_to_set(m, pts, metric=metric)
            want = _by_rows(lambda p: broadcast_distance(m, p, metric), pts)
            assert got.shape == (rows,)
            assert np.array_equal(got, want), (name, rows)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_euclidean_plane_and_polyline_norms_are_linalg_norms_below_8(n):
    # below 8 coordinates _norm sums the squares left to right, as
    # np.linalg.norm does, so routing these residuals through it moved no bit
    rng = np.random.default_rng(80 + n)
    models = _kernel_models(n, rng)
    for name in ("tilted_plane", "axis_plane", "tilted_polyline3", "axis_polyline3"):
        pts = _kernel_points(models[name], 20_000, rng)
        want = broadcast_distance(models[name], pts, "euclidean", euclid=lambda x: np.linalg.norm(x, axis=-1))
        assert np.array_equal(distance_to_set(models[name], pts, metric="euclidean"), want), name


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_cut_hits_root_test_is_the_broadcast_norm(n, metric):
    # a target of 1 or more tests the points against the first map's fixed point
    maps = tuple(IFSMap(0.4, np.full(n, t)) for t in (0.0, 0.6))
    ifs = IFS(maps)
    z0, _ = attractor_bounds(ifs)
    pts = np.random.default_rng(90 + n).uniform(-1.0, 1.0, size=(100_000, n))
    for delta in (0.05, 0.5):
        assert np.array_equal(sets.cut_hits(ifs, pts, delta, 1.0, metric), _norm(pts - z0, metric) < delta)

def test_osc_cylinder_intersection_count_bounded():
    K = middle_third()
    rng = np.random.default_rng(11)
    counts = []
    for _ in range(100):
        x = sample_on_set(K, 1, rng)[0]
        r = 10 ** rng.uniform(-5, -1)
        centers, radii = cylinder_cut(K.ifs, r)
        counts.append(int(np.count_nonzero(np.linalg.norm(centers - x, axis=1) <= r + radii)))
    # the bound's existence is the point; its value is recorded
    print(f"OSC cylinder-hit bound over 100 draws: max={max(counts)}")
    assert max(counts) <= 8


def test_cylinder_cut_covers_attractor():
    K = middle_third()
    centers, radii = cylinder_cut(K.ifs, 0.01)
    pts = sample_on_set(K, 200, np.random.default_rng(5))
    d = np.min(np.abs(pts[:, 0][:, None] - centers[:, 0][None, :]) - radii[None, :], axis=1)
    assert np.max(d) <= 1e-12


def test_attractor_distance_bracketed_by_cut_rotated():
    ifs = rotated_2d()
    K = IFSAttractor(ifs)
    centers, radii = cylinder_cut(ifs, 0.002)
    xs = np.random.default_rng(8).uniform(-0.2, 1.2, size=(60, 2))
    tol = 1e-9
    got = distance_to_attractor(K, xs, tol=tol)
    d = np.linalg.norm(xs[:, None, :] - centers[None, :, :], axis=2)
    # centers lie on K and the balls cover it
    assert np.all(np.min(d - radii[None, :], axis=1) <= got)
    assert np.all(got <= np.min(d, axis=1) + tol)


_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])

# name: (config literal, the model it describes, built directly)
MODEL_JSON = {
    "points": ({"variant": "points", "points": [[0.1, 0.2]]}, PointSet(np.array([[0.1, 0.2]]))),
    "plane": (
        {"variant": "plane", "base": [0, 0], "basis": [[1, 0]], "extent": 2},
        AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0),
    ),
    "plane-default-extent": (
        {"variant": "plane", "base": [0, 0, 1], "basis": [[1, 0, 0], [0, 1, 0]]},
        AffinePlane(np.array([0.0, 0.0, 1.0]), np.eye(3)[:2], extent=1.0),
    ),
    "circle": ({"variant": "circle", "center": [0.5, 0.5], "radius": 0.3}, Circle(np.array([0.5, 0.5]), 0.3)),
    "sphere": ({"variant": "sphere", "center": [0, 0, 0], "radius": 1}, Sphere(np.zeros(3), 1.0)),
    "polyline": (
        {"variant": "polyline", "vertices": [[0, 0], [1, 1]]},
        Polyline(np.array([[0.0, 0.0], [1.0, 1.0]])),
    ),
    "ifs": (
        {"variant": "ifs", "maps": [{"ratio": 1 / 3, "translation": [0]}, {"ratio": 1 / 3, "translation": [2 / 3]}]},
        middle_third(),
    ),
    "ifs-rotation-osc": (
        {
            "variant": "ifs",
            "maps": [
                {"ratio": 0.5, "translation": [0, 0], "rotation": _QUARTER_TURN.tolist()},
                {"ratio": 0.4, "translation": [0.6, 0.1]},
            ],
            "osc": False,
        },
        IFSAttractor(
            IFS((IFSMap(0.5, np.zeros(2), _QUARTER_TURN), IFSMap(0.4, np.array([0.6, 0.1]))), False)
        ),
    ),
}


def _same_model(a, b):
    """Field-by-field equality of set models, arrays compared exactly."""
    if is_dataclass(a):
        return type(a) is type(b) and all(_same_model(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_model, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("obj, model", MODEL_JSON.values(), ids=MODEL_JSON)
def test_model_from_json_reads_each_variant(obj, model):
    assert _same_model(model_from_json(obj), model)


def test_model_from_json_rejects_unknown_variant():
    for obj in ({"variant": "torus"}, {"points": [[0.0]]}):
        with pytest.raises(ArgumentError, match="unknown model variant"):
            model_from_json(obj)


def test_model_json_roundtrip():
    rng = np.random.default_rng(0)
    for obj, m in MODEL_JSON.values():
        back = model_from_json(obj)
        x = rng.uniform(0, 1, size=m.ambient_dim)
        assert set_distance(back, x, metric="euclidean") == pytest.approx(
            set_distance(m, x, metric="euclidean"), rel=1e-9, abs=1e-9
        )


@pytest.mark.parametrize("variant, dim", [("circle", 2), ("sphere", 3)])
@pytest.mark.parametrize(
    "field, center, radius",
    [
        ("center", [math.nan, 0.0, 0.0], 1.0),
        ("center", [math.inf, 0.0, 0.0], 1.0),
        ("radius", [0.0, 0.0, 0.0], math.inf),
        ("radius", [0.0, 0.0, 0.0], math.nan),
        ("radius", [0.0, 0.0, 0.0], 0.0),
    ],
)
def test_round_models_refuse_what_their_volumes_cannot_take(variant, dim, field, center, radius):
    obj = {"variant": variant, "center": center[:dim], "radius": radius}
    with pytest.raises(ArgumentError, match=f"^{variant} {field} "):
        model_from_json(obj)
