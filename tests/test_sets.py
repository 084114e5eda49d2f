import math

import numpy as np
import pytest

from lspkit.errors import ArgumentError, UnsupportedCombination
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
    cylinder_cut,
    distance_to_set,
    model_from_json,
    model_to_json,
    read_points_csv,
    sample_on_set,
    similarity_dimension,
    transform_model,
    write_points_csv,
)


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
    # non-axis-aligned line in the plane: hyperplane closed form under sup
    diag = AffinePlane(np.zeros(2), np.array([[1.0, 1.0]]) / math.sqrt(2))
    # sup distance to {y=x} from (1, 0): the point (0.5, 0.5) realizes 0.5
    assert distance_to_set(diag, [1.0, 0.0], metric="sup") == pytest.approx(0.5)
    assert distance_to_set(diag, [1.0, 0.0], metric="euclidean") == pytest.approx(
        math.sqrt(2) / 2
    )


def test_line_in_3d_sup_distance_lp():
    line = AffinePlane(np.zeros(3), np.array([[1.0, 1.0, 0.0]]) / math.sqrt(2))
    d = distance_to_set(line, [1.0, 0.0, 0.3], metric="sup")
    # brute force over the line parameter
    t = np.linspace(-3, 3, 200001)
    pts = t[:, None] * (np.array([1.0, 1.0, 0.0]) / math.sqrt(2))
    brute = np.min(np.max(np.abs(pts - np.array([1.0, 0.0, 0.3])), axis=1))
    assert d == pytest.approx(brute, abs=1e-4)


def _chebyshev_lp(c, d):
    """Reference: min over t in [0, 1] of max_i |c_i - t d_i| as an LP in (t, z)."""
    from scipy.optimize import linprog

    n = len(c)
    ones = np.ones((n, 1))
    a_ub = np.vstack([np.hstack([-d[:, None], -ones]), np.hstack([d[:, None], -ones])])
    b_ub = np.concatenate([-c, c])
    res = linprog([0.0, 1.0], A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0), (0.0, None)], method="highs")
    assert res.success
    return res.x[1]


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
    got = _sup_segment_min(c, d)
    ref = np.array([_chebyshev_lp(ci, di) for ci, di in cases])
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
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
    ref = [min(_chebyshev_lp(p - a, b - a) for a, b in zip(verts[:-1], verts[1:])) for p in pts]
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_cantor_distance():
    K = middle_third()
    assert distance_to_set(K, [0.5], tol=1e-8) == pytest.approx(1 / 6, abs=1e-6)
    assert distance_to_set(K, [0.0], tol=1e-8) == pytest.approx(0.0, abs=1e-6)


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
    d = distance_to_set(K, pts, tol=1e-8)
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


def test_similarity_dimension():
    two_thirds = IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    assert similarity_dimension(two_thirds) == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
    three_halves = IFS(
        tuple(IFSMap(0.5, np.array([float(k), 0.0])) for k in range(3)), True
    )
    assert similarity_dimension(three_halves) == pytest.approx(math.log(3) / math.log(2), abs=1e-9)
    pair_half = IFS((IFSMap(0.5, np.array([0.0])), IFSMap(0.5, np.array([0.5]))), True)
    assert similarity_dimension(pair_half) == pytest.approx(1.0, abs=1e-9)
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
        before = distance_to_set(m, x, tol=1e-9, metric="euclidean")
        after = distance_to_set(transform_model(m, iso), iso.apply(x), tol=1e-9, metric="euclidean")
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


def test_wrapped_equivariance_translations():
    rng = np.random.default_rng(3)
    ps = PointSet(rng.uniform(0, 1, size=(4, 2)))
    for _ in range(200):
        iso = Isometry(translation=rng.uniform(0, 1, size=2), wrap=True)
        x = rng.uniform(0, 1, size=2)
        before = distance_to_set(ps, x, metric="sup", wrap=True)
        after = distance_to_set(transform_model(ps, iso), iso.apply(x), metric="sup", wrap=True)
        assert after == pytest.approx(before, abs=1e-9)


def test_wrap_with_general_rotation_rejected():
    ps = PointSet(np.array([[0.2, 0.2]]))
    iso = Isometry(translation=np.zeros(2), rotation=rotation(0.3), wrap=True)
    with pytest.raises(UnsupportedCombination):
        transform_model(ps, iso)
    # signed permutations act on the torus and are allowed
    perm = Isometry(translation=np.zeros(2), rotation=np.array([[0.0, 1.0], [1.0, 0.0]]), wrap=True)
    out = transform_model(ps, perm)
    assert np.allclose(out.points, [[0.2, 0.2]])


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
    got = distance_to_set(K, xs, tol=tol, metric="euclidean")
    d = np.linalg.norm(xs[:, None, :] - centers[None, :, :], axis=2)
    # centers lie on K and the balls cover it
    assert np.all(np.min(d - radii[None, :], axis=1) <= got)
    assert np.all(got <= np.min(d, axis=1) + tol)


def test_model_json_roundtrip():
    models = [
        PointSet(np.array([[0.1, 0.2]])),
        AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0),
        Circle(np.array([0.5, 0.5]), 0.3),
        Sphere(np.zeros(3), 1.0),
        Polyline(np.array([[0.0, 0.0], [1.0, 1.0]])),
        middle_third(),
    ]
    rng = np.random.default_rng(0)
    for m in models:
        back = model_from_json(model_to_json(m))
        x = rng.uniform(0, 1, size=m.ambient_dim)
        assert distance_to_set(back, x, metric="euclidean") == pytest.approx(
            distance_to_set(m, x, metric="euclidean"), rel=1e-9, abs=1e-9
        )


def test_points_csv_roundtrip(tmp_path):
    pts = np.random.default_rng(0).uniform(size=(7, 3))
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    back = read_points_csv(path)
    assert np.allclose(back, pts)
