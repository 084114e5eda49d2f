import functools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import cKDTree

from lspkit import measure
from lspkit.errors import ArgumentError, ToolkitError
from lspkit.cli import bundled_config
from lspkit.measure import (
    ball_volume,
    box_dimensions,
    exact_volumes,
    fit_lsp,
    minkowski_content,
    neighborhood_length_1d,
    regress_lsp,
    sample_in_ball,
    _hit_counts,
    _mc_volume,
    _merge_union,
    _union_length_in,
)
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
    attractor_bounds,
    cut_hits,
    cylinder_cut,
    distance_to_set,
    model_from_json,
    model_window,
    sample_on_set,
    _cylinder_tree,
    _expand,
    _node_bounds,
    _norm,
    _select,
)

from set_oracles import (
    distance_to_attractor,
    proxy_hits,
    proxy_target,
    proxy_tree,
    support_slopes_exact,
    transform_model,
)


def middle_third():
    return IFSAttractor(
        IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    )


def _mc_measure(m, center, r, delta, samples, rng):
    """Monte Carlo volume of B(center, r) in the delta-neighborhood of m, and
    its binomial standard error, from the estimators' kernels."""
    pts = sample_in_ball(center, r, samples, rng)
    hits = _hit_counts(m, [pts], [delta])[0, 0]
    return _mc_volume(ball_volume(len(center), r), hits, samples)


def test_exact_point_interval():
    assert neighborhood_length_1d(PointSet(np.array([[0.0]])), 0.1, -0.5, 0.5) == pytest.approx(0.2, rel=1e-12)


def test_line_rectangle_mc():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
    value, err = _mc_measure(line, [0.0, 0.0], 0.5, 0.1, 200_000, np.random.default_rng(1))
    assert abs(value - 0.2) <= 3 * err


def test_circle_against_grid_quadrature():
    circ = Circle(np.zeros(2), 1.0)
    center = np.array([1.0, 0.0])  # on the circle
    r, delta = 0.2, 0.02
    value, err = _mc_measure(circ, center, r, delta, 1_000_000, np.random.default_rng(2))
    # brute-force quadrature oracle at resolution 1e-4 over the sup ball
    h = 1e-4
    xs = np.arange(center[0] - r + h / 2, center[0] + r, h)
    ys = np.arange(center[1] - r + h / 2, center[1] + r, h)
    xx, yy = np.meshgrid(xs, ys)
    inside = np.abs(np.hypot(xx, yy) - 1.0) < delta
    oracle = inside.sum() * h * h
    assert abs(value - oracle) <= 3 * err + 1e-4


def test_mc_agrees_with_exact_on_random_1d_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        model = PointSet(rng.uniform(-1, 1, size=(k, 1)))
        r = rng.uniform(0.2, 0.6)
        delta = r * rng.uniform(0.05, 0.5)
        center = rng.uniform(-1, 1, size=1)
        exact = neighborhood_length_1d(model, delta, center[0] - r, center[0] + r)
        # independent Monte-Carlo estimate of the same quantity
        n = 40_000
        pts = rng.uniform(center[0] - r, center[0] + r, size=(n, 1))
        p = np.count_nonzero(distance_to_set(model, pts) < delta) / n
        mc = 2 * r * p
        se = 2 * r * math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(mc - exact) <= 3 * se + 1e-9


def test_neighborhood_monotone_in_delta_and_r():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
    rng = np.random.default_rng(4)
    vals = [_mc_measure(line, [0.0, 0.0], 0.5, delta, 100_000, rng) for delta in (0.02, 0.05, 0.1)]
    for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
        assert v2 >= v1 - 3 * (e1 + e2)
    vals = [_mc_measure(line, [0.0, 0.0], r, 0.02, 100_000, rng) for r in (0.3, 0.5, 0.8)]
    for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
        assert v2 >= v1 - 3 * (e1 + e2)


def test_regression_recovers_synthetic_exponents():
    rng = np.random.default_rng(5)
    ld = rng.uniform(-9, -2, size=60)
    lr = rng.uniform(-4, -1, size=60)
    lh = 1.25 * ld + 0.4 * lr - 0.7
    reg = regress_lsp(ld, lr, lh)
    assert reg["delta_exp"] == pytest.approx(1.25, abs=1e-6)
    assert reg["r_exp"] == pytest.approx(0.4, abs=1e-6)
    with pytest.raises(ArgumentError):
        regress_lsp(np.full(10, -3.0), lr[:10], lh[:10])


def test_fit_lsp_point_exact():
    fit = fit_lsp(
        PointSet(np.array([[0.0]])),
        [2.0**-k for k in range(1, 7)],
        [2.0**-k for k in range(2, 8)],
        rng=np.random.default_rng(6),
    )
    assert abs(fit.kappa_hat) <= 0.05
    assert np.isfinite(fit.c4_hat / fit.c3_hat)


def test_fit_lsp_line():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
    fit = fit_lsp(
        line,
        [0.5 * 2.0**-k for k in range(0, 6)],
        [2.0**-k for k in range(2, 8)],
        samples=20_000,
        rng=np.random.default_rng(7),
    )
    assert fit.kappa_hat == pytest.approx(0.5, abs=0.05)


def test_fit_lsp_cantor():
    fit = fit_lsp(
        middle_third(),
        [3.0**-k for k in range(2, 8)],
        [3.0**-k for k in range(1, 7)],
        rng=np.random.default_rng(8),
    )
    assert fit.kappa_hat == pytest.approx(math.log(2) / math.log(3), abs=0.05)
    ratio = fit.c4_hat / fit.c3_hat
    print(f"cantor envelope ratio c4/c3 = {ratio:.3f}")
    assert np.isfinite(ratio) and ratio >= 1.0


def test_fit_lsp_rejects_flat_grids():
    with pytest.raises(ArgumentError):
        fit_lsp(PointSet(np.array([[0.0]])), [0.1, 0.1], [0.9, 0.9], rng=np.random.default_rng(0))


def test_support_slopes_match_the_lp():
    # on random inputs, where mean(x) is no hull vertex, the hull edges that
    # span it are the unique optima of the support-line programs; the slope
    # (y1 - y0) / (x1 - x0) of an edge's floats takes three roundings, so it
    # is within 2**-51 of the exact slope, relatively (1.8 * 2**-53 was seen)
    rng = np.random.default_rng(31)
    for _ in range(2000):
        k = int(rng.integers(2, 12))
        x = rng.uniform(-9.0, -1.0, size=k)
        y = 1.5 * x + rng.normal(size=k)
        for got, want in zip(measure._support_slopes(x, y), support_slopes_exact(x, y)):
            assert abs(Fraction(got) - want) <= 2**-51 * abs(want)


@pytest.mark.parametrize(
    "x",
    [
        [0.0, 1.0, 2.0],
        [0.0, 0.5, 1.0, 1.0, 2.0],  # a repeated x on the vertex
        # seven halving scales: mean(x) falls 8.9e-16 left of the middle point
        np.log(2.0 ** -np.arange(6, 13)),
        # and 4.4e-16 right of it
        np.log(2.0 ** -np.arange(2, 9)),
    ],
    ids=["exact", "repeated", "mean-left", "mean-right"],
)
def test_support_slopes_take_the_left_edge_at_a_vertex(x):
    # mean(x) on a hull vertex: every slope between its two edges is optimal,
    # and the edge left of the vertex is taken, whichever side of it the
    # rounded mean falls
    x = np.asarray(x, dtype=float)
    mid = np.median(x)
    kink = np.abs(x - mid)
    # a V below: the lower hull turns at the vertex, from slope -1 to 1
    lower, upper = measure._support_slopes(x, kink)
    assert lower == -1.0 and upper == pytest.approx((kink[-1] - kink[0]) / (x[-1] - x[0]), abs=1e-12)
    # a V above: the upper hull turns there, from slope 1 to -1
    lower, upper = measure._support_slopes(x, -kink)
    assert upper == 1.0 and lower == pytest.approx(-(kink[-1] - kink[0]) / (x[-1] - x[0]), abs=1e-12)


def test_box_dimensions_need_two_distinct_scales_with_measure(monkeypatch):
    # three repeated scales keep measure and the fine one none: no support
    # line has a slope
    volumes = (np.array([0.1, 0.1, 0.1, 1e-3]), np.array([0.5, 0.5, 0.5, 0.0]))
    monkeypatch.setattr(measure, "_window_volumes", lambda *args: volumes)
    with pytest.raises(ToolkitError, match="too few distinct scales with positive measure"):
        box_dimensions(PointSet(np.zeros((1, 2))), [0.1, 0.1, 0.1, 1e-3], rng=np.random.default_rng(0))


def test_box_dimension_preconditions_and_degenerate():
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ArgumentError):
        box_dimensions(seg, [0.1, 0.05, 0.02], rng=np.random.default_rng(0))
    # sampling far below the hit density leaves nearly every scale empty
    pt3 = PointSet(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(ToolkitError, match="too few distinct scales with positive measure"):
        box_dimensions(
            pt3,
            [1e-3, 1e-4, 1e-5, 1e-6],
            samples_per_scale=1000,
            rng=np.random.default_rng(9),
        )


@pytest.mark.parametrize(
    "estimate",
    [box_dimensions, lambda m, scales, **kw: minkowski_content(m, 0.0, scales, **kw)],
    ids=["boxdim", "minkowski"],
)
def test_window_estimators_share_checks(estimate):
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    for scales in ([0.1, 0.05, 0.02], [0.1, 0.05, 0.02, 0.002]):
        with pytest.raises(ArgumentError, match="need >= 4 scales spanning >= 2 decades"):
            estimate(seg, scales, rng=np.random.default_rng(0))
    # in 12 dimensions the point's neighborhood fills (2/3)**12 of the window
    # at the largest scale, so 20 window points all miss
    with pytest.raises(ToolkitError, match="zero measure at every scale"):
        estimate(PointSet(np.zeros((1, 12))), [1e-1, 1e-2, 1e-3, 1e-4], samples_per_scale=20,
                 rng=np.random.default_rng(0))


def test_minkowski_examples():
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    lo, hi = minkowski_content(
        seg, 1.0, [2.0**-k for k in range(5, 13)], samples_per_scale=200_000,
        rng=np.random.default_rng(10),
    )
    assert lo == pytest.approx(2.0, rel=0.1)
    assert hi == pytest.approx(2.0, rel=0.1)

    lo, hi = minkowski_content(
        PointSet(np.array([[0.0]])), 0.0, [2.0**-k for k in range(4, 12)],
        rng=np.random.default_rng(11),
    )
    assert lo == pytest.approx(2.0, rel=1e-9)
    assert hi == pytest.approx(2.0, rel=1e-9)

    d = math.log(2) / math.log(3)
    lo, hi = minkowski_content(
        middle_third(), d, [10.0 ** (-1.2 - 0.35 * k) for k in range(8)],
        rng=np.random.default_rng(12),
    )
    assert lo > 0 and math.isfinite(hi)
    print(f"cantor content band [{lo:.4f}, {hi:.4f}] ratio {hi / lo:.3f}")
    assert hi / lo < 10


def _merge_length(intervals, lo=None, hi=None):
    """Total length of a union of intervals, optionally clipped to [lo, hi]:
    a sort-and-sweep oracle for ``_union_length_in``."""
    if len(intervals) == 0:
        return 0.0
    arr = np.asarray(intervals, dtype=float)
    if lo is not None:
        arr = np.clip(arr, lo, hi)
    order = np.argsort(arr[:, 0], kind="stable")
    a = arr[order, 0]
    b = arr[order, 1]
    prev = np.concatenate([[-np.inf], np.maximum.accumulate(b)[:-1]])
    return float(np.sum(np.clip(b - np.maximum(a, prev), 0.0, None)))


def test_merge_length():
    spans = [(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]
    assert _merge_length(spans) == pytest.approx(3.0)
    assert _merge_length([(0.0, 1.0)], lo=0.25, hi=0.5) == pytest.approx(0.25)
    assert _merge_length([]) == 0.0
    assert np.array_equal(_union_length_in(_merge_union(*zip(*spans)), [-1.0, 0.25, 1.5], [5.0, 0.5, 3.5]), [3.0, 0.25, 1.0])


def test_union_length_in_matches_merge_length():
    rng = np.random.default_rng(14)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        a = rng.uniform(-1.0, 1.0, size=k)
        spans = np.stack([a, a + rng.exponential(0.1, size=k)], axis=1)
        lo = rng.uniform(-1.5, 1.0, size=6)
        hi = lo + rng.exponential(0.5, size=6)
        got = _union_length_in(_merge_union(*spans.T), lo, hi)
        want = [_merge_length(spans, lo=x, hi=y) for x, y in zip(lo, hi)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(_union_length_in(_merge_union([], []), [0.0, 1.0], [1.0, 2.0]), [0.0, 0.0])


def sierpinski():
    maps = (
        IFSMap(0.5, np.array([0.0, 0.0])),
        IFSMap(0.5, np.array([0.5, 0.0])),
        IFSMap(0.5, np.array([0.25, 0.5])),
    )
    return IFSAttractor(IFS(maps, True))


def mixed_ratio_ifs():
    maps = (
        IFSMap(0.5, np.array([0.0, 0.0])),
        IFSMap(0.3, np.array([0.7, 0.0])),
        IFSMap(0.25, np.array([0.1, 0.75])),
        IFSMap(0.2, np.array([0.8, 0.8])),
    )
    return IFSAttractor(IFS(maps, True))


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotating_ifs():
    rot = rotation(0.7)
    maps = (
        IFSMap(0.45, np.array([0.0, 0.0]), rot),
        IFSMap(0.4, np.array([0.6, 0.1])),
        IFSMap(0.35, np.array([0.2, 0.6]), rot.T),
    )
    return IFSAttractor(IFS(maps, True))


_DELTAS = [0.2, 0.08, 0.03, 0.012]


def floor_hits(model, pts, delta, metric="sup"):
    """One full walk at ``delta`` down to the estimators' floor."""
    _, r0 = attractor_bounds(model.ifs)
    return cut_hits(model.ifs, pts, delta, measure._FLOOR * delta / (2 * r0), metric)


def _distances(model, pts, metric="sup", bound=np.inf):
    """The distance pass of ``_hit_counts`` over a whole cloud: a KD-tree
    query, inf from ``bound`` on, for a point set of more than 64 points,
    else ``distance_to_set``."""
    if isinstance(model, PointSet) and len(model.points) > 64:
        return cKDTree(model.points).query(pts, k=1, p=np.inf if metric == "sup" else 2, distance_upper_bound=bound)[0]
    return distance_to_set(model, pts, metric=metric)


def _oracle_hits(model, delta, metric):
    """Reference hit test at ``delta``, from points to a mask: one full walk
    at the floor for an attractor, else the model's exact distance."""
    if isinstance(model, IFSAttractor):
        return lambda pts: floor_hits(model, pts, delta, metric)
    return lambda pts: _distances(model, pts, metric, delta) < delta


def _sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


def _far_cloud(rng):
    # 0.1-0.15 (sup) right of the gasket's corner (1, 0): hits only at 0.2
    return rng.uniform([1.1, 0.0], [1.15, 0.05], size=(500, 2))


# a delta 1e-9 below the previous one re-tests every point, one 3e-9 below
# only the previous hits (``_hit_counts``: delta_prev (1 - 2e-9) less 2e-12 r0)
_NEAR_REPEATS = [0.1, 0.1 * (1 - 1e-9), 0.04, 0.04 * (1 - 3e-9)]


@pytest.mark.parametrize(
    "model, metric, deltas",
    [
        (Polyline(np.array([[0.0, 0.1], [0.6, 0.5], [1.0, 0.2]])), "sup", _DELTAS),
        (AffinePlane(np.array([0.0, 0.3]), np.array([[1.0, 0.0]]), extent=2.0), "sup", _DELTAS),
        (Circle(np.array([0.5, 0.5]), 0.4), "euclidean", _DELTAS),
        (PointSet(np.random.default_rng(15).uniform(0.0, 1.0, size=(100, 2))), "sup", _DELTAS),
        (sierpinski(), "sup", _DELTAS),
        (sierpinski(), "euclidean", _DELTAS),
        (sierpinski(), "euclidean", [0.12, 0.06, 0.03, 0.015, 0.0075, 0.00375]),
        (mixed_ratio_ifs(), "sup", _DELTAS),
        (mixed_ratio_ifs(), "euclidean", _DELTAS),
        (rotating_ifs(), "sup", _DELTAS),
        (rotating_ifs(), "euclidean", _DELTAS),
        (sierpinski(), "sup", [0.03, 0.2, 0.012, 0.08]),
        (rotating_ifs(), "euclidean", [0.012, 0.08, 0.2, 0.03]),
        (sierpinski(), "sup", [0.2, 0.08, 0.08, 0.03]),
        (rotating_ifs(), "sup", [0.08, 0.03, 0.08, 0.012, 0.03]),
        (sierpinski(), "sup", _NEAR_REPEATS),
        (mixed_ratio_ifs(), "euclidean", _NEAR_REPEATS),
    ],
    ids=[
        "tilted-polyline",
        "line",
        "circle",
        "point-tree",
        "sierpinski",
        "sierpinski-euclidean",
        "sierpinski-window",
        "mixed-ratio",
        "mixed-ratio-euclidean",
        "rotating",
        "rotating-euclidean",
        "unsorted",
        "unsorted-rotating",
        "duplicate",
        "duplicates-rotating",
        "near-repeats",
        "near-repeats-mixed",
    ],
)
def test_hit_counts_match_per_delta_oracles(model, metric, deltas):
    # coarse to fine, repeated and unsorted deltas count as one full test
    # per delta: a walk to the floor for an attractor
    rng = np.random.default_rng(16)
    clouds = [rng.uniform(-0.2, 1.2, size=(3000, 2)) for _ in range(3)] + [_far_cloud(rng)]
    counts = _hit_counts(model, clouds, deltas, metric=metric)
    tests = [_oracle_hits(model, d, metric) for d in deltas]
    want = [[np.count_nonzero(test(pts)) for test in tests] for pts in clouds]
    assert counts.tolist() == want
    d = np.asarray(deltas)
    if np.all(d[1:] < d[:-1]):  # nested: a miss stays a miss
        assert np.all(np.diff(counts, axis=1) <= 0)


def test_hit_counts_far_cloud_runs_out_of_hits():
    counts = _hit_counts(sierpinski(), [_far_cloud(np.random.default_rng(16))], _DELTAS)
    assert counts[0, 0] == 500 and counts[0, 1:].tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "deltas, nested",
    [
        ([0.2, 0.08, 0.08, 0.03, 0.012], [False, True, False, True, True]),
        (_NEAR_REPEATS, [False, False, True, True]),
    ],
    ids=["duplicate", "near-repeats"],
)
def test_hit_counts_query_only_previous_hits(monkeypatch, deltas, nested):
    # a nested delta's walk sees exactly the previous delta's hits; the
    # first delta, a repeated one and one within 2e-9 below the previous
    # test every point.  The cloud is walked in its own order
    # (``_cell_order``), so the rows each walk sees are compared as sorted
    # sets of rows.
    m = sierpinski()
    pts = np.random.default_rng(17).uniform(-0.2, 1.2, size=(4000, 2))
    hits = [floor_hits(m, pts, d) for d in deltas]
    queries = []

    def spy(ifs, x, *args):
        queries.append(np.array(x))
        return cut_hits(ifs, x, *args)

    monkeypatch.setattr(measure, "cut_hits", spy)
    counts = _hit_counts(m, [pts], deltas)
    assert counts[0].tolist() == [np.count_nonzero(h) for h in hits]
    assert len(queries) == len(deltas)
    for j, got in enumerate(queries):
        assert np.array_equal(_sorted_rows(got), _sorted_rows(pts[hits[j - 1]] if nested[j] else pts))


@pytest.mark.parametrize(
    "model",
    [
        PointSet(np.random.default_rng(15).uniform(0.0, 1.0, size=(100, 2))),
        Polyline(np.array([[0.0, 0.1], [0.6, 0.5], [1.0, 0.2]])),
        AffinePlane(np.array([0.0, 0.3]), np.array([[1.0, 0.0]]), extent=2.0),
    ],
    ids=["point-tree", "tilted-polyline", "line"],
)
def test_blocked_distance_pass_counts_like_one_pass(model):
    block = measure._DISTANCE_BLOCK
    rng = np.random.default_rng(23)
    clouds = [rng.uniform(-0.2, 1.2, size=(rows, 2)) for rows in (block - 1, block, block + 1, 2 * block + 3)]
    deltas = np.array(_DELTAS)
    whole = [_distances(model, pts, bound=deltas.max()) for pts in clouds]
    want = [[np.count_nonzero(dist < d) for d in deltas] for dist in whole]
    assert np.array_equal(_hit_counts(model, clouds, deltas), want)


_GASKET_SCALES = [0.12, 0.06, 0.03, 0.015, 0.0075, 0.00375, 0.001875, 0.0009375]  # boxdim_sierpinski


def gasket(r):
    t = 1.0 - r
    maps = (IFSMap(r, np.array([0.0, 0.0])), IFSMap(r, np.array([t, 0.0])), IFSMap(r, np.array([t / 2, t])))
    return IFSAttractor(IFS(maps, True))


def _edge_points(centers, delta, metric, rng, count=1000):
    """Points at distance delta from random cut centers, in ``metric`` up to
    rounding."""
    c = centers[rng.integers(0, len(centers), size=count)]
    if metric == "sup":
        u = rng.uniform(-1.0, 1.0, size=c.shape)
        u[np.arange(count), rng.integers(0, c.shape[1], size=count)] = rng.choice([-1.0, 1.0], size=count)
    else:
        u = rng.normal(size=c.shape)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    return c + delta * u


def tetrahedral_ifs():
    """Four maps of ratio 0.4 toward the corners of a tetrahedron in R^3."""
    corners = [[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.6]]
    return IFSAttractor(IFS(tuple(IFSMap(0.4, np.array(c)) for c in corners), True))


def _turn_3d():
    """An orthogonal map of R^3 that moves every coordinate axis."""
    return np.linalg.qr(np.array([[2.0, 1.0, 0.0], [0.5, 1.0, 1.0], [0.0, 0.3, 1.0]]))[0]


@pytest.mark.parametrize(
    "model",
    [
        gasket(0.5),
        gasket(0.45),
        gasket(0.491),
        mixed_ratio_ifs(),
        rotating_ifs(),
        # z0 off the origin, with and without rotated maps
        transform_model(gasket(0.45), Isometry(np.array([0.31, -0.17]))),
        transform_model(mixed_ratio_ifs(), Isometry(np.array([-0.4, 0.23]), rotation(0.3))),
        # in R^3: boxes, and balls about hubs (every map carries the identity rotation)
        tetrahedral_ifs(),
        transform_model(tetrahedral_ifs(), Isometry(np.array([0.2, -0.1, 0.3]), _turn_3d())),
    ],
    ids=["gasket", "gasket-0.45", "gasket-0.491", "mixed-ratio", "rotating", "moved-gasket", "moved-mixed",
         "tetrahedral", "moved-tetrahedral"],
)
@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_cut_hits_match_proxy_tree(model, metric):
    # the walk reproduces a bounded tree query on the cut bit for bit, at
    # every bundled gasket scale (the 1 M-ball cut of the finest left out in
    # R^3), on window points and on points at distance delta from a cut
    # center (and the first points just inside), the latter also in runs of
    # 64 equal points, so that whole blocks sit at distance delta
    rng = np.random.default_rng(21)
    n = model.ambient_dim
    lo, hi = model_window(model, margin=0.18)
    window = rng.uniform(lo, hi, size=(5000, n))
    exact = 0
    for d in _GASKET_SCALES[: 7 if n == 3 else None]:
        target = proxy_target(model.ifs, d, 0.4)
        tree = proxy_tree(model, d, 0.4)
        centers = tree.data  # the cut centers
        edge = _edge_points(centers, d, metric, rng)
        nearest, idx = tree.query(edge, k=1, p=np.inf if metric == "sup" else 2)
        on = nearest == d  # no cut center is nearer than delta
        # the first points toward the nearest center, in steps of the spacing
        # of the larger coordinate, whose computed distance to it drops below
        c = centers[idx]
        inner = edge.copy()
        for _ in range(8):
            out = _norm(inner - c, metric) >= nearest
            inner[out] += np.sign(c - inner)[out] * np.spacing(np.maximum(np.abs(inner), np.abs(c)))[out]
        pts = np.concatenate([window, edge, inner, np.repeat(edge[:100], 64, axis=0)])
        want = proxy_hits(model, pts, d, metric, tree=tree)
        assert np.array_equal(cut_hits(model.ifs, pts, d, target, metric), want)
        assert not np.any(want[len(window) : len(window) + len(edge)][on])
        if metric == "sup":
            assert np.all(want[len(window) + len(edge) : len(window) + 2 * len(edge)][on])
        exact += np.count_nonzero(on)
    assert metric != "sup" or exact >= 20


@pytest.mark.parametrize(
    "model", [gasket(0.5), rotating_ifs(), tetrahedral_ifs()], ids=["gasket", "rotating", "tetrahedral"]
)
@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_cut_hits_do_not_depend_on_point_order(model, metric):
    # the walk's blocks are consecutive points, so any order gives the same
    # mask: shuffled, reversed, in Z-order, and in runs shorter than a block;
    # at a coarse target, the proxy tree's mask, and at the floor, the
    # walk's own in the given order
    rng = np.random.default_rng(31)
    n = model.ambient_dim
    _, r0 = attractor_bounds(model.ifs)
    lo, hi = model_window(model, margin=0.05)
    near = sample_on_set(model, 1000, rng) + rng.normal(scale=0.01, size=(1000, n))
    pts = np.concatenate([rng.uniform(lo, hi, size=(3000, n)), near])
    for d in (0.1, 0.01):
        floor = measure._FLOOR * d / (2 * r0)
        for target, want in (
            (proxy_target(model.ifs, d, 0.4), proxy_hits(model, pts, d, metric, 0.4)),
            (floor, cut_hits(model.ifs, pts, d, floor, metric)),
        ):
            for order in (rng.permutation(len(pts)), np.arange(len(pts))[::-1], measure._cell_order(pts)):
                assert np.array_equal(cut_hits(model.ifs, pts[order], d, target, metric), want[order])
            for rows in (slice(0, 5), slice(3500, 3501), slice(0, 0)):
                assert np.array_equal(cut_hits(model.ifs, pts[rows], d, target, metric), want[rows])


def gasket_3d():
    """Four maps of ratio 0.5 toward the corners of the unit simplex in R^3."""
    corners = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
    return IFSAttractor(IFS(tuple(IFSMap(0.5, np.array(c)) for c in corners), True))


@functools.cache
def _deep_cut(name):
    """A cut of about 0.5 M balls (0.26 M in R^3) of one of the floor test's
    sets, with its KD-tree."""
    model, target = {
        "gasket": (gasket(0.5), 2.0**-12),
        "gasket-0.42": (gasket(0.42), 0.42**12),
        "rotating": (rotating_ifs(), 1.5e-4),
        "gasket-3d": (gasket_3d(), 2.0**-9),
    }[name]
    centers, radii = cylinder_cut(model.ifs, target)
    return model, centers, float(radii.max()), cKDTree(centers)


@pytest.mark.parametrize("name", ["gasket", "gasket-0.42", "rotating", "gasket-3d"])
@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_floor_hits_lie_within_delta_and_misses_beyond_it(name, metric):
    # at the floor each hit lies within delta of the attractor K and each
    # miss at least delta (1 - 2e-9) from it, on points at distance delta
    # from the centers of a coarse cut, which lie on K.  In the sup metric a
    # few of them lie at distance delta from a face of K, and miss.
    # Reference distances to K, each at least the distance up to rounding:
    # Euclidean, the branch-and-bound distance, at most tol above it; sup,
    # the least distance to a deep cut's centers, at most the cut's ball
    # radius above it.
    model, _, radius, tree = _deep_cut(name)
    rng = np.random.default_rng(41)
    misses = 0
    for d in (0.1, 0.01):
        centers, _ = cylinder_cut(model.ifs, proxy_target(model.ifs, d, 0.4))
        pts = _edge_points(centers, d, metric, rng, count=300)
        hit = floor_hits(model, pts, d, metric)
        if metric == "euclidean":
            dist, above = distance_to_attractor(model, pts, tol=1e-4 * d), 1e-4 * d
        else:
            dist, above = tree.query(pts, k=1, p=np.inf)[0], radius
        assert np.all(dist[hit] < d + above)
        assert np.all(dist[~hit] >= d * (1 - 2e-9))
        misses += np.count_nonzero(~hit)
    assert misses >= (10 if metric == "sup" and name != "rotating" else 0)


@pytest.mark.parametrize(
    "model",
    [
        gasket(0.45),
        mixed_ratio_ifs(),
        rotating_ifs(),
        tetrahedral_ifs(),
        transform_model(mixed_ratio_ifs(), Isometry(np.array([-0.4, 0.23]), rotation(0.3))),
    ],
    ids=["gasket-0.45", "mixed-ratio", "rotating", "tetrahedral", "moved-mixed"],
)
@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_node_bounds_hold_the_cut_centers_below_them(model, metric):
    # every cut center below a second-level node lies within the walk's
    # slack of the node's bound; when no map rotates the bound is the box of
    # the fixed points mapped by the node, and the centers reach within
    # r0 target of each of its faces (the words a a ... a of the cut tend to
    # the node's image of the fixed point of map a)
    ifs = model.ifs
    z0, r0 = attractor_bounds(ifs)
    slack = 1e-12 * (float(np.linalg.norm(z0)) + r0)
    gap, _ = _node_bounds(ifs, z0, metric)
    parts, nodes = _cylinder_tree(ifs)
    for _ in range(2):
        nodes, refs = _expand(nodes, parts, z0)
    target = 1e-3
    fixed = np.stack([m.translation / (1.0 - m.ratio) for m in ifs.maps])
    for i in range(nodes[0].size):
        node = _select(nodes, np.array([i]))
        front, below = node, []
        while front[0].size:
            front, centers = _expand(front, parts, z0)
            below.append(centers[:, front[0] <= target])
            front = _select(front, front[0] > target)
        below = np.concatenate(below, axis=1)
        diff = below - refs[:, i : i + 1]
        assert np.all(gap(diff, diff, _select(node, np.zeros(below.shape[1], dtype=np.intp))) <= slack)
        if node[1] is None:
            s, o = node[0][0], node[2][:, 0]
            box_lo, box_hi = s * fixed.min(axis=0) + o, s * fixed.max(axis=0) + o
            assert np.all(below >= box_lo[:, None] - slack) and np.all(below <= box_hi[:, None] + slack)
            reach = r0 * target
            assert np.all(below.min(axis=1) <= box_lo + reach) and np.all(below.max(axis=1) >= box_hi - reach)


@pytest.mark.parametrize(
    "model, metric",
    [
        (AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0), "sup"),
        (Circle(np.zeros(2), 1.0), "euclidean"),
        (middle_third(), "sup"),
    ],
    ids=["line", "circle", "cantor"],
)
def test_fit_lsp_extra_delta_leaves_cells_unchanged(model, metric):
    r_grid = [0.5 * 3.0**-k for k in range(0, 4)]
    ratios = [0.25, 0.0625, 0.015625]

    def points(rs):
        fit = fit_lsp(model, r_grid, rs, samples=4000, rng=np.random.default_rng(17), metric=metric)
        return fit.points

    base = points(ratios)
    more = points(ratios + [0.03])
    assert len(more) == len(base) + len(r_grid)
    assert [p for p in more if not math.isclose(p[1] - p[0], math.log(0.03))] == base


def test_box_dimensions_extra_scale_leaves_shared_volumes_unchanged():
    seg = Polyline(np.array([[0.0, 0.0], [0.9, 0.3]]))
    scales = [2.0**-k for k in range(5, 13)]

    def volumes(sc):
        lower, _ = box_dimensions(seg, sc, samples_per_scale=20_000, rng=np.random.default_rng(18))
        return dict(lower.points)

    base = volumes(scales)
    more = volumes(scales + [0.75 * 2.0**-7, 2.0**-14])
    assert len(more) == len(base) + 2
    assert {x: more[x] for x in base} == base


def cantor_1d(*maps):
    """1-D attractor of (ratio, translation, reversing) maps."""
    rev = np.array([[-1.0]])
    return IFSAttractor(IFS(tuple(IFSMap(r, np.array([t]), rev if flip else None) for r, t, flip in maps), True))


# every set spans [0, 1]
_SETS_1D = {
    "middle-third": middle_third(),
    "reflected": cantor_1d((1 / 3, 1 / 3, True), (1 / 3, 2 / 3, False)),  # x -> -x/3 + 1/3: the middle third
    "unequal": cantor_1d((0.5, 0.0, False), (0.3, 0.7, False)),
    "three-maps": cantor_1d((0.25, 0.0, False), (0.2, 0.6, True), (0.3, 0.7, False)),
}
# windows inside the hull [0, 1], around it, straddling an end, and outside it
_WINDOWS = np.array([
    [0.1, 0.2], [0.3, 0.7], [0.05, 0.95], [0.2, 0.2001],
    [-0.5, 1.5], [0.0, 1.0],
    [0.9, 1.2], [-0.3, 0.01],
    [2.0, 3.0], [-1.0, -0.5],
])


def _hull_union_length(model, delta, lo, hi):
    """Oracle: at a level L where ratio_max**L (times the largest gap, at
    most the hull length 1) <= 2 delta, N_delta(K) is exactly the union of
    the level-L hulls, each widened by delta."""
    rmax = float(np.max(model.ifs.ratios))
    hulls, level = np.array([[0.0, 1.0]]), 0
    while rmax**level > 2 * delta:
        hulls = np.concatenate(
            [np.sort(mp.apply(hulls.reshape(-1, 1)).reshape(-1, 2), axis=1) for mp in model.ifs.maps]
        )
        level += 1
    spans = np.stack([hulls[:, 0] - delta, hulls[:, 1] + delta], axis=1)
    return np.array([_merge_length(spans, lo=a, hi=b) for a, b in zip(lo, hi)])


@pytest.mark.parametrize("name", sorted(_SETS_1D))
@pytest.mark.parametrize("delta", [0.1, 0.01, 1e-3, 1e-4])
def test_attractor_length_matches_hull_union(name, delta):
    model = _SETS_1D[name]
    lo, hi = _WINDOWS.T
    got = neighborhood_length_1d(model, delta, lo, hi)
    np.testing.assert_allclose(got, _hull_union_length(model, delta, lo, hi), rtol=1e-12, atol=0)
    assert got[-2:].tolist() == [0.0, 0.0]
    # windows and deltas broadcast; each length stands alone
    both = neighborhood_length_1d(model, np.array([[delta], [delta / 3]]), lo, hi)
    assert np.array_equal(both[0], got)
    assert [float(neighborhood_length_1d(model, delta, a, b)) for a, b in _WINDOWS] == got.tolist()
    assert neighborhood_length_1d(model, delta, np.empty(0), np.empty(0)).shape == (0,)


def test_reflected_middle_third_has_the_same_lengths():
    lo, hi = _WINDOWS.T
    deltas = np.geomspace(0.2, 1e-6, 13)[:, None]
    want = neighborhood_length_1d(_SETS_1D["middle-third"], deltas, lo, hi)
    np.testing.assert_allclose(neighborhood_length_1d(_SETS_1D["reflected"], deltas, lo, hi), want, rtol=1e-12, atol=0)


def test_overlapping_first_level_hulls_are_refused():
    with pytest.raises(ArgumentError, match="overlap"):
        neighborhood_length_1d(cantor_1d((0.6, 0.0, False), (0.6, 0.4, False)), 0.01, 0.0, 1.0)
    # hulls that touch are not an overlap: two halves make the interval [0, 1]
    halves = cantor_1d((0.5, 0.0, False), (0.5, 0.5, False))
    assert float(neighborhood_length_1d(halves, 0.01, -1.0, 2.0)) == pytest.approx(1.02, rel=1e-12)


def _proxy_length(model, delta, lo, hi):
    """The estimators' former 1-D attractor length: the union of the
    cylinder cut at contraction 0.02 delta / (2 r0), each ball widened by delta."""
    centers, radii = cylinder_cut(model.ifs, proxy_target(model.ifs, delta, 0.02))
    c = centers[:, 0]
    return _union_length_in(_merge_union(c - radii - delta, c + radii + delta), lo, hi)


def test_exact_length_lies_below_the_cut_proxy():
    # the proxy's balls (radius <= 0.01 delta) are centered on K, so it lies
    # between the exact lengths at delta and at 1.02 delta
    cells = []
    mink = bundled_config("minkowski_cantor.json")
    model = model_from_json(mink["model"])
    lo, hi = model_window(model, margin=1.5 * max(mink["scales"]))
    cells += [(d, lo, hi) for d in mink["scales"]]
    fit = bundled_config("fit_lsp_cantor.json")["grids"]
    c = sample_on_set(model, 4, np.random.default_rng(22))[:, 0]
    cells += [(r * ratio, c - r, c + r) for r in fit["r"] for ratio in fit["delta_ratios"]]
    for d, a, b in cells:
        exact = neighborhood_length_1d(model, d, a, b)
        proxy = _proxy_length(model, d, a, b)
        assert np.all(exact <= proxy * (1 + 1e-12))
        assert np.all(proxy <= neighborhood_length_1d(model, 1.02 * d, a, b) * (1 + 1e-12))
    assert len(cells) == 8 + 36


def test_euclidean_sample_in_ball_pinned():
    # the draws and the acceptance test must reproduce the stored points bit
    # for bit, so a faster sampler cannot move any Monte Carlo estimate
    ref = json.loads((Path(__file__).parent / "golden" / "sample_in_ball.json").read_text())
    for case in ref["cases"]:
        rng = np.random.default_rng(case["seed"])
        pts = sample_in_ball(case["center"], ref["r"], ref["k"], rng, metric="euclidean")
        assert np.array_equal(pts, np.array(case["points"]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_euclidean_sample_in_ball_keeps_the_first_accepted_draws(n):
    # whatever the batch sizes, a call returns the first k accepted points of
    # the uniform stream
    r, k = 0.3, 5000
    stream = np.random.default_rng(19).uniform(-r, r, size=(40 * k, n))
    accepted = stream[np.sum(stream * stream, axis=1) <= r * r][:k]
    pts = sample_in_ball(np.zeros(n), r, k, np.random.default_rng(19), metric="euclidean")
    assert np.array_equal(pts, accepted)


def _one_batch_sample_in_ball(r, k, n, rng):
    """The Euclidean draw before it was blocked: each batch drawn at once."""
    out, got = np.empty((k, n)), 0
    rate = ball_volume(n, 1.0, "euclidean") / 2.0**n
    while got < k:
        cand = rng.uniform(-r, r, size=(int((k - got) / rate * 1.01) + 16, n))
        keep = cand[measure._sum_squares(cand) <= r * r]
        take = min(len(keep), k - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


@pytest.mark.parametrize("n, k", [(1, 3000), (2, 3000), (3, 3000), (10, 40)])
def test_euclidean_sample_in_ball_blocks_keep_the_one_batch_draw(monkeypatch, n, k):
    # blocks of 1,000 coordinates split every batch; the points kept and the
    # generator's next draw are those of drawing each batch at once
    monkeypatch.setattr(measure, "_BALL_BLOCK", 1000)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    pts = sample_in_ball(np.zeros(n), 0.3, k, rng, metric="euclidean")
    assert np.array_equal(pts, _one_batch_sample_in_ball(0.3, k, n, ref))
    assert rng.random() == ref.random()


def test_euclidean_sample_in_ball_memory_is_bounded_in_r10():
    # the ball holds 2.5e-3 of its box in R^10, so 5,000 samples draw a batch
    # of 2 million candidate rows, 162 MB at once; drawn in blocks of
    # _BALL_BLOCK coordinates the peak grows by a few tens of MB
    script = f"""
import resource, sys
sys.path.insert(0, {str(Path(measure.__file__).parents[1])!r})
import numpy as np
from lspkit.measure import sample_in_ball
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
pts = sample_in_ball(np.zeros(10), 1.0, 5000, np.random.default_rng(5), metric="euclidean")
assert pts.shape == (5000, 10) and np.all(np.sum(pts * pts, axis=1) <= 1.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert int(out.stdout) < 64 * 1024  # kB


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9])
def test_window_draw_is_the_uniform_draw(monkeypatch, n):
    # rng.random scaled in place gives rng.uniform(lo, hi)'s points and leaves
    # the generator where rng.uniform leaves it
    clouds = []

    def counts(m, pts, deltas, metric):
        clouds.extend(pts)
        return np.ones((len(pts), len(deltas)), dtype=np.int64)

    monkeypatch.setattr(measure, "_hit_counts", counts)
    m = Polyline(np.random.default_rng(n).uniform(-1.0, 1.0, size=(3, n)))
    scales = [0.4, 0.1, 0.02, 0.004]
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    measure._window_volumes(m, scales, 20_000, rng, "sup")
    lo, hi = model_window(m, margin=1.5 * 0.4)
    assert np.array_equal(clouds[0], ref.uniform(lo, hi, size=(20_000, n)))
    assert rng.random() == ref.random()

@pytest.mark.parametrize("r", [0.5, 1.0 / 3.0, 0.0109375, 123.456])
def test_sup_sample_in_ball_is_the_uniform_stream(r):
    # the in-place draw keeps rng.uniform(-r, r)'s bits, so every sup-metric
    # Monte Carlo estimate is unchanged by it
    center = np.array([0.3, -0.7, 2.5])
    ref = np.random.default_rng(4).uniform(-r, r, size=(3000, 3)) + center
    pts = sample_in_ball(center, r, 3000, np.random.default_rng(4))
    assert np.array_equal(pts, ref)


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_sample_in_ball_fills_out(metric):
    center = np.array([0.2, 0.4])
    fresh = sample_in_ball(center, 0.3, 2000, np.random.default_rng(8), metric=metric)
    out = np.full((2000, 2), np.nan)
    got = sample_in_ball(center, 0.3, 2000, np.random.default_rng(8), metric=metric, out=out)
    assert got is out
    assert np.array_equal(out, fresh)


# ---------------------------------------------------------------------------
# closed-form local volumes (``_local_volumes``)


def _unit_ball(k):
    return math.pi ** (k / 2) / math.gamma(k / 2 + 1)


_XY = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
# model, metric, a center on the model, r, delta and the seed of its Monte Carlo check
_LOCAL = {
    "point-sup": (PointSet(np.array([[0.3, -0.2]])), "sup", [0.3, -0.2], 0.5, 0.125, 101),
    "point-euclidean-3d": (PointSet(np.array([[0.1, 0.2, 0.3]])), "euclidean", [0.1, 0.2, 0.3], 0.4, 0.2, 102),
    "plane-sup-3d": (AffinePlane(np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])), "sup", [0.2, 0.0, -0.1], 0.5, 0.05, 103),
    "line-euclidean-2d": (AffinePlane(np.array([0.5, 0.5]), np.array([[0.6, 0.8]])), "euclidean", [0.5, 0.5], 0.5, 0.125, 104),
    "line-euclidean-3d": (AffinePlane(np.zeros(3), np.array([[0.48, 0.6, 0.64]])), "euclidean", [0.0, 0.0, 0.0], 0.5, 0.125, 105),
    "plane-euclidean-3d": (AffinePlane(np.zeros(3), _XY), "euclidean", [0.3, -0.1, 0.0], 0.5, 0.0625, 106),
    "line-euclidean-4d": (AffinePlane(np.zeros(4), np.array([[0.5, 0.5, 0.5, 0.5]])), "euclidean", [0.0] * 4, 0.5, 0.25, 107),
    "circle": (Circle(np.zeros(2), 1.0), "euclidean", [1.0, 0.0], 0.5, 0.125, 108),
    "circle-inside-ball": (Circle(np.array([0.1, 0.2]), 0.3), "euclidean", [0.4, 0.2], 0.5, 0.125, 109),
    "circle-below-delta": (Circle(np.zeros(2), 0.1), "euclidean", [0.0, 0.1], 0.5, 0.125, 110),
    "sphere": (Sphere(np.zeros(3), 1.0), "euclidean", [0.0, 0.0, 1.0], 0.5, 0.125, 111),
    "sphere-inside-ball": (Sphere(np.array([0.1, 0.0, 0.0]), 0.3), "euclidean", [0.1, 0.3, 0.0], 0.5, 0.125, 112),
}


def _local_exact(m, metric, r, delta):
    vols = measure._local_volumes(m, np.array([delta]), r, metric)
    assert vols.shape == (1,)
    return float(vols[0])


def _local_quadrature(m, metric, r, delta):
    """vol(B(x, r) & N_delta(m)), x on m, as one 1-D integral: over the
    offset from a point or a plane, or over the radius about a circle's or
    a sphere's center, of the slice's measure."""
    n = m.ambient_dim
    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    if isinstance(m, PointSet) and metric == "sup":
        return quad(lambda t: (2 * delta) ** (n - 1), -delta, delta, **opts)[0]
    if isinstance(m, PointSet):
        return quad(lambda t: _unit_ball(n - 1) * (delta * delta - t * t) ** ((n - 1) / 2), -delta, delta, **opts)[0]
    if isinstance(m, AffinePlane) and metric == "sup":
        l = m.plane_dim
        return quad(lambda t: (2 * r) ** l * (2 * delta) ** (n - l - 1), -delta, delta, **opts)[0]
    if isinstance(m, AffinePlane):
        # shells of radius s about the plane, each a (k-1)-sphere times an l-ball
        l = m.plane_dim
        k = n - l
        return quad(lambda s: k * _unit_ball(k) * s ** (k - 1) * _unit_ball(l) * (r * r - s * s) ** (l / 2), 0.0, delta, **opts)[0]
    big_r = m.radius

    def slice_measure(rho):  # of the sphere of radius rho about the center inside B(x, r)
        cos = min(max((rho * rho + big_r * big_r - r * r) / (2 * rho * big_r), -1.0), 1.0)
        if n == 2:
            return 2 * rho * math.acos(cos)
        return 2 * math.pi * rho * rho * (1 - cos)

    lo, hi = max(big_r - delta, 0.0), big_r + delta
    kinks = [x for x in (abs(big_r - r), big_r + r) if lo < x < hi]
    return quad(slice_measure, lo, hi, points=kinks or None, **opts)[0]


@pytest.mark.parametrize("name", _LOCAL)
def test_local_volumes_match_a_quadrature(name):
    m, metric, _, r, delta, _ = _LOCAL[name]
    assert _local_exact(m, metric, r, delta) == pytest.approx(_local_quadrature(m, metric, r, delta), rel=1e-9)


@pytest.mark.parametrize("name", _LOCAL)
def test_local_volumes_match_monte_carlo(name):
    # 10**6 points of the ball about a center on the model, counted by the
    # estimators' kernels; 5 binomial standard errors
    m, metric, center, r, delta, seed = _LOCAL[name]
    samples = 1_000_000
    pts = sample_in_ball(np.asarray(center, dtype=float), r, samples, np.random.default_rng(seed), metric=metric)
    hits = _hit_counts(m, [pts], [delta], metric=metric)[0, 0]
    value, err = _mc_volume(ball_volume(m.ambient_dim, r, metric), hits, samples)
    assert abs(value - _local_exact(m, metric, r, delta)) <= 5 * err


@pytest.mark.parametrize("n, l", [(8, 1), (6, 3), (9, 7)])
def test_plane_volumes_keep_their_digits_at_high_codimension(n, l):
    # the share of the ball is about (delta / r)**(n - l): summed downward,
    # the series cancels nothing however small it gets
    plane = AffinePlane(np.zeros(n), np.eye(n)[:l])
    for delta in (0.5 / 128, 0.25, 0.49):
        got = _local_exact(plane, "euclidean", 0.5, delta)
        assert got == pytest.approx(_local_quadrature(plane, "euclidean", 0.5, delta), rel=1e-9)


@pytest.mark.parametrize("r, delta", [(0.5, 0.125), (0.3, 0.01), (1.0, 0.99), (2.0, 0.015625)])
def test_euclidean_line_in_r3_is_the_ball_less_two_caps(r, delta):
    line = AffinePlane(np.zeros(3), np.array([[0.0, 0.6, 0.8]]))
    want = 4 * math.pi / 3 * (r**3 - (r * r - delta * delta) ** 1.5)
    assert _local_exact(line, "euclidean", r, delta) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("x, a, b", [(0.3, 0.5, 0.5), (0.7, 1.0, 1.5), (1e-4, 3.5, 1.5), (0.9, 0.5, 6.0), (0.0, 1.0, 1.0)])
def test_regularized_beta_matches_a_quadrature(x, a, b):
    density = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    want = quad(density, 0.0, x, **opts)[0] / quad(density, 0.0, 1.0, **opts)[0] if x else 0.0
    assert measure._regularized_beta(x, a, b) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize(
    "model, metric, kappa",
    [
        (AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0), "sup", 0.5),
        (AffinePlane(np.zeros(3), _XY), "sup", 2 / 3),
        (PointSet(np.array([[0.3, -0.2]])), "sup", 0.0),
        (PointSet(np.array([[0.3, -0.2]])), "euclidean", 0.0),
        (AffinePlane(np.zeros(2), np.array([[0.6, 0.8]])), "euclidean", None),
        (Circle(np.zeros(2), 1.0), "euclidean", None),
        (Sphere(np.zeros(3), 1.0), "euclidean", None),
    ],
    ids=["line-sup", "plane-sup", "point-sup", "point-euclidean", "line-euclidean", "circle", "sphere"],
)
def test_exact_fit_draws_nothing(monkeypatch, model, metric, kappa):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact fit drew a sample")

    monkeypatch.setattr(measure, "sample_in_ball", refuse)
    monkeypatch.setattr(measure, "sample_on_set", refuse)
    rng = np.random.default_rng(23)
    state = rng.bit_generator.state
    fit = fit_lsp(model, [0.5 * 2.0**-k for k in range(6)], [2.0**-k for k in range(2, 8)], rng=rng, metric=metric)
    assert rng.bit_generator.state == state
    assert all(p[3] == 0.0 for p in fit.points)  # no cell carries a sampling error
    if kappa is not None:
        assert fit.kappa_hat == pytest.approx(kappa, abs=1e-12)


@pytest.mark.parametrize(
    "model, metric",
    [
        (AffinePlane(np.zeros(2), np.array([[0.6, 0.8]])), "sup"),
        (Circle(np.zeros(2), 1.0), "sup"),
        (Sphere(np.zeros(3), 1.0), "sup"),
        (Polyline(np.array([[0.0, 0.0], [1.0, 0.0]])), "euclidean"),
        (PointSet(np.array([[0.0, 0.0], [0.5, 0.5]])), "euclidean"),
        (sierpinski(), "sup"),
    ],
    ids=["tilted-sup-line", "sup-circle", "sup-sphere", "polyline", "two-points", "gasket"],
)
def test_models_without_a_closed_form_sample(model, metric):
    assert measure._local_volumes(model, np.array([0.01]), 0.1, metric) is None


def test_windows_sample_above_dimension_one():
    # a point's box in R^2 is sampled; the same point in R^1 reads the 1-D path
    lo, hi = np.full(2, -1.0), np.full(2, 1.0)
    assert exact_volumes(PointSet(np.zeros((1, 2))), [0.1], (lo, hi)) is None
    assert exact_volumes(PointSet(np.zeros((1, 1))), [0.1, 0.2], (lo[:1], hi[:1])).tolist() == [0.2, 0.4]


@pytest.mark.parametrize(
    "model", [middle_third(), PointSet(np.array([[0.0], [0.3], [0.35]]))], ids=["cantor", "points"]
)
def test_centered_volumes_of_every_r_read_as_one_call_per_r(model):
    # fit_lsp reads every r's cells in one neighborhood_length_1d call; each
    # r's lengths are those of a call of its own, to the bit
    r_grid = np.array([0.3, 0.1, 1 / 30, 0.01])
    deltas = r_grid[:, None] * np.array([0.5, 0.1, 0.02])
    rng = np.random.default_rng(41)
    centers = np.stack([sample_on_set(model, 3, rng)[:, 0] for _ in r_grid])
    r = r_grid[:, None, None]
    vols = neighborhood_length_1d(model, deltas[..., None], centers[:, None, :] - r, centers[:, None, :] + r)
    assert vols.shape == (4, 3, 3)
    for r, ds, c, v in zip(r_grid, deltas, centers, vols):
        assert np.array_equal(neighborhood_length_1d(model, ds[:, None], c - r, c + r), v)


# ---------------------------------------------------------------------------
# exact window volumes of triangle tilings (``_tiling_volumes``)


def _corner_maps(ratio, corners):
    return IFSAttractor(IFS(tuple(IFSMap(ratio, np.array(c, dtype=float)) for c in corners), True))


def two_gap_tiling():
    """The right-angled gasket with its upper half cut once more at ratio
    1/4: maps of ratios 1/2, 1/2, 1/4, 1/4 and 1/4, and two triangular gaps,
    of areas 1/8 and 1/32, that touch at one point."""
    maps = [(0.5, [0.0, 0.0]), (0.5, [0.5, 0.0]), (0.25, [0.0, 0.5]), (0.25, [0.25, 0.5]), (0.25, [0.0, 0.75])]
    return IFSAttractor(IFS(tuple(IFSMap(r, np.array(t)) for r, t in maps), True))


_GASKET_SCALES = [0.12, 0.06, 0.03, 0.015, 0.0075, 0.00375, 0.001875, 0.0009375]
_UNNESTED_SCALES = [0.12, 0.1, 0.03, 0.025, 0.0075, 0.00625, 0.0012, 0.001]


def _window_exact(m, scales, metric="sup"):
    lo, hi = model_window(m, margin=1.5 * max(scales))
    return exact_volumes(m, scales, (lo, hi), metric)


@pytest.mark.parametrize(
    "model, metric, scales, seed",
    [
        (gasket(0.5), "sup", _GASKET_SCALES, 201),
        (gasket(0.5), "euclidean", _GASKET_SCALES, 202),
        (gasket(0.5), "sup", _UNNESTED_SCALES, 203),
        (two_gap_tiling(), "sup", _GASKET_SCALES[::2], 204),
        (two_gap_tiling(), "euclidean", _UNNESTED_SCALES[1::2], 205),
    ],
    ids=["gasket-sup", "gasket-euclidean", "gasket-unnested", "two-gaps-sup", "two-gaps-euclidean-unnested"],
)
def test_tiling_volumes_match_the_window_estimate(model, metric, scales, seed):
    # 10**6 uniform points of the window, tested by the walk at every scale; 5 binomial standard errors
    vols = _window_exact(model, scales, metric)
    lo, hi = model_window(model, margin=1.5 * max(scales))
    samples = 1_000_000
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(samples, 2))
    hits = _hit_counts(model, [pts], scales, metric=metric)[0]
    value, err = _mc_volume(float(np.prod(hi - lo)), hits, samples)
    assert np.all(np.abs(value - vols) <= 5 * err)


def test_tiling_volumes_are_steiner_from_the_gap_inradius_up():
    # the gap triangle of the gasket has sup inradius 2 area / sum(|e_x| + |e_y|)
    # = 0.125 and Euclidean inradius 2 area / perimeter; from there on no
    # gap survives the erosion and the volume is the hull's Steiner area
    perimeter = 1.0 + 2.0 * math.hypot(0.5, 1.0)
    for metric, rho, steiner in [
        ("sup", 0.125, lambda d: 0.5 + 4.0 * d + 4.0 * d * d),
        ("euclidean", 0.25 / (0.5 + 2.0 * math.hypot(0.25, 0.5)), lambda d: 0.5 + perimeter * d + math.pi * d * d),
    ]:
        deltas = [rho, 0.2, 0.5, 1.0]
        vols = _window_exact(gasket(0.5), deltas, metric)
        assert vols.tolist() == [steiner(d) for d in deltas]
        below = _window_exact(gasket(0.5), [0.999 * rho], metric)
        assert below[0] < steiner(0.999 * rho)


def test_tiling_gaps_are_found_exactly():
    hull, gaps = measure._triangle_tiling(two_gap_tiling().ifs)
    assert sorted(hull) == [(0, 0), (0, 1), (1, 0)]
    assert sorted(sorted(g) for g in gaps) == [
        [(0, Fraction(1, 2)), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2))],
        [(0, Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))],
    ]


@pytest.mark.parametrize(
    "model",
    [
        gasket(0.45),
        gasket(0.491),
        rotating_ifs(),
        gasket_3d(),
        _corner_maps(0.9, [[0.0, 0.0], [0.1, 0.05]]),
        gasket(0.6),
        _corner_maps(0.375, [[0.0, 0.0], [0.625, 0.0], [0.0, 0.625], [0.625, 0.625]]),
        # the twelve boundary squares of a 4 x 4 grid: a square gap
        _corner_maps(0.25, [[i / 4, j / 4] for i in range(4) for j in range(4) if {i, j} & {0, 3}]),
    ],
    ids=["gasket-0.45", "gasket-0.491", "rotating", "gasket-3d", "two-maps-0.9", "overlapping-gasket-0.6",
         "uncovered-square-edges", "square-gap"],
)
def test_sets_outside_the_tiling_class_are_walked(model):
    # every input is exact in binary, so each is refused by the test it fails
    assert _window_exact(model, _GASKET_SCALES) is None


def test_tiling_volumes_need_the_window_to_hold_the_hull_neighborhood():
    # the hull is the unit-based triangle with apex (0.5, 1)
    lo, hi = np.full(2, -0.12), np.full(2, 1.12)
    assert exact_volumes(gasket(0.5), _GASKET_SCALES, (lo, hi)) is not None
    assert exact_volumes(gasket(0.5), _GASKET_SCALES, (lo, hi - [0.0, 0.01])) is None


@pytest.mark.parametrize("estimate", [box_dimensions, functools.partial(minkowski_content, d=math.log2(3))])
def test_tiling_estimates_draw_and_walk_nothing(monkeypatch, estimate):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact window volume sampled or walked")

    class Refusing(np.random.Generator):
        random = refuse

    monkeypatch.setattr(measure, "cut_hits", refuse)
    cfg = bundled_config("boxdim_sierpinski.json")
    rng = Refusing(np.random.PCG64(cfg["master_seed"]))
    state = rng.bit_generator.state
    first = estimate(model_from_json(cfg["model"]), scales=cfg["scales"], rng=rng)
    assert rng.bit_generator.state == state
    assert estimate(model_from_json(cfg["model"]), scales=cfg["scales"], rng=np.random.default_rng(1)) == first
