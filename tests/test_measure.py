import json
import math
from pathlib import Path

import numpy as np
import pytest

from lspkit.errors import ArgumentError, EstimationError
from lspkit.measure import (
    box_dimensions,
    fit_lsp,
    minkowski_content,
    model_intervals_1d,
    neighborhood_measure,
    regress_lsp,
    sample_in_ball,
    _DistanceOracle,
    _hit_counts,
    _merge_length,
    _merge_union,
    _union_length_in,
)
from lspkit.sets import (
    IFS,
    AffinePlane,
    Circle,
    IFSAttractor,
    IFSMap,
    PointSet,
    Polyline,
    distance_to_set,
)


def middle_third():
    return IFSAttractor(
        IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    )


def test_exact_point_interval():
    est = neighborhood_measure(PointSet(np.array([[0.0]])), [0.0], 0.5, 0.1)
    assert est.method == "exact_1d"
    assert est.std_error == 0.0
    assert est.value == pytest.approx(0.2, rel=1e-12)


def test_line_rectangle_mc():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
    est = neighborhood_measure(
        line, [0.0, 0.0], 0.5, 0.1, samples=200_000, rng=np.random.default_rng(1)
    )
    assert est.method == "monte_carlo"
    assert abs(est.value - 0.2) <= 3 * est.std_error


def test_circle_against_grid_quadrature():
    circ = Circle(np.zeros(2), 1.0)
    center = np.array([1.0, 0.0])  # on the circle
    r, delta = 0.2, 0.02
    est = neighborhood_measure(circ, center, r, delta, samples=1_000_000, rng=np.random.default_rng(2))
    # brute-force quadrature oracle at resolution 1e-4 over the sup ball
    h = 1e-4
    xs = np.arange(center[0] - r + h / 2, center[0] + r, h)
    ys = np.arange(center[1] - r + h / 2, center[1] + r, h)
    xx, yy = np.meshgrid(xs, ys)
    inside = np.abs(np.hypot(xx, yy) - 1.0) < delta
    oracle = inside.sum() * h * h
    assert abs(est.value - oracle) <= 3 * est.std_error + 1e-4


def test_mc_agrees_with_exact_on_random_1d_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        model = PointSet(rng.uniform(-1, 1, size=(k, 1)))
        r = rng.uniform(0.2, 0.6)
        delta = r * rng.uniform(0.05, 0.5)
        center = rng.uniform(-1, 1, size=1)
        exact = neighborhood_measure(model, center, r, delta).value
        # independent Monte-Carlo estimate of the same quantity
        n = 40_000
        pts = rng.uniform(center[0] - r, center[0] + r, size=(n, 1))
        p = np.count_nonzero(distance_to_set(model, pts) < delta) / n
        mc = 2 * r * p
        se = 2 * r * math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(mc - exact) <= 3 * se + 1e-9


def test_neighborhood_preconditions():
    with pytest.raises(ArgumentError):
        neighborhood_measure(PointSet(np.array([[0.0]])), [0.0], 0.1, 0.1)
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]))
    with pytest.raises(ArgumentError):
        neighborhood_measure(line, [0.0, 0.0], 0.5, 0.1, samples=10)


def test_neighborhood_monotone_in_delta_and_r():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
    rng = np.random.default_rng(4)
    vals = []
    for delta in (0.02, 0.05, 0.1):
        est = neighborhood_measure(line, [0.0, 0.0], 0.5, delta, samples=100_000, rng=rng)
        vals.append((est.value, est.std_error))
    for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
        assert v2 >= v1 - 3 * (e1 + e2)
    vals = []
    for r in (0.3, 0.5, 0.8):
        est = neighborhood_measure(line, [0.0, 0.0], r, 0.02, samples=100_000, rng=rng)
        vals.append((est.value, est.std_error))
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
        fit_lsp(PointSet(np.array([[0.0]])), [0.1, 0.1], [0.9, 0.9])


def test_box_dimension_preconditions_and_degenerate():
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ArgumentError):
        box_dimensions(seg, [0.1, 0.05, 0.02])
    # sampling far below the hit density leaves nearly every scale empty
    pt3 = PointSet(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(EstimationError):
        box_dimensions(
            pt3,
            [1e-3, 1e-4, 1e-5, 1e-6],
            samples_per_scale=1000,
            rng=np.random.default_rng(9),
        )


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


def test_merge_length():
    assert _merge_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert _merge_length([(0.0, 1.0)], lo=0.25, hi=0.5) == pytest.approx(0.25)
    assert _merge_length([]) == 0.0


def test_union_length_in_matches_merge_length():
    rng = np.random.default_rng(14)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        a = rng.uniform(-1.0, 1.0, size=k)
        spans = np.stack([a, a + rng.exponential(0.1, size=k)], axis=1)
        lo = rng.uniform(-1.5, 1.0, size=6)
        hi = lo + rng.exponential(0.5, size=6)
        got = _union_length_in(_merge_union(spans), lo, hi)
        want = [_merge_length(spans, lo=x, hi=y) for x, y in zip(lo, hi)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(_union_length_in(_merge_union(np.empty((0, 2))), [0.0, 1.0], [1.0, 2.0]), [0.0, 0.0])


def sierpinski():
    maps = (
        IFSMap(0.5, np.array([0.0, 0.0])),
        IFSMap(0.5, np.array([0.5, 0.0])),
        IFSMap(0.5, np.array([0.25, 0.5])),
    )
    return IFSAttractor(IFS(maps, True))


@pytest.mark.parametrize(
    "model, metric",
    [
        (Polyline(np.array([[0.0, 0.1], [0.6, 0.5], [1.0, 0.2]])), "sup"),
        (AffinePlane(np.array([0.0, 0.3]), np.array([[1.0, 0.0]]), extent=2.0), "sup"),
        (Circle(np.array([0.5, 0.5]), 0.4), "euclidean"),
        (PointSet(np.random.default_rng(15).uniform(0.0, 1.0, size=(100, 2))), "sup"),
        (sierpinski(), "sup"),
    ],
    ids=["tilted-polyline", "line", "circle", "point-tree", "sierpinski"],
)
def test_hit_counts_match_per_delta_oracles(model, metric):
    rng = np.random.default_rng(16)
    clouds = [rng.uniform(-0.2, 1.2, size=(3000, 2)) for _ in range(3)]
    deltas = [0.2, 0.08, 0.03, 0.012]
    counts = _hit_counts(model, clouds, deltas, metric=metric)
    want = [
        [np.count_nonzero(_DistanceOracle(model, d, metric=metric).hits(pts, d)) for d in deltas]
        for pts in clouds
    ]
    assert counts.tolist() == want
    assert np.all(np.diff(counts, axis=1) <= 0)


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


def test_cantor_intervals_cover_neighborhood():
    K = middle_third()
    delta = 1e-3
    spans = model_intervals_1d(K, delta)
    rng = np.random.default_rng(13)
    xs = rng.uniform(-0.1, 1.1, size=400)
    d = distance_to_set(K, xs[:, None], tol=1e-9)
    inside_spans = np.array(
        [bool(np.any((spans[:, 0] <= x) & (x <= spans[:, 1]))) for x in xs]
    )
    # every true neighborhood point lies in the interval union
    assert np.all(inside_spans[d < delta])
    # and the union only exceeds the neighborhood by the resolution slack
    assert not np.any(inside_spans & (d > delta * 1.05))


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
