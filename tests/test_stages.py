import math
import tracemalloc

import numpy as np
import pytest

from lspkit.cantor import _min_gap
from lspkit.stages import GridCloudStages, GridView, VdcPointStages, van_der_corput


def materialized(lo, hi, size):
    """The grid as one array, the formula ``GridView`` must match bit for bit."""
    return lo + (hi - lo) * (np.arange(size) + 0.5) / size


def probes(grid, lo, hi, rng):
    """Values to search for: every kind of boundary a grid search can meet."""
    at = grid[rng.integers(0, len(grid), 200)]
    return np.concatenate([
        at,
        np.nextafter(at, -np.inf),
        np.nextafter(at, np.inf),
        grid[:2], grid[-2:], [np.nextafter(grid[-1], np.inf), np.nextafter(grid[0], -np.inf)],
        [lo, hi, lo - 1.0, hi + 1.0, -np.inf, np.inf, np.nan],
        rng.uniform(lo - (hi - lo), hi + (hi - lo), 200),
    ])


@pytest.mark.parametrize("e", range(22))
def test_grid_view_matches_materialized_grid(e):
    rng = np.random.default_rng(e)
    size = 2**e
    lo = float(rng.uniform(-100.0, 100.0))
    hi = lo + float(10.0 ** rng.uniform(-3.0, 3.0))
    view, grid = GridView(lo, hi, size), materialized(lo, hi, size)
    assert len(view) == size
    assert np.array_equal(np.asarray(view), grid)
    idx = rng.integers(0, size, 500)
    assert np.array_equal(view[idx], grid[idx])
    assert np.array_equal(view[idx.reshape(20, 25)], grid[idx.reshape(20, 25)])
    assert view[size - 1] == grid[-1] and view[0] == grid[0]
    a, b = sorted(rng.integers(0, size + 1, 2).tolist())
    for key in (slice(a, b), slice(None), slice(a, None, 3), slice(b, a, -2), slice(-5, None)):
        assert np.array_equal(view[key], grid[key])
    v = probes(grid, lo, hi, rng)
    assert np.array_equal(view.searchsorted(v), np.searchsorted(grid, v))
    assert view.searchsorted(float(grid[size // 2])) == np.searchsorted(grid, grid[size // 2])
    gap = float(np.min(np.diff(grid))) if size > 1 else math.inf
    assert _min_gap(view) == gap == _min_gap(grid)


@pytest.mark.parametrize("size", [1000, 2**20])
def test_grid_view_search_with_tied_points(size):
    # a spacing far below the coordinates' ulp: runs of grid points round to
    # the same double, and the search must return the first of each run
    lo, hi = 1.0e6, 1.0e6 + 1e-7
    view, grid = GridView(lo, hi, size), materialized(lo, hi, size)
    assert np.array_equal(np.asarray(view), grid)
    assert len(np.unique(grid)) < size
    v = probes(grid, lo, hi, np.random.default_rng(size))
    assert np.array_equal(view.searchsorted(v), np.searchsorted(grid, v))


def test_grid_view_rejects_bad_indices():
    view = GridView(0.0, 1.0, 8)
    for key in (8, -1, np.array([0, 8]), np.array([-1, 0]), 0.5, np.array([True, False])):
        with pytest.raises(IndexError):
            view[key]
    assert view[np.array([], dtype=np.int64)].shape == (0,)
    assert view.searchsorted(np.empty(0)).shape == (0,)


def test_sorted_points_allocates_no_cloud():
    stages = GridCloudStages(lo=-85.0, hi=85.0, plateaus=((512, 0.02),))
    tracemalloc.start()
    try:
        view = stages.sorted_points(2**24)
        k = view.searchsorted(np.array([-85.0, 0.0, 85.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(view) == 2**24 and k.tolist() == [0, 2**23, 2**24]
    assert peak < 1e6
    assert np.array_equal(np.asarray(stages.sorted_points(1000)), materialized(-85.0, 85.0, 512))


def test_providers_serve_the_stage_protocol():
    # calling a provider gives (sorted_points(j), upsilon(j)); a van der
    # Corput stage is its one point
    grid = GridCloudStages(lo=-2.0, hi=3.0, plateaus=((4, 0.5), (64, 0.01)))
    vdc = VdcPointStages(lo=-2.0, hi=3.0)
    for j in (4, 5, 63, 64, 1000):
        cloud, u = grid(j)
        assert isinstance(cloud, GridView) and len(cloud) == grid.cloud_size(j) and u == grid.upsilon(j)
        point, u = vdc(j)
        assert point.tolist() == [-2.0 + 5.0 * float(van_der_corput([j])[0])] and u == 1.0 / j
