import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lspkit import cantor
from lspkit.cantor import _GRID_GAP_ATOL, _GRID_GAP_RTOL, _min_gap, _points_disjoint
from lspkit.errors import ArgumentError
from lspkit.stages import GridCloudStages, GridView, VdcPointStages, van_der_corput


def vectorized_van_der_corput(indices):
    """Base-2 radical inverse of the given non-negative integers below 2**64,
    by six mask-and-shift passes over their bits (the package's function
    before it reversed the bits of one integer), the oracle
    ``van_der_corput`` must match bit for bit."""
    idx = np.asarray(indices, dtype=np.uint64)
    v = idx.copy()
    v = ((v & np.uint64(0x5555555555555555)) << np.uint64(1)) | (
        (v & np.uint64(0xAAAAAAAAAAAAAAAA)) >> np.uint64(1)
    )
    v = ((v & np.uint64(0x3333333333333333)) << np.uint64(2)) | (
        (v & np.uint64(0xCCCCCCCCCCCCCCCC)) >> np.uint64(2)
    )
    v = ((v & np.uint64(0x0F0F0F0F0F0F0F0F)) << np.uint64(4)) | (
        (v & np.uint64(0xF0F0F0F0F0F0F0F0)) >> np.uint64(4)
    )
    v = ((v & np.uint64(0x00FF00FF00FF00FF)) << np.uint64(8)) | (
        (v & np.uint64(0xFF00FF00FF00FF00)) >> np.uint64(8)
    )
    v = ((v & np.uint64(0x0000FFFF0000FFFF)) << np.uint64(16)) | (
        (v & np.uint64(0xFFFF0000FFFF0000)) >> np.uint64(16)
    )
    v = (v << np.uint64(32)) | (v >> np.uint64(32))
    return v.astype(np.float64) * 2.0**-64


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


@st.composite
def _grids(draw):
    """(lo, hi, size) of a sorted grid: sizes that are and are not powers of
    two, spans from far below the coordinates' ulp (tied points) to 1e4,
    and offsets near zero and near 1e6."""
    lo = draw(st.one_of(st.floats(-100.0, 100.0), st.floats(1e6 - 1.0, 1e6 + 1.0), st.just(-1e6)))
    hi = lo + draw(st.floats(-13.0, 4.0).map(lambda e: 10.0**e))
    size = draw(st.one_of(st.integers(1, 5000), st.integers(0, 17).map(lambda e: 2**e)))
    return lo, hi, size


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_grids(), st.data())
def test_grid_view_search_matches_np_searchsorted(grid_args, data):
    lo, hi, size = grid_args
    grid = materialized(lo, hi, size)
    view = GridView(lo, hi, size)
    idx = np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40)))
    at = grid[idx]
    free = data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
    v = np.concatenate([
        at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf),
        [lo, hi, -np.inf, np.inf, np.nan], np.asarray(free, dtype=float),
    ])
    assert np.array_equal(view.searchsorted(v), np.searchsorted(grid, v))


def _gap_grids():
    """Grids for the gap decision: the audit's finest cloud, an offset one,
    a grid that is not a power of two, and one whose points round to ties."""
    return [(-20.0, 20.0, 2**21), (1e6, 1e6 + 3.0, 3000), (-0.3, 7.1, 777), (1.0e6, 1.0e6 + 1e-7, 1000)]


@pytest.mark.parametrize("lo, hi, size", _gap_grids())
def test_gap_decision_matches_min_gap(monkeypatch, lo, hi, size):
    # 2u < min gap decided from the spacing must be the exact decision, at
    # 2u = h (1 +- k eps) and at both edges of the rounding margin
    view, grid = GridView(lo, hi, size), materialized(lo, hi, size)
    gap = _min_gap(grid)
    scans = []
    monkeypatch.setattr(cantor, "_min_gap", lambda cloud: scans.append(1) or _min_gap(cloud))
    h = (hi - lo) / size
    margin = _GRID_GAP_RTOL * (abs(lo) + abs(hi)) + _GRID_GAP_ATOL
    eps = np.finfo(float).eps
    two_u = [h * (1 + sign * k * eps) for k in (0, 1, 2, 4, 64, 1e4, 1e8, 1e12) for sign in (-1, 1)]
    for edge in (h - margin, h + margin):
        two_u += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    two_u += [gap, np.nextafter(gap, -np.inf), np.nextafter(gap, np.inf), 0.0, np.inf, np.nan]
    for u in np.array(two_u) / 2.0:
        scans.clear()
        got = _points_disjoint(view, u)
        # outside twice the margin the spacing decides, with no scan
        assert not (abs(2.0 * u - h) > 2 * margin and scans), (u, h, margin)
        assert got == bool(2.0 * u < gap) == _points_disjoint(grid, u)
    tied = len(np.unique(grid)) < size
    assert tied == (hi - lo < 1e-6)  # the last grid's points round to ties
    if tied:  # the spacing lies far inside the margin, so the gaps are scanned
        scans.clear()
        _points_disjoint(view, h / 2.0)
        assert scans


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


def test_van_der_corput_matches_the_vectorized_bit_reversal():
    edges = [0, 2**40 + 12345, 3**39, 2**63 - 1, 2**64 - 1]
    for js in (np.arange(1, 200_001), np.array(edges, dtype=np.uint64)):
        assert [van_der_corput(int(j)) for j in js] == vectorized_van_der_corput(js).tolist()
    assert van_der_corput(1) == 0.5 and van_der_corput(6) == 0.375
    for j in (-1, 2**64):
        with pytest.raises(ArgumentError, match="must lie in"):
            van_der_corput(j)


def test_providers_serve_the_stage_protocol():
    # calling a provider gives (sorted_points(j), upsilon(j)); a van der
    # Corput stage is its one point
    grid = GridCloudStages(lo=-2.0, hi=3.0, plateaus=((4, 0.5), (64, 0.01)))
    vdc = VdcPointStages(lo=-2.0, hi=3.0)
    for j in (4, 5, 63, 64, 1000):
        cloud, u = grid(j)
        assert isinstance(cloud, GridView) and len(cloud) == grid.cloud_size(j) and u == grid.upsilon(j)
        point, u = vdc(j)
        assert point.tolist() == [-2.0 + 5.0 * van_der_corput(j)] and u == 1.0 / j
    # a grid's cloud changes at the powers of two: next_change and cloud_size
    # agree with the floor(log2) formulas they replaced at and beside each
    for k in range(25):
        for j in {max(2**k - 1, 1), 2**k, 2**k + 1}:
            assert grid.next_change(j) == max(1 << (math.floor(math.log2(j)) + 1), j + 1)
            assert grid.cloud_size(j) == 1 << math.floor(math.log2(max(j, 1)))
            assert grid.cloud_size(grid.next_change(j)) == 2 * grid.cloud_size(j)
    assert grid.j_min == 4
    with pytest.raises(ArgumentError, match="below schedule start"):  # a stage before the first
        grid(0)
    assert GridCloudStages(lo=0.0, hi=1.0, plateaus=((512.0, 0.02), (4096, 2.2e-4))).j_min == 512


@pytest.mark.parametrize(
    "lo, hi, plateaus, field",
    [
        (-20.0, 20.0, ((-1, 0.02), (4096, 2.2e-4)), "plateau start -1 "),
        (-20.0, 20.0, ((-5, 0.02),), "plateau start -5 "),
        (-20.0, 20.0, ((0, 0.02),), "plateau start 0 "),
        (-20.0, 20.0, ((0.5, 0.02),), "plateau start 0.5 "),
        (-20.0, 20.0, ((512, 0.02), (math.nan, 0.01)), "plateau start nan "),
        (20.0, -20.0, ((512, 0.02),), "lo 20.0 and hi -20.0"),
        (20.0, 20.0, ((512, 0.02),), "lo 20.0 and hi 20.0"),
        (-math.inf, 20.0, ((512, 0.02),), "lo -inf and hi 20.0"),
        (math.nan, 20.0, ((512, 0.02),), "lo nan and hi 20.0"),
    ],
)
def test_grid_stages_refuse_what_their_methods_cannot_take(lo, hi, plateaus, field):
    # a start below 1 makes (j0 / j)**GAMMA complex or divides by zero, a
    # fractional one was truncated, and lo >= hi reverses or empties the grid
    with pytest.raises(ArgumentError, match=f"^stages {re.escape(field)}"):
        GridCloudStages(lo=lo, hi=hi, plateaus=plateaus)


@pytest.mark.parametrize(
    "plateaus, j_max, message",
    [
        (((512, -0.02),), 2**24, "stages.plateaus radius -0.02 must be above 0"),
        (((512, 0),), 2**24, "stages.plateaus radius 0.0 must be above 0"),
        (((512, 0.02), (4096, math.nan)), 2**24, "stages.plateaus radius nan must be above 0"),
        (((512, 0.02),), 511, "stages.plateaus first start 512 lies past stages.j_max 511"),
        (((20_000_000, 0.02),), 2**24, "stages.plateaus first start 20000000 lies past stages.j_max 16777216"),
        (((10**400, 0.02),), 2**24, "stages.plateaus first start of 401 digits lies past stages.j_max 16777216"),
    ],
)
def test_grid_stages_refuse_a_schedule_they_cannot_serve(plateaus, j_max, message):
    # a radius of 0 or below reached the gauges, and a first start past
    # j_max was refused only once a stage was read, as a stage below the
    # schedule's start, echoing every digit of the start
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        GridCloudStages(lo=-20.0, hi=20.0, plateaus=plateaus, j_max=j_max)
