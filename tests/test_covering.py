import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lspkit import covering
from lspkit.covering import (
    Ball,
    BallFamily,
    KgbResult,
    build_caj,
    build_kgb,
    family_is_disjoint,
    five_r_cover,
    five_r_covers,
    greedy_net,
    separated_net,
)
from lspkit.errors import ArgumentError, CoverageShortfall
from lspkit.measure import ball_volume
from lspkit.sets import IFS, AffinePlane, IFSAttractor, IFSMap, PointSet, _norm
from lspkit.stages import GridCloudStages, GridView, VdcPointStages


def balls_disjoint(b1: Ball, b2: Ball, metric="sup"):
    """Reference: two open balls are disjoint (tangency counts)."""
    return _norm(b1.center - b2.center, metric) >= (b1.radius + b2.radius) * (1 - covering._DISJOINT_SLACK)


def ball_contains(outer: Ball, inner: Ball, metric="sup"):
    """Reference: ``inner`` lies inside ``outer``."""
    return _norm(outer.center - inner.center, metric) + inner.radius <= outer.radius * (1 + 1e-12)


def _random_family(rng, count, dim, lo, hi):
    radii = rng.uniform(lo, hi, size=count)
    return BallFamily(rng.uniform(0, 1, size=(count, dim)), radii)


def test_ball_family_validates_its_arrays():
    BallFamily(np.empty((0, 2)), np.empty(0))  # an empty family is valid
    for radii in ([1.0, 0.0], [1.0, -0.5], [1.0, np.nan]):
        with pytest.raises(ArgumentError):
            BallFamily(np.zeros((2, 1)), radii)
    for centers, radii in ((np.zeros((3, 1)), [1.0, 1.0]), (np.zeros(2), [1.0, 1.0]), (np.zeros((2, 1)), [[1.0, 1.0]])):
        with pytest.raises(ArgumentError):
            BallFamily(centers, radii)


def test_five_r_single():
    out = five_r_cover(BallFamily([[0.0]], [1.0]))
    assert len(out.radii) == 1


def test_five_r_three_on_line():
    fam = BallFamily([[0.0], [1.0], [2.0]], np.ones(3))
    out = five_r_cover(fam)
    assert sorted(out.centers[:, 0]) == [0.0, 2.0]  # tangent open balls count as disjoint
    assert family_is_disjoint(out)
    assert five_r_covers(fam, out)


def test_five_r_random_families_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        fam = _random_family(rng, 100, 2, 0.01, 0.05)
        out = five_r_cover(fam)
        assert family_is_disjoint(out)
        assert five_r_covers(fam, out)


def test_five_r_deterministic_given_order():
    rng = np.random.default_rng(4)
    fam = _random_family(rng, 40, 2, 0.01, 0.05)
    out1, out2 = five_r_cover(fam), five_r_cover(fam)
    assert np.array_equal(out1.centers, out2.centers) and np.array_equal(out1.radii, out2.radii)


def test_five_r_keeps_descending_radius_order():
    # ties keep input order; the input family is left as it was
    fam = BallFamily([[0.0], [10.0], [20.0], [30.0]], [1.0, 2.0, 1.0, 2.0])
    out = five_r_cover(fam)
    assert out.centers[:, 0].tolist() == [10.0, 30.0, 0.0, 20.0]
    assert out.radii.tolist() == [2.0, 2.0, 1.0, 1.0]
    assert fam.centers[:, 0].tolist() == [0.0, 10.0, 20.0, 30.0]


def test_separated_net_on_line():
    # 1-D "line" model: dense point grid stands in for the continuum
    grid = PointSet(np.linspace(-1.5, 1.5, 4001)[:, None])
    net = separated_net(grid, Ball(np.array([0.0]), 1.0), 0.5, candidates=5000, rng=np.random.default_rng(0))
    k = len(net.points)
    assert 3 <= k <= 5  # interval packing bound
    d = np.abs(net.points[:, 0][:, None] - net.points[:, 0][None, :])
    assert np.all(d[~np.eye(k, dtype=bool)] > 0.5)


def _greedy_net_loop(points, sep, metric):
    """Reference: one pool point at a time against every point kept before it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    chosen = np.empty_like(pts)
    count = 0
    for p in pts:
        if np.any(_norm(chosen[:count] - p, metric) <= sep):
            continue
        chosen[count] = p
        count += 1
    return chosen[:count]


@pytest.mark.parametrize("size", [1, 255, 256, 257, 10_000])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("metric", ["sup", "euclidean"])
def test_greedy_net_matches_scalar_loop(size, dim, metric):
    # a quarter of the pool on the sep/2 grid, with duplicates and pairs at
    # exactly sep, the rest uniform, shuffled together in a box that holds
    # about size/4 separated points.  A net of 10,000 points holds over a
    # thousand, so its blocks end before 256 points at _NET_PAIRS; the
    # small pools are netted again with blocks of a few hundred differences
    rng = np.random.default_rng(3 * size + dim)
    sep = 0.5
    side = sep * max(1.0, (size / 4) ** (1 / dim))
    grid = rng.integers(0, int(2 * side / sep) + 1, (size // 4, dim)) * (sep / 2)
    pool = rng.permutation(np.concatenate([grid, rng.uniform(0.0, side, (size - len(grid), dim))]))
    want = _greedy_net_loop(pool, sep, metric)
    assert np.array_equal(greedy_net(pool, sep, metric=metric), want)
    if size < 10_000:
        with mock.patch.object(covering, "_NET_PAIRS", 300):
            assert np.array_equal(greedy_net(pool, sep, metric=metric), want)


def test_separated_net_degenerate_cases():
    rng = np.random.default_rng(0)
    single = PointSet(np.array([[0.3]]))
    net = separated_net(single, Ball(np.array([0.3]), 1.0), 0.4, rng=rng)
    assert len(net.points) == 1 and net.points[0, 0] == pytest.approx(0.3)

    many = PointSet(np.linspace(0, 1, 101)[:, None])
    net = separated_net(many, Ball(np.array([0.5]), 0.4), 5.0, rng=rng)
    assert len(net.points) == 1  # separation above the region diameter

    net = separated_net(single, Ball(np.array([5.0]), 0.5), 0.1, rng=rng)
    assert len(net.points) == 0  # empty result, not an error


def test_separated_net_pool_counts_distinct_points():
    dup = PointSet(np.repeat(np.linspace(0.0, 1.0, 11), 3)[:, None])
    net = separated_net(dup, Ball(np.array([0.5]), 0.25), 0.15, rng=np.random.default_rng(0))
    assert net.pool_size == 5  # 0.3, 0.4, 0.5, 0.6, 0.7
    assert net.points[:, 0].tolist() == pytest.approx([0.3, 0.5, 0.7])


def test_build_caj_line():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
    A = Ball(np.zeros(2), 1.0)
    net = build_caj(A, line, 0.01, rng=np.random.default_rng(9))
    assert 8 <= len(net.points) <= 32  # ~1/(6*0.01) within a factor of 2
    # 3-dilates inside A and pairwise disjoint
    assert np.all(np.max(np.abs(net.points - A.center), axis=1) + 3 * 0.01 <= A.radius + 1e-12)
    assert family_is_disjoint(BallFamily(net.points, np.full(len(net.points), 3 * 0.01)))


def test_build_caj_point_and_precondition():
    pt = PointSet(np.array([[0.2, 0.2]]))
    rng = np.random.default_rng(0)
    net = build_caj(Ball(np.array([0.2, 0.2]), 1.0), pt, 0.1, rng=rng)
    assert len(net.points) == 1
    for upsilon in (0.1, 0.0, -0.01):
        with pytest.raises(ArgumentError):
            build_caj(Ball(np.array([0.2, 0.2]), 0.5), pt, upsilon, rng=rng)


def test_build_caj_cantor_cardinality_envelope():
    K = IFSAttractor(
        IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    )
    kappa = math.log(2) / math.log(3)
    upsilon = 1e-3
    net = build_caj(Ball(np.array([1 / 3]), 1.0), K, upsilon, rng=np.random.default_rng(11), pool=20_000)
    envelope = (1.0 / upsilon) ** kappa  # transformed/target radius ratio to kappa
    assert envelope / 4 <= len(net.points) <= envelope * 4
    print(f"cantor C-cardinality {len(net.points)} vs envelope {envelope:.1f}")


def test_build_kgb_vdc_points():
    stages = VdcPointStages(radius_fn=lambda j: 1.0 / j, j_max=100_000)
    res = build_kgb(Ball(np.array([0.5]), 0.4), 10, stages, 100_000, 0.05)
    assert len(res.selected) >= 1
    assert res.achieved_fraction >= 0.05
    assert res.selected.shape == (len(res.radii), 1) and len(res.js) == len(res.radii)
    # every ball is the stage point at the transformed radius of its index
    for x, r, j in zip(res.selected[:, 0], res.radii, res.js):
        cloud, tilde = stages(int(j))
        assert cloud.tolist() == [x] and r == tilde
    # oracle: (i) 3A inside B, (ii) 3-dilates pairwise disjoint
    assert np.all(np.abs(res.selected[:, 0] - 0.5) + 3 * res.radii <= 0.4 + 1e-12)
    assert family_is_disjoint(BallFamily(res.selected, 3.0 * res.radii))


def test_build_kgb_rejects_bad_radii():
    B = Ball(np.array([0.5]), 0.4)
    for radius_fn in (lambda j: 0.0, lambda j: -1.0 / j, lambda j: 1e-3 * j):
        with pytest.raises(ArgumentError):
            build_kgb(B, 1, VdcPointStages(radius_fn=radius_fn), 50, 0.05)


def test_region_dimension_must_match_the_set():
    line = AffinePlane(np.array([0.0, 0.0]), np.array([[1.0, 0.0]]))
    with pytest.raises(ArgumentError, match="dimension"):
        separated_net(line, Ball(np.array([0.3]), 1.0), 0.06, rng=np.random.default_rng(0))
    # the kgb selection refuses at its first stage instead of scanning to j_max
    stages = VdcPointStages(radius_fn=lambda j: 1.0 / j, j_max=10_000)
    seen = []
    with pytest.raises(ArgumentError, match="dimension"):
        build_kgb(Ball(np.array([0.5, 0.5]), 0.4), 10, lambda j: seen.append(j) or stages(j), 10_000, 0.05)
    assert seen == [10]


def test_build_kgb_shortfall():
    # stage point never lands in the target ball
    stages = VdcPointStages(radius_fn=lambda j: 0.001 / j, lo=0.8, hi=0.9, j_max=500)
    with pytest.raises(CoverageShortfall) as exc:
        build_kgb(Ball(np.array([0.1]), 0.05), 1, stages, 500, 0.05)
    assert exc.value.achieved_fraction == 0.0


def test_build_kgb_uses_every_cloud_point():
    # 3-dilates narrower than the grid step: the selection is the cloud's
    # points in reach, in sorted order, up to the volume target
    stages = GridCloudStages(lo=0.0, hi=1.0, plateaus=((16384, 1e-5),))
    res = build_kgb(Ball(np.array([0.5]), 0.3), 16384, stages, stages.j_max, 0.2)
    assert set(res.js.tolist()) == {16384} and set(res.radii.tolist()) == {1e-5}
    cloud = np.asarray(stages.sorted_points(16384))
    reach = cloud[np.abs(cloud - 0.5) + 3e-5 <= 0.3 * (1 + 1e-12)]
    assert 1 < len(res.radii) < len(reach)
    assert np.array_equal(res.selected[:, 0], reach[: len(res.radii)])


def test_build_kgb_planar_grid_stages():
    # stage j is the (2**j + 1)-point grid of the square [-1, 1]**2; every
    # stage provider is 1-D and build_kgb refuses a 2-D region
    # (test_region_dimension_must_match_the_set), so the geometry runs on
    # the per-candidate oracle, which takes any dimension
    def seq(j):
        axis = np.linspace(-1.0, 1.0, 2**j + 1)
        return PointSet(np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)), 2.0**-j

    res = _build_kgb_loop(Ball(np.zeros(2), 1.0), 1, seq, 40, 0.1)
    assert res.achieved_fraction >= 0.1
    # the central ball of stage 2 blocks stages 3 and 4; a small truncation index
    assert set(res.js.tolist()) == {2, 5, 7, 8} and res.n0 == 8
    # union measure of disjoint sup balls, computed exactly
    total = float(np.sum((2 * res.radii) ** 2))
    assert total == pytest.approx(res.achieved_fraction * (2 * 1.0) ** 2, rel=1e-12)
    assert total >= 0.1 * (2 * 1.0) ** 2 - 1e-12
    assert family_is_disjoint(BallFamily(res.selected, 3.0 * res.radii))


def test_kgb_determinism():
    stages = VdcPointStages(radius_fn=lambda j: 1.0 / j, j_max=10_000)
    r1 = build_kgb(Ball(np.array([0.5]), 0.4), 10, stages, 10_000, 0.05)
    r2 = build_kgb(Ball(np.array([0.5]), 0.4), 10, stages, 10_000, 0.05)
    assert np.array_equal(r1.js, r2.js) and np.array_equal(r1.selected, r2.selected)


def _build_kgb_loop(B, G, seq, j_max, target_fraction, c5=1.0, metric="sup"):
    """Reference: the greedy one candidate at a time, over ``seq(j) ->
    (PointSet, tilde)`` in any dimension; each candidate is tested against
    every kept ball."""
    n = B.ambient_dim
    vol_b = ball_volume(n, B.radius, metric)
    target = target_fraction * c5 * vol_b
    centers, radii3, radii, js = np.empty((0, n)), np.empty(0), [], []
    acc = 0.0
    for j in range(G, j_max + 1):
        model, tilde = seq(j)
        if not 3.0 * tilde < B.radius:
            continue
        cand = np.unique(model.points, axis=0)
        cand = cand[_norm(cand - B.center, metric) + 3.0 * tilde <= B.radius * (1 + 1e-12)]
        for x in cand:
            dist = _norm(centers - x, metric)
            if np.any(dist < (radii3 + 3.0 * tilde) * (1 - covering._DISJOINT_SLACK)):
                continue
            centers = np.vstack([centers, x])
            radii3 = np.append(radii3, 3.0 * tilde)
            radii.append(tilde)
            js.append(j)
            acc += ball_volume(n, tilde, metric)
            if acc >= target:
                return KgbResult(centers, np.array(radii), np.array(js, dtype=np.int64), acc / vol_b, j)
    raise CoverageShortfall("short", achieved_fraction=acc / vol_b)


def _as_point_sets(seq):
    """The oracle's stages: each sorted 1-D cloud as a ``PointSet``."""

    def point_seq(j):
        cloud, tilde = seq(j)
        return PointSet(np.asarray(cloud)[:, None]), tilde

    return point_seq


def _kgb_outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except CoverageShortfall as exc:
        return exc.achieved_fraction


def _assert_same_kgb(got, want):
    """Both selections are equal, or both fell short at the same fraction."""
    assert type(got) is type(want)
    if isinstance(want, KgbResult):
        assert np.array_equal(got.selected, want.selected)
        assert np.array_equal(got.radii, want.radii)
        assert np.array_equal(got.js, want.js) and got.js.dtype == want.js.dtype
        assert got.achieved_fraction == want.achieved_fraction and got.n0 == want.n0
    else:
        assert got == want


@st.composite
def _kgb_cases(draw):
    """A 1-D region, stages (van der Corput points, grid clouds, or sorted
    lattice clouds with duplicates and exactly tangent neighbours), and a
    radius schedule of plateaus with ties."""
    kind = draw(st.sampled_from(["vdc", "grid", "lattice"]))
    # dyadic lattice steps and radii make tangencies and volume sums exact;
    # h / 6 (1 + 1e-13) puts lattice neighbours inside the disjointness
    # slack, and a radius of B shrunk by 4e-13 puts tangent candidates
    # inside the containment slack
    h = 2.0 ** -draw(st.integers(3, 7))
    lo = draw(st.integers(-8, 0)) * h
    hi = lo + draw(st.integers(8, 64)) * h
    G = draw(st.integers(1, 40))
    j_max = G + draw(st.integers(0, 60))
    # plateaus: a non-increasing radius per break, held over its stages
    breaks = sorted(draw(st.lists(st.integers(G, j_max), min_size=1, max_size=4)))
    radii = st.sampled_from([h / 3, 0.3 * h, h / 4, h / 6, h / 6 * (1 + 1e-13), h / 8, h / 48])
    values = sorted(draw(st.lists(radii, min_size=len(breaks), max_size=len(breaks))), reverse=True)
    seeds = draw(st.integers(0, 2**16))

    def tilde(j):
        k = max([0] + [i for i, b in enumerate(breaks) if b <= j])
        return values[k]

    def cloud(j):
        if kind == "vdc":
            return VdcPointStages(lo=lo, hi=hi).sorted_points(j)
        if kind == "grid":
            return GridView(lo, hi, 1 << int(math.log2(j)))
        rng = np.random.default_rng(seeds + j)
        return np.sort(lo + h * rng.integers(0, round((hi - lo) / h) + 1, int(rng.integers(1, 80))))

    center = draw(st.sampled_from([lo, hi, 0.5 * (lo + hi)])) + draw(st.integers(-4, 4)) * h / 2
    radius = draw(st.sampled_from([3.5 * h, 8 * h, 16 * h, 0.5 * (hi - lo), hi - lo]))
    B = Ball(np.array([center]), radius * draw(st.sampled_from([1.0, 1 - 4e-13])))
    fraction = draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.4, 0.5, 1.0]))
    c5 = draw(st.sampled_from([0.5, 1.0, 1.3]))
    metric = draw(st.sampled_from(["sup", "euclidean"]))
    block = draw(st.sampled_from([1, 2, 3, 7, covering.BLOCK]))
    return B, G, (lambda j: (cloud(j), tilde(j))), j_max, fraction, c5, metric, block


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_kgb_cases())
def test_build_kgb_matches_loop(case):
    # every selection, radius, stage, early exit and shortfall of the sorted
    # sweep equals the per-candidate greedy's, also when a stage is swept
    # in blocks of a few points
    B, G, seq, j_max, fraction, c5, metric, block = case
    with mock.patch.object(covering, "BLOCK", block):
        got = _kgb_outcome(build_kgb, B, G, seq, j_max, fraction, c5=c5, metric=metric)
    want = _kgb_outcome(_build_kgb_loop, B, G, _as_point_sets(seq), j_max, fraction, c5=c5, metric=metric)
    _assert_same_kgb(got, want)


def test_build_kgb_matches_loop_on_bundled_stages():
    # the audit's grid-cloud stages: early exits inside the first stage and
    # shortfalls that sweep every later stage against the kept balls, in
    # whole stages and in blocks of 7 points
    stages = GridCloudStages(lo=-20.0, hi=20.0, plateaus=((512, 0.02), (4096, 2.2e-4)), j_max=2**13)
    for B, G, j_max, fractions in (
        (Ball(np.array([0.3]), 6.0), 512, 600, (0.2, 0.3)),
        (Ball(np.array([-19.5]), 3.0), 4090, 4110, (0.15, 0.6)),
        (Ball(np.array([1.0]), 0.05), 4096, 4100, (0.01, 1.0)),
    ):
        for fraction in fractions:
            want = _kgb_outcome(_build_kgb_loop, B, G, _as_point_sets(stages), j_max, fraction)
            for block in (covering.BLOCK, 7):
                with mock.patch.object(covering, "BLOCK", block):
                    _assert_same_kgb(_kgb_outcome(build_kgb, B, G, stages, j_max, fraction), want)


def test_build_kgb_stops_where_the_volume_meets_the_target():
    # 15 tangent balls of volume 1/4 fit in B(8, 8); the target 1.0 is met
    # exactly by the fourth, which ends the selection
    seq = lambda j: (np.arange(16.0), 0.125)
    want = _build_kgb_loop(Ball(np.array([8.0]), 8.0), 1, _as_point_sets(seq), 1, 1 / 16)
    assert want.selected[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0] and want.achieved_fraction == 1 / 16
    for block in (covering.BLOCK, 3):
        with mock.patch.object(covering, "BLOCK", block):
            _assert_same_kgb(build_kgb(Ball(np.array([8.0]), 8.0), 1, seq, 1, 1 / 16), want)


def test_build_kgb_scan_near_2_24_holds_no_stage():
    # a shortfall that walks the stages around j = 2**24, whose clouds hold
    # 2**23 and 2**24 points: only the points in B are read, a block at a
    # time (materialized, each stage's cloud was 67-134 MB before np.unique
    # copied it)
    stages = GridCloudStages(lo=0.0, hi=1.0, plateaus=((2**24 - 8, 1e-9),), j_max=2**24 + 8)
    B = Ball(np.array([0.5]), 1e-4)
    seen = []
    tracemalloc.start()
    try:
        with pytest.raises(CoverageShortfall) as exc:
            build_kgb(B, 2**24 - 8, lambda j: seen.append(j) or stages(j), stages.j_max, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == list(range(2**24 - 8, 2**24 + 9))
    # every in-B point of 2**23 is kept at the first stage and every one of
    # 2**24 (the grids share no point) at stage 2**24: 1,678 + 3,355 balls
    # of volume 2 tilde
    assert exc.value.achieved_fraction == pytest.approx(5_033 * 2e-9 / 2e-4, rel=1e-3)
    assert peak < 1e6


def _balls(fam):
    return [Ball(c, r) for c, r in zip(fam.centers, fam.radii)]


def _family_is_disjoint_loop(fam):
    balls = _balls(fam)
    for i in range(len(balls)):
        for k in range(i + 1, len(balls)):
            if not balls_disjoint(balls[i], balls[k], fam.metric):
                return False
    return True


def _five_r_cover_loop(fam):
    """The greedy over Ball objects: descending radius, ties by input order."""
    balls, kept = _balls(fam), []
    for i in sorted(range(len(balls)), key=lambda i: (-balls[i].radius, i)):
        if all(balls_disjoint(balls[i], k, fam.metric) for k in kept):
            kept.append(balls[i])
    return kept


def _five_r_covers_loop(inputs, selected):
    sel = _balls(selected)
    for b in _balls(inputs):
        if not any(ball_contains(Ball(s.center, 5.0 * s.radius), b, inputs.metric) for s in sel):
            return False
    return True


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_pair_oracles_match_loops_at_the_slack(metric, dim):
    # integer grid centers with radius 0.5 are exactly tangent along the axes;
    # shrinking or growing one radius by half to twice the disjointness
    # slack, and placing inputs exactly at the 5-dilate's edge, puts the
    # decisions on the boundary of the per-pair predicates
    rng = np.random.default_rng(dim)
    slack = 1e-12
    for _ in range(30):
        n = int(rng.integers(2, 12))
        centers = rng.integers(0, 4, (n, dim)) + 1000.0
        radii = np.full(n, 0.5)
        k = int(rng.integers(0, n))
        radii[k] = 0.5 * (1 + rng.choice([-1, 1]) * slack * rng.choice([0.5, 1.0, 2.0]))
        fam = BallFamily(centers, radii, metric)
        assert family_is_disjoint(fam) == _family_is_disjoint_loop(fam)
        # picks of radius 0.2 give 5-dilates of radius 1 up to a few ulp;
        # inputs around the picks reach exactly distance + radius = 1
        picks = centers[::2]
        sel = BallFamily(picks, 0.2 * (1 + rng.choice([-2, -0.5, 0, 2], len(picks)) * slack), metric)
        step = np.zeros(dim)
        step[0] = 0.5
        inputs = BallFamily(
            np.concatenate([picks, picks + step]), np.repeat([1.0, 0.5], len(picks)), metric
        )
        assert five_r_covers(inputs, sel) == _five_r_covers_loop(inputs, sel)
        fam_out = five_r_cover(fam)
        assert family_is_disjoint(fam_out) == _family_is_disjoint_loop(fam_out)
        assert five_r_covers(fam, fam_out) == _five_r_covers_loop(fam, fam_out)


@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("block", [None, 50])
def test_pair_oracles_match_loops_random(metric, block, monkeypatch):
    if block:  # many row blocks, some holding one row
        monkeypatch.setattr(covering, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 9):
        for count in (1, 2, 40, 120):
            radii = rng.uniform(0.005, 0.05, count)
            fam = BallFamily(rng.uniform(0.0, 1.0, (count, dim)), radii, metric)
            out = five_r_cover(fam)
            kept = _five_r_cover_loop(fam)
            assert np.array_equal(out.centers, [b.center for b in kept])
            assert np.array_equal(out.radii, [b.radius for b in kept])
            assert family_is_disjoint(out) and _family_is_disjoint_loop(out)
            assert family_is_disjoint(fam) == _family_is_disjoint_loop(fam)
            assert five_r_covers(fam, out) and _five_r_covers_loop(fam, out)
            half = len(out.radii) // 2
            part = BallFamily(out.centers[:half], out.radii[:half], metric)
            assert five_r_covers(fam, part) == _five_r_covers_loop(fam, part)
    # the broadcast norm of a row block equals the per-pair norm bit for bit
    c = fam.centers
    assert np.array_equal(_norm(c[:, None, :] - c[None, :, :], metric)[3], [_norm(c[3] - x, metric) for x in c])
    empty = BallFamily(np.empty((0, dim)), np.empty(0), metric)
    assert five_r_covers(empty, empty) and family_is_disjoint(empty)
    assert not five_r_covers(fam, empty)
