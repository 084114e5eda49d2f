import math

import numpy as np
import pytest

from lspkit import covering
from lspkit.covering import (
    Ball,
    BallFamily,
    ball_contains,
    balls_disjoint,
    build_caj,
    build_kgb,
    family_is_disjoint,
    five_r_cover,
    five_r_covers,
    separated_net,
)
from lspkit.errors import ArgumentError, CoverageShortfall
from lspkit.sets import IFS, AffinePlane, IFSAttractor, IFSMap, PointSet, _norm
from lspkit.stages import GridCloudStages, VdcPointStages


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
    net = separated_net(grid, Ball(np.array([0.0]), 1.0), 0.5, candidates=5000)
    k = len(net.points)
    assert 3 <= k <= 5  # interval packing bound
    d = np.abs(net.points[:, 0][:, None] - net.points[:, 0][None, :])
    assert np.all(d[~np.eye(k, dtype=bool)] > 0.5)


def test_separated_net_degenerate_cases():
    single = PointSet(np.array([[0.3]]))
    net = separated_net(single, Ball(np.array([0.3]), 1.0), 0.4)
    assert len(net.points) == 1 and net.points[0, 0] == pytest.approx(0.3)

    many = PointSet(np.linspace(0, 1, 101)[:, None])
    net = separated_net(many, Ball(np.array([0.5]), 0.4), 5.0)
    assert len(net.points) == 1  # separation above the region diameter

    net = separated_net(single, Ball(np.array([5.0]), 0.5), 0.1)
    assert len(net.points) == 0  # empty result, not an error


def test_separated_net_pool_counts_distinct_points():
    dup = PointSet(np.repeat(np.linspace(0.0, 1.0, 11), 3)[:, None])
    net = separated_net(dup, Ball(np.array([0.5]), 0.25), 0.15)
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
    net = build_caj(Ball(np.array([0.2, 0.2]), 1.0), pt, 0.1)
    assert len(net.points) == 1
    for upsilon in (0.1, 0.0, -0.01):
        with pytest.raises(ArgumentError):
            build_caj(Ball(np.array([0.2, 0.2]), 0.5), pt, upsilon)


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
        model, tilde = stages(int(j))
        assert x == model.points[0, 0] and r == tilde
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
        separated_net(line, Ball(np.array([0.3]), 1.0), 0.06)
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
    # stage j is the (2**j + 1)-point grid of the square [-1, 1]**2
    def seq(j):
        axis = np.linspace(-1.0, 1.0, 2**j + 1)
        return PointSet(np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)), 2.0**-j

    res = build_kgb(Ball(np.zeros(2), 1.0), 1, seq, 40, 0.1)
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
