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


def test_five_r_single():
    fam = BallFamily([Ball(np.array([0.0]), 1.0)])
    out = five_r_cover(fam)
    assert len(out.balls) == 1


def test_five_r_three_on_line():
    fam = BallFamily([Ball(np.array([float(k)]), 1.0) for k in range(3)])
    out = five_r_cover(fam)
    centers = sorted(b.center[0] for b in out.balls)
    assert centers == [0.0, 2.0]  # tangent open balls count as disjoint
    assert family_is_disjoint(out)
    assert five_r_covers(fam, out)


def test_five_r_random_families_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        balls = [
            Ball(rng.uniform(0, 1, size=2), float(r))
            for r in rng.uniform(0.01, 0.05, size=100)
        ]
        fam = BallFamily(balls)
        out = five_r_cover(fam)
        assert family_is_disjoint(out)
        assert five_r_covers(fam, out)


def test_five_r_deterministic_given_order():
    rng = np.random.default_rng(4)
    balls = [Ball(rng.uniform(0, 1, size=2), float(r)) for r in rng.uniform(0.01, 0.05, 40)]
    out1 = five_r_cover(BallFamily(list(balls)))
    out2 = five_r_cover(BallFamily(list(balls)))
    assert [tuple(b.center) for b in out1.balls] == [tuple(b.center) for b in out2.balls]


def test_separated_net_on_line():
    # 1-D "line" model: dense point grid stands in for the continuum
    grid = PointSet(np.linspace(-1.5, 1.5, 4001)[:, None])
    net = separated_net(grid, Ball(np.array([0.0]), 1.0), 0.5, candidates=5000,
                        rng=np.random.default_rng(5))
    k = len(net.points)
    assert 3 <= k <= 5  # interval packing bound
    d = np.abs(net.points[:, 0][:, None] - net.points[:, 0][None, :])
    assert np.all(d[~np.eye(k, dtype=bool)] > 0.5)


def test_separated_net_degenerate_cases():
    single = PointSet(np.array([[0.3]]))
    net = separated_net(single, Ball(np.array([0.3]), 1.0), 0.4, rng=np.random.default_rng(6))
    assert len(net.points) == 1 and net.points[0, 0] == pytest.approx(0.3)

    many = PointSet(np.linspace(0, 1, 101)[:, None])
    net = separated_net(many, Ball(np.array([0.5]), 0.4), 5.0, rng=np.random.default_rng(7))
    assert len(net.points) == 1  # separation above the region diameter

    net = separated_net(single, Ball(np.array([5.0]), 0.5), 0.1, rng=np.random.default_rng(8))
    assert len(net.points) == 0  # empty result, not an error


def test_separated_net_pool_counts_distinct_points():
    dup = PointSet(np.repeat(np.linspace(0.0, 1.0, 11), 3)[:, None])
    net = separated_net(dup, Ball(np.array([0.5]), 0.25), 0.15, rng=np.random.default_rng(9))
    assert net.pool_size == 5  # 0.3, 0.4, 0.5, 0.6, 0.7
    assert net.points[:, 0].tolist() == pytest.approx([0.3, 0.5, 0.7])


def test_build_caj_line():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
    A = Ball(np.zeros(2), 1.0)
    res = build_caj(A, 1, line, 0.01, rng=np.random.default_rng(9))
    assert 8 <= len(res) <= 32  # ~1/(6*0.01) within a factor of 2
    for b in res.balls:
        # 3-dilate inside A
        assert np.max(np.abs(b.center - A.center)) + 3 * b.radius <= A.radius + 1e-12
    fam = BallFamily([b.dilate(3.0) for b in res.balls])
    assert family_is_disjoint(fam)


def test_build_caj_point_and_precondition():
    pt = PointSet(np.array([[0.2, 0.2]]))
    res = build_caj(Ball(np.array([0.2, 0.2]), 1.0), 3, pt, 0.1, rng=np.random.default_rng(10))
    assert len(res) == 1
    with pytest.raises(ArgumentError):
        build_caj(Ball(np.array([0.2, 0.2]), 0.5), 3, pt, 0.1)


def test_build_caj_cantor_cardinality_envelope():
    K = IFSAttractor(
        IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    )
    kappa = math.log(2) / math.log(3)
    upsilon = 1e-3
    res = build_caj(Ball(np.array([1 / 3]), 1.0), 1, K, upsilon,
                    rng=np.random.default_rng(11), pool=20_000)
    envelope = (1.0 / upsilon) ** kappa  # transformed/target radius ratio to kappa
    assert envelope / 4 <= len(res) <= envelope * 4
    print(f"cantor C-cardinality {len(res)} vs envelope {envelope:.1f}")


def test_build_kgb_vdc_points():
    stages = VdcPointStages(radius_fn=lambda j: 1.0 / j, j_max=100_000)
    res = build_kgb(
        Ball(np.array([0.5]), 0.4), 10, stages, 100_000, 0.05,
        rng=np.random.default_rng(12),
    )
    assert len(res.selected) >= 1
    assert res.achieved_fraction >= 0.05
    # oracle: (i) 3A inside B, (ii) 3-dilates pairwise disjoint
    B = Ball(np.array([0.5]), 0.4)
    for ib in res.selected:
        assert abs(ib.ball.center[0] - 0.5) + 3 * ib.ball.radius <= 0.4 + 1e-12
    fam = BallFamily([ib.ball.dilate(3.0) for ib in res.selected])
    assert family_is_disjoint(fam)


def test_build_kgb_shortfall():
    # stage point never lands in the target ball
    stages = VdcPointStages(radius_fn=lambda j: 0.001 / j, lo=0.8, hi=0.9, j_max=500)
    with pytest.raises(CoverageShortfall) as exc:
        build_kgb(Ball(np.array([0.1]), 0.05), 1, stages, 500, 0.05,
                  rng=np.random.default_rng(13))
    assert exc.value.achieved_fraction == 0.0


def test_build_kgb_uses_every_cloud_point():
    # a 16384-point stage cloud is larger than the default sample pool
    stages = GridCloudStages(lo=0.0, hi=1.0, plateaus=((16384, 1e-5),))
    B = Ball(np.array([0.5]), 0.3)
    runs = [
        build_kgb(B, 16384, stages, stages.j_max, 0.2, rng=np.random.default_rng(seed))
        for seed in (1, 2)
    ]
    picks = [[(ib.j, ib.ball.center[0]) for ib in r.selected] for r in runs]
    assert picks[0] == picks[1]
    assert {j for j, _ in picks[0]} == {16384}


def test_build_kgb_full_line_stages():
    line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=3.0)

    def seq(j):
        return line, 2.0**-j

    res = build_kgb(Ball(np.zeros(2), 1.0), 1, seq, 40, 0.05, rng=np.random.default_rng(14))
    assert res.achieved_fraction >= 0.05
    assert res.n0 <= 5  # succeeds at a small truncation index
    # union measure of disjoint sup balls, computed exactly
    total = sum((2 * ib.ball.radius) ** 2 for ib in res.selected)
    assert total >= 0.05 * (2 * 1.0) ** 2 - 1e-12


def test_kgb_determinism():
    stages = VdcPointStages(radius_fn=lambda j: 1.0 / j, j_max=10_000)
    r1 = build_kgb(Ball(np.array([0.5]), 0.4), 10, stages, 10_000, 0.05,
                   rng=np.random.default_rng(1))
    r2 = build_kgb(Ball(np.array([0.5]), 0.4), 10, stages, 10_000, 0.05,
                   rng=np.random.default_rng(1))
    assert [(ib.j, ib.ball.center[0]) for ib in r1.selected] == [
        (ib.j, ib.ball.center[0]) for ib in r2.selected
    ]


def _family_is_disjoint_loop(fam):
    balls = fam.balls
    for i in range(len(balls)):
        for k in range(i + 1, len(balls)):
            if not balls_disjoint(balls[i], balls[k], fam.metric):
                return False
    return True


def _five_r_covers_loop(inputs, selected):
    sel = selected.balls
    for b in inputs.balls:
        if not any(ball_contains(s.dilate(5.0), b, inputs.metric) for s in sel):
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
        fam = BallFamily([Ball(c, r) for c, r in zip(centers, radii)], metric=metric)
        assert family_is_disjoint(fam) == _family_is_disjoint_loop(fam)
        # picks of radius 0.2 give 5-dilates of radius 1 up to a few ulp;
        # inputs around the picks reach exactly distance + radius = 1
        picks = range(0, n, 2)
        sel = BallFamily(
            [Ball(centers[i], 0.2 * (1 + rng.choice([-2, -0.5, 0, 2]) * slack)) for i in picks],
            metric=metric,
        )
        step = np.zeros(dim)
        step[0] = 0.5
        inputs = BallFamily(
            [Ball(centers[i], 1.0) for i in picks] + [Ball(centers[i] + step, 0.5) for i in picks],
            metric=metric,
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
            fam = BallFamily(
                [Ball(rng.uniform(0.0, 1.0, dim), float(r)) for r in rng.uniform(0.005, 0.05, count)],
                metric=metric,
            )
            out = five_r_cover(fam)
            assert family_is_disjoint(out) and _family_is_disjoint_loop(out)
            assert family_is_disjoint(fam) == _family_is_disjoint_loop(fam)
            assert five_r_covers(fam, out) and _five_r_covers_loop(fam, out)
            part = BallFamily(out.balls[: len(out.balls) // 2], metric=metric)
            assert five_r_covers(fam, part) == _five_r_covers_loop(fam, part)
    # the broadcast norm of a row block equals the per-pair norm bit for bit
    c = np.array([b.center for b in fam.balls])
    assert np.array_equal(_norm(c[:, None, :] - c[None, :, :], metric)[3], [_norm(c[3] - x, metric) for x in c])
    assert five_r_covers(BallFamily([]), BallFamily([])) and family_is_disjoint(BallFamily([]))
    assert not five_r_covers(fam, BallFamily([]))
