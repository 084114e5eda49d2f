import math

import numpy as np
import pytest

from lspkit.covering import (
    Ball,
    BallFamily,
    IndexedBall,
    build_caj,
    build_kgb,
    family_from_json,
    family_is_disjoint,
    family_to_json,
    five_r_cover,
    five_r_covers,
    separated_net,
)
from lspkit.errors import ArgumentError, CoverageShortfall
from lspkit.sets import IFS, AffinePlane, IFSAttractor, IFSMap, PointSet
from lspkit.stages import GridCloudStages, VdcPointStages


def test_five_r_single():
    fam = BallFamily([Ball(np.array([0.0]), 1.0)])
    out = five_r_cover(fam)
    assert len(out.balls) == 1


def test_five_r_three_on_line():
    fam = BallFamily([Ball(np.array([float(k)]), 1.0) for k in range(3)])
    out = five_r_cover(fam)
    centers = sorted(b.center[0] for b in out.plain())
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
    assert [tuple(b.center) for b in out1.plain()] == [tuple(b.center) for b in out2.plain()]


def test_separated_net_on_line():
    # 1-D "line" model: dense point grid stands in for the continuum
    grid = PointSet(np.linspace(-1.5, 1.5, 4001)[:, None])
    net = separated_net(grid, Ball(np.array([0.0]), 1.0), 0.5, candidates=5000,
                        rng=np.random.default_rng(5))
    k = len(net.points)
    assert 3 <= k <= 5  # interval packing bound
    d = np.abs(net.points[:, 0][:, None] - net.points[:, 0][None, :])
    assert np.all(d[~np.eye(k, dtype=bool)] > 0.5)
    assert net.pool_maximal


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


def test_family_json_roundtrip():
    fam = BallFamily(
        [IndexedBall(Ball(np.array([0.1, 0.2]), 0.05), 7), IndexedBall(Ball(np.array([0.5, 0.5]), 0.1), 9)]
    )
    back = family_from_json(family_to_json(fam))
    assert [(b.j, tuple(b.ball.center), b.ball.radius) for b in back.balls] == [
        (b.j, tuple(b.ball.center), b.ball.radius) for b in fam.balls
    ]
