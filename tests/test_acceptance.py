"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lspkit.cantor import assign_mass, build_cantor, holder_check, verify_levels
from lspkit.cli import bundled_config, run
from lspkit.covering import Ball, BallFamily, build_caj, family_is_disjoint, five_r_cover, five_r_covers
from lspkit.dimfun import Gauge, GaugePair, corollary_exponent, mtp_radius
from lspkit.measure import box_dimensions, fit_lsp, model_intervals_1d, _merge_length
from lspkit.presets import audit_construction, holder_construction
from lspkit.randomsim import RandomScheme, covering_exponent, coverage_frequency
from lspkit.sets import (
    IFS,
    AffinePlane,
    IFSAttractor,
    IFSMap,
    PointSet,
    Polyline,
    distance_to_set,
)

LOG23 = math.log(2) / math.log(3)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({label}): PASS")


def middle_third():
    return IFSAttractor(
        IFS((IFSMap(1 / 3, np.array([0.0])), IFSMap(1 / 3, np.array([2 / 3]))), True)
    )


def sierpinski():
    return IFSAttractor(
        IFS(
            (
                IFSMap(0.5, np.array([0.0, 0.0])),
                IFSMap(0.5, np.array([0.5, 0.0])),
                IFSMap(0.5, np.array([0.25, 0.5])),
            ),
            True,
        )
    )


def test_accept_1_lsp_exponent_recovery():
    with criterion(1, "LSP exponent recovery"):
        budget = 300.0

        t0 = time.time()
        fit = fit_lsp(
            PointSet(np.array([[0.0]])),
            [2.0**-k for k in range(1, 7)],
            [2.0**-k for k in range(2, 8)],
            samples=100_000,
            rng=np.random.default_rng(101),
        )
        assert abs(fit.kappa_hat - 0.0) <= 0.05
        assert time.time() - t0 <= budget

        t0 = time.time()
        line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
        fit = fit_lsp(
            line,
            [0.5 * 2.0**-k for k in range(0, 6)],
            [2.0**-k for k in range(2, 8)],
            samples=100_000,
            rng=np.random.default_rng(102),
        )
        assert abs(fit.kappa_hat - 0.5) <= 0.05
        assert time.time() - t0 <= budget

        t0 = time.time()
        fit = fit_lsp(
            middle_third(),
            [3.0**-k for k in range(2, 8)],
            [3.0**-k for k in range(1, 7)],
            samples=100_000,
            rng=np.random.default_rng(103),
        )
        assert abs(fit.kappa_hat - LOG23) <= 0.05
        assert time.time() - t0 <= budget


def test_accept_2_box_dimensions():
    with criterion(2, "box dimension"):
        seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
        lo, hi = box_dimensions(
            seg, [2.0**-k for k in range(5, 13)], samples_per_scale=200_000,
            rng=np.random.default_rng(201),
        )
        assert abs(lo.exponent - 1.0) <= 0.05 and abs(hi.exponent - 1.0) <= 0.05

        lo, hi = box_dimensions(
            sierpinski(), [0.12 * 2.0**-k for k in range(0, 8)],
            samples_per_scale=200_000, rng=np.random.default_rng(202),
        )
        target = math.log(3) / math.log(2)
        assert abs(lo.exponent - target) <= 0.05 and abs(hi.exponent - target) <= 0.05

        lo, hi = box_dimensions(
            PointSet(np.array([[0.3]])), [2.0**-k for k in range(5, 13)],
            rng=np.random.default_rng(203),
        )
        assert abs(lo.exponent) <= 0.05 and abs(hi.exponent) <= 0.05


def test_accept_3_transform_algebra():
    with criterion(3, "transform algebra"):
        rng = np.random.default_rng(301)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            kappa = rng.uniform(0.0, 0.95)
            s = rng.uniform(kappa * n + 1e-3, float(n))
            u = rng.uniform(1e-6, 0.5)
            pair = GaugePair(Gauge.power(s), Gauge.power(float(n)), kappa)
            expect = u ** corollary_exponent(s, kappa, n)
            assert mtp_radius(pair, u) == pytest.approx(expect, rel=1e-9)
        ident = GaugePair(Gauge.power(1.0), Gauge.power(1.0), 0.0)
        for u in rng.uniform(1e-6, 0.9, size=20):
            assert mtp_radius(ident, u) == u


def test_accept_4_covering_selections():
    with criterion(4, "covering selections"):
        rng = np.random.default_rng(401)
        for _ in range(200):
            count = int(rng.integers(5, 60))
            balls = [
                Ball(rng.uniform(0, 1, size=2), float(r))
                for r in rng.uniform(0.01, 0.05, size=count)
            ]
            fam = BallFamily(balls)
            out = five_r_cover(fam)
            assert family_is_disjoint(out)
            assert five_r_covers(fam, out)

        # bundled instance: line in the plane
        line = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]), extent=2.0)
        A = Ball(np.zeros(2), 1.0)
        upsilon = 0.01
        res = build_caj(A, 1, line, upsilon, rng=np.random.default_rng(402))
        _check_caj_geometry(res, A, line)
        # (iv) via exact sup-norm areas: strip times box
        vol_l = len(res) * (2 * upsilon) ** 2
        vol_a = 2 * A.radius * 2 * upsilon
        vol_half = A.radius * 2 * upsilon
        assert vol_l <= vol_a
        assert vol_half <= 14.0 * vol_l
        assert 8 <= len(res) <= 32

        # bundled instance: single point
        pt = PointSet(np.array([[0.1, 0.4]]))
        res = build_caj(Ball(np.array([0.1, 0.4]), 1.0), 2, pt, 0.1,
                        rng=np.random.default_rng(403))
        assert len(res) == 1

        # bundled instance: middle-third attractor, cardinality envelope
        K = middle_third()
        upsilon = 1e-3
        A = Ball(np.array([1 / 3]), 1.0)
        res = build_caj(A, 3, K, upsilon, rng=np.random.default_rng(404), pool=20_000)
        _check_caj_geometry(res, A, K, tol=2e-6)
        envelope = (1.0 / upsilon) ** LOG23
        assert envelope / 4 <= len(res) <= envelope * 4
        # (iv) with exact 1-D interval measures
        spans = model_intervals_1d(K, upsilon)
        vol_a = _merge_length(spans, lo=A.center[0] - A.radius, hi=A.center[0] + A.radius)
        vol_half = _merge_length(spans, lo=A.center[0] - A.radius / 2, hi=A.center[0] + A.radius / 2)
        vol_l = len(res) * 2 * upsilon
        assert vol_l <= vol_a * (1 + 1e-2)  # interval union carries resolution slack
        assert vol_half <= 14.0 * vol_l


def _check_caj_geometry(res, A, model, tol=1e-9):
    for b in res.balls:
        assert b.radius == res.upsilon
        assert np.max(np.abs(b.center - A.center)) + 3 * b.radius <= A.radius * (1 + 1e-12)
    assert family_is_disjoint(BallFamily([b.dilate(3.0) for b in res.balls]))
    centers = np.array([b.center for b in res.balls])
    assert np.max(distance_to_set(model, centers, tol=tol / 2)) <= tol


@pytest.fixture(scope="module")
def audit_bundle():
    params = audit_construction()
    tree = build_cantor(params)
    return params, tree


def test_accept_5_cantor_audit(audit_bundle):
    import copy

    with criterion(5, "nested construction audit"):
        params, tree = audit_bundle
        report = verify_levels(tree, params)
        assert report.ok
        assert set(report.properties) == {"P0", "P1", "P2", "P3", "P4", "P5"}

        t1 = copy.deepcopy(tree)
        t1.levels[0][0].c_center[5] = t1.levels[0][0].c_center[6]  # colliding balls
        assert not verify_levels(t1, params).properties["P1"].passed

        t2 = copy.deepcopy(tree)
        t2.levels[0][0].l_b = 1
        assert not verify_levels(t2, params).properties["P5"].passed

        t3 = copy.deepcopy(tree)
        loc = t3.levels[0][0]
        deep = np.nonzero(loc.c_sublevel == 2)[0][0]
        loc.c_radius[deep] = float(np.max(loc.c_radius))
        assert not verify_levels(t3, params).properties["P4"].passed


def test_accept_6_holder_mass_bound():
    with criterion(6, "mass bound eta-independence"):
        reports = {}
        for eta in (2.0, 4.0, 8.0):
            params = holder_construction(eta)
            tree = build_cantor(params)
            mass = assign_mass(tree, params)
            assert verify_levels(tree, params).ok
            reports[eta] = holder_check(
                tree, mass, params, trials=10_000, rng=np.random.default_rng(601)
            )
        r2, r4, r8 = (reports[e] for e in (2.0, 4.0, 8.0))
        assert r2.qualifying_trials >= 100 and r8.qualifying_trials >= 100
        ratio = r4.max_ratio / r2.max_ratio
        print(f"  max_ratio: eta2={r2.max_ratio:.4f} eta4={r4.max_ratio:.4f} "
              f"eta8={r8.max_ratio:.4f} (ratio 4/2 = {ratio:.3f})")
        assert 0.5 <= ratio <= 2.0
        bounds = {e: reports[e].implied_hf_lower_bound for e in (2.0, 4.0, 8.0)}
        print(f"  implied lower bounds: {bounds}")
        for ea, eb in ((2.0, 4.0), (2.0, 8.0), (4.0, 8.0)):
            growth = bounds[eb] / bounds[ea]
            linear = eb / ea
            assert linear / 2 <= growth <= linear * 2


def test_accept_7_random_limsup_exponents():
    with criterion(7, "random limsup covering exponent"):
        budget = 600.0
        pt = PointSet(np.array([[0.5]]))

        t0 = time.time()
        cf = covering_exponent(
            RandomScheme(base=pt, tau=2.0, s=1.0, kappa=0.0, master_seed=701, n=1),
            [2**k for k in range(6, 13)],
        )
        assert abs(cf.fit.exponent - 0.5) <= 0.10
        assert time.time() - t0 <= budget

        cf = covering_exponent(
            RandomScheme(base=pt, tau=4.0, s=1.0, kappa=0.0, master_seed=702, n=1),
            [2**k for k in range(4, 10)],
        )
        assert abs(cf.fit.exponent - 0.25) <= 0.10

        t0 = time.time()
        line = AffinePlane(np.array([0.0, 0.5]), np.array([[1.0, 0.0]]))
        cf = covering_exponent(
            RandomScheme(base=line, tau=2.0, s=2.0, kappa=0.5, master_seed=703, n=2),
            [2**k for k in range(4, 9)],
        )
        assert abs(cf.fit.exponent - 1.5) <= 0.15
        assert time.time() - t0 <= budget
        consts = np.array(cf.per_j_constants)
        print(f"  per-stage count constants: {np.round(consts, 2).tolist()}")
        assert np.max(consts) / np.min(consts) <= 2.0


def test_accept_8_borel_cantelli_diagnostic():
    with criterion(8, "Borel-Cantelli diagnostic"):
        sch = RandomScheme(
            base=PointSet(np.array([[0.5]])), tau=2.0, s=1.0, kappa=0.0,
            master_seed=801, n=1,
        )
        div, conv = coverage_frequency(
            sch, [0.3], [lambda j: 1.0 / j, lambda j: j**-2.0], 1, 400, trials=1000
        )
        assert div.classification == "divergent"
        assert conv.classification == "convergent"


def test_accept_9_reproducibility():
    with criterion(9, "reproducibility across thread counts"):
        cfg = bundled_config("randsim_bc.json")
        _, rep1 = run("randsim", cfg, threads=1)
        _, rep2 = run("randsim", cfg, threads=4)
        assert rep1["results"] == rep2["results"]

        cfg = bundled_config("cover_five_r.json")
        _, repa = run("cover", cfg, threads=1)
        _, repb = run("cover", cfg, threads=8)
        assert repa["results"] == repb["results"]
