import numpy as np
import pytest

from lspkit.dimfun import (
    Gauge,
    GaugePair,
    corollary_exponent,
    default_grid,
    eval_gauge,
    gauge_from_json,
    invert_gauge,
    mtp_radius,
    verify_gauge_pair,
)
from lspkit.errors import ArgumentError


def test_eval_power():
    assert eval_gauge(Gauge.power(1), 0.25) == 0.25
    assert eval_gauge(Gauge.power(2), 0.5) == 0.25


def test_eval_tabulated_loglinear_midpoint():
    tab = Gauge.tabulated([(0.1, 0.01), (1.0, 1.0)])
    # log-linear interpolation: halfway in log r gives halfway in log v
    assert eval_gauge(tab, 10**-0.5) == pytest.approx(0.1, rel=1e-12)


def test_eval_domain_and_range_errors():
    with pytest.raises(ArgumentError, match="gauge argument must be positive and finite"):
        eval_gauge(Gauge.power(1), 0.0)
    with pytest.raises(ArgumentError, match="gauge argument must be positive and finite"):
        eval_gauge(Gauge.power(1), -1.0)
    tab = Gauge.tabulated([(0.1, 0.01), (1.0, 1.0)])
    with pytest.raises(ArgumentError, match="radius outside tabulated hull"):
        eval_gauge(tab, 0.01)


_TABULATED = Gauge.tabulated([(1e-9, 2e-6), (1e-4, 3e-3), (0.05, 0.2), (1.0, 1.0), (200.0, 40.0)])


@pytest.mark.parametrize(
    "gauge",
    [Gauge.power(s) for s in (0.3, 0.5, np.log(2) / np.log(3), 1.0, 1.3, 2.0)] + [_TABULATED],
    ids=lambda g: f"power-{g.s:.4g}" if g.kind == "power" else "tabulated",
)
def test_scalar_eval_matches_array_bit_for_bit(gauge):
    # a scalar takes the array's numpy power: Python's float ** s rounds
    # differently at some radii on some machines
    rng = np.random.default_rng(41)
    r = np.exp(rng.uniform(np.log(1e-9), np.log(200.0), 10_000))
    want = eval_gauge(gauge, r)
    for x in (r.tolist(), list(r), [np.asarray(v) for v in r[:500]]):
        got = np.array([eval_gauge(gauge, v) for v in x])
        assert all(type(eval_gauge(gauge, v)) is float for v in x[:3])
        assert np.array_equal(got.view(np.int64), want[: len(got)].view(np.int64))


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_scalar_and_array_refusals_read_alike(bad):
    for gauge in (Gauge.power(0.5), _TABULATED):
        for r in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad])):
            with pytest.raises(ArgumentError, match="^gauge argument must be positive and finite$"):
                eval_gauge(gauge, r)
    for r in (1e-10, 201.0, np.array([0.5, 201.0])):
        with pytest.raises(ArgumentError, match="^radius outside tabulated hull$"):
            eval_gauge(_TABULATED, r)
    # the hull's relative slack admits radii just past either end
    assert eval_gauge(_TABULATED, 1e-9 * (1 - 1e-13)) == eval_gauge(_TABULATED, np.array([1e-9 * (1 - 1e-13)]))[0]


def test_invert_gauge():
    assert invert_gauge(Gauge.power(2), 0.25) == pytest.approx(0.5, rel=1e-12)
    assert invert_gauge(Gauge.power(1), 0.7) == pytest.approx(0.7, rel=1e-12)
    tab = Gauge.tabulated([(0.01, 1e-4), (1.0, 1.0)])  # log-linear r^2
    assert invert_gauge(tab, 0.01) == pytest.approx(0.1, rel=1e-9)
    with pytest.raises(ArgumentError, match="value outside the range of the tabulated gauge"):
        invert_gauge(tab, 10.0)


def test_invert_eval_roundtrip():
    rng = np.random.default_rng(0)
    tab = Gauge.tabulated([(1e-4, 1e-6), (1e-2, 1e-3), (1.0, 1.0)])
    for g in (Gauge.power(1.7), Gauge.power(0.4), tab):
        for r in rng.uniform(1e-3, 0.9, size=20):
            y = eval_gauge(g, r)
            assert invert_gauge(g, y) == pytest.approx(r, rel=1e-6)


def test_verify_gauge_pair_power_laws():
    grid = np.logspace(-4, 0, 16)
    rep = verify_gauge_pair(GaugePair(Gauge.power(0.5), Gauge.power(1.0), 0.0), grid)
    assert rep.monotone_ok
    assert rep.doubling_lambda_estimate == 2.0
    assert rep.ratio_direction == "increasing"

    rep2 = verify_gauge_pair(GaugePair(Gauge.power(0.5), Gauge.power(2.0), 0.0), grid)
    assert rep2.doubling_lambda_estimate == 4.0

    rep3 = verify_gauge_pair(GaugePair(Gauge.power(2.0), Gauge.power(1.0), 0.9), grid)
    assert rep3.f_over_g_kappa_ok  # f/g^kappa = r^1.1, a gauge


def test_verify_doubling_exact_powers():
    for s in (0.3, 1.0, 2.0, 3.5):
        rep = verify_gauge_pair(GaugePair(Gauge.power(s / 2), Gauge.power(s), 0.0))
        assert rep.doubling_lambda_estimate == 2.0**s


def test_verify_doubling_tabulated():
    # tabulated square gauge: log-linear interpolation reproduces r^2,
    # so the grid estimate of g(2x)/g(x) is 4
    rs = np.logspace(-4, 0, 24)
    g = Gauge.tabulated(list(zip(rs, rs**2)))
    rep = verify_gauge_pair(
        GaugePair(Gauge.power(0.5), g, 0.0), np.logspace(-4, -1, 12)
    )
    assert rep.doubling_lambda_estimate == pytest.approx(4.0, rel=1e-9)


def test_verify_grid_preconditions():
    pair = GaugePair(Gauge.power(0.5), Gauge.power(1.0), 0.0)
    with pytest.raises(ArgumentError):
        verify_gauge_pair(pair, np.array([]))
    with pytest.raises(ArgumentError):
        verify_gauge_pair(pair, np.linspace(0.5, 1.0, 20))  # under 2 decades


def test_mtp_radius_examples():
    pair = GaugePair(Gauge.power(1.0), Gauge.power(1.0), 0.0)
    assert mtp_radius(pair, 0.3) == pytest.approx(0.3, rel=1e-12)
    pair2 = GaugePair(Gauge.power(0.5), Gauge.power(1.0), 0.0)
    assert mtp_radius(pair2, 0.04) == pytest.approx(0.2, rel=1e-12)
    pair3 = GaugePair(Gauge.power(1.5), Gauge.power(2.0), 0.5)
    assert mtp_radius(pair3, 0.01) == pytest.approx(0.1, rel=1e-12)


def test_mtp_radius_matches_corollary_on_random_powers():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        kappa = rng.uniform(0.0, 0.95)
        s = rng.uniform(kappa * n + 1e-3, n)
        u = rng.uniform(1e-6, 0.5)
        pair = GaugePair(Gauge.power(s), Gauge.power(float(n)), kappa)
        expect = u ** corollary_exponent(s, kappa, n)
        assert mtp_radius(pair, u) == pytest.approx(expect, rel=1e-9)


def test_mtp_identity_when_f_equals_g():
    rng = np.random.default_rng(2)
    pair = GaugePair(Gauge.power(1.3), Gauge.power(1.3), 0.0)
    for u in rng.uniform(1e-5, 0.9, size=25):
        assert mtp_radius(pair, u) == pytest.approx(u, rel=1e-9)


def test_corollary_exponent():
    assert corollary_exponent(0.5, 0.0, 1) == pytest.approx(0.5)
    assert corollary_exponent(1.5, 0.5, 2) == pytest.approx(0.5)
    with pytest.raises(ArgumentError):
        corollary_exponent(1.0, 0.5, 2)  # boundary s = kappa * n excluded
    with pytest.raises(ArgumentError):
        corollary_exponent(1.0, 1.0, 1)


def test_gauge_from_json():
    g = gauge_from_json({"kind": "power", "s": 1.5, "description": "bulk"})
    assert (g.kind, g.s) == ("power", 1.5)
    t = gauge_from_json({"kind": "tabulated", "samples": [[0.1, 0.02], [1, 1]]})
    assert (t.kind, t.samples) == ("tabulated", ((0.1, 0.02), (1.0, 1.0)))
    grid = default_grid(0.1, 1.0, 8)
    assert np.array_equal(eval_gauge(t, grid), eval_gauge(Gauge.tabulated([(0.1, 0.02), (1.0, 1.0)]), grid))
    for obj in ({"kind": "log"}, {"s": 1.0}):
        with pytest.raises(ArgumentError, match="unknown gauge kind"):
            gauge_from_json(obj)


def test_gauge_validation():
    with pytest.raises(ArgumentError):
        Gauge.tabulated([(0.5, 1.0)])
    with pytest.raises(ArgumentError):
        Gauge.tabulated([(0.5, 1.0), (0.4, 2.0)])
    with pytest.raises(ArgumentError):
        Gauge.tabulated([(0.1, 1.0), (0.5, 0.2)])  # decreasing values
    with pytest.raises(ArgumentError):
        GaugePair(Gauge.power(1), Gauge.power(1), 1.0)
