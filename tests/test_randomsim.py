import math
import time

import numpy as np
import pytest

from lspkit import randomsim
from lspkit.errors import ArgumentError
from lspkit.randomsim import (
    MAX_DIM,
    MAX_SHIFTS,
    RandomScheme,
    _binomial_quantiles,
    _quantile_counts,
    _frac,
    _hit_law,
    _interval_union_count,
    _torus_distances,
    _torus_rule,
    _translations,
    covering_exponent,
    coverage_frequency,
    draw_isometry,
    stage_uniforms,
)
from lspkit.sets import AffinePlane, Circle, Isometry, PointSet, Polyline, Sphere, distance_to_set, model_window

from set_oracles import torus_distance, transform_model

_S = math.sqrt(0.5)  # a unit direction at 45 degrees is (_S, _S)


def point_scheme(tau=2.0, seed=7):
    return RandomScheme(
        base=PointSet(np.array([[0.5]])), tau=tau, s=1.0, kappa=0.0, master_seed=seed
    )


def line_scheme(tau=2.0, seed=11):
    return RandomScheme(
        base=AffinePlane(np.array([0.0, 0.5]), np.array([[1.0, 0.0]])),
        tau=tau,
        s=2.0,
        kappa=0.5,
        master_seed=seed,
    )


def tilted_line_scheme():
    return RandomScheme(
        base=AffinePlane(np.array([0.0, 0.5]), np.array([[_S, _S]])),
        tau=2.0,
        s=2.0,
        kappa=0.5,
        master_seed=11,
    )


def test_scheme_validates_tau():
    with pytest.raises(ArgumentError):
        RandomScheme(base=PointSet(np.array([[0.5]])), tau=0.9, s=1.0, kappa=0.0, master_seed=1)


def _interval_union_count_loop(intervals, m):
    """Reference: the union size of [lo, hi] ranges mod m, one range at a time."""
    if not intervals:
        return 0
    parts = []
    for lo, hi in intervals:
        lo_m = lo % m
        hi_m = hi % m
        if hi - lo + 1 >= m:
            return m
        if lo_m <= hi_m:
            parts.append((lo_m, hi_m))
        else:  # wraps around the torus seam
            parts.append((lo_m, m - 1))
            parts.append((0, hi_m))
    parts.sort()
    total = 0
    cur_lo, cur_hi = parts[0]
    for a, b in parts[1:]:
        if a > cur_hi + 1:
            total += cur_hi - cur_lo + 1
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    total += cur_hi - cur_lo + 1
    return total


def test_interval_union_count_matches_loop():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        m = int(rng.integers(1, 60))
        count = int(rng.integers(0, 12))
        lo = rng.integers(-2 * m, 2 * m, size=count)
        # widths up to past m, so some ranges wrap the seam and some cover the torus
        hi = lo + rng.integers(0, m + 2, size=count)
        want = _interval_union_count_loop(list(zip(lo.tolist(), hi.tolist())), m)
        assert _interval_union_count(lo, hi, m) == want
    # numpy sorts at most 16 keys stably, so 17-400 ranges drawn from a few
    # starts reach the unstable sort with many ties: the count must not
    # depend on how they come out, nor on the input order
    for m in (2, 17, 59, 2**20):
        for _ in range(200):
            count = int(rng.integers(17, 401))
            lo = rng.choice(rng.integers(-2 * m, 2 * m, size=int(rng.integers(1, 9))), size=count)
            hi = lo + rng.integers(0, max(1, m // 3), size=count)
            want = _interval_union_count_loop(list(zip(lo.tolist(), hi.tolist())), m)
            assert _interval_union_count(lo, hi, m) == want
            order = rng.permutation(count)
            assert _interval_union_count(lo[order], hi[order], m) == want


def test_frac_is_np_mod_bit_for_bit():
    rng = np.random.default_rng(4)
    q = np.concatenate([
        rng.normal(scale=3.0, size=100_000),
        rng.uniform(0.0, 2.0, size=100_000),
        -rng.uniform(0.0, 1e-17, size=1000),
        [-0.0, 0.0, -1.0, 1.0, 2.0**52 + 0.5, -(2.0**52) - 0.5],
    ])
    assert np.array_equal(_frac(q), np.mod(q, 1.0))
    assert not np.signbit(_frac(q)).any()


@pytest.mark.parametrize("k", [1, 2, 5, 1000])
def test_stage_uniforms_rows_are_per_stage_philox_draws(k):
    seed, tag, b = 20260818, 917, -(-k // 4)
    u = stage_uniforms(seed, tag, 3, 9, k)
    assert u.shape == (7, k)
    for row, j in zip(u, range(3, 10)):
        gen = np.random.Generator(np.random.Philox(key=[seed, tag], counter=j * b))
        assert np.array_equal(row, gen.random(k))


@pytest.mark.parametrize("seed", [0, 1, 20260818, 2**63 + 5, 2**64 - 1])
def test_stage_uniforms_are_the_top_53_bits_of_raw_words(seed):
    # one Generator.random pass gives the doubles of the raw-word conversion
    for tag in (0, 917):
        for k in (1, 2, 3, 4, 5, 1000, 2001):
            b = -(-k // 4)
            for J, N in ((1, 1), (1, 9), (37, 45), (1000, 1002)):
                key = np.array([seed, tag], dtype=np.uint64)
                raw = np.random.Philox(key=key, counter=J * b).random_raw((N - J + 1) * b * 4)
                want = ((raw >> np.uint64(11)) * 2.0**-53).reshape(N - J + 1, 4 * b)[:, :k]
                assert np.array_equal(stage_uniforms(seed, tag, J, N, k), want)
                out = np.empty((N - J + 1, 4 * b))
                got = stage_uniforms(seed, tag, J, N, k, out=out)
                assert np.array_equal(got, want) and np.shares_memory(got, out)


def test_stage_uniforms_accept_the_largest_seed():
    seed = 2**64 - 1
    key = np.array([seed, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=5))
    assert np.array_equal(stage_uniforms(seed, 0, 5, 5, 3)[0], gen.random(3))


def test_stage_uniforms_window_is_the_stack_of_its_halves():
    whole = stage_uniforms(7, 0, 1, 400, 3)
    halves = np.vstack([stage_uniforms(7, 0, 1, 200, 3), stage_uniforms(7, 0, 201, 400, 3)])
    assert np.array_equal(whole, halves)


def test_draw_isometry_is_a_one_stage_window():
    sch = line_scheme(seed=7)
    window = stage_uniforms(sch.master_seed, 0, 1, 400, sch.n)
    assert np.array_equal(draw_isometry(sch, 205).translation, window[204])


def test_draw_isometry_deterministic():
    sch = point_scheme()
    a = draw_isometry(sch, 5)
    b = draw_isometry(sch, 5)
    assert np.array_equal(a.translation, b.translation)
    c = draw_isometry(sch, 6)
    assert not np.array_equal(a.translation, c.translation)


def test_translation_uniformity_ks():
    sch = point_scheme()
    n = 100_000
    ts = np.sort(np.array([draw_isometry(sch, j).translation[0] for j in range(1, n + 1)]))
    ks = float(np.max(np.abs(ts - np.arange(1, n + 1) / n)))
    assert ks < 1.36 / math.sqrt(n)  # 95% Kolmogorov-Smirnov band


def test_point_hit_probability():
    # interval of length 2*delta on the circle: hit probability 2*delta
    sch = point_scheme(seed=23)
    delta = 0.05
    n = 100_000
    hits = 0
    rng = np.random.default_rng(0)
    trans = rng.uniform(0, 1, size=n)
    q = np.mod(0.5 + trans, 1.0)
    d = np.minimum(np.abs(q - 0.0), 1.0 - np.abs(q - 0.0))
    p = np.count_nonzero(d < delta) / n
    sigma = math.sqrt(2 * delta * (1 - 2 * delta) / n)
    assert abs(p - 2 * delta) <= 3 * sigma


def test_hit_count_matches_poisson_binomial():
    sch = point_scheme(tau=2.0, seed=31)
    N = 10_000
    rads = 1.0 / np.arange(1, N + 1)  # the radii transformed to t = 0.5
    d = _torus_distances(sch.base, _translations(sch, 1, N), np.array([0.4]))
    hits = np.count_nonzero(d < rads)
    mean = sum(min(1.0, 2.0 / j) for j in range(1, N + 1))
    var = sum(min(1.0, 2.0 / j) * (1 - min(1.0, 2.0 / j)) for j in range(1, N + 1))
    assert abs(hits - mean) <= 3 * math.sqrt(var) + 1.0


def test_bc_classifications():
    sch = point_scheme(seed=41)
    div, conv = coverage_frequency(
        sch, [0.3], [lambda j: 1.0 / j, lambda j: j**-2.0], 1, 400, trials=1000
    )
    assert div.classification == "divergent"
    assert conv.classification == "convergent"
    # harmonic partial sums grow like 2 ln N
    assert div.partial_sums[-1] == pytest.approx(2 * math.log(400), rel=0.15)


def test_bc_transformed_radii_critical_vs_supercritical():
    sch = point_scheme(tau=2.0, seed=43)
    t_crit = 0.5
    # the radii transformed to t are j**expo(t)
    expo = lambda t: sch.tau * (sch.kappa * sch.s - t) / (sch.s - sch.kappa * sch.s)
    rule_crit = lambda j: float(j) ** expo(t_crit)
    rule_conv = lambda j: float(j) ** expo(t_crit + 0.2)
    div, conv = coverage_frequency(sch, [0.3], [rule_crit, rule_conv], 1, 1024, trials=1000)
    assert div.classification == "divergent"
    assert conv.classification == "convergent"


def _same_diagnostic(a, b):
    assert np.array_equal(a.j_values, b.j_values)
    assert np.array_equal(a.p_hat, b.p_hat)
    assert np.array_equal(a.partial_sums, b.partial_sums)
    assert (a.classification, a.last_octave_increment, a.increment_stderr, a.expected_partial_sum) == (
        b.classification, b.last_octave_increment, b.increment_stderr, b.expected_partial_sum,
    )


def test_multi_rule_coverage_matches_single_rule_calls():
    sch = point_scheme(seed=53)
    rules = [lambda j: 1.0 / j, lambda j: j**-2.0, lambda j: 0.05]
    together = coverage_frequency(sch, [0.3], rules, 1, 300, trials=1000)
    assert len(together) == len(rules)
    for rule, diag in zip(rules, together):
        (alone,) = coverage_frequency(sch, [0.3], [rule], 1, 300, trials=1000)
        _same_diagnostic(diag, alone)


def test_coverage_calls_each_rule_once_per_stage():
    # 1000 trials of three points in the plane make blocks of 32 stages: each
    # rule is called for a block's stages when the block is measured, once
    # per stage, in stage order
    base = PointSet(np.array([[0.1, 0.2], [0.6, 0.9], [0.95, 0.05]]))
    sch = RandomScheme(base=base, tau=2.0, s=2.0, kappa=0.0, master_seed=53)
    calls = []
    rules = [lambda j, r=r: calls.append((r, int(j))) or r / j for r in (1.0, 0.5)]
    coverage_frequency(sch, [0.3, 0.7], rules, 1, 200, trials=1000)
    blocks = [range(lo, min(lo + 32, 201)) for lo in range(1, 201, 32)]
    assert calls == [(r, j) for js in blocks for r in (1.0, 0.5) for j in js]


def test_law_coverage_calls_each_rule_once_per_stage():
    # a point's stages are counted from its hit law in blocks of 2**14
    # stages: each rule is called once per stage, rule by rule, block by block
    sch = point_scheme(seed=53)
    calls = []
    rules = [lambda j, r=r: calls.append((r, int(j))) or r / j for r in (1.0, 0.5)]
    coverage_frequency(sch, [0.3], rules, 1, 40_000, trials=1000)
    blocks = [range(1, 2**14 + 1), range(2**14 + 1, 2**15 + 1), range(2**15 + 1, 40_001)]
    assert calls == [(r, j) for js in blocks for r in (1.0, 0.5) for j in js]


@pytest.mark.parametrize("trials", [1000, 1001])
@pytest.mark.parametrize(
    "base",
    [
        PointSet(np.array([[0.5]])),
        PointSet(np.array([[0.1, 0.2], [0.6, 0.9], [0.95, 0.05]])),
        AffinePlane(np.array([0.0, 0.5]), np.array([[1.0, 0.0]])),
        AffinePlane(np.array([0.0, 0.5]), np.array([[_S, _S]])),
        Circle(np.array([0.5, 0.5]), 0.2),
    ],
    ids=["point", "three-points", "line", "tilted-line", "circle"],
)
def test_coverage_blocks_match_stage_by_stage(base, trials):
    # 300 stages span several blocks of draws, the last of them partial;
    # blocking and measuring in place must not move any stage's estimate.
    # At 1001 trials a stage's k = 1001 n draws are no whole number of
    # Philox blocks, so each block of stages is a column slice of the draws
    n = base.ambient_dim
    sch = RandomScheme(base=base, tau=2.0, s=float(n), kappa=0.0, master_seed=59)
    x = np.array([0.3, 0.7][:n])
    rule = lambda j: 0.3 / math.sqrt(j)
    (diag,) = coverage_frequency(sch, x, [rule], 1, 300, trials=trials)
    one_by_one = [coverage_frequency(sch, x, [rule], j, j, trials=trials)[0].p_hat[0] for j in range(1, 301)]
    assert np.array_equal(diag.p_hat, one_by_one)
    assert np.count_nonzero((0 < diag.p_hat) & (diag.p_hat < 1)) > 100


def test_bc_window_invariance():
    # each stage draws from its own counter blocks, so a stage's estimate
    # does not depend on the window it is computed in
    sch = point_scheme(seed=47)
    (short,) = coverage_frequency(sch, [0.3], [lambda j: 1.0 / j], 1, 200, trials=1000)
    (long,) = coverage_frequency(sch, [0.3], [lambda j: 1.0 / j], 1, 400, trials=1000)
    assert np.array_equal(short.p_hat, long.p_hat[:200])


@pytest.mark.parametrize(
    "base",
    [
        PointSet(np.array([[0.1, 0.2], [0.6, 0.9], [0.95, 0.05]])),
        AffinePlane(np.array([0.0, 0.5]), np.array([[1.0, 0.0]])),
        AffinePlane(np.array([0.0, 0.5]), np.array([[_S, _S]])),
        AffinePlane(np.array([0.2, 0.5]), np.array([[0.6, 0.8]])),
        AffinePlane(np.array([0.1, 0.4, 0.7]), np.array([[_S, _S, 0.0], [0.0, 0.0, 1.0]])),
        Circle(np.array([0.5, 0.5]), 0.2),
        Circle(np.array([0.5, 0.5]), 1.2),
        Circle(np.array([1.9, -0.3]), 0.2),
        Polyline(np.array([[0.1, 0.1], [0.5, 0.7], [0.9, 0.2]])),
        Polyline(np.array([[-0.9, 0.2], [1.8, 0.35]])),
        Sphere(np.array([0.5, 0.4, 0.6]), 0.3),
        Sphere(np.array([0.5, 0.4, 0.6]), 0.8),
    ],
    ids=[
        "points", "line", "tilted-line", "line-0.6-0.8", "plane-normal-1-1-0", "circle", "circle-r1.2",
        "circle-off-cube", "polyline", "wide-polyline", "sphere", "sphere-r0.8",
    ],
)
def test_torus_distances_match_per_translation_reference(base):
    n = base.ambient_dim
    trans = np.random.default_rng(5).uniform(0.0, 1.0, size=(200, n))
    x = np.array([0.3, 0.8, 0.55][:n])
    np.testing.assert_allclose(_torus_distances(base, trans, x), torus_distance(base, trans, x), rtol=0, atol=1e-12)


def _bounded_torus_distances_broadcast(base, trans, x):
    """Reference: a bounded base's torus distances with every shift of every
    translation in one (rows, shifts, n) array."""
    flat = trans.reshape(-1, base.ambient_dim)
    lo = model_window(base)[0]
    cand = (_frac(_frac(x) - flat - lo) + lo)[:, None, :] + _torus_rule(base)[None, :, :]
    d = distance_to_set(base, cand.reshape(-1, base.ambient_dim), metric="sup").reshape(len(flat), -1).min(axis=1)
    return d.reshape(trans.shape[:-1])


@pytest.mark.parametrize(
    "base",
    [
        Circle(np.array([0.5, 0.5]), 0.2),
        Circle(np.array([1.9, -0.3]), 1.2),
        Sphere(np.array([0.5, 0.4, 0.6]), 0.2),
        Sphere(np.array([0.5, 0.4, 0.6]), 1.2),
        Polyline(np.array([[-0.9, 0.2], [1.8, 0.35]])),
        Polyline(np.random.default_rng(4).uniform(0.0, 1.0, size=(5, 4))),
    ],
    ids=["circle", "circle-r1.2", "sphere", "sphere-r1.2", "wide-polyline", "polyline-4d"],
)
def test_bounded_bases_match_the_broadcast_shifts(base):
    # one shift at a time, bit for bit as every shift at once
    n = base.ambient_dim
    rng = np.random.default_rng(8)
    trans = rng.uniform(0.0, 1.0, size=(3, 400, n))
    x = rng.uniform(-1.0, 2.0, size=n)
    assert np.array_equal(_torus_distances(base, trans, x), _bounded_torus_distances_broadcast(base, trans, x))


def _bounded_torus_distances_unscreened(base, trans, x):
    """Reference: a bounded base's torus distances with every shift measured
    for every row, in the shifts' own order."""
    flat = trans.reshape(-1, base.ambient_dim)
    lo = model_window(base)[0]
    q = _frac(_frac(x) - flat - lo) + lo
    d = np.full(len(flat), np.inf)
    for shift in _torus_rule(base):
        np.minimum(d, distance_to_set(base, q + shift, metric="sup"), out=d)
    return d.reshape(trans.shape[:-1])


@pytest.mark.parametrize(
    "base",
    [
        Circle(np.array([0.5, 0.5]), 0.2),
        Circle(np.array([1.9e6, -0.3]), 1.2),
        Sphere(np.array([0.5, 0.4, 0.6]), 0.8),
        Polyline(np.array([[0.0] * 5, [1.5] * 5])),
        Polyline(np.array([[0.1, 0.1], [0.5, 0.7], [0.9, 0.2]])),
        Polyline(np.array([[0.2, 0.3], [0.2, 0.9], [0.7, 0.9]])),
    ],
    ids=["circle", "circle-far-r1.2", "sphere-r0.8", "polyline-5d-cap", "polyline", "axis-polyline"],
)
def test_screened_shifts_match_every_shift_bit_for_bit(base):
    # a row is measured at a shift only when it lies, on every axis, nearer
    # the shifted window than its running minimum; every minimum stays the
    # one of measuring all shifts, and so do rows placed on a window's edge
    n = base.ambient_dim
    rng = np.random.default_rng(12)
    trans = rng.uniform(0.0, 1.0, size=(2, 300, n))
    lo, hi = model_window(base)
    trans[0, :40] = _frac(0.3 - np.where(rng.random((40, n)) < 0.5, lo, hi))  # q on the window's faces
    x = np.full(n, 0.3)
    assert np.array_equal(_torus_distances(base, trans, x), _bounded_torus_distances_unscreened(base, trans, x))


def test_scheme_refuses_a_base_it_cannot_hold(monkeypatch):
    def scheme(base):
        return RandomScheme(base=base, tau=2.0, s=1.0, kappa=0.0, master_seed=1)

    # the dimension is the base's: MAX_DIM is measured, one more is not
    assert scheme(PointSet(np.full((3, MAX_DIM), 0.5))).n == MAX_DIM
    with pytest.raises(ArgumentError, match=f"a plane in dimension {MAX_DIM + 1} on the torus: a base may have"):
        scheme(AffinePlane(np.zeros(MAX_DIM + 1), np.eye(MAX_DIM + 1)[:1]))
    # 4 shifts on each axis of width in (1, 2]: 4**5 = MAX_SHIFTS is measured, a sixth axis is not
    assert len(_torus_rule(Polyline(np.array([[0.0] * 5, [1.5] * 5])))) == MAX_SHIFTS
    with pytest.raises(ArgumentError, match="a polyline in dimension 6 whose window takes 4096 unit shifts"):
        scheme(Polyline(np.array([[0.0] * 6, [1.5] * 6])))
    # counted from the widths, before a shift is listed: 3**16 in R^16
    monkeypatch.setattr(randomsim, "product", None)
    with pytest.raises(ArgumentError, match="whose window takes 43046721 unit shifts on the torus: at most 1024"):
        scheme(Polyline(np.array([[0.1] * 16, [0.2] * 16])))


def test_torus_distances_translation_equivariance():
    # moving the base and x by one translation keeps every torus distance,
    # and x + s leaves the unit box
    rng = np.random.default_rng(3)
    ps = PointSet(rng.uniform(0, 1, size=(4, 2)))
    trans = rng.uniform(0, 1, size=(200, 2))
    for _ in range(50):
        iso = Isometry(translation=rng.uniform(0, 1, size=2))
        x = rng.uniform(0, 1, size=2)
        before = _torus_distances(ps, trans, x)
        after = _torus_distances(transform_model(ps, iso), trans, iso.apply(x))
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "base",
    [
        PointSet(np.array([[0.5, 0.5]])),
        AffinePlane(np.array([0.0, 0.5]), np.array([[1.0, 0.0]])),
        Circle(np.array([0.5, 0.5]), 0.2),
    ],
    ids=["point", "line", "circle"],
)
def test_bc_diagnostic_reads_x_on_the_torus(base):
    # x + k is x on the torus; x is dyadic so that x + k is exact
    sch = RandomScheme(base=base, tau=2.0, s=2.0, kappa=0.0, master_seed=61)
    x = np.array([0.3125, 0.8125])
    rules = [lambda j: 1.0 / j, lambda j: j**-2.0]
    want = coverage_frequency(sch, x, rules, 1, 100, trials=1000)
    for k in (-1, 2, 5):
        for a, b in zip(coverage_frequency(sch, x + k, rules, 1, 100, trials=1000), want):
            _same_diagnostic(a, b)


def test_bc_tilted_line_hit_probability():
    # a slope-1 line y - x = c lies within sup distance r of x exactly when
    # the torus distance from x2 - x1 to c is below 2r; c is uniform, so the
    # hit probability is 4r
    sch = tilted_line_scheme()
    r, stages = 0.05, 5
    (diag,) = coverage_frequency(sch, [0.3, 0.3], [lambda j: r], 1, stages, trials=1000)
    p = float(np.mean(diag.p_hat))
    sigma = math.sqrt(4 * r * (1 - 4 * r) / (1000 * stages))
    assert abs(p - 4 * r) <= 3 * sigma


def test_covering_exponent_rejects_tilted_line():
    with pytest.raises(ArgumentError, match="covering exponent supports single-point bases"):
        covering_exponent(tilted_line_scheme(), [2**k for k in range(4, 9)])


def test_covering_exponent_points():
    cf = covering_exponent(point_scheme(tau=2.0), [2**k for k in range(6, 13)])
    assert cf.predicted == pytest.approx(0.5)
    assert cf.fit.exponent == pytest.approx(0.5, abs=0.1)


def test_covering_exponent_monotone_in_tau():
    fits = []
    for tau in (2.0, 3.0, 4.0):
        cf = covering_exponent(point_scheme(tau=tau), [2**k for k in range(5, 11)])
        fits.append(cf.fit.exponent)
    assert fits[0] > fits[1] > fits[2]


def test_covering_exponent_lines_and_constants():
    cf = covering_exponent(line_scheme(), [2**k for k in range(4, 9)])
    assert cf.predicted == pytest.approx(1.5)
    assert cf.fit.exponent == pytest.approx(1.5, abs=0.15)
    consts = np.array(cf.per_j_constants)
    assert np.max(consts) / np.min(consts) <= 2.0  # stable across a decade of stages


# ---------------------------------------------------------------------------
# hit laws and their binomial counts

_LAW_BASES = [
    PointSet(np.array([[0.5]])),
    PointSet(np.array([[0.5, 0.2]])),
    PointSet(np.array([[0.1, 0.6, 0.9]])),
    AffinePlane(np.array([0.0, 0.5]), np.array([[1.0, 0.0]])),
    AffinePlane(np.array([0.3, 0.1, 0.7]), np.array([[0.0, 1.0, 0.0]])),
    AffinePlane(np.array([0.3, 0.1, 0.7]), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])),
    AffinePlane(np.array([0.0, 0.5]), np.array([[_S, _S]])),
    AffinePlane(np.array([0.2, 0.5]), np.array([[0.6, 0.8]])),
    AffinePlane(np.array([0.1, 0.4, 0.7]), np.array([[_S, _S, 0.0], [0.0, 0.0, 1.0]])),
]
_LAW_IDS = ["point-1d", "point-2d", "point-3d", "line", "line-3d", "plane-3d", "slope-1-line",
            "line-0.6-0.8", "plane-normal-1-1-0"]


@pytest.mark.parametrize("base", _LAW_BASES, ids=_LAW_IDS)
def test_hit_law_matches_the_trial_kernel(base):
    # F(r) against the share of 200,000 uniform translations that the trial
    # kernel puts within r of x, to 4 standard errors; r = 0.6 is past every
    # torus distance, so F is 1 and so is the share
    n = base.ambient_dim
    law = _hit_law(base)
    trans = np.random.default_rng(17).uniform(0.0, 1.0, size=(200_000, n))
    d = _torus_distances(base, trans, np.array([0.3, 0.8, 0.45][:n]))
    for r in (0.004, 0.03, 0.1, 0.2, 0.6):
        f = float(law(np.array([r]))[0])
        share = float(np.mean(d < r))
        assert abs(share - f) <= 4 * math.sqrt(f * (1 - f) / len(d)), (r, f, share)
    assert float(law(np.array([0.6]))[0]) == 1.0
    assert law(np.array([0.0, -1.0])).tolist() == [0.0, 0.0]


def test_hit_laws_in_closed_form():
    r = np.array([0.01, 0.1, 0.3])
    assert np.array_equal(_hit_law(PointSet(np.array([[0.5, 0.2, 0.9]])))(r), np.minimum(2 * r, 1) ** 3)
    assert np.array_equal(_hit_law(_LAW_BASES[4])(r), np.minimum(2 * r, 1) ** 2)  # a line in R^3
    assert np.array_equal(_hit_law(_LAW_BASES[6])(r), np.minimum(4 * r, 1))  # normal (1, -1)
    assert np.array_equal(_hit_law(_LAW_BASES[7])(r), np.minimum(14 * r, 1))  # normal (4, -3)


@pytest.mark.parametrize(
    "base",
    [
        PointSet(np.array([[0.1, 0.2], [0.6, 0.9]])),
        Circle(np.array([0.5, 0.5]), 0.2),
        Sphere(np.array([0.5, 0.4, 0.6]), 0.3),
        Polyline(np.array([[0.1, 0.1], [0.5, 0.7]])),
    ],
    ids=["two-points", "circle", "sphere", "polyline"],
)
def test_bases_without_a_hit_law_keep_their_trials(base):
    assert _hit_law(base) is None
    n = base.ambient_dim
    sch = RandomScheme(base=base, tau=2.0, s=float(n), kappa=0.0, master_seed=5)
    (diag,) = coverage_frequency(sch, np.full(n, 0.3), [lambda j: 0.1], 1, 3, trials=1000)
    assert diag.expected_partial_sum is None


def _chi_square_critical(df, z=3.09):
    """Wilson-Hilferty's upper quantile of chi-square(df) at normal quantile z (0.001 for 3.09)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


@pytest.mark.parametrize(
    ("scheme", "radii"),
    [(point_scheme(seed=71), (0.001, 0.02, 0.15, 0.35)), (tilted_line_scheme(), (0.0005, 0.01, 0.075, 0.175))],
    ids=["point", "slope-1-line"],
)
def test_law_counts_agree_with_trial_counts_in_distribution(monkeypatch, scheme, radii):
    # stages cycle through four radii (hit chances 0.002, 0.04, 0.3 and
    # 0.7), so each residue class mod 4 holds 500 draws of one binomial per
    # path; a two-sample chi-square over each class's count bins (edges at
    # the pooled octiles) compares the law's counts with the trials', at the
    # 0.001 level, on seeds fixed in advance
    rule = lambda j: radii[j % 4]
    x = np.full(scheme.n, 0.3)
    (law,) = coverage_frequency(scheme, x, [rule], 1, 2000, trials=1000)
    monkeypatch.setattr(randomsim, "_hit_law", lambda base: None)
    (trial,) = coverage_frequency(scheme, x, [rule], 1, 2000, trials=1000)
    assert law.expected_partial_sum is not None and trial.expected_partial_sum is None
    stat, df = 0.0, 0
    for c in range(4):
        a, b = (np.rint(diag.p_hat[(law.j_values % 4) == c] * 1000) for diag in (law, trial))
        edges = np.unique(np.quantile(np.concatenate([a, b]), np.arange(1, 8) / 8))
        table = np.array([np.bincount(np.searchsorted(edges, v, side="right"), minlength=len(edges) + 1)
                          for v in (a, b)], dtype=float)
        table = table[:, table.sum(axis=0) > 0]
        expect = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
        stat += float(np.sum((table - expect) ** 2 / expect))
        df += table.shape[1] - 1
    assert df >= 12
    assert stat < _chi_square_critical(df), (stat, df)


def _log_pmfs(n, p):
    """{k: log P(Binomial(n, p) = k)} from math.comb, over the k whose
    probability is not 0.0 in double: walked out from the mode until the
    log falls below -800, since the probabilities are log-concave."""
    logs = {}
    m = min(n, math.floor((n + 1) * p))
    for step in (1, -1):
        k, c = m, math.comb(n, m)
        while 0 <= k <= n:
            v = math.log(c) + k * math.log(p) + (n - k) * math.log1p(-p)
            if v < -800:
                break
            logs[k] = v
            c = c * (n - k) // (k + 1) if step == 1 else c * k // (n - k + 1)
            k += step
    return logs


def _brute_quantiles(n, p, us):
    """For each u, the least k with P(X <= k) > u from the whole
    distribution, summed exactly (``math.fsum``) from the tail nearer u:
    P(X <= k) > u, or P(X > k) < 1 - u; and how close u came to deciding it
    the other way, relative to u or 1 - u."""
    if p in (0.0, 1.0):
        return [(0 if p == 0.0 else n, math.inf) for _ in us]
    logs = _log_pmfs(n, p)
    ks = sorted(logs)
    pmf = [math.exp(logs[k]) for k in ks]
    out = []
    for u in us:
        if u < 0.5:
            tail, target, inside = lambda i: math.fsum(pmf[: i + 1]), u, lambda t, target: t > target
        else:
            tail, target, inside = lambda i: math.fsum(pmf[i + 1:]), 1.0 - u, lambda t, target: t < target
        lo, hi = 0, len(ks) - 1  # the first i that is inside lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if inside(tail(mid), target) else (mid + 1, hi)
        margin = min(abs(tail(i) - target) / target for i in (lo - 1, lo) if 0 <= i < len(ks))
        out.append((ks[lo], margin))
    return out


def test_binomial_quantiles_match_full_cdf_inversion():
    # u at both ends of the doubles a uniform takes, at and beside 1/2 and
    # in between; n up to 10**6, where a p away from both ends is left out
    # (math.comb(10**6, 5 * 10**5) alone takes seconds)
    eps = 2.0**-53
    us = [eps, 1e-12, 1e-6, 0.01, 0.3, 0.5 - eps, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12, 1 - eps]
    us += np.random.default_rng(29).random(8).tolist()
    wide = [0.0, 1.0, 1e-300, 1e-9, 1e-4, 0.01, 0.3, 0.5, 2 / 3, 0.99, 1 - 1e-9, 1 - eps]
    grid = {1: wide, 2: wide, 5: wide, 1000: wide, 4097: wide,
            10**6: [0.0, 1.0, 1e-300, 1e-9, 1e-6, 1e-4, 0.01, 0.99, 1 - 1e-6, 1 - eps]}
    checked = 0
    for n, ps in grid.items():
        for p in ps:
            got = _binomial_quantiles(n, np.full(len(us), p), np.array(us))
            for u, k, (want, margin) in zip(us, got.tolist(), _brute_quantiles(n, p, us)):
                # the brute force's logs carry a relative error of about
                # 1e-10 at n = 10**6: u that close to a step decides nothing
                if margin > 1e-8:
                    assert k == want, (n, p, u, k, want)
                    checked += 1
                else:
                    assert abs(k - want) <= 1, (n, p, u, k, want)
    assert checked >= 1300


def test_binomial_quantile_rows_do_not_depend_on_their_company():
    # rows of many widths tabulated together, one by one, and in reverse
    rng = np.random.default_rng(31)
    n = 100_000
    p = np.concatenate([rng.uniform(0, 1, 300), 10.0 ** rng.uniform(-9, 0, 300), [0.0, 1.0, np.nan, -1.0, 2.0]])
    u = rng.random(len(p))
    together = _binomial_quantiles(n, p, u)
    assert together.tolist() == [int(_binomial_quantiles(n, p[i:i + 1], u[i:i + 1])[0]) for i in range(len(p))]
    assert np.array_equal(_binomial_quantiles(n, p[::-1], u[::-1]), together[::-1])
    assert together[-5:].tolist() == [0, n, 0, 0, n]


def test_quantile_table_rows_end_at_their_width():
    # a row's cells past its width are zero, however wide its table: here
    # the cut leaves out most of the mass, so any cell past it would count
    p, u = np.full(4, 0.5), np.array([0.1, 0.4, 0.6, 0.9])
    lo, width = np.full(4, 40.0), np.full(4, 6)
    narrow = _quantile_counts(100, p, u, lo, width, 6)
    assert np.array_equal(_quantile_counts(100, p, u, lo, width, 60), narrow)
    assert narrow.tolist() == [1, 3, 4, 5]  # Binomial(100, 1/2) on 40..45, renormalised


def test_law_diagnostic_reports_its_expected_sum():
    sch = point_scheme(seed=67)
    rules = [lambda j: 1.0 / j, lambda j: j**-2.0]
    div, conv = coverage_frequency(sch, [0.3], rules, 1, 400, trials=1000)
    js = np.arange(1, 401.0)
    assert div.expected_partial_sum == pytest.approx(float(np.sum(np.minimum(2 / js, 1))), rel=1e-12)
    assert conv.expected_partial_sum == pytest.approx(float(np.sum(np.minimum(2 / js**2, 1))), rel=1e-12)
    # the sampled sums stay within a few standard errors of it
    assert abs(div.partial_sums[-1] - div.expected_partial_sum) < 5 * math.sqrt(div.expected_partial_sum / 1000)


def test_point_law_at_a_million_trials_is_fast():
    # nothing per trial: the counts of 4,000 stages at a million trials
    # each cost their tables of about 26 sd + 41 cells, not 4 * 10**9 draws
    sch = point_scheme(seed=73)
    t0 = time.perf_counter()
    div, conv = coverage_frequency(sch, [0.3], [lambda j: 1.0 / j, lambda j: j**-2.0], 1, 4000, trials=1_000_000)
    assert time.perf_counter() - t0 < 1.0
    assert (div.classification, conv.classification) == ("divergent", "convergent")
    assert div.partial_sums[-1] == pytest.approx(div.expected_partial_sum, rel=1e-3)

