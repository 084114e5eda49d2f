import math

import numpy as np
import pytest

from lspkit.errors import ArgumentError, UnsupportedCombination
from lspkit.randomsim import (
    RandomScheme,
    _frac,
    _interval_union_count,
    _torus_distances,
    covering_exponent,
    coverage_frequency,
    draw_isometry,
    hit_indices,
    stage_radius,
    stage_uniforms,
)
from lspkit.sets import AffinePlane, Circle, Isometry, PointSet, distance_to_set, transform_model

_S = math.sqrt(0.5)  # a unit direction at 45 degrees is (_S, _S)


def point_scheme(tau=2.0, seed=7):
    return RandomScheme(
        base=PointSet(np.array([[0.5]])), tau=tau, s=1.0, kappa=0.0, master_seed=seed, n=1
    )


def line_scheme(tau=2.0, seed=11):
    return RandomScheme(
        base=AffinePlane(np.array([0.0, 0.5]), np.array([[1.0, 0.0]])),
        tau=tau,
        s=2.0,
        kappa=0.5,
        master_seed=seed,
        n=2,
    )


def tilted_line_scheme():
    return RandomScheme(
        base=AffinePlane(np.array([0.0, 0.5]), np.array([[_S, _S]])),
        tau=2.0,
        s=2.0,
        kappa=0.5,
        master_seed=11,
        n=2,
    )


def test_scheme_validates_tau():
    with pytest.raises(ArgumentError):
        RandomScheme(base=PointSet(np.array([[0.5]])), tau=0.9, s=1.0, kappa=0.0,
                     master_seed=1, n=1)


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


def test_hit_indices_reproducible_and_consistent():
    sch = point_scheme()
    h1 = hit_indices(sch, [0.3], radii="standard", J=1, N=5000)
    h2 = hit_indices(sch, [0.3], radii="standard", J=1, N=5000)
    assert np.array_equal(h1, h2)


def test_transformed_radius_exponent_arithmetic():
    sch = point_scheme(tau=2.0)
    # at the critical exponent the transformed radius is 1/j
    t = sch.kappa * sch.s + 1.0 / sch.tau
    for j in (2, 10, 37):
        assert stage_radius(sch, j, "transformed", t) == pytest.approx(1.0 / j, rel=1e-12)


def test_hit_count_matches_poisson_binomial():
    sch = point_scheme(tau=2.0, seed=31)
    N = 10_000
    hits = hit_indices(sch, [0.4], radii="transformed", J=1, N=N, t=0.5)
    mean = sum(min(1.0, 2.0 / j) for j in range(1, N + 1))
    var = sum(min(1.0, 2.0 / j) * (1 - min(1.0, 2.0 / j)) for j in range(1, N + 1))
    assert abs(len(hits) - mean) <= 3 * math.sqrt(var) + 1.0


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
    rule_crit = lambda j: stage_radius(sch, j, "transformed", t_crit)
    rule_conv = lambda j: stage_radius(sch, j, "transformed", t_crit + 0.2)
    div, conv = coverage_frequency(sch, [0.3], [rule_crit, rule_conv], 1, 1024, trials=1000)
    assert div.classification == "divergent"
    assert conv.classification == "convergent"


def _same_diagnostic(a, b):
    assert np.array_equal(a.j_values, b.j_values)
    assert np.array_equal(a.p_hat, b.p_hat)
    assert np.array_equal(a.partial_sums, b.partial_sums)
    assert (a.classification, a.last_octave_increment, a.increment_stderr) == (
        b.classification, b.last_octave_increment, b.increment_stderr,
    )


def test_multi_rule_coverage_matches_single_rule_calls():
    sch = point_scheme(seed=53)
    rules = [lambda j: 1.0 / j, lambda j: j**-2.0, lambda j: 0.05]
    together = coverage_frequency(sch, [0.3], rules, 1, 300, trials=1000)
    assert len(together) == len(rules)
    for rule, diag in zip(rules, together):
        (alone,) = coverage_frequency(sch, [0.3], [rule], 1, 300, trials=1000)
        _same_diagnostic(diag, alone)


def test_coverage_blocks_match_stage_by_stage():
    # 300 stages of 1000 trials span several blocks of draws; blocking must
    # not move any stage's estimate
    sch = line_scheme(seed=59)
    rule = lambda j: 0.3 / j
    (diag,) = coverage_frequency(sch, [0.3, 0.7], [rule], 1, 300, trials=1000)
    one_by_one = [
        coverage_frequency(sch, [0.3, 0.7], [rule], j, j, trials=1000)[0].p_hat[0]
        for j in range(1, 301)
    ]
    assert np.array_equal(diag.p_hat, one_by_one)


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
        Circle(np.array([0.5, 0.5]), 0.2),
    ],
    ids=["points", "line", "tilted-line", "circle"],
)
def test_torus_distances_match_per_translation_reference(base):
    trans = np.random.default_rng(5).uniform(0.0, 1.0, size=(200, 2))
    x = np.array([0.3, 0.8])
    ref = [
        distance_to_set(
            transform_model(base, Isometry(translation=t, wrap=True)), x, metric="sup", wrap=True
        )
        for t in trans
    ]
    np.testing.assert_allclose(_torus_distances(base, trans, x), ref, rtol=0, atol=1e-12)


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
    with pytest.raises(UnsupportedCombination):
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
