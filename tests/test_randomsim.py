import math

import numpy as np
import pytest

from lspkit import randomsim
from lspkit.errors import ArgumentError
from lspkit.randomsim import (
    MAX_DIM,
    MAX_SHIFTS,
    RandomScheme,
    _frac,
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


def test_coverage_calls_each_rule_once_per_stage():
    # 1000 trials make blocks of 65 stages: each rule is called for a block's
    # stages when the block is measured, once per stage, in stage order
    sch = point_scheme(seed=53)
    calls = []
    rules = [lambda j, r=r: calls.append((r, int(j))) or r / j for r in (1.0, 0.5)]
    coverage_frequency(sch, [0.3], rules, 1, 200, trials=1000)
    blocks = [range(lo, min(lo + 65, 201)) for lo in range(1, 201, 65)]
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
