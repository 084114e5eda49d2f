import math

import numpy as np
import pytest

from lspkit.errors import ArgumentError, UnsupportedCombination
from lspkit.randomsim import (
    RandomScheme,
    _torus_distances,
    covering_exponent,
    coverage_frequency,
    draw_isometry,
    hit_indices,
    stage_radius,
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
    div = coverage_frequency(sch, [0.3], lambda j: 1.0 / j, 1, 400, trials=1000)
    conv = coverage_frequency(sch, [0.3], lambda j: j**-2.0, 1, 400, trials=1000)
    assert div.classification == "divergent"
    assert conv.classification == "convergent"
    # harmonic partial sums grow like 2 ln N
    assert div.partial_sums[-1] == pytest.approx(2 * math.log(400), rel=0.15)


def test_bc_transformed_radii_critical_vs_supercritical():
    sch = point_scheme(tau=2.0, seed=43)
    t_crit = 0.5
    rule_crit = lambda j: stage_radius(sch, j, "transformed", t_crit)
    rule_conv = lambda j: stage_radius(sch, j, "transformed", t_crit + 0.2)
    div = coverage_frequency(sch, [0.3], rule_crit, 1, 1024, trials=1000)
    conv = coverage_frequency(sch, [0.3], rule_conv, 1, 1024, trials=1000)
    assert div.classification == "divergent"
    assert conv.classification == "convergent"


def test_bc_window_invariance():
    # each stage draws from its own stream, so a stage's estimate does not
    # depend on the window it is computed in
    sch = point_scheme(seed=47)
    short = coverage_frequency(sch, [0.3], lambda j: 1.0 / j, 1, 200, trials=1000)
    long = coverage_frequency(sch, [0.3], lambda j: 1.0 / j, 1, 400, trials=1000)
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
    diag = coverage_frequency(sch, [0.3, 0.3], lambda j: r, 1, stages, trials=1000)
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
