import copy
import json
import math
import types
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from lspkit.cantor import (
    ConstructionParams,
    LocalLevel,
    CantorTree,
    HolderReport,
    MassAssignment,
    _ambient_constants,
    _caj_nets,
    _stage_radii,
    _sweep_chain,
    assign_mass,
    ball_mass_upper,
    build_cantor,
    holder_check,
    tree_fingerprint,
    tree_from_json,
    tree_to_json,
    verify_levels,
)
from lspkit.covering import Ball, greedy_net
from lspkit.dimfun import Gauge, GaugePair, eval_gauge
from lspkit.errors import ConstructionError
from lspkit.presets import SQRT_PAIR, audit_construction, holder_construction, oversized_construction
from lspkit.stages import GridCloudStages


@pytest.fixture(scope="module")
def audit_tree():
    params = audit_construction()
    tree = build_cantor(params)
    return params, tree


def test_build_passes_all_audits(audit_tree):
    params, tree = audit_tree
    report = verify_levels(tree, params)
    assert report.ok, {k: v.violations[:3] for k, v in report.properties.items() if not v.passed}
    loc = tree.levels[0][0]
    assert loc.l_b == 2  # halving property is actually exercised
    assert all(m >= tree.constants["c6"] * 20.0 for m in loc.sub_masses)


def test_depth_one_is_trivially_valid():
    params = audit_construction()
    params.depth = 1
    tree = build_cantor(params)
    assert tree.levels == []
    report = verify_levels(tree, params)
    assert report.ok


def test_case_classification_rejects_non_growing_ratios():
    params = audit_construction()
    params.gauges = GaugePair(Gauge.power(1.0), Gauge.power(1.0), 0.0)
    with pytest.raises(ConstructionError) as exc:
        build_cantor(params)
    assert "case (c)" in str(exc.value)

    params.gauges = GaugePair(Gauge.power(2.0), Gauge.power(1.0), 0.0)
    with pytest.raises(ConstructionError) as exc:
        build_cantor(params)
    assert "case (b)" in str(exc.value)


def test_oversized_parameters_fail_loudly():
    with pytest.raises(ConstructionError):
        build_cantor(oversized_construction())


def test_selection_shortfall_names_node_and_sublevel():
    # stage schedule truncated so the first sublevel cannot amass its mass
    # target (a single sparse stage block before the truncation index)
    params = audit_construction()
    params.stages = GridCloudStages(
        lo=-20.0, hi=20.0, plateaus=((512, 1e-5),), gamma=0.04, j_max=600,
    )
    params.j_max = 600
    with pytest.raises(ConstructionError) as exc:
        build_cantor(params)
    assert exc.value.sublevel == 1


def test_depth_three_exceeds_sublevel_budget():
    # below the root the sublevel-count formula scales like the gauge ratio
    # at the leaf radius, far past any buildable count; the attempt must
    # fail loudly rather than degrade
    params = audit_construction()
    params.depth = 3
    with pytest.raises(ConstructionError) as exc:
        build_cantor(params)
    assert "budget" in str(exc.value)


def test_scan_truncation_names_node_and_sublevel():
    # the deep sublevel's entry scan exhausts the truncation index
    from lspkit.errors import TruncationError

    params = audit_construction()
    params.stages = GridCloudStages(
        lo=-20.0, hi=20.0, plateaus=((512, 0.02), (4096, 2.2e-4)),
        gamma=0.04, j_max=4200,
    )
    params.j_max = 4200
    with pytest.raises(TruncationError) as exc:
        build_cantor(params)
    assert exc.value.sublevel == 2


def test_determinism_fingerprint():
    p1 = audit_construction()
    p2 = audit_construction()
    assert tree_fingerprint(build_cantor(p1)) == tree_fingerprint(build_cantor(p2))


def test_mass_assignment_root_and_sums(audit_tree):
    params, tree = audit_tree
    mass = assign_mass(tree, params)
    assert float(np.sum(mass.mu[-1])) == pytest.approx(1.0, abs=1e-12)
    exact = assign_mass(tree, params, exact=True)
    assert sum(exact.exact[-1], Fraction(0)) == 1


def _synthetic_tree(counts, weights_radius):
    """Hand-built single-sublevel tree: one selection ball per entry with the
    given child counts; weights follow the transformed radii."""
    a_centers = np.array([-4.0, 4.0])[: len(counts)]
    a_radius = np.array(weights_radius)
    c_center, c_aidx = [], []
    for k, cnt in enumerate(counts):
        for t in range(cnt):
            c_center.append(a_centers[k] + (t - cnt / 2) * 1e-3)
            c_aidx.append(k)
    loc = LocalLevel(
        parent_level=1,
        parent_index=0,
        l_b=1,
        eps_b=math.inf,
        g_primes=[512],
        sub_targets=[0.0],
        sub_masses=[float(np.sum(a_radius))],
        a_center=a_centers[:, None],
        a_radius=a_radius,
        a_j=np.full(len(counts), 512, dtype=np.int64),
        a_sublevel=np.ones(len(counts), dtype=np.int64),
        c_center=np.array(c_center)[:, None],
        c_radius=np.full(len(c_center), 1e-4),
        c_j=np.full(len(c_center), 512, dtype=np.int64),
        c_sublevel=np.ones(len(c_center), dtype=np.int64),
        c_aidx=np.array(c_aidx, dtype=np.int64),
    )
    root = Ball(np.array([0.0]), 20.0)
    return CantorTree(root=root, metric="sup", constants={}, levels=[[loc]])


class _FixedStage:
    """Stage provider stub whose radius is constant; used by mass tests."""

    def __init__(self, upsilon):
        self._u = upsilon

    def upsilon(self, j):
        return self._u


def test_mass_formula_single_selection():
    tree = _synthetic_tree([4], [0.5])
    params = ConstructionParams(
        domain=tree.root, gauges=SQRT_PAIR, eta=2.0, stages=_FixedStage(0.25), depth=2
    )
    mass = assign_mass(tree, params)
    assert np.allclose(mass.mu[-1], 0.25)


def test_mass_formula_two_selections_equal_weights():
    # equal stage radii (equal weights), child counts 2 and 8
    tree = _synthetic_tree([2, 8], [0.5, 0.5])
    params = ConstructionParams(
        domain=tree.root, gauges=SQRT_PAIR, eta=2.0, stages=_FixedStage(0.25), depth=2
    )
    mass = assign_mass(tree, params)
    mus = mass.mu[-1]
    assert np.allclose(mus[:2], 1 / 4)
    assert np.allclose(mus[2:], 1 / 16)


def test_ball_mass_upper(audit_tree):
    params, tree = audit_tree
    mass = assign_mass(tree, params)
    assert ball_mass_upper(tree, mass, Ball(np.array([0.0]), 25.0)) == pytest.approx(1.0)
    assert ball_mass_upper(tree, mass, Ball(np.array([500.0]), 1.0)) == 0.0
    centers, radii = tree.leaves()
    k = 17
    one = ball_mass_upper(tree, mass, Ball(centers[k], float(radii[k])))
    assert one == pytest.approx(float(mass.mu[-1][k]), rel=1e-12)


def test_fault_injection_flags_three_classes(audit_tree):
    params, tree = audit_tree

    # fault 1: one child ball dilated threefold -> separation breaks
    t1 = copy.deepcopy(tree)
    t1.levels[0][0].c_radius[5] *= 3.0
    rep = verify_levels(t1, params)
    assert not rep.properties["P1"].passed or not rep.properties["P2"].passed

    # fault 2: recorded sublevel count forced to 1 -> P5 mismatch
    t2 = copy.deepcopy(tree)
    t2.levels[0][0].l_b = 1
    rep = verify_levels(t2, params)
    assert not rep.properties["P5"].passed

    # fault 3: a deep-sublevel ball inflated to the coarse radius -> halving breaks
    t3 = copy.deepcopy(tree)
    loc = t3.levels[0][0]
    deep = np.nonzero(loc.c_sublevel == 2)[0][0]
    loc.c_radius[deep] = float(np.max(loc.c_radius))
    rep = verify_levels(t3, params)
    assert not rep.properties["P4"].passed


def test_mass_concentration_blows_up_holder(audit_tree):
    params, tree = audit_tree
    mass = assign_mass(tree, params)
    base = holder_check(tree, mass, params, trials=2000, rng=np.random.default_rng(2))
    skew = assign_mass(tree, params)
    mu = np.zeros_like(skew.mu[-1])
    mu[0] = 1.0
    skew.mu[-1] = mu
    spiked = holder_check(tree, skew, params, trials=2000, rng=np.random.default_rng(2))
    assert spiked.max_ratio > 10 * base.max_ratio


def test_tree_json_roundtrip(audit_tree):
    params, tree = audit_tree
    back = tree_from_json(tree_to_json(tree))
    assert tree_fingerprint(back) == tree_fingerprint(tree)


def test_tree_json_roundtrip_every_field(audit_tree):
    _, tree = audit_tree
    d = json.loads(json.dumps(tree_to_json(tree), default=float))
    back = tree_from_json(d)
    assert tree_to_json(back) == d
    for got, want in zip(back.levels[0], tree.levels[0]):
        for f in fields(LocalLevel):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape, f.name
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


def _caj_nets_per_ball(cloud, a_centers, a_radii, upsilon, metric):
    """Reference: one greedy_net call per selection ball's cloud slice."""
    i0 = np.searchsorted(cloud, a_centers - 0.5 * a_radii)
    i1 = np.searchsorted(cloud, a_centers + 0.5 * a_radii)
    centers, owner = [], []
    for k in range(len(a_centers)):
        pts = cloud[i0[k] : i1[k]]
        if len(pts) == 0:
            pts = np.array([a_centers[k]])
        elif len(pts) > 1:
            pts = greedy_net(pts[:, None], 6.0 * upsilon, metric=metric)[:, 0]
        centers.extend(pts)
        owner.extend([k] * len(pts))
    return np.array(centers), np.array(owner, dtype=np.int64)


class _CloudStage:
    def __init__(self, cloud):
        self.cloud = cloud

    def sorted_points(self, j):
        return self.cloud


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("metric", ["sup", "euclidean"])
@pytest.mark.parametrize("kind", ["mixed", "spaced"])
def test_caj_nets_matches_per_ball_greedy(seed, metric, kind):
    # upsilon = 0.25 makes the separation 1.5.  "mixed": half-integer grid
    # points (some gaps exactly 1.5), random points and duplicates.
    # "spaced": every gap is exactly 1.5 or wider, so only the boundary
    # case decides whether a slice is netted
    rng = np.random.default_rng(seed)
    upsilon = 0.25
    if kind == "mixed":
        cloud = np.sort(np.concatenate([
            rng.integers(0, 160, rng.integers(5, 80)) * 0.5,
            rng.uniform(0.0, 80.0, rng.integers(0, 40)),
        ]))
    else:
        cloud = np.cumsum(rng.choice([1.5, 2.0, 3.25], 40))
    # some selection balls lie beyond the cloud, so their slices are empty
    a_centers = rng.uniform(-10.0, 95.0, 30)
    a_radii = rng.uniform(0.2, 12.0, 30)
    params = types.SimpleNamespace(stages=_CloudStage(cloud), metric=metric)
    got = _caj_nets(params, a_centers, a_radii, 1, upsilon)
    want = _caj_nets_per_ball(cloud, a_centers, a_radii, upsilon, metric)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


class _UniformStages:
    """Constant stage radius; the cloud holds exactly the given centers."""

    def __init__(self, upsilon, points):
        self._u = upsilon
        self._cloud = np.sort(points)

    def upsilon(self, j):
        return self._u

    def sorted_points(self, j):
        return self._cloud


def _local(node, a_center, a_radius, c_center, c_radius, c_aidx):
    na, nc = len(a_center), len(c_center)
    return LocalLevel(
        parent_level=node[0], parent_index=node[1], l_b=1, eps_b=math.inf,
        g_primes=[512], sub_targets=[0.0], sub_masses=[0.0],
        a_center=np.array(a_center)[:, None], a_radius=np.full(na, a_radius),
        a_j=np.full(na, 512, dtype=np.int64), a_sublevel=np.ones(na, dtype=np.int64),
        c_center=np.array(c_center)[:, None], c_radius=np.full(nc, c_radius),
        c_j=np.full(nc, 512, dtype=np.int64), c_sublevel=np.ones(nc, dtype=np.int64),
        c_aidx=np.array(c_aidx, dtype=np.int64),
    )


def _two_level_tree():
    """Root -> three level-2 balls -> level-3 local levels under rows 2 and 0
    (in that order), so each level-3 parent is found by its row."""
    level2 = [_local((1, 0), [-8.0, 8.0], 4.0, [-9.0, -7.0, 8.0], 0.25, [0, 0, 1])]
    level3 = [
        _local((2, 2), [8.0], 0.05, [7.95, 8.05], 0.005, [0, 0]),
        _local((2, 0), [-9.1, -8.9], 0.02, [-9.1, -8.9], 0.002, [0, 1]),
    ]
    leaves = [7.95, 8.05, -9.1, -8.9]
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), 20.0), gauges=SQRT_PAIR, eta=2.0,
        stages=_UniformStages(0.002, np.array(leaves + [-9.0, -7.0, 8.0])), depth=3,
    )
    tree = CantorTree(
        root=params.domain, metric="sup", constants=_ambient_constants(params),
        levels=[level2, level3],
    )
    return tree, params


def test_parent_rows_two_levels():
    tree, params = _two_level_tree()
    centers, radii = tree.balls(1)
    assert centers.tolist() == [[0.0]] and radii.tolist() == [20.0]
    assert tree.balls(2)[0][:, 0].tolist() == [-9.0, -7.0, 8.0]
    assert tree.leaves()[0][:, 0].tolist() == [7.95, 8.05, -9.1, -8.9]

    mass = assign_mass(tree, params, exact=True)
    assert mass.mu[0].tolist() == [0.25, 0.25, 0.5]
    end = 0
    for loc in tree.levels[1]:
        start, end = end, end + len(loc.c_radius)
        assert float(np.sum(mass.mu[1][start:end])) == mass.mu[0][loc.parent_index]
        assert sum(mass.exact[1][start:end], Fraction(0)) == mass.exact[0][loc.parent_index]

    outside = [v for v in verify_levels(tree, params).properties["P1"].violations if v[1] == "outside-parent"]
    assert outside == []
    # move a child of row 0 (center -9) into row 1 (center -7): it is inside
    # some level-2 ball, but not inside its own parent
    tree.levels[1][1].c_center[0, 0] = -7.0
    outside = [v for v in verify_levels(tree, params).properties["P1"].violations if v[1] == "outside-parent"]
    assert outside == [("L3/1", "outside-parent", -7.0)]


@pytest.mark.parametrize("seed", range(20))
def test_p1_disjointness_across_parameter_variations(seed):
    # builds are deterministic, so the property sweep varies parameters;
    # draws are filtered to the two-sublevel regime the schedule supports
    rng = np.random.default_rng(1000 + seed)
    while True:
        radius = float(rng.uniform(15.0, 30.0))
        eta = float(rng.uniform(1.5, 3.0))
        c5 = float(rng.uniform(0.9, 1.3))
        if math.floor(2 * eta / (c5 / 20.0 * 2 * radius)) + 1 <= 2:
            break
    stages = GridCloudStages(
        lo=-radius, hi=radius,
        plateaus=((512, 0.02), (4096, 2.2e-4), (2**21, 2.7e-9)),
        gamma=0.04, j_max=2**24,
    )
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), radius),
        gauges=SQRT_PAIR, eta=eta, stages=stages, depth=2, g_floor=64,
        c5=c5, d2=2.0,
    )
    tree = build_cantor(params)
    report = verify_levels(tree, params)
    assert report.properties["P1"].passed
    assert report.ok


def test_holder_eta_independence():
    reports = {}
    for eta in (2.0, 4.0):
        p = holder_construction(eta)
        tree = build_cantor(p)
        mass = assign_mass(tree, p)
        reports[eta] = holder_check(tree, mass, p, trials=4000, rng=np.random.default_rng(3))
    ratio = reports[4.0].max_ratio / reports[2.0].max_ratio
    assert 0.5 <= ratio <= 2.0


def _holder_check_loop(tree, mass, params, trials, rng, radius_cap=None):
    """Reference: one Python iteration per trial, scalar draws and scoring."""
    pair = params.gauges
    eta = params.eta
    centers, radii = tree.leaves()
    order = np.argsort(centers[:, 0])
    c = centers[order, 0]
    r = radii[order]
    m = mass.mu[-1][order]
    rmax_leaf = float(np.max(r))
    if radius_cap is None:
        radius_cap = 8.0 * float(np.max(np.concatenate([l.a_radius for l in tree.levels[0]])))
    r_lo = float(np.min(r))
    r_hi = tree.root.radius
    log_lo, log_hi = math.log(r_lo), math.log(r_hi)
    log_cap = math.log(min(radius_cap, r_hi))
    max_ratio = full_max = single_max = 0.0
    worst = None
    n_single = n_qual = 0
    for t in range(trials):
        if t % 2 == 0:
            rad = math.exp(rng.uniform(log_lo, log_hi))
        else:
            rad = math.exp(rng.uniform(log_lo, log_cap))
        if t % 4 < 2:
            x = rng.uniform(tree.root.center[0] - tree.root.radius, tree.root.center[0] + tree.root.radius)
        else:
            k = rng.integers(0, len(c))
            x = c[k] + rng.uniform(-2.0 * rad, 2.0 * rad)
        i0, i1 = np.searchsorted(c, [x - rad - rmax_leaf, x + rad + rmax_leaf])
        seg = slice(i0, i1)
        hit = np.abs(c[seg] - x) < r[seg] + rad
        k_hit = int(np.count_nonzero(hit))
        if k_hit == 0:
            continue
        ratio = eta * float(np.sum(m[seg][hit])) / eval_gauge(pair.f, rad)
        full_max = max(full_max, ratio)
        if k_hit == 1:
            n_single += 1
            single_max = max(single_max, ratio)
            continue
        if rad <= radius_cap:
            n_qual += 1
            if ratio > max_ratio:
                max_ratio = ratio
                worst = Ball(np.array([x]), rad)
    return HolderReport(
        eta=eta, max_ratio=max_ratio, worst_ball=worst,
        implied_hf_lower_bound=eta / max_ratio if max_ratio > 0 else math.inf,
        radius_cap=radius_cap, qualifying_trials=n_qual, single_ball_trials=n_single,
        single_ball_max_ratio=single_max, full_range_max_ratio=full_max, trials=trials,
    )


def _assert_holder_matches_loop(tree, mass, params, trials, seed, radius_cap=None):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = holder_check(tree, mass, params, trials=trials, rng=rng_a, radius_cap=radius_cap)
    want = _holder_check_loop(tree, mass, params, trials, rng_b, radius_cap=radius_cap)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "worst_ball":
            assert (a is None) == (b is None)
            if b is not None:
                assert a.center.tolist() == b.center.tolist() and a.radius == b.radius
        else:
            assert type(a) is type(b) and a == b, f.name
    return got


@pytest.mark.parametrize("seed", [0, 5])
def test_holder_check_matches_loop_audit_tree(audit_tree, seed):
    params, tree = audit_tree
    mass = assign_mass(tree, params)
    rep = _assert_holder_matches_loop(tree, mass, params, 3000, seed)
    assert rep.qualifying_trials > 0 and rep.single_ball_trials > 0
    # the skewed mass of test_mass_concentration_blows_up_holder
    skew = assign_mass(tree, params)
    skew.mu[-1] = np.zeros_like(skew.mu[-1])
    skew.mu[-1][0] = 1.0
    _assert_holder_matches_loop(tree, skew, params, 3000, seed)
    # a tabulated f (log-linear between samples, with kinks) spanning the
    # radii the trials draw
    rs = np.geomspace(1e-9, 100.0, 23)
    vs = np.sqrt(rs) * (1.0 + 0.3 * (np.arange(len(rs)) % 3))
    tab = copy.copy(params)
    tab.gauges = GaugePair(Gauge.tabulated(zip(rs, np.maximum.accumulate(vs))), SQRT_PAIR.g, 0.0)
    _assert_holder_matches_loop(tree, mass, tab, 2000, seed)
    _assert_holder_matches_loop(tree, mass, params, 2000, seed, radius_cap=1e-3)


@pytest.mark.parametrize("eta", [2.0, 4.0, 8.0])
def test_holder_check_matches_loop_holder_trees(eta):
    params = holder_construction(eta)
    tree = build_cantor(params)
    _assert_holder_matches_loop(tree, assign_mass(tree, params), params, 2000, int(eta))


@pytest.mark.parametrize("seed", range(4))
def test_holder_check_matches_loop_overlapping_leaves(seed):
    # leaves of very different radii that overlap, some with equal centers:
    # the audits fail, and many leaves straddle a trial ball's edge
    rng = np.random.default_rng(seed)
    n = 400
    centers = np.round(rng.uniform(-3.0, 3.0, n), 2)
    radii = np.exp(rng.uniform(math.log(1e-4), math.log(0.4), n))
    loc = _local((1, 0), [-1.5, 1.5], 1.0, centers, 1.0, rng.integers(0, 2, n))
    loc.c_radius = radii
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), 4.0), gauges=SQRT_PAIR, eta=3.0,
        stages=_UniformStages(1.0, centers), depth=2,
    )
    tree = CantorTree(
        root=params.domain, metric="sup", constants=_ambient_constants(params), levels=[[loc]]
    )
    assert not verify_levels(tree, params).properties["P1"].passed
    mu = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
    mass = MassAssignment(mu=[mu / mu.sum()])
    rep = _assert_holder_matches_loop(tree, mass, params, 4000, seed)
    assert rep.qualifying_trials > 0 and rep.single_ball_trials > 0


def test_holder_check_matches_loop_tied_ratios():
    # f is flat above 0.5, so every trial ball over the same leaves scores
    # the same ratio: the first of them must win, although the prefix-sum
    # masses of the tied trials differ in the last bits (the leaves form
    # four clusters, and a leaf is a certain hit in one trial and an edge
    # band leaf in another)
    rng = np.random.default_rng(0)
    n = 300
    centers = np.round(rng.choice([-3.0, -1.0, 1.0, 3.0], n) + rng.uniform(0.0, 0.1, n), 3)
    loc = _local((1, 0), [-1.5, 1.5], 1.0, centers, 0.3, rng.integers(0, 2, n))
    pair = GaugePair(Gauge.tabulated([(1e-4, 1e-2), (0.5, 0.5**0.5), (100.0, 0.5**0.5)]), SQRT_PAIR.g, 0.0)
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), 4.0), gauges=pair, eta=3.0, stages=_FixedStage(1.0), depth=2
    )
    tree = CantorTree(root=params.domain, metric="sup", constants={}, levels=[[loc]])
    mass = MassAssignment(mu=[rng.integers(1, 10, n) / 10.0])
    rep = _assert_holder_matches_loop(tree, mass, params, 4000, 0, radius_cap=2.0)
    assert rep.worst_ball.radius > 0.5


def _sweep_loop(pool, sep):
    keep = np.zeros(len(pool), dtype=bool)
    last = -math.inf
    for t, x in enumerate(pool):
        if x - last >= sep:
            keep[t] = True
            last = x
    return keep


@pytest.mark.parametrize("seed", range(6))
def test_sweep_chain_matches_loop(seed):
    rng = np.random.default_rng(seed)
    d_min = float(rng.uniform(1e-6, 1e-3))
    sep = 2.0 * d_min * (1 - 1e-12)
    # the builder's pool: a d_min/2 grid with removed gaps
    step = d_min / 2.0
    pool = np.arange(-7.0 + d_min, 9.0 - d_min + step / 4, step)[:20000]
    for lo in rng.uniform(pool[0], pool[-1], 30):
        pool = pool[(pool < lo) | (pool > lo + rng.uniform(0.0, 40 * d_min))]
    assert np.array_equal(_sweep_chain(pool, sep), _sweep_loop(pool, sep))
    # spacings right at the edge of the predicate, far from the origin
    near = [sep, np.nextafter(sep, 0.0), np.nextafter(sep, 1.0), sep / 2, sep / 4, 3 * sep]
    edge = 1234.5 + np.cumsum(rng.choice(near, 5000))
    assert np.array_equal(_sweep_chain(edge, sep), _sweep_loop(edge, sep))
    assert np.array_equal(_sweep_chain(edge[:1], sep), [True])
    # pools crossing zero, where pool[u] - pool[t] rounds: the searchsorted
    # guess can fall short of, or overshoot, the first point meeting the
    # predicate
    for a in -(10.0 ** rng.uniform(-20.0, math.log10(2 * sep), 300)):
        y = a + sep
        below = np.nextafter(y, -np.inf)
        pool = np.unique([a, np.nextafter(below, -np.inf), below, y, np.nextafter(y, np.inf)])
        assert np.array_equal(_sweep_chain(pool, sep), _sweep_loop(pool, sep))
    assert len(_sweep_chain(edge[:0], sep)) == 0


def test_stage_radii_one_call_per_stage(audit_tree):
    params, tree = audit_tree
    loc = tree.levels[0][0]
    calls = []
    stages = types.SimpleNamespace(upsilon=lambda j: calls.append(j) or params.stages.upsilon(j))
    got = _stage_radii(stages, loc.a_j)
    assert sorted(calls) == sorted(set(loc.a_j.tolist()))
    assert np.array_equal(got, np.array([params.stages.upsilon(int(j)) for j in loc.a_j]))
