import copy
import json
import math
import re
import time
import tracemalloc
import types
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from lspkit import cantor
from lspkit.cantor import (
    ConstructionParams,
    LocalLevel,
    CantorTree,
    HolderReport,
    _ambient_constants,
    _caj_nets,
    _deep_sublevel,
    _distinct,
    _holder_draws,
    _neighborhood_in_window,
    _overlapping_dilates,
    _points_disjoint,
    _stage_radii,
    assign_mass,
    build_cantor,
    format_tree,
    holder_check,
    json_default,
    tree_fingerprint,
    tree_from_json,
    tree_to_json,
    verify_levels,
)
from lspkit.cli import bundled_config
from lspkit.covering import BLOCK, Ball, _chain_blocks, _nearest, _sweep_chain, greedy_net
from lspkit.dimfun import Gauge, GaugePair, eval_gauge, mtp_radius
from lspkit.errors import ArgumentError, ConstructionError
from lspkit.stages import GridCloudStages, GridView, VdcPointStages

from audit_oracle import verify_levels_rows, window_rows
from cantor_params import SQRT_PAIR, cantor_params

# a small domain whose P3 floor exceeds the packing capacity of the domain;
# building it fails loudly by design
OVERSIZED = {
    "domain": {"center": [0.5], "radius": 0.5},
    "pair": {"f": {"kind": "power", "s": 0.5}, "g": {"kind": "power", "s": 1.0}},
    "eta": 2.0,
    "stages": {"type": "grid-cloud", "lo": 0.0, "hi": 1.0, "plateaus": [[8, 5e-4], [4096, 1e-8]], "j_max": 2**22},
    "g_floor": 8,
    "c5": 5.0,
}


@pytest.fixture(scope="module")
def audit_tree():
    params = cantor_params("cantor_audit.json")
    tree = build_cantor(params)
    return params, tree


def _wide_holder_params():
    """eta 8 on B(0, 110), the widest domain perfbench's holder jobs draw."""
    cfg = bundled_config("cantor_holder.json")
    radius = 110.0
    return cantor_params(
        cfg, eta=8.0, c5=90.0 / radius, domain={**cfg["domain"], "radius": radius},
        stages={**cfg["stages"], "lo": -radius, "hi": radius},
    )


@pytest.fixture(scope="module")
def wide_holder_tree():
    params = _wide_holder_params()
    return params, build_cantor(params)


def test_build_passes_all_audits(audit_tree):
    params, tree = audit_tree
    report = verify_levels(tree, params)
    assert report.ok, {k: v.violations[:3] for k, v in report.properties.items() if not v.passed}
    loc = tree.level
    assert loc.l_b == 2  # halving property is actually exercised
    assert all(m >= tree.constants["c6"] * 20.0 for m in loc.sub_masses)


def test_case_classification_rejects_non_growing_ratios():
    params = cantor_params("cantor_audit.json")
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
        build_cantor(cantor_params(OVERSIZED))


def test_selection_shortfall_names_its_sublevel():
    # stage schedule truncated so the first sublevel cannot amass its mass
    # target (a single sparse stage block before the truncation index)
    params = cantor_params("cantor_audit.json")
    params.stages = GridCloudStages(
        lo=-20.0, hi=20.0, plateaus=((512, 1e-5),), j_max=600,
    )
    start = time.perf_counter()
    with pytest.raises(ConstructionError) as exc:
        build_cantor(params)
    assert time.perf_counter() - start < 0.5
    assert exc.value.sublevel == 1
    # the message gives the share of the selection's own target, not of
    # vol(B): the selection covered 0.081 of vol(B) against a target of 0.189
    shortfall = exc.value.__cause__
    target = float(re.fullmatch(r"covered fraction \S+ of target (\S+) by j_max=600", str(shortfall))[1])
    share = float(re.fullmatch(r"sublevel 1 selection met only (\S+) of its target", str(exc.value))[1])
    assert share == pytest.approx(shortfall.achieved_fraction / target, rel=5e-3)
    assert 0.42 < share < 0.44


def test_scan_truncation_names_its_sublevel():
    # the deep sublevel's entry scan exhausts the truncation index
    params = cantor_params("cantor_audit.json")
    params.stages = GridCloudStages(
        lo=-20.0, hi=20.0, plateaus=((512, 0.02), (4096, 2.2e-4)), j_max=4200,
    )
    with pytest.raises(ConstructionError, match=r"no stage index in \[\d+, 4200\] satisfies") as exc:
        build_cantor(params)
    assert exc.value.sublevel == 2


def test_determinism_fingerprint():
    p1 = cantor_params("cantor_audit.json")
    p2 = cantor_params("cantor_audit.json")
    assert tree_fingerprint(build_cantor(p1)) == tree_fingerprint(build_cantor(p2))


def _exact_mass(tree, params):
    """Oracle: the leaf masses as Fractions, from weights evaluated one
    selection ball at a time and summed exactly."""
    pair, loc = params.gauges, tree.level
    w = []
    for j in loc.a_j:
        u = params.stages.upsilon(int(j))
        h = eval_gauge(pair.f, u) / eval_gauge(pair.g, u) ** pair.kappa
        w.append(Fraction(float(h ** (1.0 / (1.0 - pair.kappa)))))
    total = sum(w, Fraction(0))
    counts = np.bincount(loc.c_aidx, minlength=len(w))
    return [w[a] / (total * int(counts[a])) for a in loc.c_aidx]


def test_mass_assignment_root_and_sums(audit_tree):
    params, tree = audit_tree
    mu = assign_mass(tree, params)
    assert mu.shape == tree.level.c_radius.shape
    assert float(np.sum(mu)) == pytest.approx(1.0, abs=1e-12)
    exact = _exact_mass(tree, params)
    assert sum(exact, Fraction(0)) == 1
    np.testing.assert_allclose(mu, [float(x) for x in exact], rtol=1e-13, atol=0)


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
        l_b=1,
        eps_b=math.inf,
        g_primes=[512],
        sub_targets=[0.0],
        sub_masses=[float(np.sum(a_radius))],
        a_center=a_centers,
        a_radius=a_radius,
        a_j=np.full(len(counts), 512, dtype=np.int64),
        a_sublevel=np.ones(len(counts), dtype=np.int64),
        c_center=np.array(c_center),
        c_radius=np.full(len(c_center), 1e-4),
        c_j=np.full(len(c_center), 512, dtype=np.int64),
        c_sublevel=np.ones(len(c_center), dtype=np.int64),
        c_aidx=np.array(c_aidx, dtype=np.int64),
    )
    root = Ball(np.array([0.0]), 20.0)
    return CantorTree(root=root, constants={}, level=loc)


class _FixedStage:
    """Stage provider stub whose radius is constant; used by mass tests."""

    def __init__(self, upsilon):
        self._u = upsilon

    def upsilon(self, j):
        return self._u


def test_mass_formula_single_selection():
    tree = _synthetic_tree([4], [0.5])
    params = ConstructionParams(
        domain=tree.root, gauges=SQRT_PAIR, eta=2.0, stages=_FixedStage(0.25)
    )
    assert np.allclose(assign_mass(tree, params), 0.25)


def test_mass_formula_two_selections_equal_weights():
    # equal stage radii (equal weights), child counts 2 and 8
    tree = _synthetic_tree([2, 8], [0.5, 0.5])
    params = ConstructionParams(
        domain=tree.root, gauges=SQRT_PAIR, eta=2.0, stages=_FixedStage(0.25)
    )
    mus = assign_mass(tree, params)
    assert np.allclose(mus[:2], 1 / 4)
    assert np.allclose(mus[2:], 1 / 16)


def ball_mass_upper(tree, mu, D):
    """Upper bound for the limit measure of D: total mass of the leaves
    meeting D."""
    hit = np.abs(tree.level.c_center - D.center) < tree.level.c_radius + D.radius
    return float(np.sum(mu[hit]))


def test_ball_mass_upper(audit_tree):
    params, tree = audit_tree
    mu = assign_mass(tree, params)
    assert ball_mass_upper(tree, mu, Ball(np.array([0.0]), 25.0)) == pytest.approx(1.0)
    assert ball_mass_upper(tree, mu, Ball(np.array([500.0]), 1.0)) == 0.0
    k = 17
    one = ball_mass_upper(tree, mu, Ball(tree.level.c_center[k], float(tree.level.c_radius[k])))
    assert one == pytest.approx(float(mu[k]), rel=1e-12)


def test_fault_injection_flags_three_classes(audit_tree):
    params, tree = audit_tree

    # fault 1: one child ball dilated threefold -> separation breaks
    t1 = copy.deepcopy(tree)
    t1.level.c_radius[5] *= 3.0
    rep = verify_levels(t1, params)
    assert not rep.properties["P1"].passed or not rep.properties["P2"].passed

    # fault 2: recorded sublevel count forced to 1 -> P5 mismatch
    t2 = copy.deepcopy(tree)
    t2.level.l_b = 1
    rep = verify_levels(t2, params)
    assert not rep.properties["P5"].passed

    # fault 3: a deep-sublevel ball inflated to the coarse radius -> halving breaks
    t3 = copy.deepcopy(tree)
    loc = t3.level
    deep = np.nonzero(loc.c_sublevel == 2)[0][0]
    loc.c_radius[deep] = float(np.max(loc.c_radius))
    rep = verify_levels(t3, params)
    assert not rep.properties["P4"].passed


def test_mass_concentration_blows_up_holder(audit_tree):
    params, tree = audit_tree
    mu = assign_mass(tree, params)
    base = holder_check(tree, mu, params, trials=2000, rng=np.random.default_rng(2))
    skew = np.zeros_like(mu)
    skew[0] = 1.0
    spiked = holder_check(tree, skew, params, trials=2000, rng=np.random.default_rng(2))
    assert spiked.max_ratio > 10 * base.max_ratio


def test_tree_json_roundtrip(audit_tree):
    params, tree = audit_tree
    back = tree_from_json(tree_to_json(tree, params.stages), params.stages)
    assert tree_fingerprint(back) == tree_fingerprint(tree)


@pytest.mark.parametrize("which", ["audit_tree", "wide_holder_tree"])
def test_tree_json_roundtrip_every_field(request, which):
    params, tree = request.getfixturevalue(which)
    text = json.dumps(tree_to_json(tree, params.stages), default=json_default)
    back = tree_from_json(json.loads(text), params.stages)
    assert json.dumps(tree_to_json(back, params.stages), default=json_default) == text
    _assert_same_level(back, tree)
    assert tree_fingerprint(back) == tree_fingerprint(tree)


def _assert_same_level(got_tree, want_tree):
    """Every field of the local level is equal, arrays in dtype and shape too."""
    for f in fields(LocalLevel):
        a, b = getattr(got_tree.level, f.name), getattr(want_tree.level, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_tree_json_stores_run_length_columns(audit_tree):
    params, tree = audit_tree
    d = tree_to_json(tree, params.stages)
    assert (d["format"], d["grid"]) == (5, {"lo": -20.0, "hi": 20.0})
    assert list(d) == ["format", "grid", "root", "constants", "case", "level"]
    loc, e = tree.level, d["level"]
    assert list(e) == ["l_b", "eps_b", "g_primes", "sub_targets", "sub_masses", "a", "c"]
    assert list(e["a"]) == ["sublevel", "j", "radius", "index"]
    assert list(e["c"]) == ["sublevel", "j", "radius", "groups"]
    for block in ("a", "c"):
        for key in ("sublevel", "j", "radius"):
            values, lengths = e[block][key]
            assert np.array_equal(np.repeat(values, lengths), getattr(loc, f"{block}_{key}")), (block, key)
        assert e[block]["sublevel"][0].tolist() == [1, 2]
    # the steps between the selection balls' cloud indices
    index = np.cumsum(np.repeat(*e["a"]["index"]))
    assert index.dtype == np.int64 and len(index) == len(loc.a_center)
    for j in np.unique(loc.a_j):
        rows = loc.a_j == j
        assert np.array_equal(params.stages.sorted_points(int(j))[index[rows]], loc.a_center[rows])
    # every selection ball owns one group: 255 sublevel-1 balls keep one
    # child, their own center; each of the 23,556 deep ones three
    # consecutive points, starting one before its own
    groups = {key: [col.tolist() for col in rle] for key, rle in e["c"]["groups"].items()}
    assert groups == {
        "owner": [[1], [23_811]],
        "first": [[0, -1], [255, 23_556]],
        "count": [[1, 3], [255, 23_556]],
    }


def _grid_local(a_index, a_j, c_index, c_j, c_aidx, stages):
    """A tree on B(0, 1) whose level's balls are the given indices into
    their stage clouds, with the stage radii of their j."""
    def block(index, js):
        index, js = np.asarray(index, dtype=np.int64), np.asarray(js, dtype=np.int64)
        center = np.array([stages.sorted_points(int(j))[int(k)] for k, j in zip(index, js)])
        radius = np.array([stages.upsilon(int(j)) for j in js])
        return center, radius, js, np.ones(len(js), dtype=np.int64)

    loc = LocalLevel(
        1, math.inf, [16], [0.5], [0.25],
        *block(a_index, a_j), *block(c_index, c_j), np.asarray(c_aidx, dtype=np.int64),
    )
    return CantorTree(root=Ball(np.array([0.0]), 1.0), constants={"eta": 2.0}, level=loc)


def test_tree_json_groups_roundtrip_synthetic():
    # the layouts the bundled audit tree does not show: owners out of order
    # (two j in one sublevel), children that skip cloud points (a greedy-net
    # slice), one-child slices at the owner's own index, a group across a
    # run boundary, and blocks without target balls
    stages = GridCloudStages(lo=-1.0, hi=1.0, plateaus=((16, 0.01), (64, 0.001)), j_max=128)
    trees = [
        _grid_local(
            [3, 9, 40, 50], [16, 16, 64, 64],
            [39, 40, 41, 50, 2, 4, 6, 7, 9], [64, 64, 64, 64, 16, 16, 16, 16, 16],
            [2, 2, 2, 3, 0, 0, 0, 0, 1], stages,
        ),
        _grid_local([5, 6], [16, 16], [6, 5, 6, 7], [16, 16, 16, 16], [1, 0, 0, 0], stages),
        _grid_local([5, 6], [16, 64], [5, 6, 63], [16, 64, 64], [0, 0, 1], stages),
        _grid_local([5, 6], [16, 16], [], [], [], stages),
        _grid_local([], [], [], [], [], stages),
    ]
    dicts = [tree_to_json(tree, stages) for tree in trees]
    owner, first, count = (dicts[0]["level"]["c"]["groups"][key] for key in ("owner", "first", "count"))
    assert [col.tolist() for col in owner] == [[3, 1, -3, 0, 1], [1, 1, 1, 2, 1]]
    assert np.repeat(*first).tolist() == [-1, 0, -1, 1, 3, 0]
    assert np.repeat(*count).tolist() == [3, 1, 1, 1, 2, 1]
    assert np.repeat(*dicts[2]["level"]["c"]["groups"]["count"]).tolist() == [2, 1]
    for tree, d in zip(trees, dicts):
        text = json.dumps(d, default=json_default)
        for obj in (d, json.loads(text)):
            back = tree_from_json(obj, stages)
            assert json.dumps(tree_to_json(back, stages), default=json_default) == text
            _assert_same_level(back, tree)


def test_tree_writer_refuses_a_center_off_its_cloud(audit_tree):
    params, tree = audit_tree
    off = copy.deepcopy(tree)
    off.level.c_center[7] = np.nextafter(off.level.c_center[7], np.inf)
    with pytest.raises(ConstructionError, match="c-ball 7 center .* is not a point of the stage-4096 cloud"):
        tree_to_json(off, params.stages)


def _lists(obj):
    """The tree dict with every array as a list: the whole-tree form that was
    written before the writer took one array at a time."""
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_lists(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def test_tree_writer_matches_whole_list_writer(audit_tree):
    params, tree = audit_tree
    d = tree_to_json(tree, params.stages)
    assert json.dumps(d, default=json_default) == json.dumps(_lists(d), default=float)


def test_wide_holder_build_stays_small():
    # eta 8 on B(0, 110): the deep sublevel's cover pool holds a million
    # points and its stage clouds reach 2**21 points; none is held whole
    # (holding them, the build peaks at 61.8 MB traced)
    params = _wide_holder_params()
    tracemalloc.start()
    try:
        build_cantor(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_eta8_tree_moves_with_its_domain():
    # the eta-8 holder build with its domain and stages shifted together:
    # the same ball counts and masses at every offset, and the same leaves
    # less the offset, up to one spacing of the leaf's stage cloud
    cfg = bundled_config("cantor_holder.json")
    radius = cfg["domain"]["radius"]
    trees = {}
    for offset in (-37.5, 0.0, 37.5):
        params = cantor_params(
            cfg, eta=8.0, c5=90.0 / radius, domain={**cfg["domain"], "center": [offset]},
            stages={**cfg["stages"], "lo": offset - radius, "hi": offset + radius},
        )
        trees[offset] = build_cantor(params).level
    base = trees[0.0]
    spacing = 2.0 * radius / (1 << np.floor(np.log2(base.c_j)).astype(np.int64))
    for offset, loc in trees.items():
        assert len(loc.c_center) == len(base.c_center) and loc.sub_masses == base.sub_masses
        assert np.array_equal(np.bincount(loc.a_sublevel), np.bincount(base.a_sublevel))
        assert np.array_equal(np.bincount(loc.c_sublevel), np.bincount(base.c_sublevel))
        assert np.array_equal(loc.c_j, base.c_j)
        assert np.all(np.abs((loc.c_center - offset) - base.c_center) <= spacing * (1 + 1e-9))


def _caj_nets_per_ball(cloud, a_centers, a_radii, upsilon, metric):
    """Reference: one greedy_net call per selection ball's cloud slice."""
    cloud = np.asarray(cloud)
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
@pytest.mark.parametrize("kind", ["mixed", "spaced", "grid"])
def test_caj_nets_matches_per_ball_greedy(seed, metric, kind):
    # upsilon = 0.25 makes the separation 1.5.  "mixed": half-integer grid
    # points (some gaps exactly 1.5), random points and duplicates.
    # "spaced": every gap is exactly 1.5 or wider, so only the boundary
    # case decides whether a point is kept.  "grid": a dense grid view, its
    # spacing below 1.5 (at 160 cells exactly 0.5, so three gaps tie with
    # the separation).  The builder has one net; on the line it must equal
    # the greedy net under either metric
    rng = np.random.default_rng(seed)
    upsilon = 0.25
    if kind == "mixed":
        cloud = np.sort(np.concatenate([
            rng.integers(0, 160, rng.integers(5, 80)) * 0.5,
            rng.uniform(0.0, 80.0, rng.integers(0, 40)),
        ]))
    elif kind == "spaced":
        cloud = np.cumsum(rng.choice([1.5, 2.0, 3.25], 40))
    else:
        cloud = GridView(0.0, 80.0, [160, 213, int(rng.integers(54, 600))][seed % 3])
    # some selection balls lie beyond the cloud, so their slices are empty
    a_centers = rng.uniform(-10.0, 95.0, 30)
    a_radii = rng.uniform(0.2, 12.0, 30)
    params = types.SimpleNamespace(stages=_CloudStage(cloud))
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


def _local(a_center, a_radius, c_center, c_radius, c_aidx):
    na, nc = len(a_center), len(c_center)
    return LocalLevel(
        l_b=1, eps_b=math.inf, g_primes=[512], sub_targets=[0.0], sub_masses=[0.0],
        a_center=np.array(a_center), a_radius=np.full(na, a_radius),
        a_j=np.full(na, 512, dtype=np.int64), a_sublevel=np.ones(na, dtype=np.int64),
        c_center=np.array(c_center), c_radius=np.full(nc, c_radius),
        c_j=np.full(nc, 512, dtype=np.int64), c_sublevel=np.ones(nc, dtype=np.int64),
        c_aidx=np.array(c_aidx, dtype=np.int64),
    )


def _small_tree():
    """B(0, 20) over two selection balls, with two leaves and one."""
    leaves = [-9.0, -7.0, 8.0]
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), 20.0), gauges=SQRT_PAIR, eta=2.0,
        stages=_UniformStages(0.25, np.array(leaves + [19.5])),
    )
    level = _local([-8.0, 8.0], 4.0, leaves, 0.25, [0, 0, 1])
    return CantorTree(root=params.domain, constants=_ambient_constants(params), level=level), params


def test_p1_flags_a_leaf_outside_the_root():
    tree, params = _small_tree()
    mu = assign_mass(tree, params)
    assert mu.tolist() == [0.25, 0.25, 0.5] and _exact_mass(tree, params) == [0.25, 0.25, 0.5]
    outside = [v for v in verify_levels(tree, params).properties["P1"].violations if v[0] == "outside-parent"]
    assert outside == []
    # move the leaf at 8 to 19.5: its 3-dilate reaches 20.25, past the root
    tree.level.c_center[2] = 19.5
    outside = [v for v in verify_levels(tree, params).properties["P1"].violations if v[0] == "outside-parent"]
    assert outside == [("outside-parent", 19.5)]


def test_format_tree_one_level():
    tree, params = _small_tree()
    assert format_tree(tree, assign_mass(tree, params)) == "\n".join([
        "root B(center=[0.0], radius=20)",
        "constants: c6=0.05 c5=1 eta=2",
        "local level: l_B=1 sublevel masses=[0.0]",
        "  (A;512) sub1 c=-8 r=4 #C=2",
        "    L c=-9 r=0.25 mu=0.25",
        "    L c=-7 r=0.25 mu=0.25",
        "  (A;512) sub1 c=8 r=4 #C=1",
        "    L c=8 r=0.25 mu=0.5",
    ])


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
        plateaus=((512, 0.02), (4096, 2.2e-4), (2**21, 2.7e-9)), j_max=2**24,
    )
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), radius),
        gauges=SQRT_PAIR, eta=eta, stages=stages, g_floor=64,
        c5=c5,
    )
    tree = build_cantor(params)
    report = verify_levels(tree, params)
    assert report.properties["P1"].passed
    assert report.ok


def test_holder_eta_independence():
    reports = {}
    for eta in (2.0, 4.0):
        p = cantor_params("cantor_holder.json", eta=eta)
        tree = build_cantor(p)
        reports[eta] = holder_check(tree, assign_mass(tree, p), p, trials=4000, rng=np.random.default_rng(3))
    ratio = reports[4.0].max_ratio / reports[2.0].max_ratio
    assert 0.5 <= ratio <= 2.0


def _holder_check_loop(tree, mu, params, trials, rng, radius_cap=None):
    """Reference: one Python iteration per trial, scalar draws and scoring."""
    pair = params.gauges
    eta = params.eta
    order = np.argsort(tree.level.c_center)
    c = tree.level.c_center[order]
    r = tree.level.c_radius[order]
    m = mu[order]
    rmax_leaf = float(np.max(r))
    if radius_cap is None:
        radius_cap = 8.0 * float(np.max(tree.level.a_radius))
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


def _assert_holder_matches_loop(tree, mu, params, trials, seed, radius_cap=None):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = holder_check(tree, mu, params, trials=trials, rng=rng_a, radius_cap=radius_cap)
    want = _holder_check_loop(tree, mu, params, trials, rng_b, radius_cap=radius_cap)
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
    mu = assign_mass(tree, params)
    rep = _assert_holder_matches_loop(tree, mu, params, 3000, seed)
    assert rep.qualifying_trials > 0 and rep.single_ball_trials > 0
    # the skewed mass of test_mass_concentration_blows_up_holder
    skew = np.zeros_like(mu)
    skew[0] = 1.0
    _assert_holder_matches_loop(tree, skew, params, 3000, seed)
    # a tabulated f (log-linear between samples, with kinks) spanning the
    # radii the trials draw
    rs = np.geomspace(1e-9, 100.0, 23)
    vs = np.sqrt(rs) * (1.0 + 0.3 * (np.arange(len(rs)) % 3))
    tab = copy.copy(params)
    tab.gauges = GaugePair(Gauge.tabulated(zip(rs, np.maximum.accumulate(vs))), SQRT_PAIR.g, 0.0)
    _assert_holder_matches_loop(tree, mu, tab, 2000, seed)
    _assert_holder_matches_loop(tree, mu, params, 2000, seed, radius_cap=1e-3)


@pytest.mark.parametrize("eta", [2.0, 4.0, 8.0])
def test_holder_check_matches_loop_holder_trees(eta):
    params = cantor_params("cantor_holder.json", eta=eta)
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
    loc = _local([-1.5, 1.5], 1.0, centers, 1.0, rng.integers(0, 2, n))
    loc.c_radius = radii
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), 4.0), gauges=SQRT_PAIR, eta=3.0, stages=_UniformStages(1.0, centers),
    )
    tree = CantorTree(root=params.domain, constants=_ambient_constants(params), level=loc)
    assert not verify_levels(tree, params).properties["P1"].passed
    mu = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
    rep = _assert_holder_matches_loop(tree, mu / mu.sum(), params, 4000, seed)
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
    loc = _local([-1.5, 1.5], 1.0, centers, 0.3, rng.integers(0, 2, n))
    pair = GaugePair(Gauge.tabulated([(1e-4, 1e-2), (0.5, 0.5**0.5), (100.0, 0.5**0.5)]), SQRT_PAIR.g, 0.0)
    params = ConstructionParams(
        domain=Ball(np.array([0.0]), 4.0), gauges=pair, eta=3.0, stages=_FixedStage(1.0)
    )
    tree = CantorTree(root=params.domain, constants={}, level=loc)
    rep = _assert_holder_matches_loop(tree, rng.integers(1, 10, n) / 10.0, params, 4000, 0, radius_cap=2.0)
    assert rep.worst_ball.radius > 0.5


def _holder_draws_loop(rng, trials, c, logs, b0):
    """Reference: the scalar draws, one trial at a time."""
    log_lo, log_hi, log_cap = logs
    x, rad = np.empty(trials), np.empty(trials)
    for t in range(trials):
        rad[t] = math.exp(rng.uniform(log_lo, log_hi if t % 2 == 0 else log_cap))
        if t % 4 < 2:
            x[t] = rng.uniform(*b0)
        else:
            k = rng.integers(0, len(c))
            x[t] = c[k] + rng.uniform(-2.0 * rad[t], 2.0 * rad[t])
    return x, rad


@pytest.mark.parametrize("trials", [1000, 1001, 1002, 1003, 10_000])
@pytest.mark.parametrize("seed", [1, 20260813])
def test_holder_draws_match_scalar_loop(trials, seed):
    # every center and radius, the generator's final state (its held half
    # word included) and its next draws equal the scalar loop's, from a
    # generator that holds no half word and from one that holds one, for
    # leaf counts that take no index draw (1), 32-bit index draws (2 to
    # 2**31 + 1, where about half the tries are rejected) and a bare 32-bit
    # value (2**32)
    logs = (math.log(2e-5), math.log(20.0), math.log(0.9))
    leaves = [
        np.array([0.5]),
        np.array([-3.0, 4.0]),
        np.sort(np.random.default_rng(seed).uniform(-20.0, 20.0, 23_811)),
        GridView(-5.0, 5.0, 2**32),
    ]
    if trials < 10_000:  # each rejected try costs one more decode of the whole layout
        leaves.append(GridView(-5.0, 5.0, 2**31 + 1))
    for c in leaves:
        for held in (False, True):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            if held:
                assert rng_a.integers(0, 3) == rng_b.integers(0, 3) and rng_a.bit_generator.state["has_uint32"]
            got = _holder_draws(rng_a, trials, c, logs, (-20.0, 20.0))
            want = _holder_draws_loop(rng_b, trials, c, logs, (-20.0, 20.0))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert rng_a.integers(0, 7) == rng_b.integers(0, 7) and rng_a.random() == rng_b.random()


def test_holder_check_refuses_a_level_past_the_node_budget(audit_tree, monkeypatch):
    # no build writes such a level; the index draws assume at most 2**32 leaves
    params, tree = audit_tree
    mu = assign_mass(tree, params)
    monkeypatch.setattr(cantor, "MAX_NODES", len(mu) - 1)
    with pytest.raises(ArgumentError, match=f"at most {len(mu) - 1} leaves"):
        holder_check(tree, mu, params, rng=np.random.default_rng(0))


def test_holder_check_refuses_a_generator_other_than_pcg64(audit_tree):
    params, tree = audit_tree
    rng = np.random.Generator(np.random.Philox(3))
    with pytest.raises(ArgumentError, match="PCG64"):
        holder_check(tree, assign_mass(tree, params), params, rng=rng)


def test_builder_refuses_point_stages():
    # a van der Corput provider serves sorted_points, but it is not a grid
    params = cantor_params("cantor_audit.json")
    params.stages = VdcPointStages()
    with pytest.raises(ArgumentError, match="grid-cloud"):
        build_cantor(params)


def _sweep_loop(pool, sep, strict=False):
    """Reference: the mask of the points a scalar sweep over ``pool`` keeps,
    each at least (``strict``: more than) ``sep`` past the last one kept."""
    keep = np.zeros(len(pool), dtype=bool)
    last = -math.inf
    for t, x in enumerate(pool):
        if x - last > sep if strict else x - last >= sep:
            keep[t] = True
            last = x
    return keep


def _assert_sweep_matches_loop(pool, lo, hi, sep, strict=False):
    """``_sweep_chain`` over the ranges [lo[k], hi[k]) of ``pool`` keeps what
    the scalar sweep keeps of each range, at ``sep`` or, ``strict``, at the
    next float above it."""
    index, owner, pts = _sweep_chain(pool, np.array(lo), np.array(hi), np.nextafter(sep, np.inf) if strict else sep)
    want = [
        (a + t, k) for k, (a, b) in enumerate(zip(lo, hi)) for t in np.flatnonzero(_sweep_loop(pool[a:b], sep, strict))
    ]
    assert index.tolist() == [i for i, _ in want]
    assert owner.tolist() == [k for _, k in want]
    assert np.array_equal(pts, pool[index])


@pytest.mark.parametrize("seed", range(6))
def test_sweep_chain_matches_loop(seed):
    rng = np.random.default_rng(seed)
    d_min = float(rng.uniform(1e-6, 1e-3))
    sep = 2.0 * d_min * (1 - 1e-12)
    # a d_min/2 grid with removed gaps
    step = d_min / 2.0
    pool = np.arange(-7.0 + d_min, 9.0 - d_min + step / 4, step)[:20000]
    for lo in rng.uniform(pool[0], pool[-1], 30):
        pool = pool[(pool < lo) | (pool > lo + rng.uniform(0.0, 40 * d_min))]
    _assert_sweep_matches_loop(pool, [0], [len(pool)], sep)
    # many ranges of one pool, in any order and overlapping, with empty
    # and one-point ranges among them
    lo = rng.integers(0, len(pool), 60)
    hi = np.minimum(lo + rng.choice([0, 1, 2, 50, 3000], 60), len(pool))
    _assert_sweep_matches_loop(pool, lo.tolist(), hi.tolist(), sep)
    # spacings right at the edge of the predicate, far from the origin
    near = [sep, np.nextafter(sep, 0.0), np.nextafter(sep, 1.0), sep / 2, sep / 4, 3 * sep]
    edge = 1234.5 + np.cumsum(rng.choice(near, 5000))
    _assert_sweep_matches_loop(edge, [0, 0, 4999, 7, 2500], [5000, 1, 5000, 7, 2600], sep)
    _assert_sweep_matches_loop(edge, [0, 100], [1000, 3000], sep, strict=True)
    # pools crossing zero, where pool[u] - pool[t] rounds: the searchsorted
    # guess can fall short of, or overshoot, the first point meeting the
    # predicate
    for a in -(10.0 ** rng.uniform(-20.0, math.log10(2 * sep), 300)):
        y = a + sep
        below = np.nextafter(y, -np.inf)
        pool = np.unique([a, np.nextafter(below, -np.inf), below, y, np.nextafter(y, np.inf)])
        _assert_sweep_matches_loop(pool, [0, 1], [len(pool), len(pool)], sep)
    assert [len(v) for v in _sweep_chain(edge, 0, 0, sep)] == [0, 0, 0]
    # a grid view far from the origin, whose computed gaps differ in their
    # last bits: separations of exactly one of its gaps, or a multiple, and
    # one ulp either side, in both forms
    view = GridView(1e6 + seed, 1e6 + seed + 1.0, 4096)
    gaps = np.unique(np.diff(view[:]))
    lo = rng.integers(0, len(view), 40)
    hi = np.minimum(lo + rng.choice([0, 1, 3, 200, 4096], 40), len(view))
    for gap in (gaps[0], gaps[-1], 2 * gaps[len(gaps) // 2], view[3] - view[0]):
        for s in (np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf)):
            for strict in (False, True):
                _assert_sweep_matches_loop(view, lo.tolist(), hi.tolist(), s, strict)


def test_nearest_takes_the_lower_point_on_ties():
    # the deep sublevel's hosts and the P2 audit's on-stage test both read
    # the nearest cloud point; halfway between two points it is the lower
    cloud = GridView(-1.0, 1.0, 4)  # -0.75, -0.25, 0.25, 0.75
    x = np.array([-2.0, -0.5, 0.0, 0.1, 0.5, 0.75, 2.0])
    want = [-0.75, -0.75, -0.25, 0.25, 0.25, 0.75, 0.75]
    assert _nearest(cloud, x).tolist() == want
    assert _nearest(cloud[:], x).tolist() == want


def _cover_chain(pool, b_lo, b_hi, sep, block=BLOCK):
    """The points of the sorted ``pool`` outside every interval
    [b_lo[k], b_hi[k]] (``b_lo`` sorted, ``b_hi`` its running maximum) that
    one ``_sweep_chain(leftover, sep)`` over all of them keeps, swept
    ``block`` points at a time (``_chain_blocks``): the sweep that
    ``build_kgb`` runs over each stage cloud, its blocks collected into one
    array."""

    def inside(pts):
        idx = np.searchsorted(b_lo, pts, side="right") - 1
        return (idx >= 0) & (pts <= np.where(idx >= 0, b_hi[np.maximum(idx, 0)], -np.inf))

    kept = [pts for pts in _chain_blocks(pool, 0, len(pool), inside, sep, block) if len(pts)]
    return np.concatenate(kept) if kept else pool[:0]


def _filtered_sweep(pool, b_lo, b_hi, sep):
    """Reference: filter the whole pool, then one ``_sweep_chain`` over it."""
    idx = np.searchsorted(b_lo, pool, side="right") - 1
    inside = (idx >= 0) & (pool <= np.where(idx >= 0, b_hi[np.maximum(idx, 0)], -np.inf))
    pool = pool[~inside]
    return _sweep_chain(pool, 0, len(pool), sep)[2]


@pytest.mark.parametrize("block", [1, 2, 7, 2**16])
@pytest.mark.parametrize("seed", range(3))
def test_cover_chain_matches_one_sweep(block, seed):
    rng = np.random.default_rng(seed)
    d_min = float(rng.uniform(1e-4, 1e-3))
    sep = 2.0 * d_min * (1 - 1e-12)
    step = d_min / 2.0
    # a regular pool crossing zero, with intervals cut out of it
    n = 3000 if block < 2**16 else 200_000
    pool = np.arange(-0.3 * n * step, 0.7 * n * step, step)
    leaf = rng.uniform(pool[0], pool[-1], 40)
    half = rng.uniform(0.0, 30 * d_min, 40)
    order = np.argsort(leaf - half)
    b_lo, b_hi = (leaf - half)[order], np.maximum.accumulate((leaf + half)[order])
    want = _filtered_sweep(pool, b_lo, b_hi, sep)
    assert np.array_equal(_cover_chain(pool, b_lo, b_hi, sep, block), want)
    # spacings of exactly sep and one ulp either side, around zero
    near = [sep, np.nextafter(sep, 0.0), np.nextafter(sep, 1.0), sep / 3, 2 * sep]
    edge = -500 * sep + np.cumsum(rng.choice(near, 1000))
    none = np.array([-np.inf]), np.array([-np.inf])
    assert np.array_equal(_cover_chain(edge, *none, sep, block), _sweep_chain(edge, 0, len(edge), sep)[2])
    # a pool the leaves cover entirely keeps nothing
    assert len(_cover_chain(pool, pool[:1] - 1.0, pool[-1:] + 1.0, sep, block)) == 0


def _cover_pool(B, d_min):
    """A deep sublevel's pool of cover centers under the root B: point k at
    ``half_lo + d_min + k * d_min / 2``, up to ``half_hi - d_min``."""
    step = d_min / 2.0
    lo = B.center[0] - 0.5 * B.radius + d_min - 0.5 * step
    size = int(math.floor(B.radius / step)) - 3
    return GridView(lo, lo + size * step, size)


def _deep_sublevel_loop(params, B, i, g_prime, d_min, target, leaf_center, leaf_radius):
    """Reference: ``_deep_sublevel`` by scalar loops.  It walks the indices
    of the pool, skips each point that some leaf 4-dilate holds (closed
    intervals, tested one by one), keeps an index at least 4 past the last
    one kept, and then hosts the covers stage by stage, one cover at a
    time."""
    pair = params.gauges
    pool = _cover_pool(B, d_min)[:].tolist()
    dilates = list(zip((leaf_center - 4.0 * leaf_radius).tolist(), (leaf_center + 4.0 * leaf_radius).tolist()))
    covers, last = [], -math.inf
    for k, x in enumerate(pool):
        if k - last >= 4 and not any(a <= x <= b for a, b in dilates):
            covers.append(x)
            last = k
    if not covers:
        raise ConstructionError(
            f"sublevel {i}: leftover region produced no cover balls", sublevel=i
        )
    mass = 0.0
    j = g_prime
    picks = []
    while mass < target and j <= params.stages.j_max and covers:
        tilde = mtp_radius(pair, params.stages.upsilon(j))
        room = d_min - 3.0 * tilde
        if room > 0:
            cloud = params.stages.sorted_points(j)
            g_tilde = eval_gauge(pair.g, tilde)
            need = math.ceil((target - mass) / g_tilde)
            take, left = [], []
            for x in covers:
                pos = int(cloud.searchsorted(x))
                near = [float(cloud[q]) for q in (pos - 1, pos) if 0 <= q < len(cloud)]
                host = min(near, key=lambda y: abs(x - y))  # the lower one at a tie
                if abs(host - x) > room:
                    left.append(x)
                elif len(take) < need:
                    take.append(host)
            picks.append((np.array(take, dtype=float), tilde, j))
            mass += len(take) * g_tilde
            covers = left
        j = max(1 << (int(math.floor(math.log2(max(j, 1)))) + 1), j + 1)
    if mass < target:
        raise ConstructionError(
            f"sublevel {i}: mass {mass:.3g} below target {target:.3g} "
            f"({len(covers)} cover balls unhosted by stage {j})",
            sublevel=i,
        )
    return (
        np.concatenate([t for t, _, _ in picks]),
        np.concatenate([np.full(len(t), r) for t, r, _ in picks]),
        np.concatenate([np.full(len(t), jj, dtype=np.int64) for t, _, jj in picks]),
        mass,
    )


def _outcome(fn, *args):
    """A deep sublevel's (centers, radii, js, mass), or its error's type and message."""
    try:
        return fn(*args)
    except ConstructionError as exc:
        return type(exc), str(exc)


# On the audit's stages with d_min = 3 tilde(2**21) + 1e-6, stage 2**21
# hosts 334 of the 3,187 covers of B(0, 1), each carrying g(tilde) =
# 5.2e-5 of mass, stage 2**22 hosts the others, and all of them carry 0.163.
_D_MIN = 3 * 2.7e-9**0.5 + 1e-6
_HOSTING_CASES = {
    "met-in-first-stage": dict(target=0.01),
    "second-stage-hosts-the-rest": dict(target=0.05),
    "no-room-up-to-j_max": dict(d_min=1e-4),
    "j_max-after-first-stage": dict(target=0.05, j_max=2**21 + 1),
    "every-cover-hosted": dict(target=1.0),
    "no-cover-pool": dict(leaves=([0.0], [1.0])),
}


def _leaves_ending_on_pool_points(d_min, rng, m=30):
    """Leaves of radius 2 d_min in B(0, 1) whose 4-dilates start or end
    exactly on a point of the deep sublevel's pool for B(0, 1)."""
    pool = _cover_pool(Ball([0.0], 1.0), d_min)
    r = 2.0 * d_min
    centers = []
    for x in pool[rng.integers(0, len(pool), 4 * m)].tolist():
        centers += [c for c, end in ((x + 4.0 * r, x), (x - 4.0 * r, x)) if c - 4.0 * r == end or c + 4.0 * r == end]
    return np.array(centers[:m]), np.full(min(m, len(centers)), r)


@pytest.mark.parametrize("layout", [None, 0, 1, 2, "ends"])
@pytest.mark.parametrize("case", sorted(_HOSTING_CASES))
def test_deep_sublevel_matches_scalar_loop(case, layout):
    # each case on its own leaves, and on them plus leaves drawn at random
    # in B(0, 1) with radii of at least d_min, or leaves whose 4-dilates
    # end exactly on pool points
    kw = {"d_min": _D_MIN, "target": 0.01, "leaves": ([5.0], [0.01]), **_HOSTING_CASES[case]}
    audit = bundled_config("cantor_audit.json")
    stages = {**audit["stages"], "j_max": kw.get("j_max", audit["stages"]["j_max"])}
    leaf_center, leaf_radius = (np.array(v, dtype=float) for v in kw["leaves"])
    if layout == "ends":
        more = _leaves_ending_on_pool_points(kw["d_min"], np.random.default_rng(7))
        assert len(more[0]) == 30
        leaf_center, leaf_radius = np.append(leaf_center, more[0]), np.append(leaf_radius, more[1])
    elif layout is not None:
        rng = np.random.default_rng(layout)
        m = int(rng.integers(1, 40))
        leaf_center = np.append(leaf_center, rng.uniform(-0.6, 0.6, m))
        leaf_radius = np.append(leaf_radius, kw["d_min"] * rng.uniform(1.0, 30.0, m))
    args = (cantor_params(audit, stages=stages), Ball([0.0], 1.0), 2, 2**21, kw["d_min"], kw["target"],
            leaf_center, leaf_radius)
    got, want = _outcome(_deep_sublevel, *args), _outcome(_deep_sublevel_loop, *args)
    if isinstance(want[1], str):  # the error and its message, with the unhosted count
        assert got == want
        assert got[0] is ConstructionError
        assert ("leftover region produced no cover balls" if case == "no-cover-pool" else "below target") in got[1]
        unhosted = {"no-room-up-to-j_max": 5000, "j_max-after-first-stage": 2853, "every-cover-hosted": 0}
        assert layout is not None or case == "no-cover-pool" or f"({unhosted[case]} cover balls unhosted" in got[1]
        return
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    centers, radii, js, mass = got
    assert mass >= kw["target"] and mass == want[3]
    if layout is None:
        stages = sorted(set(js.tolist()))
        assert stages == ([2**21, 2**22] if case == "second-stage-hosts-the-rest" else [2**21])


def test_distinct_reads_runs():
    rng = np.random.default_rng(5)
    for col in (
        np.repeat(rng.integers(0, 9, 40), rng.integers(1, 6, 40)),
        np.repeat(rng.choice([0.5, 0.25, 1e-9, 3.0], 30), rng.integers(1, 4, 30)),
        np.array([2, 2, 1, 1, 2]),
        np.empty(0),
    ):
        assert np.array_equal(_distinct(col), np.unique(col))
        assert _distinct(col).dtype == np.unique(col).dtype


def test_stage_radii_one_call_per_stage(audit_tree):
    params, tree = audit_tree
    loc = tree.level
    calls = []
    stages = types.SimpleNamespace(upsilon=lambda j: calls.append(j) or params.stages.upsilon(j))
    got = _stage_radii(stages, loc.a_j)
    assert sorted(calls) == sorted(set(loc.a_j.tolist()))
    assert np.array_equal(got, np.array([params.stages.upsilon(int(j)) for j in loc.a_j]))
    assert _stage_radii(stages, np.empty(0, dtype=np.int64)).shape == (0,)


def _window_loop(cloud, u, centers, half_widths):
    """Per-window merged length of the cloud points' u-intervals: the loop
    ``_neighborhood_in_window`` ran when the intervals overlap."""
    out = np.empty(len(centers))
    for t, (c, w) in enumerate(zip(centers, half_widths)):
        p = cloud[np.searchsorted(cloud, c - w - u) : np.searchsorted(cloud, c + w + u)]
        a = np.clip(p - u, c - w, c + w)  # p is sorted, so the starts are too
        b = np.clip(p + u, c - w, c + w)
        prev = np.concatenate([[-np.inf], np.maximum.accumulate(b)[:-1]])
        out[t] = np.sum(np.clip(b - np.maximum(a, prev), 0.0, None))
    return out


def test_neighborhood_in_window_overlapping_intervals():
    # 2u >= gap: one merged union serves every window, including empty
    # windows and windows over both ends of the cloud
    rng = np.random.default_rng(31)
    cloud = np.sort(rng.uniform(0.0, 1.0, size=300))
    gap = float(np.min(np.diff(cloud)))
    centers = np.concatenate([rng.uniform(-0.1, 1.1, size=40), [cloud[0], cloud[-1], -0.5, 1.5]])
    half = np.concatenate([rng.exponential(0.05, size=40), [0.01, 0.02, 0.1, 0.1]])
    for u in (gap / 2, 0.002, 0.05):
        assert not _points_disjoint(cloud, u)
        got = _neighborhood_in_window(cloud, u, centers, half, False)
        np.testing.assert_allclose(got, _window_loop(cloud, u, centers, half), rtol=1e-12, atol=1e-15)
        assert np.array_equal(got[-2:], [0.0, 0.0])
        assert got[-4] > 0 and got[-3] > 0
    disjoint = _points_disjoint(cloud, 0.01)
    outside = _neighborhood_in_window(cloud, 0.01, np.array([-0.5, 1.5]), np.array([0.1, 0.1]), disjoint)
    assert np.array_equal(outside, [0.0, 0.0])
    assert _neighborhood_in_window(cloud, 0.01, np.empty(0), np.empty(0), disjoint).shape == (0,)


def _window_cases(points, u, rng):
    """Centers and half-widths of windows over the sorted ``points``: random
    windows of up to a few points, empty windows between neighbours,
    one-point windows, windows ending on p + u or p - u of some point p, and
    windows past either end of the cloud."""
    h = float(np.min(np.diff(points)))
    k = rng.integers(5, len(points) - 6, 60)
    m = rng.integers(0, 5, 60)
    c = [rng.uniform(points[0] - 4 * h, points[-1] + 4 * h, 300), (points[k] + points[k + 1]) / 2, points[k]]
    w = [rng.uniform(0.0, 4 * h, 300), np.full(60, 0.25 * (h - 2 * u)), np.full(60, 0.5 * u)]
    # ends on p +- u: a window about a point reaching m points past it,
    # and one stopping u short of the m-th point; then windows whose left
    # end is p + u and whose right end is q - u
    c += [points[k], points[k], (points[k] + u + points[k + m + 1] - u) / 2]
    w += [points[k + m] - points[k] + u, points[k + m + 1] - points[k] - u, (points[k + m + 1] - points[k] - 2 * u) / 2]
    c += [np.array([points[0] - 2 * h, points[-1] + 2 * h, points[0] - 100 * h, points[-1] + 100 * h])]
    w += [np.array([3 * h, 3 * h, h, h])]
    return np.concatenate(c), np.concatenate(w)


def _clouds_and_radii():
    """(cloud, u) pairs on grid views, their arrays and a random sorted
    array, with u at a tenth, 0.45 and just below half the smallest gap."""
    rng = np.random.default_rng(77)
    out = []
    for view in (GridView(-1.0, 1.0, 1000), GridView(83.0, 85.0, 4096)):
        h = (view.hi - view.lo) / view.size
        # below the spacing less _points_disjoint's rounding margin
        for u in (0.1 * h, 0.45 * h, 0.5 * h * (1 - 1e-9)):
            out += [(view, u), (np.asarray(view), u)]
    plain = np.unique(rng.uniform(60.0, 62.0, 600))
    gap = float(np.min(np.diff(plain)))
    out += [(plain, u) for u in (0.1 * gap, 0.45 * gap, np.nextafter(gap / 2, 0.0))]
    return out


@pytest.mark.parametrize("case", range(len(_clouds_and_radii())))
def test_window_lengths_match_row_oracle(case):
    # the closed form against the per-row kernel: equal up to two points a
    # window reaches, within n eps of it above
    cloud, u = _clouds_and_radii()[case]
    assert _points_disjoint(cloud, u)
    centers, half = _window_cases(np.asarray(cloud), u, np.random.default_rng(case))
    got = _neighborhood_in_window(cloud, u, centers, half, True)
    want = window_rows(cloud, u, centers, half)
    n = cloud.searchsorted(centers + half + u) - cloud.searchsorted(centers - half - u)
    assert {0, 1, 2} <= set(n.tolist()) and n.max() >= 5
    few = n <= 2
    assert np.array_equal(got[few], want[few])
    assert np.all(np.abs(got - want) <= n * np.finfo(float).eps * want)


def test_window_second_point_short_of_2u():
    # coordinates crossing -1, where the spacing halves: lo - u rounds onto
    # the first point from above, so the second point, the first reached
    # in full on a grid, lies less than u inside lo and adds 6.25h, not 2u
    h = 2.0**-53
    cloud = -1.0 + h * np.array([-2.0, 5.0, 12.0, 19.0, 26.0])
    u = 3.25 * h
    centers, half = np.array([-1.0 + 18 * h]), np.array([16 * h])
    assert _points_disjoint(cloud, u)
    assert centers - half - u == cloud[0]
    got = _neighborhood_in_window(cloud, u, centers, half, True)
    want = window_rows(cloud, u, centers, half)
    assert want[0] == 6.25 * h + 3 * 2 * u
    assert abs(got[0] - want[0]) <= 5 * np.finfo(float).eps * want[0]


def test_window_lengths_cost_o_windows(monkeypatch):
    # windows spanning 1,000 grid points each: the audit computes a few grid
    # elements per window, not one per point it spans
    grid = GridView(-1.0, 1.0, 2**20)
    h = 2.0 / 2**20
    u = 0.25 * h
    centers = grid[np.arange(300) * 3000 + 1500]
    half = np.full(300, 500 * h)
    computed = []
    at = GridView._at
    monkeypatch.setattr(GridView, "_at", lambda self, k: computed.append(np.size(k)) or at(self, k))
    got = _neighborhood_in_window(grid, u, centers, half, True)
    assert sum(computed) <= 8 * len(centers)
    np.testing.assert_allclose(got, 1000 * 2 * u, rtol=1e-12)

    # so does the whole audit of a level whose selection balls span them
    stages = GridCloudStages(lo=-1.0, hi=1.0, plateaus=((2**20, u),), j_max=2**21)
    params = ConstructionParams(domain=Ball(np.array([0.0]), 1.0), gauges=SQRT_PAIR, eta=2.0, stages=stages)
    loc = _local(centers, 500 * h, centers, u, np.arange(300))
    loc.a_j[:] = loc.c_j[:] = 2**20
    tree = CantorTree(root=params.domain, constants=_ambient_constants(params), level=loc)
    computed.clear()
    verify_levels(tree, params)
    assert sum(computed) <= 16 * (len(loc.a_center) + len(loc.c_center))
    monkeypatch.undo()
    _assert_audits_equal(tree, params)


def _assert_audits_equal(tree, params):
    """``verify_levels`` and the row oracle agree on every verdict and
    violation, and on ``p2_details`` within 1e-12 relative."""
    got, want = verify_levels(tree, params), verify_levels_rows(tree, params)
    assert got.properties.keys() == want.properties.keys()
    for name, w in want.properties.items():
        g = got.properties[name]
        assert (g.passed, g.violations) == (w.passed, w.violations), name
        assert g.details.keys() == w.details.keys()
        for key, v in w.details.items():
            assert g.details[key] == pytest.approx(v, rel=1e-12, abs=0), key
    return got


def _faulty(tree, fault):
    """A copy of the tree with one fault injected, as the acceptance and
    fault-injection tests inject them."""
    t = copy.deepcopy(tree)
    loc = t.level
    if fault == "colliding":
        loc.c_center[5] = loc.c_center[6]
    elif fault == "dilated":
        loc.c_radius[5] *= 3.0
    elif fault == "sublevel-count":
        loc.l_b = 1
    elif fault == "inflated-deep":
        loc.c_radius[np.nonzero(loc.c_sublevel == 2)[0][0]] = float(np.max(loc.c_radius))
    return t


@pytest.mark.parametrize("fault", [None, "colliding", "dilated", "sublevel-count", "inflated-deep"])
def test_audit_matches_row_oracle_on_the_audit_tree(audit_tree, fault):
    params, tree = audit_tree
    report = _assert_audits_equal(_faulty(tree, fault), params)
    assert report.ok == (fault is None)


@pytest.mark.parametrize("which", ["holder_eta2", "holder_eta4", "holder_eta8", "greedy_nets"])
def test_audit_matches_row_oracle(which):
    if which == "greedy_nets":
        # the golden variant cantor_audit_greedy_nets: target balls are a
        # greedy net of each selection ball's slice, every other grid point
        cfg = bundled_config("cantor_audit.json")
        plateaus = [cfg["stages"]["plateaus"][0], [32768, 0.00022], cfg["stages"]["plateaus"][2]]
        params = cantor_params(cfg, stages={**cfg["stages"], "plateaus": plateaus})
    else:
        params = cantor_params("cantor_holder.json", eta=float(which[len("holder_eta"):]))
    assert _assert_audits_equal(build_cantor(params), params).ok


def test_overlap_sweep_breaks_center_ties_in_row_order():
    # tied centers of unequal radii: the ball after a tie's left neighbour
    # is the tie's first row, so the overlaps reported do not depend on a
    # sort's tie order
    rng = np.random.default_rng(0)
    centers = np.round(rng.uniform(-3.0, 3.0, 400), 2)
    radii = np.exp(rng.uniform(math.log(1e-4), math.log(0.4), 400))
    order = sorted(range(400), key=lambda i: centers[i])  # a stable sort
    want = [
        float(centers[a]) for a, b in zip(order[:-1], order[1:])
        if centers[b] - centers[a] < 3.0 * (radii[b] + radii[a]) * (1 - cantor.AUDIT_RTOL)
    ]
    assert _overlapping_dilates(centers, radii).tolist() == want
    assert len(set(centers.tolist())) < 400


def test_audit_flags_a_leaf_off_its_stage(audit_tree, monkeypatch):
    params, tree = audit_tree
    loc = tree.level
    k = len(loc.c_center) // 2
    j = int(loc.c_j[k])
    tol = max(1e-12, 1e-9 * params.stages.upsilon(j))
    cloud = params.stages.sorted_points(j)
    nearest_sizes = []
    nearest = cantor._nearest
    monkeypatch.setattr(cantor, "_nearest", lambda cl, x: nearest_sizes.append(len(x)) or nearest(cl, x))
    assert _assert_audits_equal(tree, params).ok
    assert nearest_sizes == []  # every leaf passes on its guessed index

    i = int(cloud.nearest_index(loc.c_center[k]))
    assert cloud[i] == loc.c_center[k]
    for center in (loc.c_center[k] + 2 * tol, (cloud[i] + cloud[i + 1]) / 2):  # off by 2 tol; a grid midpoint
        t = copy.deepcopy(tree)
        t.level.c_center[k] = center
        nearest_sizes.clear()
        report = _assert_audits_equal(t, params)
        assert ("center-off-stage", j) in report.properties["P2"].violations
        assert nearest_sizes == [1]  # only the moved leaf is sent to the nearest-point search
