import contextlib
import copy
import importlib.resources as resources
import importlib.util
import io
import json
import math
import operator
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from lspkit import cli, covering, errors, measure, randomsim, sets, stages
from lspkit.cantor import tree_from_json
from lspkit.cli import SCHEMAS, bundled_config, main, run

from test_golden import bundled_names, command_of, variant_configs

# a readable JSON file that is not a Cantor tree
_NOT_A_TREE = resources.files("lspkit.configs") / "boxdim_point.json"
# overrides under which the bundled audit's saved tree ({tree}; {tree_2d} is
# the same tree with its root center made 2-D) does not belong to the
# config, and the message that names the first mismatch
_FOREIGN_TREE = [
    (("tree={tree}", "domain.center=[5.0]"), "tree root B([0.0], 20.0) is not the config's domain B([5.0], 20.0)"),
    (("tree={tree}", "domain.radius=85"), "tree root B([0.0], 20.0) is not the config's domain B([0.0], 85.0)"),
    (("tree={tree_2d}", "domain.center=[0.0,0.0]"), "tree holds a center that is not 1-D"),
    (("tree={tree}", "c5=0.5"), "tree constant c5 = 1.2, the config gives 0.5"),
    (("tree={tree}", "pair.f.s=1.5"), "tree case (a) is not the config pair's case (b)"),
    (
        ("tree={tree}", "stages.type=vdc-points"),
        "cannot read tree: ArgumentError: a saved tree is read against point-cloud stages, and these have no clouds",
    ),
    (
        ("tree={tree}", "stages.lo=-19", "stages.hi=21"),
        "cannot read tree: ArgumentError: tree grid [-20.0, 20.0] is not the config's stage grid [-19.0, 21.0]",
    ),
]
# edited copies of the bundled audit's saved tree: each placeholder's edit of
# (tree, its local level), and the reason ``cannot read tree`` gives
# for refusing it (None: the copy reads, and belongs to another config)
_EDITED_TREES = {
    "{tree_2d}": (lambda t, loc: t["root"].update(center=[0.0, 0.0]), None),
    "{tree_v1}": (lambda t, loc: t.pop("format"), "tree format None: this version reads format 5 only"),
    "{tree_v2}": (
        lambda t, loc: t.update(format=2),
        "tree format 2: this version reads format 5 only; rebuild the tree",
    ),
    # the format-3 layout: one local level in a list of lists, naming its parent ball
    "{tree_v3}": (
        lambda t, loc: t.update(format=3, levels=[[{**t.pop("level"), "parent_level": 1, "parent_index": 0}]]),
        "tree format 3: this version reads format 5 only; rebuild the tree",
    ),
    "{tree_v4}": (
        lambda t, loc: t.update(format=4),
        "tree format 4: this version reads format 5 only; rebuild the tree",
    ),
    "{tree_index_negative}": (
        lambda t, loc: operator.setitem(loc["a"]["index"][0], 0, -1),
        "a index lies outside its stage-4096 cloud",
    ),
    # the first target ball sits on its owner's index plus the 4,096 points of its cloud
    "{tree_index_past_cloud}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["first"][0], 0, 4096),
        "c index lies outside its stage-4096 cloud",
    ),
    # the deep selection balls' indices into the stage-2097152 cloud, read
    # against the stage-4096 one
    "{tree_j_edited}": (
        lambda t, loc: operator.setitem(loc["a"]["j"][0], 1, 4096),
        "a index lies outside its stage-4096 cloud",
    ),
    "{tree_first_float}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["first"][0], 1, 3.7),
        "c group first is not a list of integers",
    ),
    "{tree_radius_string}": (
        lambda t, loc: operator.setitem(loc["c"]["radius"][0], 1, "2.7e-09"),
        "c radius is not a list of numbers",
    ),
    "{tree_j_length_zero}": (
        lambda t, loc: operator.setitem(loc["a"]["j"][1], 0, 0),
        "a j lengths are not one positive length per value",
    ),
    "{tree_radius_short}": (
        lambda t, loc: operator.setitem(loc["a"]["radius"][1], 1, 23_555),
        "a radius holds 23810 entries for 23811 a-balls",
    ),
    "{tree_sublevel_long}": (
        lambda t, loc: operator.setitem(loc["c"]["sublevel"][1], 1, 70_669),
        "c sublevel holds 70924 entries for 70923 c-balls",
    ),
    "{tree_owner_past}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["owner"][0], 0, 2),
        "c group owner is not one of the 23811 a-balls",
    ),
    "{tree_count_zero}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["count"][0], 0, 0),
        "c group counts are not positive",
    ),
    # 100 one-child groups, where the c block's columns hold 70,923 balls
    "{tree_counts_short}": (
        lambda t, loc: loc["c"].update(groups={"owner": [[1], [100]], "first": [[0], [100]], "count": [[1], [100]]}),
        "c sublevel holds 70923 entries for 100 c-balls",
    ),
    "{tree_group_columns}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["owner"][1], 0, 23_812),
        "c group columns have unequal lengths",
    ),
    "{tree_run_length_zero}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["first"][1], 0, 0),
        "c group first lengths are not one positive length per value",
    ),
    # no built local level holds more than cantor.MAX_NODES target balls
    "{tree_run_too_long}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["count"][1], 1, 10**12),
        "c group count lengths are not one positive length per value, at most 2000000 in all",
    ),
    "{tree_count_huge}": (
        lambda t, loc: operator.setitem(loc["c"]["groups"]["count"][0], 1, 10**9),
        "c group counts are not positive, at most 2000000 in all",
    ),
    "{tree_group_pair}": (
        lambda t, loc: loc["c"]["groups"]["count"].pop(),
        "c group count is not a [values, lengths] pair",
    ),
    "{tree_constants}": (lambda t, loc: t.update(constants=[]), "tree constants are not an object"),
}
# a 1-D attractor whose first-level hulls [0, 0.3] and [0.2, 0.5] overlap (the third is [0.8, 1])
_OVERLAPPING = (
    'model.maps=[{"ratio":0.3,"translation":[0.0]},{"ratio":0.3,"translation":[0.2]},'
    '{"ratio":0.2,"translation":[0.8]}]'
)

# a tilted 5-plane in R^13, each basis row (0.6, 0.8) on its own pair of axes
_WIDE_PLANE = {
    "variant": "plane",
    "base": [0.0] * 13,
    "basis": [[0.0] * (2 * j) + [0.6, 0.8] + [0.0] * (11 - 2 * j) for j in range(5)],
}

# the bundled middle-third Cantor set with its first map's rotation misspelt
_MISSPELT_MAP = (
    'model.maps=[{"ratio":0.3333333333333333,"translation":[0.0],"rotaton":[[1.0]]},'
    '{"ratio":0.3333333333333333,"translation":[0.6666666666666666]}]'
)

# the cover_kgb_grid_cloud pin: the bundled audit's grid stages and pair on
# the bundled K_{G,B} selection
_GRID_KGB = tuple(f"{key}={json.dumps(value)}" for key, value in {
    **{key: bundled_config("cantor_audit.json")[key] for key in ("stages", "pair")},
    "region": {"center": [0.0], "radius": 20.0}, "g_start": 512, "j_max": 2**24, "c5": 1.2,
}.items())
# a first plateau start of 401 digits
_HUGE_START = "1" + "0" * 400
# grid stages GridCloudStages cannot serve (a plateau start below 1, not an
# integer or past j_max, a plateau radius of 0 or below, lo >= hi), each
# with the words that name the refused field
_GRID_STAGE_REFUSALS = [
    ("cantor-build", "cantor_audit.json", "stages.plateaus=[[-1,0.02],[4096,0.00022],[2097152,2.7e-09]]",
     "stages.plateaus[0][0]: -1, at least 1"),
    ("cantor-build", "cantor_audit.json", "stages.plateaus=[[-5,0.02]]", "stages.plateaus[0][0]: -5, at least 1"),
    ("cover", "cover_kgb_vdc.json", (*_GRID_KGB, "stages.plateaus=[[-5,0.02]]"), "stages.plateaus[0][0]: -5, at least 1"),
    ("cantor-build", "cantor_audit.json", "stages.plateaus=[[0,0.02]]", "stages.plateaus[0][0]: 0, at least 1"),
    ("cantor-build", "cantor_audit.json", "stages.plateaus=[[0.5,0.02]]", "stages.plateaus[0][0]: 0.5, of type integer"),
    ("cover", "cover_kgb_vdc.json", (*_GRID_KGB, "stages.plateaus=[[0.5,0.02]]"),
     "stages.plateaus[0][0]: 0.5, of type integer"),
    ("cantor-build", "cantor_audit.json", "stages.plateaus=[[512,-0.02]]", "stages.plateaus[0][1]: -0.02, above 0"),
    ("cantor-build", "cantor_audit.json", "stages.plateaus=[[512,0]]", "stages.plateaus[0][1]: 0, above 0"),
    ("cover", "cover_kgb_vdc.json", (*_GRID_KGB, "stages.plateaus=[[512,0]]"), "stages.plateaus[0][1]: 0, above 0"),
    ("cantor-build", "cantor_audit.json", "stages.plateaus=[[20000000,0.02]]",
     "stages.plateaus first start 20000000 lies past stages.j_max 16777216"),
    ("cantor-build", "cantor_audit.json", f"stages.plateaus=[[{_HUGE_START},0.02]]",
     "stages.plateaus first start of 401 digits lies past stages.j_max 16777216"),
    ("cantor-build", "cantor_audit.json", ("stages.lo=20", "stages.hi=-20"), "stages lo 20.0 and hi -20.0 must be"),
    ("cantor-build", "cantor_audit.json", ("stages.lo=20", "stages.hi=20"), "stages lo 20.0 and hi 20.0 must be"),
    ("cover", "cover_kgb_vdc.json", (*_GRID_KGB, "stages.lo=20", "stages.hi=-20"), "stages lo 20.0 and hi -20.0 must be"),
    ("cover", "cover_kgb_vdc.json", (*_GRID_KGB, "stages.lo=20", "stages.hi=20"), "stages lo 20.0 and hi 20.0 must be"),
]


@pytest.fixture(scope="module")
def saved_trees(tmp_path_factory):
    """Paths of the bundled audit's saved tree and of its edited copies
    (``_EDITED_TREES``)."""
    out = tmp_path_factory.mktemp("audit")
    cfg = {**bundled_config("cantor_audit.json"), "holder_trials": 0, "save_tree": True}
    assert run("cantor-build", cfg, out_dir=out)[0] == 0
    text = (out / "tree.json").read_text()
    paths = {"{tree}": str(out / "tree.json")}
    for key, (edit, _) in _EDITED_TREES.items():
        tree = json.loads(text)
        edit(tree, tree["level"])
        path = out / f"{key.strip('{}')}.json"
        path.write_text(json.dumps(tree))
        paths[key] = str(path)
    return paths


def test_saved_audit_tree_fits_its_byte_budget(saved_trees):
    # the steps between the selection balls' cloud indices take 25,681
    # bytes, every other column a few hundred (with the indices listed one
    # per ball, the tree took 193,973 bytes; with a per-ball index and
    # a-ball column, 1,250,954)
    assert Path(saved_trees["{tree}"]).stat().st_size <= 30_000


def test_audit_build_with_saved_tree_stays_small(tmp_path):
    # no stage cloud, cover pool or whole-tree list is held; holding them, the
    # bundled audit with its tree write peaks at 42.6 MB traced
    cfg = {**bundled_config("cantor_audit.json"), "save_tree": True}
    tracemalloc.start()
    try:
        code, _ = run("cantor-build", cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 20e6
    with open(tmp_path / "tree.json") as fh:
        loc = tree_from_json(json.load(fh), cli._cantor_params(cfg).stages).level
    assert (len(loc.a_center), len(loc.c_center)) == (23_811, 70_923)


def _set_args(overrides, trees=None):
    """``--set`` arguments, with the saved-tree placeholders filled in."""
    args = []
    for ov in overrides:
        for key, path in (trees or {}).items():
            ov = ov.replace(key, path)
        args += ["--set", ov]
    return args


def test_transform_report():
    code, report = run("transform", bundled_config("transform_demo.json"))
    assert code == 0
    assert report["results"]["transformed_radius"] == pytest.approx(0.2, rel=1e-9)
    assert report["results"]["corollary_exponent"] == pytest.approx(0.5)


def test_fit_lsp_bundled_cantor():
    code, report = run("fit-lsp", bundled_config("fit_lsp_cantor.json"))
    assert code == 0
    kappa = report["results"]["fit"]["kappa_hat"]
    assert 0.58 <= kappa <= 0.68


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["transform", "--config", str(tmp_path / "nope.json")]) == 2


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "covering-exponent"}))  # misses master_seed
    assert main(["randsim", "--config", str(bad)]) == 2


_GASKET = {"variant": "ifs", "maps": [{"ratio": 0.5, "translation": t} for t in ([0, 0], [0.5, 0], [0.25, 0.5])]}


@pytest.mark.parametrize(
    "base, code, err",
    [
        ({"variant": "polyline", "vertices": [[0.1, 0.1], [0.5, 0.7], [0.9, 0.2]]}, 0, ""),
        (_GASKET, 2, "validation error: randsim cannot measure an IFS attractor on the torus: a base may be a point "
                     "set, a plane, a circle, a sphere or a polyline\n"),
        (
            {"variant": "plane", "base": [0.0, 0.5], "basis": [[math.cos(1.0), math.sin(1.0)]]},
            2,
            "validation error: randsim cannot measure a tilted plane of dimension 1 in dimension 2 on the "
            "torus: only coordinate planes and hyperplanes whose normal is an integer vector with entries "
            "of at most 64 are exact\n",
        ),
        (
            {"variant": "circle", "center": [0.5, 0.5], "radius": 1.6},
            2,
            "validation error: randsim cannot measure a circle whose window is 3.2 wide on the torus: "
            "a window side may be at most 3\n",
        ),
    ],
    ids=["polyline", "ifs", "irrational-line", "circle-r1.6"],
)
def test_bc_diagnostic_on_a_2d_base(capsys, base, code, err):
    overrides = [f"scheme.base={json.dumps(base)}", "x=[0.3,0.3]", "N=50"]
    assert main(["randsim", "--config", "bundled:randsim_bc.json"] + _set_args(overrides)) == code
    assert capsys.readouterr().err == err


def test_bc_diagnostic_refuses_a_3d_tilted_line_before_drawing(monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(randomsim, "stage_uniforms", no_draws)
    base = {"variant": "plane", "base": [0.0, 0.0, 0.0], "basis": [[0.6, 0.8, 0.0]]}
    overrides = [f"scheme.base={json.dumps(base)}", "x=[0.3,0.3,0.3]"]
    assert main(["randsim", "--config", "bundled:randsim_bc.json"] + _set_args(overrides)) == 2
    assert capsys.readouterr().err.startswith(
        "validation error: randsim cannot measure a tilted plane of dimension 1 in dimension 3 on the torus"
    )


@pytest.mark.parametrize(
    "base, n, err",
    [
        ({"variant": "points", "points": [[0.5] * 17]}, 17,
         "a point set in dimension 17 on the torus: a base may have at most 16 dimensions"),
        ({"variant": "polyline", "vertices": [[0.0] * 7, [0.5] * 7]}, 7,
         "a polyline in dimension 7 whose window takes 2187 unit shifts on the torus: at most 1024"),
    ],
    ids=["points-r17", "polyline-r7"],
)
def test_randsim_refuses_a_base_it_cannot_hold(monkeypatch, capsys, base, n, err):
    monkeypatch.setattr(randomsim, "stage_uniforms", None)  # refused before any stage is drawn
    overrides = [f"scheme.base={json.dumps(base)}", f"x={json.dumps([0.3] * n)}"]
    assert main(["randsim", "--config", "bundled:randsim_bc.json"] + _set_args(overrides)) == 2
    assert capsys.readouterr().err == f"validation error: randsim cannot measure {err}\n"


@pytest.mark.parametrize(
    "config, args",
    [([1, 2], ["--seed", "3"]), ([1, 2], ["--set", "a=1"]), ("x", ["--seed", "3"])],
    ids=["list-seed", "list-set", "string-seed"],
)
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, config, args):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["transform", "--config", str(path)] + args) == 2
    assert capsys.readouterr().err == "validation error: transform: config is not a JSON object\n"


@pytest.mark.parametrize(
    "command, name, drop, override",
    [
        ("cover", "cover_kgb_vdc.json", "stages", None),
        ("cover", "cover_kgb_vdc.json", "region", None),
        ("cover", "cover_caj_line.json", "model", None),
        ("cover", "cover_caj_line.json", "region", None),
        ("cover", "cover_caj_line.json", "upsilon", None),
        ("randsim", "randsim_points_tau2.json", "N_list", None),
        ("randsim", "randsim_bc.json", "rules", None),
        ("randsim", "randsim_bc.json", None, "N=0"),
        ("randsim", "randsim_bc.json", None, "J=0"),
        ("randsim", "randsim_bc.json", None, "J=500"),
        ("randsim", "randsim_bc.json", None, "trials=abc"),
        ("randsim", "randsim_bc.json", None, "x=[0.3,0.2]"),
        # a point x of no dimension; the base's is 1
        ("randsim", "randsim_bc.json", None, "x=[]"),
        ("randsim", "randsim_points_tau2.json", None, "scheme.s=0"),
        ("boxdim", "boxdim_sierpinski.json", None, "samples_per_scale=0"),
        ("boxdim", "boxdim_sierpinski.json", None, "samples_per_scale=-5"),
        ("minkowski", "minkowski_segment.json", None, "samples_per_scale=0"),
        ("randsim", "randsim_lines_tau2.json", None, "scheme.base.basis=[[0.7071067811865476,0.7071067811865476]]"),
        ("cantor-verify", "cantor_audit.json", None, "tree=/nonexistent/tree.json"),
        ("cantor-verify", "cantor_audit.json", None, f"tree={_NOT_A_TREE}"),
        ("cantor-build", "cantor_holder.json", None, "depth=1"),
        ("randsim", "randsim_bc.json", None, "master_seed=-1"),
        ("randsim", "randsim_points_tau2.json", None, f"master_seed={2**64}"),
        ("fit-lsp", "fit_lsp_line.json", None, "master_seed=-3"),
        ("boxdim", "boxdim_segment.json", None, "master_seed=-3"),
        ("cover", "cover_five_r.json", None, f"master_seed={2**64}"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.05,0.01]"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.01]"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.0,0.01]"),
        ("cover", "cover_five_r.json", None, "radius_range=[0.01,Infinity]"),
        ("cover", "cover_five_r.json", None, "dim=0"),
        ("cover", "cover_five_r.json", None, "dim=17"),
        ("cover", "cover_five_r.json", None, "count=0"),
        ("cover", "cover_five_r.json", None, "count=10001"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=abc"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=[1]"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=-1"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=1000001"),
        ("cantor-build", "cantor_audit.json", None, "holder_trials=999"),
        ("boxdim", "boxdim_sierpinski.json", None, "metric=taxicab"),
        ("fit-lsp", "fit_lsp_line.json", None, "metric=Sup"),
        ("minkowski", "minkowski_segment.json", None, "metric=l1"),
        ("cover", "cover_five_r.json", None, "metric=taxicab"),
        ("boxdim", "boxdim_sierpinski.json", None, "scales=[0.12,0.06,0.03,NaN]"),
        ("boxdim", "boxdim_sierpinski.json", None, "scales=[0.12,0.06,0.03,Infinity]"),
        ("boxdim", "boxdim_sierpinski.json", None, "scales=[0.12,0.06,0.03,0]"),
        ("boxdim", "boxdim_sierpinski.json", None, "scales=[0.12,0.06,0.03,-0.001]"),
        ("fit-lsp", "fit_lsp_line.json", None, "grids.r=[0.5,0.25,0.125,NaN]"),
        ("fit-lsp", "fit_lsp_line.json", None, "grids.delta_ratios=[0.5,0.25,0.125,-Infinity]"),
        ("minkowski", "minkowski_segment.json", None, "dimension=NaN"),
        ("minkowski", "minkowski_segment.json", None, "scales=[0.1,0.01,0.001,0]"),
        ("fit-lsp", "fit_lsp_line.json", None, "model.extent=NaN"),
        ("boxdim", "boxdim_sierpinski.json", None, "samples_per_scale=1e15"),
        ("boxdim", "boxdim_sierpinski.json", None, "samples_per_scale=1000001"),
        ("minkowski", "minkowski_segment.json", None, "samples_per_scale=1000001"),
        ("fit-lsp", "fit_lsp_line.json", None, "grids.samples=1e15"),
        ("fit-lsp", "fit_lsp_line.json", None, "grids.centers_per_cell=17"),
        # an override path through a value that is not an object
        ("boxdim", "boxdim_sierpinski.json", None, "scales.foo=1"),
        ("boxdim", "boxdim_point.json", None, "model.variant.x=1"),
        # the keys cover reads
        ("cover", "cover_caj_line.json", None, "region.radius=abc"),
        ("cover", "cover_caj_line.json", None, "region.center=abc"),
        ("cover", "cover_caj_line.json", None, "model=5"),
        ("cover", "cover_caj_line.json", None, "upsilon=-0.01"),
        ("cover", "cover_caj_line.json", None, "pool=abc"),
        ("cover", "cover_caj_line.json", None, "pool=99"),
        ("cover", "cover_kgb_vdc.json", None, "stages=5"),
        ("cover", "cover_kgb_vdc.json", None, "stages.type=grid-cloud"),
        ("cover", "cover_kgb_vdc.json", None, "pair=5"),
        ("cover", "cover_kgb_vdc.json", None, "g_start=0"),
        ("cover", "cover_kgb_vdc.json", None, "j_max=abc"),
        ("cover", "cover_kgb_vdc.json", None, "target_fraction=abc"),
        ("cover", "cover_kgb_vdc.json", None, "c5=abc"),
        # a region whose dimension differs from the set's or the stages'
        ("cover", "cover_caj_line.json", None, "region.center=[0.3]"),
        ("cover", "cover_kgb_vdc.json", None, "region.center=[0.5,0.5]"),
        # the keys cantor-build reads
        ("cantor-build", "cantor_audit.json", None, "domain.radius=abc"),
        ("cantor-build", "cantor_audit.json", None, "stages.lo=abc"),
        ("cantor-build", "cantor_audit.json", None, "stages.plateaus=[[512]]"),
        ("cantor-build", "cantor_audit.json", None, "g_floor=abc"),
        ("cantor-build", "cantor_audit.json", None, "c5=0"),
        ("cantor-build", "cantor_audit.json", None, "save_tree=abc"),
        # the construction constants, fixed in the library, at the values they were fixed at
        ("cantor-build", "cantor_audit.json", None, "d2=2.0"),
        ("cantor-build", "cantor_audit.json", None, "pump_total=5.0"),
        ("cantor-build", "cantor_audit.json", None, "holder_mass_factor=2.5"),
        ("cantor-build", "cantor_audit.json", None, "stages.gamma=0.04"),
        ("cover", "cover_kgb_vdc.json", None, "stages.radius_exponent=1.0"),
        ("cover", "cover_kgb_vdc.json", None, "stages.radius_scale=1.0"),
        # a top-level key no command reads
        ("boxdim", "boxdim_sierpinski.json", None, "samples_per_scael=5"),
        ("fit-lsp", "fit_lsp_cantor.json", None, "grid=5"),
        ("randsim", "randsim_bc.json", None, "rule=5"),
        ("cantor-verify", "cantor_audit.json", None, ("tree={tree}", "treee=x")),
        ("cantor-verify", "cantor_audit.json", None, ("tree={tree}", "depth=2")),
        # a nested key no command reads
        ("boxdim", "boxdim_point.json", None, "model.foo=1"),
        ("fit-lsp", "fit_lsp_point.json", None, "grids.sample=5"),
        ("randsim", "randsim_bc.json", None, "scheme.tauu=2"),
        ("cantor-build", "cantor_audit.json", None, "domain.radiuss=3"),
        ("cantor-build", "cantor_audit.json", None, "pair.f.ss=0.5"),
        ("cantor-build", "cantor_audit.json", None, "stages.hii=20"),
        ("cover", "cover_kgb_vdc.json", None, "region.centre=[0.5]"),
        ("minkowski", "minkowski_cantor.json", None, _MISSPELT_MAP),
        ("randsim", "randsim_bc.json", None, 'rules=[{"name":"inverse","exponent":1.0,"exp":2.0}]'),
        # keys randsim reads, typed
        ("randsim", "randsim_points_tau2.json", None, "N_list=[64,0,256,512]"),
        ("randsim", "randsim_bc.json", None, 'rules=[{"name":"inverse"}]'),
        # size keys past the bounds that keep a run under about 1 GB
        ("randsim", "randsim_points_tau2.json", None, f"N_list=[64,128,256,{2**22 + 1}]"),
        ("randsim", "randsim_bc.json", None, "N=1000001"),
        ("randsim", "randsim_bc.json", None, "trials=1000001"),
        ("randsim", "randsim_bc.json", None, "rules=" + json.dumps([{"name": "r", "exponent": 1.0}] * 33)),
        ("cover", "cover_caj_line.json", None, "pool=1000001"),
        # a tilted sup-metric plane past the dual zero-set cap: C(13, 6) = 1716
        ("minkowski", "minkowski_segment.json", None, ("samples_per_scale=1000", f"model={json.dumps(_WIDE_PLANE)}")),
        # a 1-D attractor the exact path cannot measure
        ("minkowski", "minkowski_cantor.json", None, _OVERLAPPING),
        ("fit-lsp", "fit_lsp_cantor.json", None, _OVERLAPPING),
        # model and gauge values that raised a traceback before the config fuzzer found them
        ("fit-lsp", "fit_lsp_line.json", None, "model.extent=-1"),
        ("cover", "cover_caj_line.json", None, "model.basis=[[1.0,0.0,0.0]]"),
        ("boxdim", "boxdim_point.json", None, "model.points=[[0.5],[0.1,0.2]]"),
        ("boxdim", "boxdim_segment.json", None, "model.variant=sphere"),
        ("minkowski", "minkowski_cantor.json", None, "model.maps=" + json.dumps([
            {"ratio": 0.3, "translation": [0.0]}, {"ratio": 0.3, "translation": [0.5, 0.5]},
        ])),
        ("minkowski", "minkowski_cantor.json", None, "model.maps=" + json.dumps([
            {"ratio": 0.3, "translation": [0.0], "rotation": [[1.0, 0.0], [0.0, 1.0]]},
            {"ratio": 0.3, "translation": [0.7]},
        ])),
        ("fit-lsp", "fit_lsp_cantor.json", None, "model.maps=" + json.dumps([
            {"ratio": None, "translation": [0.0]}, {"ratio": 0.3, "translation": [0.7]},
        ])),
        ("randsim", "randsim_lines_tau2.json", None, 'scheme.base.base="x"'),
        ("cantor-build", "cantor_holder.json", None, 'pair.g={"kind":"power"}'),
        ("cantor-build", "cantor_holder.json", None, 'pair.f={"kind":"tabulated","samples":[[1.0]]}'),
        # grid stages GridCloudStages cannot serve
        *[(command, name, None, overrides) for command, name, overrides, _ in _GRID_STAGE_REFUSALS],
        # a saved tree verified under parameters that did not build it
        *[("cantor-verify", "cantor_audit.json", None, overrides) for overrides, _ in _FOREIGN_TREE],
        # a saved tree that cannot be read
        *[("cantor-verify", "cantor_audit.json", None, f"tree={key}") for key, (_, why) in _EDITED_TREES.items() if why],
    ],
)
def test_missing_or_invalid_keys_exit_2(request, tmp_path, command, name, drop, override):
    cfg = bundled_config(name)
    cfg.pop(drop, None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    overrides = (override,) if isinstance(override, str) else override or ()
    trees = request.getfixturevalue("saved_trees") if any("{tree" in ov for ov in overrides) else None
    assert main([command, "--config", str(path)] + _set_args(overrides, trees)) == 2


@pytest.mark.parametrize(
    "command, name, overrides, code, message",
    [
        ("randsim", "randsim_points_tau2.json", ["scheme.tau=400"], 2,
         "validation error: box indexing for N=64 exceeds the supported range; lower N"),
        ("transform", "transform_demo.json", ["pair.g.s=0.001", "upsilon=1e10"], 3,
         "numerical failure: non-finite transformed radius"),
        ("transform", "transform_demo.json", ["pair.kappa=0.9999999", "upsilon=0.5"], 3,
         "numerical failure: non-finite intermediate in radius transform"),
        # g(u) = u**2 rounds to 0, and f(u) / g(u)**kappa divides by it
        ("transform", "transform_demo.json", ["pair.g.s=2", "pair.kappa=0.5", "upsilon=1e-300"], 3,
         "numerical failure: non-finite intermediate in radius transform"),
        ("cantor-build", "cantor_audit.json", ["eta=1e308", "holder_trials=0"], 3,
         "numerical failure: P5 sublevel count inf exceeds the budget 64"),
        ("cantor-build", "cantor_audit.json", ["domain.radius=1e-300"], 3,
         "numerical failure: P5 sublevel count 3.33e+301 exceeds the budget 64"),
        ("randsim", "randsim_bc.json", ['rules=[{"name":"a","exponent":-1e300}]'], 2,
         "validation error: rules[0].exponent -1e+300 overflows the radius j**-exponent at j = 2"),
    ],
    ids=["covering-tau", "invert-gauge", "mtp-radius", "g-rounds-to-0", "root-sublevels", "tiny-domain", "power-rule"],
)
def test_float_overflow_exits_with_its_refusal(tmp_path, capsys, command, name, overrides, code, message):
    # a Python float power or floor past the float range is refused by the
    # check its value would have failed, not raised as an OverflowError
    argv = [command, "--config", f"bundled:{name}", "--out", str(tmp_path)] + _set_args(overrides)
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)


def test_heavily_overlapping_attractor_exits_2_on_its_walk_budget(tmp_path, capsys):
    # two maps of ratio 0.9 in the plane overlap (2 * 0.81 > 1): every point
    # near the attractor stays near ever more nodes, and the walk stops at
    # its budget of pairs per point, not after minutes
    cfg = bundled_config("boxdim_sierpinski.json")
    cfg["model"] = {"variant": "ifs", "osc": False,
                    "maps": [{"ratio": 0.9, "translation": [0.0, 0.0]}, {"ratio": 0.9, "translation": [0.1, 0.05]}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    assert main(["boxdim", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "more than 256 cylinder pairs per point" in err and "sum of ratio**2 = 1.62" in err


@pytest.mark.parametrize(
    "model, scales, walks, band",
    [
        # the four-map gasket in R^3 at the bundled gasket scales
        ({"variant": "ifs", "osc": True, "maps": [
            {"ratio": 0.5, "translation": t} for t in ([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5])
        ]}, None, True, (1.4, 2.2)),
        # the bundled gasket down to 1e-7, which reads the triangle tiling's exact sum
        (None, [0.12, 0.06, 0.03, 1e-7], False, (1.4, 2.2)),
        # the gasket at ratio 0.45 (dimension 1.376), outside the tiling class, down to 1e-7
        ({"variant": "ifs", "osc": True, "maps": [
            {"ratio": 0.45, "translation": t} for t in ([0.0, 0.0], [0.55, 0.0], [0.275, 0.55])
        ]}, [0.12, 0.06, 0.03, 1e-7], True, (1.2, 1.6)),
    ],
    ids=["gasket-3d", "scale-1e-7", "scale-1e-7-r0.45"],
)
def test_fine_attractor_scales_run(tmp_path, monkeypatch, model, scales, walks, band):
    # the hit test walks the attractor at any scale; no cut is built or counted
    walked = []

    def cut_hits(*args, **kwargs):
        walked.append(len(args[1]))
        return sets.cut_hits(*args, **kwargs)

    monkeypatch.setattr(measure, "cut_hits", cut_hits)
    cfg = bundled_config("boxdim_sierpinski.json")
    cfg["model"] = model or cfg["model"]
    cfg["scales"] = scales or cfg["scales"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["boxdim", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert bool(walked) == walks
    report = json.loads((tmp_path / "report.json").read_text())
    assert band[0] < report["results"]["lower"]["exponent"] <= report["results"]["upper"]["exponent"] < band[1]


@pytest.mark.parametrize(
    "command, name, override, message",
    [
        ("randsim", "randsim_bc.json", "rules=" + json.dumps([{"name": "r", "exponent": 1.0}] * 34),
         "rules: 34 items, at most 32"),
        ("randsim", "randsim_bc.json", "N=1000001", "N: 1000001, at most 1000000"),
        ("randsim", "randsim_bc.json", 'rules=[{"name": "r", "exponent": "steep"}]',
         'rules[0].exponent: "steep", of type number'),
        ("randsim", "randsim_bc.json", 'rules=[{"name": "r", "exponent": []}]',
         "rules[0].exponent: 0 items, of type number"),
        ("randsim", "randsim_bc.json", "scheme.tau=" + "t" * 50,
         'scheme.tau: "' + "t" * 36 + '..., of type number'),
        # the base gives the scheme's dimension
        ("randsim", "randsim_bc.json", "scheme.n=1",
         "scheme: Additional properties are not allowed ('n' was unexpected)"),
        ("randsim", "randsim_bc.json", "name=r",
         "config: Additional properties are not allowed ('name' was unexpected)"),
        ("cantor-build", "cantor_audit.json", "eta=1", "eta: 1, above 1"),
        # a tree is its root and one local level, so there is no depth to set
        ("cantor-build", "cantor_audit.json", "depth=2",
         "config: Additional properties are not allowed ('depth' was unexpected)"),
        ("randsim", "randsim_bc.json", "mode=x", 'mode: "x", one of ["covering-exponent", "bc-diagnostic"]'),
        ("randsim", "randsim_points_tau2.json", "mode=x", 'mode: "x", one of ["covering-exponent", "bc-diagnostic"]'),
        ("cantor-build", "cantor_audit.json", 'stages.type="grid"',
         'stages.type: "grid", one of ["grid-cloud", "vdc-points"]'),
        ("cover", "cover_five_r.json", "op=x", 'op: "x", one of ["five-r", "caj", "kgb"]'),
        ("cantor-verify", "cantor_audit.json", "eta=2", "config: 'tree' is a required property"),
        ("fit-lsp", "fit_lsp_cantor.json", "grids.r=[0.1,0.2,0.3]", "grids.r: 3 items, at least 4"),
        ("cover", "cover_caj_line.json", 'upsilon={"a": 1}', "upsilon: an object of 1 key, of type number"),
    ],
)
def test_schema_refusals_name_the_path_and_the_bound(capsys, command, name, override, message):
    # the refusal names where the value sits and what its keyword asks, and
    # summarises the value, so a long array or string is not echoed
    assert main([command, "--config", f"bundled:{name}", "--set", override]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {command}: config failed schema validation: {message}\n"


@pytest.mark.parametrize("command, name, overrides, message", _GRID_STAGE_REFUSALS)
def test_grid_stage_refusals_name_the_field(capsys, command, name, overrides, message):
    overrides = (overrides,) if isinstance(overrides, str) else overrides
    assert main([command, "--config", f"bundled:{name}"] + _set_args(overrides)) == 2
    assert message in capsys.readouterr().err


def test_vdc_stage_past_64_bits_exits_2(capsys):
    # a van der Corput point is its stage index's 64 bits reversed
    argv = ["cover", "--config", "bundled:cover_kgb_vdc.json"]
    argv += _set_args([f"g_start={2**64}", f"j_max={2**64}", f"stages.j_max={2**64}"])
    assert main(argv) == 2
    assert capsys.readouterr().err == "validation error: a van der Corput index must lie in [0, 2**64)\n"


@pytest.mark.parametrize("overrides, message", [
    (("j_max=100001",), "j_max 100001 lies past stages.j_max 100000"),
    ((*_GRID_KGB, "j_max=16777217"), "j_max 16777217 lies past stages.j_max 16777216"),
    ((*_GRID_KGB, "stages.j_max=4096", "j_max=8192"), "j_max 8192 lies past stages.j_max 4096"),
], ids=["vdc", "grid", "grid-short"])
def test_kgb_scan_past_its_stage_provider_exits_2(capsys, monkeypatch, overrides, message):
    # a K_{G,B} scan ends at the provider's last stage at the latest; a
    # longer one is refused before any stage is read
    def unread(self, j):
        raise AssertionError(f"stage {j} was read")

    for provider in (stages.VdcPointStages, stages.GridCloudStages):
        monkeypatch.setattr(provider, "sorted_points", unread)
    assert main(["cover", "--config", "bundled:cover_kgb_vdc.json"] + _set_args(overrides)) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize(
    "name, drop, mode, key",
    [
        ("randsim_points_tau2.json", "N_list", None, "N_list"),
        ("randsim_points_tau2.json", "N_list", "covering-exponent", "N_list"),
        ("randsim_bc.json", "rules", "bc-diagnostic", "rules"),
    ],
)
def test_randsim_names_the_key_its_mode_requires(tmp_path, capsys, name, drop, mode, key):
    cfg = bundled_config(name)
    cfg.pop(drop)
    cfg.pop("mode", None)
    if mode is not None:
        cfg["mode"] = mode
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["randsim", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: randsim: config failed schema validation: config: '{key}' is a required property\n"


def test_randsim_reports_the_expected_sum_where_a_hit_law_exists():
    cfg = bundled_config("randsim_bc.json")
    _, report = run("randsim", cfg)
    for rule in cfg["rules"]:
        js = range(cfg["J"], cfg["N"] + 1)
        want = math.fsum(min(1.0, 2 * j ** -rule["exponent"]) for j in js)
        assert report["results"][rule["name"]]["expected_partial_sum"] == pytest.approx(want, rel=1e-12)
    cfg["scheme"]["base"]["points"] = [[0.5], [0.1]]  # several points keep their trials and have no law
    _, report = run("randsim", cfg)
    assert all("expected_partial_sum" not in block for block in report["results"].values())


@pytest.mark.parametrize("overrides, message", _FOREIGN_TREE)
def test_cantor_verify_names_the_first_mismatch(capsys, saved_trees, overrides, message):
    argv = ["cantor-verify", "--config", "bundled:cantor_audit.json"]
    assert main(argv + _set_args(["tree={tree}"], saved_trees)) == 0
    capsys.readouterr()
    assert main(argv + _set_args(overrides, saved_trees)) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize("key, why", [(key, why) for key, (_, why) in _EDITED_TREES.items() if why])
def test_cantor_verify_names_why_a_tree_cannot_be_read(capsys, saved_trees, key, why):
    argv = ["cantor-verify", "--config", "bundled:cantor_audit.json"]
    assert main(argv + _set_args([f"tree={key}"], saved_trees)) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: cannot read tree: ArgumentError: ") and why in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("fit-lsp", bundled_config("fit_lsp_cantor.json")),
        ("minkowski", bundled_config("minkowski_cantor.json")),
        ("boxdim", {k: v for k, v in bundled_config("minkowski_cantor.json").items() if k != "dimension"}),
    ],
    ids=["fit-lsp", "minkowski", "boxdim"],
)
def test_1d_attractors_build_no_cylinder_cut(monkeypatch, tmp_path, command, config):
    # the exact 1-D path reads lengths from the gap structure alone
    def refuse(*args, **kwargs):
        raise AssertionError("cylinder_cut called on a 1-D attractor")

    monkeypatch.setattr(sets, "cylinder_cut", refuse)
    monkeypatch.setattr(measure, "cylinder_cut", refuse)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 0


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schemas_are_valid(command):
    validator_for(SCHEMAS[command]).check_schema(SCHEMAS[command])


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.ToolkitError)],
    ids=operator.attrgetter("__name__"),
)
def test_error_classes_map_to_exit_codes(monkeypatch, capsys, cls):
    # every class the package defines, so that none can miss the mapping
    code = 2 if issubclass(cls, errors.ArgumentError) else 3

    def fail(cfg, rng):
        raise cls("x", achieved_fraction=0.1) if cls is errors.CoverageShortfall else cls("x")

    monkeypatch.setitem(cli.COMMANDS, "transform", fail)
    assert main(["transform", "--config", "bundled:transform_demo.json"]) == code
    prefix = "validation error" if code == 2 else "numerical failure"
    assert capsys.readouterr().err == f"{prefix}: x\n"


def test_perfbench_tracer_installs_and_uninstalls(tmp_path):
    t0 = time.perf_counter()
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = (measure.cKDTree, cli.run, covering.build_kgb)
    cfg = bundled_config("cover_kgb_vdc.json")
    untraced = cli.run("cover", cfg)[1]["results"]
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        traced = cli.run("cover", cfg)[1]["results"]
    finally:
        tr.uninstall()
    assert traced == untraced
    assert tr.totals()["covering.build_kgb"]["calls"] == 1
    assert (measure.cKDTree, cli.run, covering.build_kgb) == originals
    assert time.perf_counter() - t0 < 1.0

    # a traced cantor-build that saves its tree, then a traced cantor-verify
    # of it, each against its untraced run
    originals = (cli.run, cli.tree_to_json, cli.tree_from_json)
    build = {**bundled_config("cantor_audit.json"), "holder_trials": 0, "save_tree": True}
    verify = {**build, "tree": str(tmp_path / "untraced" / "tree.json")}
    untraced = [
        cli.run("cantor-build", build, out_dir=tmp_path / "untraced")[1]["results"],
        cli.run("cantor-verify", verify)[1]["results"],
    ]
    tr = tracer.Tracer()
    try:
        tracer.install(tr)
        traced = [
            cli.run("cantor-build", build, out_dir=tmp_path / "traced")[1]["results"],
            cli.run("cantor-verify", {**verify, "tree": str(tmp_path / "traced" / "tree.json")})[1]["results"],
        ]
    finally:
        tr.uninstall()
    assert traced == untraced
    assert (tmp_path / "traced" / "tree.json").read_bytes() == (tmp_path / "untraced" / "tree.json").read_bytes()
    totals = tr.totals()
    assert totals["cantor.tree_to_json"]["calls"] == totals["cantor.tree_from_json"]["calls"] == 1
    assert totals["cantor.tree_to_json"]["errors"] == totals["cantor.tree_from_json"]["errors"] == 0
    assert (cli.run, cli.tree_to_json, cli.tree_from_json) == originals


def _fresh_run(runs):
    """Run ``(command, config)`` pairs in a fresh interpreter, where no other
    test has imported scipy yet, and return the scipy modules it loaded."""
    script = f"""
import json, sys
sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})
from lspkit.cli import run
for command, cfg in json.loads(sys.stdin.read()):
    assert run(command, cfg)[0] == 0
print(json.dumps(sorted(mod for mod in sys.modules if mod.split(".")[0] == "scipy")))
"""
    out = subprocess.run([sys.executable, "-c", script], input=json.dumps(runs), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_no_bundled_config_loads_scipy():
    # attractors are walked, not put in a KD-tree, so the gasket loads no scipy either
    assert _fresh_run([(command_of(name), bundled_config(name)) for name in bundled_names()]) == []


def test_scipy_loads_with_the_first_kdtree():
    # a point set of more than 64 points is queried on a KD-tree, which loads
    # scipy.spatial; nothing loads scipy.optimize
    grid = {"variant": "points", "points": [[(i + 0.5) / 10, (j + 0.5) / 10] for i in range(10) for j in range(10)]}
    cfg = {**bundled_config("minkowski_point.json"), "model": grid, "samples_per_scale": 1000}
    loaded = _fresh_run([("minkowski", cfg)])
    assert "scipy.spatial" in loaded and "scipy.optimize" not in loaded


def test_kgb_shortfall_exits_3(tmp_path):
    cfg = bundled_config("cover_kgb_vdc.json")
    cfg["target_fraction"] = 0.95
    cfg["j_max"] = 2000
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["cover", "--config", str(path)]) == 3


def test_reports_reproducible_across_threads(tmp_path):
    cfg = bundled_config("randsim_bc.json")
    _, rep1 = run("randsim", cfg, out_dir=tmp_path / "a", threads=1)
    _, rep2 = run("randsim", cfg, out_dir=tmp_path / "b", threads=4)
    assert rep1["results"] == rep2["results"]
    on_disk = json.loads((tmp_path / "a" / "report.json").read_text())
    assert on_disk["results"] == rep1["results"]


def test_config_echo_reproduces_results(tmp_path):
    cfg = bundled_config("cover_five_r.json")
    _, rep1 = run("cover", cfg, overrides=["count=60"])
    # rerunning the echoed config must reproduce the results block
    _, rep2 = run("cover", rep1["config"])
    assert rep1["results"] == rep2["results"]
    assert rep1["config"]["count"] == 60


def test_overrides_leave_the_callers_config_alone():
    cfg = bundled_config("boxdim_point.json")
    before = json.loads(json.dumps(cfg))
    _, report = run("boxdim", cfg, overrides=["model.points=[[0.2]]"])
    assert cfg == before
    assert report["config"]["model"]["points"] == [[0.2]]


def test_seed_override_changes_results():
    cfg = bundled_config("cover_five_r.json")
    _, rep1 = run("cover", cfg)
    _, rep2 = run("cover", cfg, seed=999)
    assert rep1["results"] != rep2["results"]


def test_cantor_build_and_verify_roundtrip(tmp_path):
    cfg = bundled_config("cantor_audit.json")
    cfg["holder_trials"] = 0
    cfg["save_tree"] = True
    code, report = run("cantor-build", cfg, out_dir=tmp_path)
    assert code == 0
    assert report["results"]["audit_ok"]
    vcfg = dict(cfg)
    vcfg["tree"] = str(tmp_path / "tree.json")
    code2, rep2 = run("cantor-verify", vcfg)
    assert code2 == 0
    assert rep2["results"]["audit_ok"]


def test_bundled_configs_json_idempotent():
    names = [
        p.name
        for p in resources.files("lspkit.configs").iterdir()
        if p.name.endswith(".json")
    ]
    assert len(names) >= 10
    for name in names:
        cfg = bundled_config(name)
        assert json.loads(json.dumps(cfg)) == cfg


def test_cover_caj_bundled():
    code, report = run("cover", bundled_config("cover_caj_line.json"))
    assert code == 0
    assert 8 <= report["results"]["cardinality"] <= 32


def test_minkowski_report_is_strict_json(tmp_path):
    # the finest scale of this pin has no hit, so the lower content is 0 and
    # the report writes no Infinity for the ratio
    command, cfg = variant_configs()["minkowski_sup_line_3d"]
    assert run(command, cfg, out_dir=tmp_path)[0] == 0

    def refuse(name):
        raise ValueError(f"report.json holds {name}, which strict JSON forbids")

    results = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)["results"]
    assert results["lower"] == 0.0 and results["upper"] > 0 and results["ratio"] is None


def test_tables_written(tmp_path):
    cfg = bundled_config("randsim_points_tau4.json")
    run("randsim", cfg, out_dir=tmp_path)
    table = (tmp_path / "tables" / "counts.csv").read_text().strip().splitlines()
    assert table[0] == "N,side,count"
    assert len(table) == len(cfg["N_list"]) + 1


# the fuzzer's values: zero, signs, fractions, magnitudes near the ends of
# the float range, NaN and wrong types for any key, and for each bounded
# integer key (``_fuzz_bounds``) its minimum, one below it and one above its
# maximum; no size reaches a schema maximum, so no case starts heavy work
_FUZZ_VALUES = [0, -1, -0.5, 0.5, 1, 2, 1e300, -1e300, 1e-300, math.nan, "x", None, True, [], {}]
# the keys whose values name a variant of the work
_FUZZ_SWAPS = {
    "op": ["five-r", "caj", "kgb"],
    "mode": ["covering-exponent", "bc-diagnostic", "x"],
    "metric": ["sup", "euclidean"],
    "type": ["grid-cloud", "vdc-points"],
    "variant": ["points", "plane", "circle", "sphere", "polyline", "ifs"],
    "kind": ["power", "tabulated"],
}
_DROP = object()


def _fuzz_bounds(node, out):
    """Fill ``out`` with the bound values of each key under the schema
    ``node`` whose schema has a minimum."""
    if isinstance(node, dict):
        for key, sub in node.get("properties", {}).items():
            if "minimum" in sub:
                edge = [sub["minimum"] - 1, sub["minimum"], *([sub["maximum"] + 1] if "maximum" in sub else [])]
                out[key] = sorted({*out.get(key, []), *edge})
        for sub in node.values():
            _fuzz_bounds(sub, out)
    elif isinstance(node, list):
        for sub in node:
            _fuzz_bounds(sub, out)
    return out


_FUZZ_BOUNDS = _fuzz_bounds(SCHEMAS, {})


def _fuzz_paths(node, path=()):
    """Every key and list position under a config, as paths from its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _fuzz_paths(child, (*path, key))


def _fuzz_edit(cfg, path, value):
    """Drop the key or position at ``path`` (``value`` is ``_DROP``) or set it."""
    *head, last = path
    parent = cfg
    for key in head:
        parent = parent[key]
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)  # a later edit must not reach the shared list or dict


def _cap_stage_scans(cfg, j_max=4096):
    """End every stage sequence of a config at ``j_max`` at the latest.  A
    K_{G,B} selection that cannot meet its target reads every stage up to
    its last, 2**24 by default, which takes hours on a grid; at 4,096 it
    takes under a second, and the bundled audit, whose deep sublevel needs
    stage 2**21, exits 3."""
    stages = cfg.get("stages")
    if isinstance(stages, dict) and isinstance(stages.get("j_max", j_max), int):
        stages["j_max"] = min(stages.get("j_max", j_max), j_max)
    if isinstance(cfg.get("j_max"), int):
        cfg["j_max"] = min(cfg["j_max"], j_max)


# the fuzzer's seed configs: every bundled config and every variants.json pin
_FUZZ_SEEDS = {**{name: (command_of(name), bundled_config(name)) for name in bundled_names()}, **variant_configs()}


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_bundled_configs_exit_0_2_or_3(tmp_path_factory, data):
    # dropped keys, swapped ops and modes, and zero, negative, NaN and
    # boundary values in any bundled or pinned config, run under its own
    # command or another: main() returns an exit code of the contract and
    # raises nothing
    name = data.draw(st.sampled_from(sorted(_FUZZ_SEEDS)), label="config")
    command, cfg = _FUZZ_SEEDS[name]
    cfg = copy.deepcopy(cfg)  # a pin's configs share nested dicts, and an edit must reach none of them
    if data.draw(st.integers(0, 4), label="other command") == 0:
        command = data.draw(st.sampled_from(sorted(SCHEMAS)), label="command")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        paths = sorted(_fuzz_paths(cfg), key=repr)
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        choices = [_DROP, *_FUZZ_VALUES, *_FUZZ_SWAPS.get(path[-1], []), *_FUZZ_BOUNDS.get(path[-1], [])]
        _fuzz_edit(cfg, path, data.draw(st.sampled_from(choices), label="value"))
    _cap_stage_scans(cfg)
    config = tmp_path_factory.mktemp("fuzz") / "config.json"
    config.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--config", str(config)]) in (0, 2, 3)


@pytest.mark.parametrize("radius, kappa", [(1e300, 0.501257584), (1e-300, 0.0)])
def test_circle_fit_at_extreme_radii_exits_cleanly(tmp_path, capsys, radius, kappa):
    # the closed form squares no radius: a huge circle is measured as its
    # tangent line and a tiny one as its center, with no numpy warning
    cfg = {**bundled_config("fit_lsp_line.json"), "metric": "euclidean",
           "model": {"variant": "circle", "center": [0.0, 0.0], "radius": radius}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fit-lsp", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == ""
    fit = json.loads((tmp_path / "report.json").read_text())["results"]["fit"]
    assert fit["kappa_hat"] == pytest.approx(kappa, abs=1e-9)
