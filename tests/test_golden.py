"""Pinned results of every bundled config.

``tests/golden/results.json`` holds, per bundled config, the command it runs
and its canonical ``results`` block: floats rounded to 12 significant digits,
everything else (ints, bools, strings, tree fingerprints) exact.  A change
that moves any of them must regenerate the manifest on purpose:

    PYTHONPATH=src python tests/test_golden.py

``tests/golden/variants.json`` pins runs that no bundled config makes to
the exact bit: every float is stored as ``float.hex``.  They are

- gasket variants (ratios 0.45 and 0.491, the Euclidean metric, Minkowski
  content) at the bundled gasket scales and 50,000 samples per scale:
  at ratio 0.5 they read the triangle tiling's exact sum and draw
  nothing; at 0.45 and 0.491 the points are walked, from the coarse scales,
  where whole blocks of points hit, to the fine ones, each to the floor of
  the hit test; the gasket at a scale
  ladder of close pairs (0.12 and 0.1, ..., 0.0012 and 0.001); a three-map
  IFS in the plane whose first and last maps rotate, whose nodes are
  bounded by balls, not boxes; and the four-map gasket in R^3 (ratio 0.5)
  at scales 0.4 down to 0.4 / 128;
- a ``fit-lsp`` on the gasket, whose point clouds sit in balls about
  points of the attractor, and the bundled line fit on a Euclidean circle
  (perfbench's pass-0 ``fit_lsp_circle``), on a Euclidean unit sphere
  in R^3, which no bundled config or benchmark job samples, on the
  bundled line tilted to the direction (0.6, 0.8) in the Euclidean metric,
  and on one point in the plane in each metric;
- the exact 1-D interval path: Minkowski content of two-map Cantor sets
  (ratios 0.45 and 0.2, and the middle third with its first map reflected)
  at the bundled ``minkowski_cantor`` scales, a ``fit-lsp`` Cantor fit at
  ratio 0.3996 on perfbench's grid (its finest cells are the deepest 1-D
  attractor cells any workload reaches), and the box dimension of a
  five-point set;
- the Minkowski content of a 10 x 10 grid of points in the plane at 20,000
  samples per scale: a point set of more than 64 points, whose hits are
  tested on a KD-tree over the points;
- Euclidean five-r covers in dimensions 8 and 16, where the norm's lane
  order matters, and a sup five-r cover in dimension 3;
- covering selections: ``kgb`` on a shifted van der Corput region, on the
  audit's grid-cloud stages with its gauge pair, and one that falls short
  of its target (pinned as the error it raises); ``caj`` on a shifted line
  region and on a circle (a sampled pool);
- Cantor builds: the audit at domain radii 17 and 23, the holder config
  at eta 4, and builds that save their tree, whose ``tree.json`` is pinned
  by its SHA-256: the bundled audit, and the holder config at eta 8 on
  domain radii 85, 60 and 110 (at 110 the deep sublevel's cover pool holds
  a million points), and the audit with its last plateau raised
  to 5.3e-9, whose deep sublevel hosts its covers in two stages; and the
  holder config at eta 8 with its domain and stages shifted by -37.5 and by
  +37.5, which shows how the deep sublevel's covers move with the
  domain's position;
- ``randsim`` bc-diagnostics of 200 stages on six bases in the plane: a
  circle and a polyline whose windows fit in the unit box, one point, three
  points, an axis-aligned line and the slope-1 line; and the bundled lines
  covering exponent at tau = 4;
- sup-metric tilted sets: the box dimension of perfbench's pass-0
  ``boxdim_polyline`` segment at 60,000 samples per scale, and the Minkowski
  content of a tilted line in R^3 (codimension 2) at the schema's least
  1,000 samples per scale and of a tilted line in the plane (a hyperplane)
  at 20,000.
- the Minkowski content of a Euclidean line in R^8, tilted off every axis,
  at 20,000 samples per scale, where the norm's lane order matters.

A variant that raises a ``ToolkitError`` pins the error's type, message and
achieved fraction instead of a results block.

The numpy version that recorded them is stored too; on another version the
test fails rather than compare loosely.  Regenerate on purpose with

    PYTHONPATH=src python tests/test_golden.py --variants

Either run prints, before it writes, each entry whose pinned value changes,
with the top-level fields that changed and the largest relative gap between
the old and new numbers of its results.
"""

import hashlib
import json
import math
import numbers
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lspkit.cli import bundled_config, run
from lspkit.errors import ToolkitError

MANIFEST = Path(__file__).parent / "golden" / "results.json"
VARIANTS = Path(__file__).parent / "golden" / "variants.json"
_COMMAND_OF_PREFIX = {
    "transform": "transform",
    "fit": "fit-lsp",
    "boxdim": "boxdim",
    "minkowski": "minkowski",
    "cover": "cover",
    "cantor": "cantor-build",
    "randsim": "randsim",
}


def bundled_names():
    return sorted(
        p.name for p in resources.files("lspkit.configs").iterdir() if p.name.endswith(".json")
    )


def command_of(name):
    return _COMMAND_OF_PREFIX[name.split("_", 1)[0]]


def canonical(value):
    """JSON-ready copy of a results block with floats at 12 significant digits."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(f"{float(value):.12g}")
    return value


def golden_entry(name):
    command = command_of(name)
    code, report = run(command, bundled_config(name))
    assert code == 0
    return {"command": command, "results": canonical(report["results"])}


def test_manifest_lists_every_bundled_config():
    assert sorted(json.loads(MANIFEST.read_text())) == bundled_names()


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_results_match_golden(name):
    expected = json.loads(MANIFEST.read_text())[name]
    assert golden_entry(name) == expected


def gasket(r):
    """Sierpinski gasket model with three maps of ratio r (r = 0.5: bundled)."""
    t = 1.0 - r
    maps = [[0.0, 0.0], [t, 0.0], [t / 2, t]]
    return {"variant": "ifs", "maps": [{"ratio": r, "translation": v} for v in maps], "osc": True}


def variant_configs():
    base = bundled_config("boxdim_sierpinski.json")
    base["samples_per_scale"] = 50_000
    out = {f"boxdim_r{r}": ("boxdim", {**base, "model": gasket(r)}) for r in (0.5, 0.45, 0.491)}
    out["boxdim_r0.5_euclidean"] = ("boxdim", {**base, "model": gasket(0.5), "metric": "euclidean"})
    out["minkowski_r0.5"] = ("minkowski", {**base, "model": gasket(0.5), "dimension": math.log2(3)})
    # close pairs of scales, each finer one 0.83 times the one above it
    out["boxdim_r0.5_unnested"] = ("boxdim", {**base, "scales": [0.12, 0.1, 0.03, 0.025, 0.0075, 0.00625, 0.0012, 0.001]})
    c, s = math.cos(0.7), math.sin(0.7)
    rotating = [
        {"ratio": 0.45, "translation": [0.0, 0.0], "rotation": [[c, -s], [s, c]]},
        {"ratio": 0.4, "translation": [0.6, 0.1]},
        {"ratio": 0.35, "translation": [0.2, 0.6], "rotation": [[c, s], [-s, c]]},
    ]
    out["boxdim_rotating"] = ("boxdim", {**base, "model": {"variant": "ifs", "maps": rotating, "osc": True}})
    # four maps of ratio 0.5 toward the corners of the unit simplex in R^3
    corners = [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
    out["boxdim_gasket_3d"] = ("boxdim", {
        **base, "model": {"variant": "ifs", "maps": [{"ratio": 0.5, "translation": t} for t in corners], "osc": True},
        "scales": [0.4 * 2.0**-k for k in range(8)],
    })
    fit = bundled_config("fit_lsp_line.json")
    grids = {"r": [0.5, 0.35, 0.25, 0.18], "delta_ratios": [0.25, 0.125, 0.0625, 0.03125],
             "samples": 10_000, "centers_per_cell": 2}
    out["fit_lsp_gasket"] = ("fit-lsp", {**fit, "model": gasket(0.5), "grids": grids})
    # perfbench's pass-0 fit_lsp_circle: the bundled line fit on a Euclidean circle
    circle = {"variant": "circle", "center": [0.0, 0.0], "radius": 1.0}
    out["fit_lsp_circle"] = ("fit-lsp", {**fit, "model": circle, "metric": "euclidean"})
    sphere = {"variant": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0}
    out["fit_lsp_sphere"] = ("fit-lsp", {**fit, "model": sphere, "metric": "euclidean"})
    tilted = {**fit["model"], "basis": [[0.6, 0.8]]}
    out["fit_lsp_tilted_line_euclidean"] = ("fit-lsp", {**fit, "model": tilted, "metric": "euclidean"})
    for metric in ("sup", "euclidean"):
        point = {"variant": "points", "points": [[0.3, -0.2]]}
        out[f"fit_lsp_point_2d_{metric}"] = ("fit-lsp", {**fit, "model": point, "metric": metric})
    cantor = bundled_config("minkowski_cantor.json")
    for r in (0.45, 0.2):
        maps = [{"ratio": r, "translation": [t]} for t in (0.0, 1.0 - r)]
        model = {"variant": "ifs", "maps": maps, "osc": True}
        out[f"minkowski_cantor_r{r}"] = ("minkowski", {**cantor, "model": model, "dimension": math.log(2) / -math.log(r)})
    # the middle third again, its first map x -> -x/3 + 1/3 reflected
    third = cantor["model"]["maps"][0]["ratio"]
    reflected = [{"ratio": third, "translation": [third], "rotation": [[-1.0]]}, cantor["model"]["maps"][1]]
    out["minkowski_cantor_reflected"] = ("minkowski", {**cantor, "model": {**cantor["model"], "maps": reflected}})
    # perfbench's fit_lsp_cantor grid at r = 0.3996: powers of r over at least 3**5
    r = 0.3996
    m = math.ceil(5 * math.log(3) / -math.log(r))
    model = {"variant": "ifs", "maps": [{"ratio": r, "translation": [t]} for t in (0.0, 1.0 - r)], "osc": True}
    grids = {**bundled_config("fit_lsp_cantor.json")["grids"], "r": [r**e for e in range(2, m + 3)],
             "delta_ratios": [r**e for e in range(1, m + 2)]}
    out["fit_lsp_cantor_r0.4"] = ("fit-lsp", {**bundled_config("fit_lsp_cantor.json"), "model": model, "grids": grids})
    points = {"variant": "points", "points": [[0.3], [0.31], [0.5], [0.502], [0.9]]}
    out["boxdim_five_points"] = ("boxdim", {**bundled_config("boxdim_point.json"), "model": points})
    grid = {"variant": "points", "points": [[(i + 0.5) / 10, (j + 0.5) / 10] for i in range(10) for j in range(10)]}
    out["minkowski_grid10"] = ("minkowski", {
        **bundled_config("minkowski_point.json"), "model": grid, "samples_per_scale": 20_000,
    })
    five_r = {**bundled_config("cover_five_r.json"), "metric": "euclidean", "count": 400, "radius_range": [0.3, 0.6]}
    for dim in (8, 16):
        out[f"cover_five_r_euclidean_dim{dim}"] = ("cover", {**five_r, "dim": dim})
    out["cover_five_r_sup_dim3"] = ("cover", {**bundled_config("cover_five_r.json"), "count": 400, "dim": 3})
    kgb = bundled_config("cover_kgb_vdc.json")
    out["cover_kgb_vdc_b0.45"] = ("cover", {**kgb, "region": {"center": [0.45], "radius": 0.35}, "target_fraction": 0.25})
    out["cover_kgb_shortfall"] = ("cover", {**kgb, "target_fraction": 0.95, "j_max": 200})
    audit = bundled_config("cantor_audit.json")
    out["cover_kgb_grid_cloud"] = ("cover", {
        "master_seed": kgb["master_seed"], "op": "kgb", "stages": audit["stages"], "pair": audit["pair"],
        "region": {"center": [0.0], "radius": 20.0}, "g_start": 512, "c5": 1.2,
    })
    caj = bundled_config("cover_caj_line.json")
    out["cover_caj_line_b0.3"] = ("cover", {**caj, "region": {"center": [0.3, 0.0], "radius": 0.8}})
    out["cover_caj_circle"] = ("cover", {**caj, "model": {"variant": "circle", "center": [0.0, 0.0], "radius": 0.7}})
    for radius in (17.0, 23.0):
        stages = {**audit["stages"], "lo": -radius, "hi": radius}
        domain = {**audit["domain"], "radius": radius}
        out[f"cantor_audit_radius{radius:g}"] = ("cantor-build", {**audit, "domain": domain, "stages": stages})
    out["cantor_holder_eta4"] = ("cantor-build", {**bundled_config("cantor_holder.json"), "eta": 4.0, "c5": 90.0 / 85.0})
    out["cantor_audit_tree"] = ("cantor-build", {**audit, "save_tree": True})
    # stage 2**21 hosts about a third of the deep sublevel's mass, 2**22 the rest
    plateaus = [*audit["stages"]["plateaus"][:2], [2097152, 5.3e-9]]
    out["cantor_audit_two_stage"] = ("cantor-build", {
        **audit, "save_tree": True, "stages": {**audit["stages"], "plateaus": plateaus},
    })
    # sublevel 1 selects on the 2**15-point grid, whose spacing 40 / 2**15 is
    # within the separation 6 upsilon: each selection ball's target balls are
    # a greedy net of its slice, every other point of it
    plateaus = [audit["stages"]["plateaus"][0], [32768, 0.00022], audit["stages"]["plateaus"][2]]
    out["cantor_audit_greedy_nets"] = ("cantor-build", {
        **audit, "save_tree": True, "stages": {**audit["stages"], "plateaus": plateaus},
    })
    out["cantor_holder_eta8"] = ("cantor-build", {
        **bundled_config("cantor_holder.json"), "eta": 8.0, "c5": 90.0 / 85.0, "save_tree": True,
    })
    holder = bundled_config("cantor_holder.json")
    # the eta-8 build with its domain and stages shifted together
    for offset in (-37.5, 37.5):
        out[f"cantor_holder_eta8_offset{offset:+g}"] = ("cantor-build", {
            **holder, "eta": 8.0, "c5": 90.0 / 85.0,
            "domain": {**holder["domain"], "center": [offset]},
            "stages": {**holder["stages"], "lo": offset - 85.0, "hi": offset + 85.0},
        })
    for radius in (60.0, 110.0):
        out[f"cantor_holder_eta8_radius{radius:g}"] = ("cantor-build", {
            **holder, "eta": 8.0, "c5": 90.0 / radius, "save_tree": True,
            "domain": {**holder["domain"], "radius": radius},
            "stages": {**holder["stages"], "lo": -radius, "hi": radius},
        })
    bc = bundled_config("randsim_bc.json")
    for name, base in (
        ("circle", {"variant": "circle", "center": [0.5, 0.5], "radius": 0.2}),
        ("polyline", {"variant": "polyline", "vertices": [[0.1, 0.1], [0.5, 0.7], [0.9, 0.2]]}),
        ("point_2d", {"variant": "points", "points": [[0.5, 0.5]]}),
        ("three_points", {"variant": "points", "points": [[0.1, 0.2], [0.6, 0.9], [0.95, 0.05]]}),
        ("line", {"variant": "plane", "base": [0.0, 0.5], "basis": [[1.0, 0.0]]}),
        ("slope1_line", {"variant": "plane", "base": [0.0, 0.5], "basis": [[math.sqrt(0.5), math.sqrt(0.5)]]}),
    ):
        scheme = {**bc["scheme"], "base": base}
        out[f"randsim_bc_{name}"] = ("randsim", {**bc, "scheme": scheme, "x": [0.3, 0.8], "N": 200})
    lines = bundled_config("randsim_lines_tau2.json")
    out["randsim_lines_tau4"] = ("randsim", {**lines, "scheme": {**lines["scheme"], "tau": 4.0}})
    segment = bundled_config("boxdim_segment.json")
    out["boxdim_sup_polyline"] = ("boxdim", {
        **segment, "model": {"variant": "polyline", "vertices": [[0.0, 0.0], [1.6, 0.1]]},
        "scales": [2.0 ** (-5.0 - 6.7 * i / 7) for i in range(8)], "samples_per_scale": 60_000,
    })
    minkowski = bundled_config("minkowski_segment.json")
    out["minkowski_sup_line_3d"] = ("minkowski", {
        **minkowski, "samples_per_scale": 1000, "scales": [2.0**-e for e in range(1, 9)],
        "model": {"variant": "plane", "base": [0.1, 0.2, 0.3], "basis": [[0.48, 0.6, 0.64]]},
    })
    out["minkowski_sup_line_2d"] = ("minkowski", {
        **minkowski, "samples_per_scale": 20_000,
        "model": {"variant": "plane", "base": [0.5, 0.5], "basis": [[0.6, 0.8]]},
    })
    tilt = [1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 3.0, 2.0]
    out["minkowski_euclidean_line_8d"] = ("minkowski", {
        **minkowski, "metric": "euclidean", "samples_per_scale": 20_000, "scales": [0.5 * 0.5**k for k in range(8)],
        "model": {"variant": "plane", "base": [0.5] * 8, "basis": [[v / math.sqrt(84.0) for v in tilt]]},
    })
    return out


def exact(value):
    """JSON-ready copy of a results block with every float as ``float.hex``."""
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, (bool, np.bool_, numbers.Integral)):
        return canonical(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return value


def variant_entry(name):
    """Pinned entry of one variant; a build that saves its tree writes it to
    a temporary output directory, and the entry pins the file's SHA-256."""
    command, cfg = variant_configs()[name]
    with tempfile.TemporaryDirectory() as out:
        try:
            code, report = run(command, cfg, out_dir=out)
        except ToolkitError as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
            if hasattr(exc, "achieved_fraction"):
                error["achieved_fraction"] = float(exc.achieved_fraction).hex()
            return {"command": command, "config": cfg, "error": error}
        assert code == 0
        entry = {"command": command, "config": cfg, "results": exact(report["results"])}
        if command == "cantor-build" and cfg.get("save_tree"):
            entry["tree_sha256"] = hashlib.sha256((Path(out) / "tree.json").read_bytes()).hexdigest()
    return entry


@pytest.mark.parametrize("name", sorted(variant_configs()))
def test_variants_match_golden(name):
    pinned = json.loads(VARIANTS.read_text())
    if pinned["numpy"] != np.__version__:
        pytest.fail(
            f"variants.json was recorded with numpy {pinned['numpy']}, this is numpy "
            f"{np.__version__}; check the change and regenerate it with --variants"
        )
    assert sorted(pinned["variants"]) == sorted(variant_configs())
    assert variant_entry(name) == pinned["variants"][name]


_HEX_FLOAT = re.compile(r"-?0x[0-9a-f]\.?[0-9a-f]*p[+-]\d+")


def _number(value):
    """The number a pinned leaf stands for (``float.hex`` strings decoded), else None."""
    if isinstance(value, str) and _HEX_FLOAT.fullmatch(value):
        return float.fromhex(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return None


def float_gap(old, new):
    """Largest relative gap between the numbers of two pinned blocks; inf
    when their shapes or any non-numeric leaf differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return math.inf
        return max((float_gap(old[k], new[k]) for k in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return math.inf
        return max((float_gap(a, b) for a, b in zip(old, new)), default=0.0)
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return 0.0 if old == new else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def test_float_gap():
    one, next_up = (1.0).hex(), math.nextafter(1.0, 2.0).hex()
    assert float_gap({"a": [one, 2, True]}, {"a": [one, 2, True]}) == 0.0
    assert float_gap({"a": [one, 0.5]}, {"a": [next_up, 0.5]}) == (2.0**-52) / (1 + 2.0**-52)
    assert float_gap({"a": 3}, {"a": 4}) == 0.25
    assert float_gap({"a": [1.0]}, {"a": [1.0, 2.0]}) == math.inf
    assert float_gap({"fingerprint": "abc"}, {"fingerprint": "abd"}) == math.inf
    assert float_gap({"a": math.inf}, {"a": 1.0}) == math.inf


def print_changes(path, old, new):
    """Print each entry of the manifest at ``path`` that a rewrite changes,
    with the top-level fields that differ and, when ``results`` is one of
    them, the largest relative gap between its old and new numbers."""
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            print(f"{path.name} {name}: removed")
        elif name not in old:
            print(f"{path.name} {name}: new")
        elif old[name] != new[name]:
            a, b = old[name], new[name]
            fields = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            line = f"{path.name} {name}: changed {', '.join(fields)}"
            if "results" in a and "results" in b and a["results"] != b["results"]:
                line += f"; largest relative float gap in results {float_gap(a['results'], b['results']):.3g}"
            print(line)


def test_print_changes_names_the_changed_fields(capsys):
    one, two = (1.0).hex(), (2.0).hex()
    old = {"a": {"config": {"d2": 2.0}, "results": [one]}, "b": {"results": [one]}, "c": {}}
    new = {"a": {"config": {}, "results": [one]}, "b": {"results": [two], "tree_sha256": "f"}, "d": {}}
    print_changes(VARIANTS, old, new)
    assert capsys.readouterr().out.splitlines() == [
        "variants.json a: changed config",
        "variants.json b: changed results, tree_sha256; largest relative float gap in results 0.5",
        "variants.json c: removed",
        "variants.json d: new",
    ]


def _read(path, key=None):
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    return data[key] if key else data


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    if "--variants" in sys.argv[1:]:
        variants = {name: variant_entry(name) for name in sorted(variant_configs())}
        print_changes(VARIANTS, _read(VARIANTS, "variants"), variants)
        text = json.dumps({"numpy": np.__version__, "variants": variants}, indent=1, sort_keys=True)
        VARIANTS.write_text(text + "\n")
    else:
        manifest = {name: golden_entry(name) for name in bundled_names()}
        print_changes(MANIFEST, _read(MANIFEST), manifest)
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
