"""Command-line front end: config loading, experiment orchestration, and
report emission.

Every stochastic command's schema requires a ``master_seed``; all
randomness flows from it, so rerunning a report's echoed config reproduces
its results block bit for bit.  ``--threads`` is accepted for compatibility
and has no effect on the work done or its results: every command runs
serially.

Exit codes: 0 success, 2 config/validation error, 3 numerical or coverage
failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import pathlib
import sys
import time
from dataclasses import asdict
from importlib import resources

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import __version__
from .cantor import (
    FORMAT_MAX_LEAVES,
    ConstructionParams,
    assign_mass,
    build_cantor,
    check_tree_params,
    format_tree,
    holder_check,
    json_default,
    transformed_stages,
    tree_fingerprint,
    tree_from_json,
    tree_to_json,
    verify_levels,
)
from .covering import Ball, BallFamily, build_caj, build_kgb, family_is_disjoint, five_r_cover, five_r_covers
from .dimfun import GaugePair, corollary_exponent, gauge_from_json, mtp_radius, verify_gauge_pair
from .errors import ArgumentError, ToolkitError
from .measure import box_dimensions, fit_lsp, minkowski_content
from .randomsim import MAX_N, RandomScheme, covering_exponent, coverage_frequency
from .sets import model_from_json
from .stages import GridCloudStages, VdcPointStages

_NUMBER = {"type": "number"}
_VECTOR = {"type": "array", "items": _NUMBER, "minItems": 1}
_ROWS = {"type": "array", "items": _VECTOR, "minItems": 1}  # model_from_json checks the rows' lengths


_GAUGE = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["power", "tabulated"]},
        "s": _NUMBER,
        "samples": {"type": "array", "items": {**_VECTOR, "minItems": 2, "maxItems": 2}},
    },
    "additionalProperties": False,
}
_PAIR = {
    "type": "object",
    "required": ["f", "g"],
    "properties": {"f": _GAUGE, "g": _GAUGE, "kappa": _NUMBER},
    "additionalProperties": False,
}
# the keys sets.model_from_json reads, over every variant
_MODEL = {
    "type": "object",
    "required": ["variant"],
    "properties": {
        "variant": {"type": "string"},
        **dict.fromkeys(["points", "basis", "vertices"], _ROWS),
        **dict.fromkeys(["base", "center"], _VECTOR),
        **dict.fromkeys(["extent", "radius"], _NUMBER),
        "osc": {"type": "boolean"},
        "maps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ratio", "translation"],
                "properties": {"ratio": _NUMBER, "translation": _VECTOR, "rotation": _ROWS},
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}
_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}  # a Philox key word
_SCALES = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 4}
# Monte Carlo sizes: fit-lsp holds centers_per_cell clouds of samples points
# at once; at these maxima a Euclidean fit on a sphere in R^3 peaks near 0.9 GB
_SAMPLES = {"type": "integer", "minimum": 1000, "maximum": 1_000_000}
_CENTERS = {"type": "integer", "minimum": 1, "maximum": 16}
_METRIC = {"enum": ["sup", "euclidean"]}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_BALL = {
    "type": "object",
    "required": ["center", "radius"],
    "properties": {"center": _VECTOR, "radius": _POSITIVE},
    "additionalProperties": False,
}
# a plateau: its first stage, an integer of at least 1, and its radius there, above 0
_PLATEAU = {"type": "array", "prefixItems": [{"type": "integer", "minimum": 1}, _POSITIVE], "minItems": 2, "maxItems": 2}
# the keys _stages_from_config reads; a grid cloud (the default type) needs its range and plateaus
_STAGES = {
    "type": "object",
    "properties": {
        "type": {"enum": ["grid-cloud", "vdc-points"]},
        "plateaus": {"type": "array", "items": _PLATEAU},
        "j_max": {"type": "integer"},
        **dict.fromkeys(["lo", "hi"], _NUMBER),
    },
    "additionalProperties": False,
    "if": {"required": ["type"], "properties": {"type": {"const": "vdc-points"}}},
    "else": {"required": ["lo", "hi", "plateaus"]},
}
# the keys _cantor_params reads
_CANTOR = {
    "domain": _BALL,
    "pair": _PAIR,
    "eta": {"type": "number", "exclusiveMinimum": 1},
    "stages": {**_STAGES, "required": ["type"]},
    "g_floor": {"type": "integer"},
    "c5": _POSITIVE,
}
# cantor-build's own keys; cantor-verify accepts them too, so a build's
# config plus its tree verifies
_CANTOR_BUILD = {
    "master_seed": _SEED,
    # 0 skips the mass-bound check; its arrays are O(trials)
    "holder_trials": {"type": "integer", "minimum": 0, "maximum": 1_000_000},
    "save_tree": {"type": "boolean"},
}

SCHEMAS = {
    "transform": {
        "type": "object",
        "required": ["pair", "upsilon"],
        # transform draws nothing; it takes the master_seed that --seed sets
        "properties": {"master_seed": _SEED, "pair": _PAIR, "upsilon": {"type": "number", "exclusiveMinimum": 0}},
    },
    "fit-lsp": {
        "type": "object",
        "required": ["master_seed", "model", "grids"],
        "properties": {
            "master_seed": _SEED,
            "model": _MODEL,
            "grids": {
                "type": "object",
                "required": ["r", "delta_ratios"],
                "properties": {
                    "r": _SCALES,
                    "delta_ratios": _SCALES,
                    "samples": _SAMPLES,
                    "centers_per_cell": _CENTERS,
                },
                "additionalProperties": False,
            },
            "metric": _METRIC,
        },
    },
    "boxdim": {
        "type": "object",
        "required": ["master_seed", "model", "scales"],
        "properties": {
            "master_seed": _SEED,
            "model": _MODEL,
            "scales": _SCALES,
            "samples_per_scale": _SAMPLES,
            "metric": _METRIC,
        },
    },
    "minkowski": {
        "type": "object",
        "required": ["master_seed", "model", "dimension", "scales"],
        "properties": {
            "master_seed": _SEED,
            "model": _MODEL,
            "dimension": {"type": "number"},
            "scales": _SCALES,
            "samples_per_scale": _SAMPLES,
            "metric": _METRIC,
        },
    },
    "cover": {
        "type": "object",
        "required": ["master_seed", "op"],
        "properties": {
            "master_seed": _SEED,
            "op": {"enum": ["five-r", "caj", "kgb"]},
            "metric": _METRIC,
            # five-r: the disjointness and cover checks are quadratic in count
            "count": {"type": "integer", "minimum": 1, "maximum": 10_000},
            "dim": {"type": "integer", "minimum": 1, "maximum": 16},
            "radius_range": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
            # caj and kgb
            "model": _MODEL,
            "region": _BALL,
            "pool": {"type": "integer", "minimum": 100, "maximum": 1_000_000},  # ~0.3 GB on a gasket
            "stages": _STAGES,
            "pair": _PAIR,
            "g_start": {"type": "integer", "minimum": 1},
            "j_max": {"type": "integer"},
            "target_fraction": _NUMBER,
            **dict.fromkeys(["upsilon", "c5"], _POSITIVE),
        },
        "allOf": [
            {
                "if": {"required": ["op"], "properties": {"op": {"const": "caj"}}},
                "then": {"required": ["model", "region", "upsilon"]},
            },
            {
                "if": {"required": ["op"], "properties": {"op": {"const": "kgb"}}},
                "then": {"required": ["stages", "region"]},
            },
        ],
    },
    "cantor-build": {
        "type": "object",
        "required": ["master_seed", "domain", "pair", "eta", "stages"],
        "properties": {**_CANTOR, **_CANTOR_BUILD},
    },
    "cantor-verify": {
        "type": "object",
        "required": ["tree", "domain", "pair", "eta", "stages"],
        "properties": {**_CANTOR, **_CANTOR_BUILD, "tree": {"type": "string"}},
    },
    "randsim": {
        "type": "object",
        "required": ["master_seed", "scheme"],
        "properties": {
            "master_seed": _SEED,
            "scheme": {
                "type": "object",
                "required": ["base", "tau", "s"],
                "properties": {
                    "base": _MODEL,
                    "tau": {"type": "number"},
                    "s": {"type": "number"},
                    "kappa": {"type": "number"},
                },
                "additionalProperties": False,
            },
            "mode": {"enum": ["covering-exponent", "bc-diagnostic"]},
            # bc-diagnostic: 22.8 MB per rule per million stages (peak RSS 78, 169 and 260 MB
            # for 1, 5 and 9 rules at N = 10**6; 32 near 0.8 GB). A point or plane base holds
            # nothing per trial (peak RSS 41 MB at a million trials, n = 1 or 4); a base of several
            # points takes 31 MB per million trials per dimension (72 and 164 MB for n = 1 and 4),
            # a circle 118 MB at a million; the scheme refuses a base in more than
            # randomsim.MAX_DIM = 16 dimensions
            "N": {"type": "integer", "minimum": 1, "maximum": 1_000_000},
            "J": {"type": "integer", "minimum": 1},
            "trials": {"type": "integer", "minimum": 1, "maximum": 1_000_000},
            "x": {"type": "array", "items": {"type": "number"}},
            "N_list": {"type": "array", "items": {"type": "integer", "minimum": 1, "maximum": MAX_N}},
            "rules": {
                "type": "array",
                "maxItems": 32,
                "items": {
                    "type": "object",
                    "required": ["name", "exponent"],
                    "properties": {"name": {"type": "string"}, "exponent": _NUMBER},
                    "additionalProperties": False,
                },
            },
        },
        # one pair per mode, so that a mode outside the enum fails on its enum alone
        "allOf": [
            {
                "if": {"required": ["mode"], "properties": {"mode": {"const": "bc-diagnostic"}}},
                "then": {"required": ["rules"]},
            },
            {
                "if": {"properties": {"mode": {"const": "covering-exponent"}}},  # or no mode
                "then": {"required": ["N_list"]},
            },
        ],
    },
}
for _schema in SCHEMAS.values():
    _schema["additionalProperties"] = False  # a top-level key no command reads is a typo
_VALIDATORS = {command: validator_for(schema)(schema) for command, schema in SCHEMAS.items()}


def bundled_config(name):
    with resources.files("lspkit.configs").joinpath(name).open() as fh:
        return json.load(fh)


def _set_path(cfg, dotted, raw):
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ArgumentError(f"override {dotted!r}: {k!r} is not an object")
    try:
        node[keys[-1]] = json.loads(raw)
    except json.JSONDecodeError:
        node[keys[-1]] = raw


def _non_finite_path(node, path="config"):
    """Path of the first NaN or infinite number in a loaded config, or None.

    JSON parsing accepts NaN and Infinity, and schema bounds let NaN through.
    """
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        children = ((f"{path}.{key}", value) for key, value in node.items())
    elif isinstance(node, list):
        children = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        return None
    for child_path, value in children:
        bad = _non_finite_path(value, child_path)
        if bad is not None:
            return bad
    return None


# what a failed schema keyword asks of the value it checks
_SCHEMA_ASKS = {
    "type": "of type {}",
    "enum": "one of {}",
    "minimum": "at least {}",
    "maximum": "at most {}",
    "exclusiveMinimum": "above {}",
    "minItems": "at least {}",
    "maxItems": "at most {}",
}


def _brief(value):
    """A config value in a few words: an array or object by its size, any
    other value as JSON, cut at 40 characters."""
    if isinstance(value, list):
        return f"{len(value)} item{'s' * (len(value) != 1)}"
    if isinstance(value, dict):
        return f"an object of {len(value)} key{'s' * (len(value) != 1)}"
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _schema_refusal(error):
    """A schema error as the path of the value in the config, the value in
    brief and what the failed keyword asks of it."""
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in error.absolute_path).lstrip(".") or "config"
    ask = _SCHEMA_ASKS.get(error.validator)
    if ask is None:  # required and additionalProperties: jsonschema names the keys, not the value
        return f"{path}: {error.message}"
    asked = error.validator_value
    return f"{path}: {_brief(error.instance)}, {ask.format(asked if isinstance(asked, str) else json.dumps(asked))}"


def _given(block, **casts):
    """The keys of ``block`` named in ``casts``, each cast by its function;
    a key the config leaves out is left out, so the callee's default holds."""
    return {key: cast(block[key]) for key, cast in casts.items() if key in block}


def _ball(block):
    return Ball(block["center"], float(block["radius"]))


def _pair_from_config(block):
    return GaugePair(
        f=gauge_from_json(block["f"]),
        g=gauge_from_json(block["g"]),
        kappa=float(block.get("kappa", 0.0)),
    )


def _stages_from_config(block):
    if block.get("type", "grid-cloud") == "vdc-points":
        return VdcPointStages(**_given(block, lo=float, hi=float, j_max=int))
    return GridCloudStages(
        lo=float(block["lo"]),
        hi=float(block["hi"]),
        plateaus=block["plateaus"],
        **_given(block, j_max=int),
    )


def _table(name, header, rows):
    """An output entry: the CSV table ``tables/<name>``."""
    return f"tables/{name}", lambda fh: csv.writer(fh).writerows([header, *rows])


# ---------------------------------------------------------------------------
# command implementations (each returns a results dict and a list of output
# entries, (path under the output directory, function writing the file))


def _run_transform(cfg, rng):
    pair = _pair_from_config(cfg["pair"])
    upsilon = float(cfg["upsilon"])
    report = verify_gauge_pair(pair)
    out = {
        "upsilon": upsilon,
        "transformed_radius": mtp_radius(pair, upsilon),
        "pair_report": {
            "monotone_ok": report.monotone_ok,
            "doubling_lambda_estimate": report.doubling_lambda_estimate,
            "ratio_direction": report.ratio_direction,
            "f_over_g_kappa_ok": report.f_over_g_kappa_ok,
        },
    }
    if pair.f.kind == "power" and pair.g.kind == "power":
        try:
            out["corollary_exponent"] = corollary_exponent(
                pair.f.s, pair.kappa, int(round(pair.g.s))
            )
        except ArgumentError:
            pass
    return out, []


def _run_fit_lsp(cfg, rng):
    model = model_from_json(cfg["model"])
    grids = cfg["grids"]
    fit = fit_lsp(
        model,
        r_grid=np.asarray(grids["r"], dtype=float),
        delta_ratios=np.asarray(grids["delta_ratios"], dtype=float),
        rng=rng,
        **_given(grids, samples=int, centers_per_cell=int),
        **_given(cfg, metric=str),
    )
    table = _table("cells.csv", ["log_r", "log_delta", "log_measure", "stderr"], fit.points)
    return {"fit": asdict(fit)}, [table]


def _run_boxdim(cfg, rng):
    model = model_from_json(cfg["model"])
    lower, upper = box_dimensions(
        model,
        scales=np.asarray(cfg["scales"], dtype=float),
        rng=rng,
        **_given(cfg, samples_per_scale=int, metric=str),
    )
    table = _table("scales.csv", ["log_delta", "log_volume"], lower.points)
    return {"lower": asdict(lower), "upper": asdict(upper)}, [table]


def _run_minkowski(cfg, rng):
    model = model_from_json(cfg["model"])
    lo, hi = minkowski_content(
        model,
        d=float(cfg["dimension"]),
        scales=np.asarray(cfg["scales"], dtype=float),
        rng=rng,
        **_given(cfg, samples_per_scale=int, metric=str),
    )
    # strict JSON has no Infinity: a lower content of 0 has no ratio
    return {"lower": lo, "upper": hi, "ratio": hi / lo if lo > 0 else None}, []


def _run_cover(cfg, rng):
    op = cfg["op"]
    metric_kw = _given(cfg, metric=str)
    if op == "five-r":
        lo, hi = cfg.get("radius_range", [0.01, 0.05])
        if not lo <= hi:
            raise ArgumentError(f"radius_range must have low <= high, got {[lo, hi]}")
        radii = rng.uniform(lo, hi, size=int(cfg.get("count", 100)))
        centers = rng.uniform(0.0, 1.0, size=(len(radii), int(cfg.get("dim", 2))))
        fam = BallFamily(centers, radii, **metric_kw)
        out = five_r_cover(fam)
        results = {
            "input": len(fam.radii),
            "selected": len(out.radii),
            "disjoint": family_is_disjoint(out),
            "five_covers": five_r_covers(fam, out),
        }
    elif op == "caj":
        model = model_from_json(cfg["model"])
        upsilon = float(cfg["upsilon"])
        net = build_caj(_ball(cfg["region"]), model, upsilon, rng=rng, **_given(cfg, pool=int), **metric_kw)
        results = {"cardinality": len(net.points), "pool_size": net.pool_size}
    else:  # kgb
        stages = _stages_from_config(cfg["stages"])
        j_max = int(cfg.get("j_max", stages.j_max))
        if j_max > stages.j_max:  # the provider serves no stage past its own j_max
            raise ArgumentError(f"j_max {j_max} lies past stages.j_max {stages.j_max}")
        seq = transformed_stages(stages, _pair_from_config(cfg["pair"])) if "pair" in cfg else stages
        res = build_kgb(
            _ball(cfg["region"]),
            int(cfg.get("g_start", 1)),
            seq,
            j_max,
            float(cfg.get("target_fraction", 0.05)),
            **_given(cfg, c5=float),
            **metric_kw,
        )
        results = {
            "selected": len(res.selected),
            "achieved_fraction": res.achieved_fraction,
            "n0": res.n0,
        }
    return results, []


def _cantor_params(cfg):
    return ConstructionParams(
        domain=_ball(cfg["domain"]),
        gauges=_pair_from_config(cfg["pair"]),
        eta=float(cfg["eta"]),
        stages=_stages_from_config(cfg["stages"]),
        **_given(cfg, g_floor=int, c5=float),
    )


def _run_cantor_build(cfg, rng):
    params = _cantor_params(cfg)
    tree = build_cantor(params)
    mu = assign_mass(tree, params)
    audit = verify_levels(tree, params)
    hold = None
    if cfg.get("holder_trials"):
        hold = holder_check(tree, mu, params, trials=int(cfg["holder_trials"]), rng=rng)
    loc = tree.level
    results = {
        "fingerprint": tree_fingerprint(tree),
        "l_b": loc.l_b,
        "sublevel_masses": [float(m) for m in loc.sub_masses],
        "selection_balls": int(len(loc.a_radius)),
        "leaves": int(len(loc.c_radius)),
        "constants": tree.constants,
        "audit_ok": audit.ok,
        "audit": {k: v.passed for k, v in audit.properties.items()},
    }
    if hold is not None:
        results["holder"] = {
            "max_ratio": hold.max_ratio,
            "implied_hf_lower_bound": hold.implied_hf_lower_bound,
            "qualifying_trials": hold.qualifying_trials,
            "single_ball_trials": hold.single_ball_trials,
        }
    if len(loc.c_radius) <= FORMAT_MAX_LEAVES:
        print(format_tree(tree, mu), file=sys.stderr)
    outputs = []
    if cfg.get("save_tree", True):
        saved = tree_to_json(tree, params.stages)
        # one dumps call: json.dump on a file runs the pure-Python encoder;
        # the tree's arrays become lists one at a time
        outputs.append(("tree.json", lambda fh: fh.write(json.dumps(saved, default=json_default))))
    return results, outputs


def _run_cantor_verify(cfg, rng):
    params = _cantor_params(cfg)  # the reader binds the tree to its stages
    try:
        with open(cfg["tree"]) as fh:
            tree = tree_from_json(json.load(fh), params.stages)
    except (OSError, KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON and ArgumentError
        raise ArgumentError(f"cannot read tree: {type(exc).__name__}: {exc}") from exc
    check_tree_params(tree, params)
    audit = verify_levels(tree, params)
    return {
        "audit_ok": audit.ok,
        "audit": {
            k: {"passed": v.passed, "violations": len(v.violations)}
            for k, v in audit.properties.items()
        },
    }, []


def _power_rule(k, expo):
    def rule(j):
        try:
            return float(j) ** (-expo)
        except OverflowError:
            raise ArgumentError(f"rules[{k}].exponent {expo:g} overflows the radius j**-exponent at j = {j}") from None

    return rule


def _run_randsim(cfg, rng):
    sc = cfg["scheme"]
    scheme = RandomScheme(
        base=model_from_json(sc["base"]),
        tau=float(sc["tau"]),
        s=float(sc["s"]),
        kappa=float(sc.get("kappa", 0.0)),
        master_seed=int(cfg["master_seed"]),
    )
    mode = cfg.get("mode", "covering-exponent")
    if mode == "covering-exponent":
        out = covering_exponent(scheme, cfg["N_list"])
        table = _table("counts.csv", ["N", "side", "count"], list(zip(out.n_values, out.sides, out.counts)))
        return {
            "fit": asdict(out.fit),
            "predicted": out.predicted,
            "per_j_constants": out.per_j_constants,
        }, [table]
    rules = cfg["rules"]  # bc-diagnostic
    diags = coverage_frequency(
        scheme,
        np.asarray(cfg.get("x", [0.3] * scheme.n), dtype=float),
        [_power_rule(k, float(rule["exponent"])) for k, rule in enumerate(rules)],
        int(cfg.get("J", 1)),
        int(cfg.get("N", 400)),
        **_given(cfg, trials=int),
    )
    out = {}
    for rule, diag in zip(rules, diags):
        out[rule["name"]] = {
            "classification": diag.classification,
            "last_octave_increment": diag.last_octave_increment,
            "increment_stderr": diag.increment_stderr,
        }
        if diag.expected_partial_sum is not None:  # a point or a plane: the sum of its hit law
            out[rule["name"]]["expected_partial_sum"] = diag.expected_partial_sum
    return out, []


COMMANDS = {
    "transform": _run_transform,
    "fit-lsp": _run_fit_lsp,
    "boxdim": _run_boxdim,
    "minkowski": _run_minkowski,
    "cover": _run_cover,
    "cantor-build": _run_cantor_build,
    "cantor-verify": _run_cantor_verify,
    "randsim": _run_randsim,
}


def run(command, config, out_dir=None, overrides=(), seed=None, threads=1):
    """Execute one command; returns (exit_code, report dict).

    ``threads`` is accepted for compatibility and has no effect.
    """
    if not isinstance(config, dict):
        raise ArgumentError(f"{command}: config is not a JSON object")
    cfg = copy.deepcopy(config)  # overrides must not reach the caller's nested dicts
    for ov in overrides:
        if "=" not in ov:
            raise ArgumentError(f"override {ov!r} is not KEY=VALUE")
        key, raw = ov.split("=", 1)
        _set_path(cfg, key, raw)
    if seed is not None:
        cfg["master_seed"] = int(seed)
    if command not in COMMANDS:
        raise ArgumentError(f"unknown command {command!r}")
    bad = _non_finite_path(cfg)
    if bad is not None:
        raise ArgumentError(f"{command}: {bad} is not a finite number")
    error = best_match(_VALIDATORS[command].iter_errors(cfg))
    if error is not None:
        raise ArgumentError(f"{command}: config failed schema validation: {_schema_refusal(error)}")
    rng = np.random.default_rng(int(cfg.get("master_seed", 0)))
    t0 = time.time()
    results, outputs = COMMANDS[command](cfg, rng)
    report = {
        "command": command,
        "version": __version__,
        "config": cfg,
        "wall_time_s": time.time() - t0,
        "results": results,
        "warnings": [],
    }
    if out_dir is not None:
        out = pathlib.Path(out_dir)
        for name, write in [("report.json", lambda fh: json.dump(report, fh, indent=2, default=float)), *outputs]:
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            with open(out / name, "w", newline="") as fh:
                write(fh)
    return 0, report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lspkit",
        description="scaling-property estimation, covering constructions, and random limsup simulation",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path or bundled:<name>")
    parser.add_argument("--out", default=None, help="output directory for report.json and tables")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides")
    parser.add_argument("--threads", type=int, default=1, help="accepted; has no effect (runs are serial)")
    args = parser.parse_args(argv)

    try:
        if args.config.startswith("bundled:"):
            cfg = bundled_config(args.config.split(":", 1)[1])
        else:
            with open(args.config) as fh:
                cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        code, report = run(
            args.command,
            cfg,
            out_dir=args.out,
            overrides=args.overrides,
            seed=args.seed,
        )
    except ArgumentError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        json.dump(report["results"], sys.stdout, indent=2, default=float)
        print()
    return code


if __name__ == "__main__":
    sys.exit(main())
