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
import csv
import json
import math
import sys
import time
from importlib import resources

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import __version__
from .cantor import (
    ConstructionParams,
    assign_mass,
    build_cantor,
    format_tree,
    holder_check,
    tree_fingerprint,
    tree_from_json,
    tree_to_json,
    verify_levels,
)
from .covering import Ball, BallFamily, build_caj, build_kgb, family_is_disjoint, five_r_cover, five_r_covers
from .dimfun import GaugePair, corollary_exponent, gauge_from_json, mtp_radius, verify_gauge_pair
from .errors import (
    ArgumentError,
    ConstructionError,
    CoverageShortfall,
    DomainError,
    EstimationError,
    NumericError,
    RangeError,
    ToolkitError,
    TruncationError,
    UnsupportedCombination,
)
from .measure import box_dimensions, fit_lsp, minkowski_content, scaling_fit_to_json
from .randomsim import RandomScheme, covering_exponent, coverage_frequency
from .sets import model_from_json
from .stages import GridCloudStages, VdcPointStages

NUMERICAL_ERRORS = (
    CoverageShortfall,
    ConstructionError,
    TruncationError,
    EstimationError,
    NumericError,
)

_GAUGE = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["power", "tabulated"]},
        "s": {"type": "number"},
        "samples": {"type": "array"},
    },
}
_PAIR = {
    "type": "object",
    "required": ["f", "g"],
    "properties": {"f": _GAUGE, "g": _GAUGE, "kappa": {"type": "number"}},
}
_MODEL = {"type": "object", "required": ["variant"]}
_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}  # a Philox key word
_SCALES = {"type": "array", "items": {"type": "number"}, "minItems": 4}
_SAMPLES = {"type": "integer", "minimum": 1000}

SCHEMAS = {
    "transform": {
        "type": "object",
        "required": ["pair", "upsilon"],
        "properties": {"pair": _PAIR, "upsilon": {"type": "number", "exclusiveMinimum": 0}},
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
                    "centers_per_cell": {"type": "integer", "minimum": 1},
                },
            },
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
        },
    },
    "cover": {
        "type": "object",
        "required": ["master_seed", "op"],
        "properties": {
            "master_seed": _SEED,
            "op": {"enum": ["five-r", "caj", "kgb"]},
            # five-r: the disjointness and cover checks are quadratic in count
            "count": {"type": "integer", "minimum": 1, "maximum": 10_000},
            "dim": {"type": "integer", "minimum": 1, "maximum": 16},
            "radius_range": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
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
        "properties": {
            "master_seed": _SEED,
            "domain": {"type": "object", "required": ["center", "radius"]},
            "pair": _PAIR,
            "eta": {"type": "number", "exclusiveMinimum": 1},
            "stages": {"type": "object", "required": ["type"]},
            "depth": {"type": "integer", "minimum": 2},
            # 0 skips the mass-bound check; its arrays are O(trials)
            "holder_trials": {"type": "integer", "minimum": 0, "maximum": 1_000_000},
        },
    },
    "cantor-verify": {
        "type": "object",
        "required": ["tree", "domain", "pair", "eta", "stages"],
        "properties": {"tree": {"type": "string"}},
    },
    "randsim": {
        "type": "object",
        "required": ["master_seed", "scheme"],
        "properties": {
            "master_seed": _SEED,
            "scheme": {
                "type": "object",
                "required": ["base", "tau", "s", "n"],
                "properties": {
                    "base": _MODEL,
                    "tau": {"type": "number"},
                    "s": {"type": "number"},
                    "kappa": {"type": "number"},
                    "n": {"type": "integer"},
                },
            },
            "mode": {"enum": ["covering-exponent", "bc-diagnostic"]},
            "N": {"type": "integer", "minimum": 1},
            "J": {"type": "integer", "minimum": 1},
            "trials": {"type": "integer", "minimum": 1},
            "x": {"type": "array", "items": {"type": "number"}},
        },
        "if": {"required": ["mode"], "properties": {"mode": {"const": "bc-diagnostic"}}},
        "then": {"required": ["rules"]},
        "else": {"required": ["N_list"]},
    },
}
_VALIDATORS = {command: validator_for(schema)(schema) for command, schema in SCHEMAS.items()}


def bundled_config(name):
    with resources.files("lspkit.configs").joinpath(name).open() as fh:
        return json.load(fh)


def _set_path(cfg, dotted, raw):
    keys = dotted.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
    try:
        node[keys[-1]] = json.loads(raw)
    except json.JSONDecodeError:
        node[keys[-1]] = raw


def _pair_from_config(block):
    return GaugePair(
        f=gauge_from_json(block["f"]),
        g=gauge_from_json(block["g"]),
        kappa=float(block.get("kappa", 0.0)),
    )


def _stages_from_config(block):
    kind = block.get("type", "grid-cloud")
    if kind == "grid-cloud":
        return GridCloudStages(
            lo=float(block["lo"]),
            hi=float(block["hi"]),
            plateaus=tuple((int(j), float(u)) for j, u in block["plateaus"]),
            gamma=float(block.get("gamma", 0.04)),
            j_max=int(block.get("j_max", 2**24)),
        )
    if kind == "vdc-points":
        expo = float(block.get("radius_exponent", 1.0))
        scale = float(block.get("radius_scale", 1.0))
        return VdcPointStages(
            radius_fn=lambda j: scale * float(j) ** (-expo),
            lo=float(block.get("lo", 0.0)),
            hi=float(block.get("hi", 1.0)),
            j_max=int(block.get("j_max", 10**6)),
        )
    raise ArgumentError(f"unknown stage provider type {kind!r}")


def _write_csv(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# command implementations (each returns a results dict and a list of tables)


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
        samples=int(grids.get("samples", 100_000)),
        rng=rng,
        centers_per_cell=int(grids.get("centers_per_cell", 4)),
        metric=cfg.get("metric", "sup"),
    )
    tables = [("cells.csv", ["log_r", "log_delta", "log_measure", "stderr"], fit.points)]
    return {"fit": scaling_fit_to_json(fit)}, tables


def _run_boxdim(cfg, rng):
    model = model_from_json(cfg["model"])
    lower, upper = box_dimensions(
        model,
        scales=np.asarray(cfg["scales"], dtype=float),
        samples_per_scale=int(cfg.get("samples_per_scale", 100_000)),
        rng=rng,
        metric=cfg.get("metric", "sup"),
    )
    tables = [("scales.csv", ["log_delta", "log_volume"], lower.points)]
    return {"lower": scaling_fit_to_json(lower), "upper": scaling_fit_to_json(upper)}, tables


def _run_minkowski(cfg, rng):
    model = model_from_json(cfg["model"])
    lo, hi = minkowski_content(
        model,
        d=float(cfg["dimension"]),
        scales=np.asarray(cfg["scales"], dtype=float),
        samples_per_scale=int(cfg.get("samples_per_scale", 100_000)),
        rng=rng,
        metric=cfg.get("metric", "sup"),
    )
    return {"lower": lo, "upper": hi, "ratio": hi / lo if lo > 0 else math.inf}, []


def _run_cover(cfg, rng):
    results = {}
    op = cfg.get("op", "five-r")
    metric = cfg.get("metric", "sup")
    if op == "five-r":
        lo, hi = cfg.get("radius_range", [0.01, 0.05])
        if not (math.isfinite(hi) and lo <= hi):
            raise ArgumentError(f"radius_range must be finite with low <= high, got {[lo, hi]}")
        balls = [
            Ball(rng.uniform(0.0, 1.0, size=int(cfg.get("dim", 2))), float(r))
            for r in rng.uniform(lo, hi, size=int(cfg.get("count", 100)))
        ]
        fam = BallFamily(balls, metric=metric)
        out = five_r_cover(fam)
        results = {
            "input": len(fam.balls),
            "selected": len(out.balls),
            "disjoint": family_is_disjoint(out),
            "five_covers": five_r_covers(fam, out),
        }
    elif op == "caj":
        model = model_from_json(cfg["model"])
        region = Ball(np.asarray(cfg["region"]["center"], dtype=float), float(cfg["region"]["radius"]))
        res = build_caj(
            region,
            int(cfg.get("j", 1)),
            model,
            float(cfg["upsilon"]),
            rng=rng,
            pool=int(cfg.get("pool", 10_000)),
            metric=metric,
        )
        results = {"cardinality": len(res), "pool_size": res.net.pool_size}
    elif op == "kgb":
        stages = _stages_from_config(cfg["stages"])
        pair = _pair_from_config(cfg["pair"]) if "pair" in cfg else None
        if pair is not None:
            seq = lambda j: (stages.model(j), mtp_radius(pair, stages.upsilon(j)))
        else:
            seq = lambda j: (stages.model(j), stages.upsilon(j))
        region = Ball(np.asarray(cfg["region"]["center"], dtype=float), float(cfg["region"]["radius"]))
        res = build_kgb(
            region,
            int(cfg.get("g_start", 1)),
            seq,
            int(cfg.get("j_max", stages.j_max)),
            float(cfg.get("target_fraction", 0.05)),
            rng=rng,
            c5=float(cfg.get("c5", 1.0)),
            metric=metric,
        )
        results = {
            "selected": len(res.selected),
            "achieved_fraction": res.achieved_fraction,
            "n0": res.n0,
        }
    else:
        raise ArgumentError(f"unknown cover op {op!r}")
    return results, []


def _cantor_params(cfg):
    return ConstructionParams(
        domain=Ball(np.asarray(cfg["domain"]["center"], dtype=float), float(cfg["domain"]["radius"])),
        gauges=_pair_from_config(cfg["pair"]),
        eta=float(cfg["eta"]),
        stages=_stages_from_config(cfg["stages"]),
        depth=int(cfg.get("depth", 2)),
        g_floor=int(cfg.get("g_floor", 1)),
        j_max=int(cfg["stages"].get("j_max", 2**24)),
        c5=float(cfg.get("c5", 1.0)),
        d2=float(cfg.get("d2", 2.0)),
        pump_total=cfg.get("pump_total"),
        holder_mass_factor=float(cfg.get("holder_mass_factor", 2.5)),
    )


def _run_cantor_build(cfg, rng):
    params = _cantor_params(cfg)
    tree = build_cantor(params, rng)
    mass = assign_mass(tree, params)
    audit = verify_levels(tree, params)
    hold = None
    if cfg.get("holder_trials"):
        hold = holder_check(tree, mass, params, trials=int(cfg["holder_trials"]), rng=rng)
    loc = tree.levels[0][0]
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
    if len(loc.c_radius) <= 60:
        print(format_tree(tree, mass), file=sys.stderr)
    extra = {"tree.json": tree_to_json(tree)} if cfg.get("save_tree", True) else {}
    return results, [], extra


def _run_cantor_verify(cfg, rng):
    try:
        with open(cfg["tree"]) as fh:
            tree = tree_from_json(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise ArgumentError(f"cannot read tree: {type(exc).__name__}: {exc}") from exc
    params = _cantor_params(cfg)
    audit = verify_levels(tree, params)
    return {
        "audit_ok": audit.ok,
        "audit": {
            k: {"passed": v.passed, "violations": len(v.violations)}
            for k, v in audit.properties.items()
        },
    }, []


def _power_rule(expo):
    return lambda j: float(j) ** (-expo)


def _run_randsim(cfg, rng):
    sc = cfg["scheme"]
    scheme = RandomScheme(
        base=model_from_json(sc["base"]),
        tau=float(sc["tau"]),
        s=float(sc["s"]),
        kappa=float(sc.get("kappa", 0.0)),
        master_seed=int(cfg["master_seed"]),
        n=int(sc["n"]),
    )
    mode = cfg.get("mode", "covering-exponent")
    if mode == "covering-exponent":
        out = covering_exponent(scheme, cfg["N_list"])
        tables = [
            (
                "counts.csv",
                ["N", "side", "count"],
                list(zip(out.n_values, out.sides, out.counts)),
            )
        ]
        return {
            "fit": scaling_fit_to_json(out.fit),
            "predicted": out.predicted,
            "per_j_constants": out.per_j_constants,
        }, tables
    if mode == "bc-diagnostic":
        rules = cfg["rules"]
        diags = coverage_frequency(
            scheme,
            np.asarray(cfg.get("x", [0.3] * scheme.n), dtype=float),
            [_power_rule(float(rule["exponent"])) for rule in rules],
            int(cfg.get("J", 1)),
            int(cfg.get("N", 400)),
            trials=int(cfg.get("trials", 1000)),
        )
        return {
            rule["name"]: {
                "classification": diag.classification,
                "last_octave_increment": diag.last_octave_increment,
                "increment_stderr": diag.increment_stderr,
            }
            for rule, diag in zip(rules, diags)
        }, []
    raise ArgumentError(f"unknown randsim mode {mode!r}")


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
    import pathlib

    cfg = dict(config)
    for ov in overrides:
        if "=" not in ov:
            raise ArgumentError(f"override {ov!r} is not KEY=VALUE")
        key, raw = ov.split("=", 1)
        _set_path(cfg, key, raw)
    if seed is not None:
        cfg["master_seed"] = int(seed)
    if command not in COMMANDS:
        raise ArgumentError(f"unknown command {command!r}")
    error = best_match(_VALIDATORS[command].iter_errors(cfg))
    if error is not None:
        raise ArgumentError(f"{command}: config failed schema validation: {error.message}")
    rng = np.random.default_rng(int(cfg.get("master_seed", 0)))
    t0 = time.time()
    fn = COMMANDS[command]
    if command == "cantor-build":
        results, tables, extra = fn(cfg, rng)
    else:
        results, tables = fn(cfg, rng)
        extra = {}
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
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            json.dump(report, fh, indent=2, default=float)
        for name, header, rows in tables:
            _write_csv(out / "tables" / name, header, rows)
        for name, payload in extra.items():
            with open(out / name, "w") as fh:
                # one dumps call: json.dump on a file runs the pure-Python encoder
                fh.write(json.dumps(payload, default=float))
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
    except (ArgumentError, DomainError, RangeError, UnsupportedCombination) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        json.dump(report["results"], sys.stdout, indent=2, default=float)
        print()
    return code


if __name__ == "__main__":
    sys.exit(main())
