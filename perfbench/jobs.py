"""Seeded job generator and per-job correctness checks.

A workload is a fixed number of passes; every pass runs one job of each kind
in the workload, in a fixed order.  A kind is named after the bundled config
it is templated from (five kinds are named variants of a template).  Pass 0
runs each bundled config unchanged except for ``master_seed``; every later
pass draws the model or construction parameters from the workload seed.  The
draws are stratified over the passes of a run (a Latin hypercube per
parameter), so two seeds cover the same parameter ranges and differ only in
where inside each stratum a job lands.

Checks use the acceptance suite's tolerances (tests/test_acceptance.py).
"""

from __future__ import annotations

import copy
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# About the seconds one pass takes on a 2-vCPU x86 VM (Python 3.11, numpy
# 2.4, scipy 1.17).  The number of passes in a run is fixed from these and
# --seconds, so a run does the same work on every seed and whatever the
# program's speed; only jobs_per_s and the job times reflect speed.  The
# estimate value is set low so that a 25 s run makes five passes (about 45 s):
# with fewer, job_s_tail falls among the Cantor, Sierpinski and line fits,
# whose times depend on the drawn parameters, and spreads 0.20-0.27 over seeds.
NOMINAL_PASS_S = {"estimate": 5.5, "construct": 4.3, "simulate": 3.3}

KINDS = {
    "estimate": [
        "fit_lsp_point", "fit_lsp_line", "fit_lsp_cantor", "fit_lsp_circle",
        "boxdim_point", "boxdim_segment", "boxdim_sierpinski", "boxdim_polyline",
        "minkowski_point", "minkowski_segment", "minkowski_cantor",
    ],
    "construct": [
        "transform_demo", "cover_five_r", "cover_caj_line", "cover_kgb_vdc",
        "cover_kgb_shortfall", "cantor_audit", "cantor_verify", "cantor_holder",
    ],
    "simulate": [
        "randsim_points_tau2", "randsim_points_tau4", "randsim_lines_tau2", "randsim_bc", "randsim_bc_t2",
    ],
}
# named variants and the bundled config each is templated from
VARIANT_OF = {
    "fit_lsp_circle": "fit_lsp_line",
    "boxdim_polyline": "boxdim_segment",
    "cover_kgb_shortfall": "cover_kgb_vdc",
    "cantor_verify": "cantor_audit",
    "randsim_bc_t2": "randsim_bc",
}
COMMAND_OF = {
    "transform": "transform", "fit": "fit-lsp", "boxdim": "boxdim", "minkowski": "minkowski",
    "cover": "cover", "cantor": "cantor-build", "randsim": "randsim",
}
CONSTRUCTION_KEYS = ("domain", "pair", "eta", "stages", "depth", "g_floor", "c5", "d2")
HOLDER_ETAS = (2.0, 4.0, 8.0)
LOG2, LOG3 = math.log(2.0), math.log(3.0)


# every bundled config is the template of a kind of the same name
ALL_KINDS = sorted({k for kinds in KINDS.values() for k in kinds})


def passes_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


@dataclass
class Job:
    index: int
    pass_no: int
    kind: str
    command: str
    config: dict
    seed: int
    threads: int = 1
    expect_code: int = 0
    ref: dict = field(default_factory=dict)
    reads: int | None = None  # index of the job whose output this job reads

    def argv(self, config_path, out_dir):
        return [
            self.command, "--config", str(config_path), "--seed", str(self.seed),
            "--out", str(out_dir), "--threads", str(self.threads),
        ]

    def input_key(self):
        """What a cross-call cache could key on: the construction parameters
        of a cantor job, otherwise the whole config minus the seed."""
        if self.command.startswith("cantor"):
            cfg = {k: self.config.get(k) for k in CONSTRUCTION_KEYS}
        else:
            cfg = {k: v for k, v in self.config.items() if k != "master_seed"}
        return json.dumps(cfg, sort_keys=True)


class _Strata:
    """Stratified uniforms in [0, 1) for passes 1..P-1, one stream per (kind, name)."""

    def __init__(self, seed, passes):
        self.seed = seed
        self.n = max(passes - 1, 1)
        self._cache = {}

    def __call__(self, kind, name, k):
        key = (kind, name)
        if key not in self._cache:
            rng = np.random.default_rng([self.seed, zlib.crc32(kind.encode()), zlib.crc32(name.encode())])
            self._cache[key] = (rng.permutation(self.n) + rng.uniform(size=self.n)) / self.n
        return float(self._cache[key][(k - 1) % self.n])


def _job_seed(seed, kind, k):
    rng = np.random.default_rng([seed, zlib.crc32(kind.encode()), k])
    return int(rng.integers(1, 2**31 - 1))


def _lerp(u, lo, hi):
    return lo + (hi - lo) * u


def _cantor_ifs(r):
    return {
        "variant": "ifs",
        "maps": [{"ratio": r, "translation": [0.0]}, {"ratio": r, "translation": [1.0 - r]}],
        "osc": True,
    }


def _sierpinski_ifs(r):
    t = 1.0 - r
    return {
        "variant": "ifs",
        "maps": [
            {"ratio": r, "translation": [0.0, 0.0]},
            {"ratio": r, "translation": [t, 0.0]},
            {"ratio": r, "translation": [t / 2, t]},
        ],
        "osc": True,
    }


def _segment(x0, y0, length):
    return {"variant": "polyline", "vertices": [[x0, y0], [x0 + length, y0]]}


def _holder_domain(cfg, radius):
    cfg["domain"]["radius"] = radius
    cfg["stages"]["lo"], cfg["stages"]["hi"] = -radius, radius


# ---------------------------------------------------------------------------
# per-kind parameter draws: (config, pass number, u(name) in [0, 1)) -> ref
# dict.  Pass 0 leaves the template unchanged.


def _fit_lsp_point(cfg, k, u):
    if k:
        cfg["model"]["points"] = [[_lerp(u("x"), -0.5, 0.5)]]
    return {"kappa": 0.0}


def _fit_lsp_line(cfg, k, u):
    if k:
        cfg["model"]["base"] = [_lerp(u("bx"), -0.5, 0.5), _lerp(u("by"), -0.5, 0.5)]
    return {"kappa": 0.5}


def _fit_lsp_cantor(cfg, k, u):
    r = 1.0 / 3.0
    if k:
        # powers of r spanning at least the template's 3**5 range: a shorter
        # span at r near 0.4 doubles the kappa_hat scatter
        r = _lerp(u("r"), 0.28, 0.40)
        m = math.ceil(5 * LOG3 / -math.log(r))
        cfg["model"] = _cantor_ifs(r)
        cfg["grids"]["r"] = [r**e for e in range(2, m + 3)]
        cfg["grids"]["delta_ratios"] = [r**e for e in range(1, m + 2)]
    return {"kappa": LOG2 / -math.log(r)}


def _fit_lsp_circle(cfg, k, u):
    center, radius = [0.0, 0.0], 1.0
    if k:
        center = [_lerp(u("cx"), -0.5, 0.5), _lerp(u("cy"), -0.5, 0.5)]
        radius = _lerp(u("radius"), 0.8, 1.2)
    cfg["model"] = {"variant": "circle", "center": center, "radius": radius}
    cfg["metric"] = "euclidean"
    return {"kappa": 0.5}


def _boxdim_point(cfg, k, u):
    if k:
        cfg["model"]["points"] = [[_lerp(u("x"), 0.0, 1.0)]]
    return {"dim": 0.0}


def _boxdim_segment(cfg, k, u):
    if k:
        cfg["model"] = _segment(_lerp(u("x0"), -0.5, 0.5), _lerp(u("y0"), -0.5, 0.5), _lerp(u("len"), 0.5, 1.5))
    return {"dim": 1.0}


def _boxdim_sierpinski(cfg, k, u):
    r = 0.5
    if k:
        r = _lerp(u("r"), 0.42, 0.5)
        cfg["model"] = _sierpinski_ifs(r)
    return {"dim": LOG3 / -math.log(r)}


def _boxdim_polyline(cfg, k, u):
    # a non-axis-aligned segment takes the golden-section sup-metric distance.
    # At the 20 000 samples per scale that keep it near 2 s, the support-line
    # envelope misses 0.05 on about one job in eight (a segment at the bundled
    # scales: 7 of 60 seeds), so this job samples 60 000 points per scale over
    # a 2**6.7 scale span and checks the least-squares box dimension.
    x0, y0, length, rise = 0.0, 0.0, 1.6, 0.1
    if k:
        x0, y0 = _lerp(u("x0"), -0.5, 0.5), _lerp(u("y0"), -0.5, 0.5)
        length, rise = _lerp(u("len"), 1.4, 1.8), _lerp(u("rise"), 0.05, 0.2)
    cfg["model"] = {"variant": "polyline", "vertices": [[x0, y0], [x0 + length, y0 + rise]]}
    cfg["scales"] = [2.0 ** (-5.0 - 6.7 * i / 7) for i in range(8)]
    cfg["samples_per_scale"] = 60_000
    return {"dim": 1.0, "n": 2}


def _minkowski_point(cfg, k, u):
    if k:
        cfg["model"]["points"] = [[_lerp(u("x"), -0.5, 0.5)]]
    return {"content": (2.0, 2.0)}


def _minkowski_segment(cfg, k, u):
    length = 1.0
    if k:
        length = _lerp(u("len"), 0.5, 1.5)
        cfg["model"] = _segment(_lerp(u("x0"), -0.5, 0.5), _lerp(u("y0"), -0.5, 0.5), length)
    # the sup-metric delta-neighbourhood of a segment is (L + 2 delta) x 2 delta
    return {"content": (2.0 * length + 4.0 * min(cfg["scales"]), 2.0 * length + 4.0 * max(cfg["scales"]))}


def _minkowski_cantor(cfg, k, u):
    if k:
        r = _lerp(u("r"), 0.28, 0.40)
        cfg["model"] = _cantor_ifs(r)
        cfg["dimension"] = LOG2 / -math.log(r)
    return {"band": True}


def _transform_demo(cfg, k, u):
    if k:
        cfg["upsilon"] = _lerp(u("upsilon"), 0.01, 0.2)
        cfg["pair"]["f"]["s"] = _lerp(u("s"), 0.4, 0.9)
        cfg["pair"]["kappa"] = _lerp(u("kappa"), 0.0, 0.3)
    return {}


def _cover_five_r(cfg, k, u):
    if k:
        cfg["count"] = int(round(_lerp(u("count"), 360, 440)))
        lo = _lerp(u("rlo"), 0.005, 0.02)
        cfg["radius_range"] = [lo, lo + 0.04]
    return {"count": cfg["count"]}


def _cover_caj_line(cfg, k, u):
    if k:
        cfg["region"] = {"center": [_lerp(u("cx"), -0.5, 0.5), 0.0], "radius": _lerp(u("radius"), 0.6, 1.0)}
    return {}


def _kgb_region(cfg, u):
    cfg["region"] = {"center": [_lerp(u("c"), 0.4, 0.6)], "radius": _lerp(u("radius"), 0.3, 0.4)}


def _cover_kgb_vdc(cfg, k, u):
    if k:
        _kgb_region(cfg, u)
        cfg["target_fraction"] = 0.25
    return {}


def _cover_kgb_shortfall(cfg, k, u):
    if k:
        _kgb_region(cfg, u)
    cfg["target_fraction"], cfg["j_max"] = 0.95, 200
    return {}


def _cantor_audit(cfg, k, u):
    if k:
        _holder_domain(cfg, _lerp(u("radius"), 17.0, 23.0))
    cfg["save_tree"] = True
    return {}


def _cantor_holder(cfg, k, u):
    cfg["eta"] = HOLDER_ETAS[k % len(HOLDER_ETAS)]
    if k:
        radius = _lerp(u("radius"), 60.0, 110.0)
        _holder_domain(cfg, radius)
        cfg["c5"] = 90.0 / radius
    return {"min_qualifying": 100}


def _randsim_points_tau2(cfg, k, u):
    if k:
        cfg["N_list"] = [2**e for e in range(6, 16)]
        cfg["scheme"]["base"]["points"] = [[_lerp(u("p"), 0.0, 1.0)]]
    return {"tol": 0.10}


def _randsim_points_tau4(cfg, k, u):
    if k:
        cfg["scheme"]["base"]["points"] = [[_lerp(u("p"), 0.0, 1.0)]]
    return {"tol": 0.10}


def _randsim_lines_tau2(cfg, k, u):
    if k:
        cfg["N_list"] = [2**e for e in range(4, 13)]
        cfg["scheme"]["base"]["base"] = [0.0, _lerp(u("y"), 0.0, 1.0)]
    return {"tol": 0.15}


def _randsim_bc(cfg, k, u):
    if k:
        cfg["N"] = 4000
        cfg["x"] = [_lerp(u("x"), 0.0, 1.0)]
        cfg["scheme"]["base"]["points"] = [[_lerp(u("p"), 0.0, 1.0)]]
    return {}


def _randsim_bc_t2(cfg, k, u):
    # runs on --threads 2 right after a --threads 1 randsim_bc job
    cfg["N"] = 4000
    return _randsim_bc(cfg, k, u)


DRAW = {
    "fit_lsp_point": _fit_lsp_point, "fit_lsp_line": _fit_lsp_line,
    "fit_lsp_cantor": _fit_lsp_cantor, "fit_lsp_circle": _fit_lsp_circle,
    "boxdim_point": _boxdim_point, "boxdim_segment": _boxdim_segment,
    "boxdim_sierpinski": _boxdim_sierpinski, "boxdim_polyline": _boxdim_polyline,
    "minkowski_point": _minkowski_point, "minkowski_segment": _minkowski_segment,
    "minkowski_cantor": _minkowski_cantor, "transform_demo": _transform_demo,
    "cover_five_r": _cover_five_r, "cover_caj_line": _cover_caj_line,
    "cover_kgb_vdc": _cover_kgb_vdc, "cover_kgb_shortfall": _cover_kgb_shortfall,
    "cantor_audit": _cantor_audit, "cantor_holder": _cantor_holder,
    "randsim_points_tau2": _randsim_points_tau2, "randsim_points_tau4": _randsim_points_tau4,
    "randsim_lines_tau2": _randsim_lines_tau2, "randsim_bc": _randsim_bc,
    "randsim_bc_t2": _randsim_bc_t2,
}


def _verify_config(build_cfg):
    return {k: copy.deepcopy(build_cfg[k]) for k in CONSTRUCTION_KEYS if k in build_cfg}


def make_jobs(workload, seed, passes, load_template, nproc):
    """The workload's job list.  ``load_template(stem)`` returns a bundled config."""
    strata = _Strata(seed, passes)
    templates = {}
    jobs = []
    for k in range(passes):
        for kind in KINDS[workload]:
            stem = VARIANT_OF.get(kind, kind)
            if stem not in templates:
                templates[stem] = load_template(stem)
            cfg = copy.deepcopy(templates[stem])
            seed_k = _job_seed(seed, kind, k)
            job = Job(len(jobs), k, kind, COMMAND_OF[stem.split("_")[0]], cfg, seed_k)
            if kind == "cantor_verify":
                build = jobs[-1]
                job.command = "cantor-verify"
                job.config = _verify_config(build.config)
                job.reads = build.index
            else:
                job.ref = DRAW[kind](cfg, k, lambda name: strata(kind, name, k))
                cfg["master_seed"] = seed_k
            if kind == "cover_kgb_shortfall":
                job.expect_code = 3
            if kind == "randsim_bc_t2":
                job.threads = min(2, nproc)
            if job.threads > nproc:
                raise ValueError(f"job {job.index} asks for {job.threads} threads on {nproc} cpus")
            jobs.append(job)
    return jobs


def write_configs(jobs, config_dir, out_root):
    """One config file per job; a job that reads another's output points at
    that job's directory under ``out_root``."""
    config_dir.mkdir(parents=True)
    for job in jobs:
        cfg = job.config
        if job.reads is not None:
            cfg = dict(cfg, tree=str(Path(out_root) / f"{job.reads:04d}" / "tree.json"))
        with open(config_dir / f"{job.index:04d}.json", "w") as fh:
            json.dump(cfg, fh)


def repeat_share(jobs):
    """Share of jobs whose input an earlier job of the run already used."""
    seen, repeats = set(), 0
    for job in jobs:
        key = job.input_key()
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs)


# ---------------------------------------------------------------------------
# correctness checks: each returns None when the job is correct, or a reason


def _within(name, got, want, tol):
    if not (abs(got - want) <= tol):
        return f"{name} {got:.4f} not within {tol} of {want:.4f}"
    return None


def check(job, results, by_index):
    """Check one job's report results against its reference; ``by_index``
    maps job index to that job's results (for verify jobs)."""
    c = job.command
    ref = job.ref
    if c == "fit-lsp":
        return _within("kappa_hat", results["fit"]["kappa_hat"], ref["kappa"], 0.05)
    if c == "boxdim":
        lo, hi = results["lower"]["exponent"], results["upper"]["exponent"]
        if "n" in ref:  # least-squares estimate, and an envelope that brackets the reference
            x, y = np.array(results["lower"]["points"]).T
            central = ref["n"] - np.polyfit(x, y, 1)[0]
            if not (lo - 0.05 <= ref["dim"] <= hi + 0.05):
                return f"box dim envelope [{lo:.4f}, {hi:.4f}] misses {ref['dim']} by more than 0.05"
            return _within("least-squares box dim", central, ref["dim"], 0.05)
        return _within("lower box dim", lo, ref["dim"], 0.05) or _within("upper box dim", hi, ref["dim"], 0.05)
    if c == "minkowski":
        lo, hi = results["lower"], results["upper"]
        if not (0 < lo <= hi < math.inf) or hi / lo > 1.5:
            return f"content band [{lo}, {hi}] not positive and bounded"
        if "content" in ref and not (0.85 * ref["content"][0] <= lo and hi <= 1.15 * ref["content"][1]):
            return f"content band [{lo}, {hi}] misses the exact band {ref['content']} by more than 15%"
        return None
    if c == "transform":
        want = results["upsilon"] ** results["corollary_exponent"]
        if not math.isclose(results["transformed_radius"], want, rel_tol=1e-9):
            return f"transformed radius {results['transformed_radius']} != {want}"
        return None if results["pair_report"]["monotone_ok"] else "gauge pair not monotone"
    if c == "cover":
        return _check_cover(job, results)
    if c == "cantor-build":
        if not results["audit_ok"]:
            return f"audit failed: {results['audit']}"
        need = ref.get("min_qualifying")
        if need and results["holder"]["qualifying_trials"] < need:
            return f"{results['holder']['qualifying_trials']} qualifying holder trials < {need}"
        return None
    if c == "cantor-verify":
        build = by_index.get(job.reads)
        if build is None:
            return "the build that wrote the tree has no results"
        want = {k: {"passed": v} for k, v in build["audit"].items()}
        got = {k: {"passed": v["passed"]} for k, v in results["audit"].items()}
        if results["audit_ok"] != build["audit_ok"] or got != want:
            return f"verify audit {results['audit']} disagrees with build {build['audit']}"
        return None
    if c == "randsim":
        if job.config.get("mode") == "bc-diagnostic":
            got = (results["inverse"]["classification"], results["inverse-square"]["classification"])
            return None if got == ("divergent", "convergent") else f"bc classes {got}"
        sc = job.config["scheme"]
        want = sc.get("kappa", 0.0) * sc["s"] + 1.0 / sc["tau"]
        return _within("covering exponent", results["fit"]["exponent"], want, ref["tol"])
    return f"no check for command {c}"


def _check_cover(job, results):
    cfg = job.config
    op = cfg["op"]
    if op == "five-r":
        if not (results["disjoint"] and results["five_covers"]):
            return "5r selection not disjoint or not covering"
        if results["input"] != job.ref["count"] or not (1 <= results["selected"] <= results["input"]):
            return f"5r counts {results['input']}/{results['selected']}"
        return None
    if op == "caj":
        # acceptance 4 (iv) with exact sup-norm areas: strip of the line times box
        u, radius = cfg["upsilon"], cfg["region"]["radius"]
        vol_l = results["cardinality"] * (2 * u) ** 2
        if not (results["cardinality"] >= 1 and vol_l <= 2 * radius * 2 * u and radius * 2 * u <= 14 * vol_l):
            return f"caj cardinality {results['cardinality']} outside the volume envelope"
        return None
    if op == "kgb":
        want = cfg["target_fraction"] * cfg.get("c5", 1.0)
        if results["selected"] < 1 or results["achieved_fraction"] < want * (1 - 1e-12):
            return f"kgb achieved {results['achieved_fraction']} of target {want}"
        return None
    return f"no check for cover op {op}"


def load_results(out_dir):
    with open(Path(out_dir) / "report.json") as fh:
        return json.load(fh)["results"]
