"""lspkit benchmark: seeded closed-loop batches of in-process CLI jobs.

    python3 perfbench/run.py --workload {estimate,construct,simulate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's jobs one after another
(concurrency 1), each through ``lspkit.cli.main`` with a generated
``--config`` file, ``--seed`` and ``--out`` directory, so the exit-code
contract and the report, table and tree writes are timed.  After the timed
phase every job's exit code and results are checked (perfbench/jobs.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the passes untraced, then the same jobs again with the layer
wrappers of perfbench/tracer.py installed, checks that every traced results
block is bit-identical to its untraced twin, and prints the per-layer
metrics.  The last line of standard output is the result object; the line
before it holds the run's details (machine, tail percentile and sample
count, failing jobs, repeated-input share, per-function error counts).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# only the standard library is imported before set-up is timed: importing
# numpy here would move part of the package's import cost out of setup_s

WORKLOADS = ("estimate", "construct", "simulate")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
WARMUP = ["transform", "--config", "bundled:transform_demo.json", "--seed", "0"]
BENCH_DIR = Path(__file__).resolve().parent


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        return fn(*args), err


def _timed_setup(src, out_dir):
    """Seconds from the start of ``import lspkit.cli`` to the end of one
    warm-up transform job; returns (seconds, cli module)."""
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import lspkit.cli as cli

    code, _ = _quiet(cli.main, WARMUP + ["--out", str(out_dir)])
    dt = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"warm-up transform job exited {code}")
    return dt, cli


def _probe_setup(root, out_dir):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(out_dir)],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_jobs(cli, jobs, config_dir, out_root, tracer=None):
    """Run the jobs in order; returns (per-job seconds, exit codes, tracebacks, phase seconds)."""
    times, codes, tracebacks = [], [], {}
    t_phase = perf_counter()
    for job in jobs:
        argv = job.argv(config_dir / f"{job.index:04d}.json", out_root / f"{job.index:04d}")
        if tracer is not None:
            tracer.begin_job(f"job:{job.kind}")
        t0 = perf_counter()
        try:
            code, _ = _quiet(cli.main, argv)
        except (Exception, SystemExit):  # an uncaught error reaching the user fails the job
            code = None
            tracebacks[job.index] = traceback.format_exc(limit=-3)
        times.append(perf_counter() - t0)
        codes.append(code)
    return times, codes, tracebacks, perf_counter() - t_phase


def check_jobs(jobs, codes, tracebacks, out_root, check, load_results):
    """Exit-code and result checks; returns (results by job index, failures)."""
    results, failures = {}, []
    for job, code in zip(jobs, codes):
        reason = None
        if code != job.expect_code:
            reason = f"exit {code}, expected {job.expect_code}"
            if job.index in tracebacks:
                reason += ": " + tracebacks[job.index].strip().splitlines()[-1]
        elif code == 0:
            try:
                res = load_results(out_root / f"{job.index:04d}")
            except (OSError, ValueError, KeyError) as exc:
                reason = f"report unreadable: {exc!r}"
            else:
                results[job.index] = res
                try:
                    reason = check(job, res, results)
                except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    reason = f"results incomplete: {exc!r}"
        if reason:
            failures.append({"job": job.index, "kind": job.kind, "pass": job.pass_no, "reason": reason})
    return results, failures


def tail(times):
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def bench(args):
    root = Path.cwd()
    src = root / "src"
    if not (src / "lspkit" / "cli.py").is_file():
        print(f"error: no lspkit sources under {src}; run from the root of a source checkout", file=sys.stderr)
        return 2
    work = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _bench(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()


def _bench(args, src, work):
    setup = [0.0] * SETUP_SAMPLES
    setup[0], cli = _timed_setup(src, work / "setup0")
    for i in range(1, SETUP_SAMPLES):
        setup[i] = _probe_setup(Path.cwd(), work / f"setup{i}")

    from jobs import ALL_KINDS, check, load_results, make_jobs, passes_for, repeat_share, write_configs

    machine = _machine()
    passes = passes_for(args.workload, args.seconds)
    if args.trace:
        passes = math.ceil(passes / 2)

    def load_template(stem):
        with open(src / "lspkit" / "configs" / f"{stem}.json") as fh:
            return json.load(fh)

    plain, traced = work / "plain", work / "traced"
    jobs = make_jobs(args.workload, args.seed, passes, load_template, machine["nproc"])
    write_configs(jobs, work / "configs", plain)
    if args.trace:
        write_configs(jobs, work / "traced-configs", traced)
    share = repeat_share(jobs)
    pairs = sum(job.reads is not None for job in jobs) / len(jobs)

    times, codes, tbs, phase_s = run_jobs(cli, jobs, work / "configs", plain)
    results, failures = check_jobs(jobs, codes, tbs, plain, check, load_results)
    if not math.isclose(share, pairs):
        failures.append({"job": None, "kind": "generator", "pass": None,
                         "reason": f"repeated-input share {share} != build-verify share {pairs}"})
    attempted = len(jobs)
    jobs_per_s = len(jobs) / phase_s
    tail_s, tail_pct = tail(times)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": passes,
        "machine": machine,
        "setup_samples_s": setup,
        "jobs": len(jobs), "phase_s": phase_s,
        "job_s_tail_percentile": tail_pct, "job_time_samples": len(times),
        "repeat_share": share,
        "kind_s": {job.kind: [round(t, 4) for j, t in zip(jobs, times) if j.kind == job.kind] for job in jobs},
        "failures": failures,
    }

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "jobs_per_s": (jobs_per_s, "1/s"),
            "job_s_p50": (statistics.median(times), "s"),
            "job_s_tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        import tracer as tracing

        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            t_times, t_codes, t_tbs, t_phase = run_jobs(cli, jobs, work / "traced-configs", traced, tr)
        finally:
            tr.uninstall()
        tr.counters["cli.out_bytes"] = float(_dir_bytes(traced))
        t_results, t_failures = check_jobs(jobs, t_codes, t_tbs, traced, check, load_results)
        failures += [dict(f, traced=True) for f in t_failures]
        for job in jobs:
            a, b = results.get(job.index), t_results.get(job.index)
            if (a is None) != (b is None) or json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
                failures.append({"job": job.index, "kind": job.kind, "pass": job.pass_no,
                                 "reason": "traced results differ from untraced results"})
        attempted *= 2
        commands = [fn.__name__ for fn in cli.COMMANDS.values()]
        metrics, errors, bases = tracing.layer_metrics(tr, commands)
        for kind in ALL_KINDS:
            own = [t for job, t in zip(jobs, times) if job.kind == kind]
            metrics[f"job.{kind}.s"] = (statistics.median(own) if own else 0.0, "s")
        traced_jps = len(jobs) / t_phase
        metrics["trace.overhead_jobs_per_s"] = (traced_jps - jobs_per_s, "1/s")
        detail.update(
            untraced_jobs_per_s=jobs_per_s, traced_jobs_per_s=traced_jps,
            function_errors=errors, ratio_bases=bases,
        )

    failed = len({(f["job"], f.get("traced", False)) for f in failures})
    detail.update(fail_frac=failed / attempted, attempted=attempted, failed=failed)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="OUT_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        print(_timed_setup(Path.cwd() / "src", args.probe_setup)[0])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
