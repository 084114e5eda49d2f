"""Layer tracing from outside the package.

The tracer replaces functions at every module binding that calls them (the
lspkit modules import each other's functions by name), times each call with
``perf_counter`` and restores the originals on ``uninstall``.  Spans are kept
in memory: one root span per job, an individual child span per call of an
ordinary function, and an aggregate per parent span for hot functions (and
for any call past the per-parent span cap).  A span's self time is its
duration minus the part covered by its wrapped child calls.  Exceptions a
wrapped function raises are counted and re-raised unchanged; arguments and
results pass through untouched, so traced results equal untraced ones.
"""

from __future__ import annotations

import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "dimfun", "sets", "stages", "measure", "covering", "cantor", "randomsim")
HOT = {
    "dimfun.eval_gauge", "dimfun.mtp_radius", "randomsim.draw_isometry", "stages.sorted_points",
    "covering.greedy_net", "sets.sample_on_set", "sets.distance_to_set",
    "measure.kdtree.build", "measure.kdtree.query",
}
SPAN_CAP = 256  # individual child spans per parent before calls aggregate


class Span:
    __slots__ = ("name", "calls", "busy", "self_s", "errors", "children", "agg")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.children = []
        self.agg = {}

    def child(self, name):
        if name in HOT or len(self.children) >= SPAN_CAP:
            node = self.agg.get(name)
            if node is None:
                node = self.agg[name] = Span(name)
            return node
        node = Span(name)
        self.children.append(node)
        return node

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()
        for c in self.agg.values():
            yield from c.walk()


class Tracer:
    def __init__(self):
        self.roots = []  # one per job, plus one per worker thread that made calls
        self.counters = defaultdict(float)
        self.kgb_state = []  # per active build_kgb call: candidate path and counts
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _frames(self):
        frames = getattr(self._local, "frames", None)
        if frames is None:
            root = Span(f"thread:{threading.current_thread().name}")
            with self._lock:
                self.roots.append(root)
            frames = self._local.frames = [[root, 0.0]]
            self._local.active = defaultdict(int)
        return frames

    def begin_job(self, label):
        root = Span(label)
        self.roots.append(root)
        self._frames()
        self._local.frames = [[root, 0.0]]
        return root

    def count(self, name, value=1):
        with self._lock:
            self.counters[name] += value

    def peak(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters[name], value)

    def call(self, name, fn, args, kwargs, observe=None):
        frames = self._frames()
        active = self._local.active
        if active[name]:  # recursion through a wrapped binding: time the outer call only
            return fn(*args, **kwargs)
        parent = frames[-1][0]
        node = parent.child(name)
        frame = [node, 0.0]
        frames.append(frame)
        active[name] += 1
        error = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            dt = perf_counter() - t0
            frames.pop()
            active[name] -= 1
            node.calls += 1
            node.busy += dt
            node.self_s += dt - frame[1]
            node.errors += error is not None
            frames[-1][1] += dt
            if observe is not None:
                observe(self, args, kwargs, None if error else result, error, dt, parent.name)
        return result

    # -- installing wrappers ------------------------------------------------

    def wrap(self, name, fn, observe=None, prepare=None):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if prepare is not None:
                args, kwargs, obs = prepare(self, args, kwargs)
            else:
                obs = observe
            return self.call(label, fn, args, kwargs, obs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch(self, owner, attr, new):
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) to ``new`` until uninstall."""
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def patch_everywhere(self, orig, new):
        """Rebind ``orig`` to ``new`` in every lspkit module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lspkit" or modname.startswith("lspkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.patch(mod, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results --------------------------------------------------------------

    def totals(self):
        """Per-name calls, busy, self time and errors over every span."""
        out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self_s": 0.0, "errors": 0})
        for root in self.roots:
            for span in root.walk():
                if span is root:
                    continue
                t = out[span.name]
                t["calls"] += span.calls
                t["busy"] += span.busy
                t["self_s"] += span.self_s
                t["errors"] += span.errors
        return out


def _rows(x):
    arr = np.asarray(x)
    return 1 if arr.ndim < 2 else arr.shape[0]


def _layer_name(fn):
    return f"{fn.__module__.split('.')[-1]}.{fn.__name__}"


# ---------------------------------------------------------------------------
# observers: (tracer, args, kwargs, result, error, seconds, parent span name)


def _obs_cylinder_cut(tr, args, kwargs, result, error, dt, parent):
    if result is not None:
        tr.count("sets.cylinder_cut.balls", len(result[1]))


def _obs_distance(tr, args, kwargs, result, error, dt, parent):
    tr.count("sets.distance_to_set.points", _rows(args[1] if len(args) > 1 else kwargs["x"]))


def _obs_sample(tr, args, kwargs, result, error, dt, parent):
    if result is None:
        return
    tr.count("sets.sample_on_set.points", len(result))
    if parent == "covering.build_kgb" and tr.kgb_state:
        tr.kgb_state[-1]["candidates"] += len(result)


def _obs_greedy_net(tr, args, kwargs, result, error, dt, parent):
    tr.count("covering.greedy_net.points_in", _rows(args[0] if args else kwargs["points"]))


def _obs_sorted_points(tr, args, kwargs, result, error, dt, parent):
    if result is not None:
        tr.peak("stages.cloud_points_max", len(result))


def _obs_holder(tr, args, kwargs, result, error, dt, parent):
    if result is not None:
        tr.count("cantor.holder_check.trials", result.trials)
        tr.count("cantor.holder_check.qualifying", result.qualifying_trials)


def _obs_build_cantor(tr, args, kwargs, result, error, dt, parent):
    if result is not None:
        loc = result.levels[0][0]
        tr.count("cantor.leaves", len(loc.c_radius))
        tr.count("cantor.selection_balls", len(loc.a_radius))


def _kgb_prepare(sig):
    def prepare(tr, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        fn = bound.arguments.get("candidate_fn")
        state = {"path": "exact" if fn is not None else "sampled", "stages": 0, "candidates": 0}
        seq = bound.arguments["seq"]

        def counted_seq(j):
            state["stages"] += 1
            return seq(j)

        bound.arguments["seq"] = counted_seq
        if fn is not None:
            def counted_candidates(model, j):
                out = fn(model, j)
                state["candidates"] += np.atleast_2d(np.asarray(out, dtype=float)).shape[0]
                return out

            bound.arguments["candidate_fn"] = counted_candidates
        tr.kgb_state.append(state)

        def observe(tr, a, k, result, error, dt, parent):
            tr.kgb_state.pop()
            selected = len(result.selected) if result is not None else 0
            shortfall = int(type(error).__name__ == "CoverageShortfall")
            for key in ("covering.build_kgb", f"covering.build_kgb.{state['path']}"):
                tr.count(f"{key}.busy_s", dt)
                tr.count(f"{key}.stages_scanned", state["stages"])
                tr.count(f"{key}.candidates", state["candidates"])
                tr.count(f"{key}.selected", selected)
                tr.count(f"{key}.shortfalls", shortfall)

        return bound.args, bound.kwargs, observe

    return prepare


def _coverage_name(sig):
    def name(args, kwargs):
        threads = sig.bind(*args, **kwargs).arguments.get("threads", 1)
        return f"randomsim.coverage_frequency.t{threads}"

    return name


def _obs_coverage(sig):
    def observe(tr, args, kwargs, result, error, dt, parent):
        a = sig.bind(*args, **kwargs).arguments
        tr.count("randomsim.stage_trials", (int(a["N"]) - int(a["J"]) + 1) * int(a.get("trials", 1000)))

    return observe


class _TracedTree:
    """cKDTree stand-in: builds and queries go through the tracer."""

    __slots__ = ("_tree", "_tr", "_query")

    def __init__(self, tr, tree, query):
        self._tree, self._tr, self._query = tree, tr, query

    def query(self, x, *args, **kwargs):
        self._tr.count("measure.kdtree.queries", _rows(x))
        return self._tr.call("measure.kdtree.query", self._query, (self._tree, x) + args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def install(tr):
    """Wrap the layer entry points named in perfbench/README.md."""
    import jsonschema

    import lspkit.cantor as cantor
    import lspkit.cli as cli
    import lspkit.covering as covering
    import lspkit.measure as measure
    import lspkit.randomsim as randomsim
    import lspkit.sets as sets
    import lspkit.stages as stages

    observers = {
        sets.cylinder_cut: _obs_cylinder_cut,
        sets.distance_to_set: _obs_distance,
        sets.sample_on_set: _obs_sample,
        covering.greedy_net: _obs_greedy_net,
        cantor.holder_check: _obs_holder,
        cantor.build_cantor: _obs_build_cantor,
    }
    targets = [
        obj for obj in vars(cli).values()
        if inspect.isfunction(obj) and obj.__module__.startswith("lspkit.") and obj.__module__ != "lspkit.cli"
    ]
    targets += [cantor.build_kgb, cantor.greedy_net, cantor.eval_gauge, cantor.mtp_radius]
    targets += [measure.cylinder_cut, measure.distance_to_set, measure.sample_on_set]
    targets += [covering.sample_on_set, randomsim.draw_isometry]
    done = set()
    for fn in targets:
        if fn in done:
            continue
        done.add(fn)
        if fn is covering.build_kgb:
            new = tr.wrap(_layer_name(fn), fn, prepare=_kgb_prepare(inspect.signature(fn)))
        elif fn is randomsim.coverage_frequency:
            sig = inspect.signature(fn)
            new = tr.wrap(_coverage_name(sig), fn, observe=_obs_coverage(sig))
        else:
            new = tr.wrap(_layer_name(fn), fn, observe=observers.get(fn))
        tr.patch_everywhere(fn, new)

    for command, fn in list(cli.COMMANDS.items()):
        tr.patch(cli.COMMANDS, command, tr.wrap(f"cli.{fn.__name__}", fn))
    tr.patch(cli, "run", tr.wrap("cli.run", cli.run))
    tr.patch(jsonschema, "validate", tr.wrap("jsonschema.validate", jsonschema.validate))
    tr.patch(
        stages.GridCloudStages, "sorted_points",
        tr.wrap("stages.sorted_points", stages.GridCloudStages.sorted_points, observe=_obs_sorted_points),
    )

    kdtree, query = measure.cKDTree, measure.cKDTree.query

    def traced_kdtree(data, *args, **kwargs):
        tr.count("measure.kdtree.points", _rows(data))
        tree = tr.call("measure.kdtree.build", kdtree, (data,) + args, kwargs)
        return _TracedTree(tr, tree, query)

    tr.patch(measure, "cKDTree", traced_kdtree)


def layer_metrics(tr, commands):
    """Per-layer metrics (value, unit) from the tracer's spans and counters.

    ``commands`` are the names of the cli command functions, whose busy time
    ``cli.overhead_s`` subtracts from ``cli.run``.
    """
    tot = tr.totals()
    c = tr.counters
    m = {}

    def busy(name):
        return tot[name]["busy"] if name in tot else 0.0

    def calls(name):
        return tot[name]["calls"] if name in tot else 0

    m["cli.validate_s"] = (busy("jsonschema.validate"), "s")
    m["cli.overhead_s"] = (busy("cli.run") - sum(busy(f"cli.{f}") for f in commands), "s")
    m["cli.out_bytes"] = (c["cli.out_bytes"], "bytes")
    for f in ("mtp_radius", "eval_gauge"):
        m[f"dimfun.{f}.calls"] = (calls(f"dimfun.{f}"), "count")
        m[f"dimfun.{f}.busy_s"] = (busy(f"dimfun.{f}"), "s")
    m["sets.cylinder_cut.calls"] = (calls("sets.cylinder_cut"), "count")
    m["sets.cylinder_cut.busy_s"] = (busy("sets.cylinder_cut"), "s")
    m["sets.cylinder_cut.balls"] = (c["sets.cylinder_cut.balls"], "count")
    for f in ("distance_to_set", "sample_on_set"):
        m[f"sets.{f}.busy_s"] = (busy(f"sets.{f}"), "s")
        m[f"sets.{f}.points"] = (c[f"sets.{f}.points"], "count")
    m["stages.sorted_points.calls"] = (calls("stages.sorted_points"), "count")
    m["stages.sorted_points.busy_s"] = (busy("stages.sorted_points"), "s")
    m["stages.cloud_points_max"] = (c["stages.cloud_points_max"], "count")
    for f in ("fit_lsp", "box_dimensions", "minkowski_content"):
        m[f"measure.{f}.busy_s"] = (busy(f"measure.{f}"), "s")
    m["measure.kdtree.builds"] = (calls("measure.kdtree.build"), "count")
    m["measure.kdtree.build_s"] = (busy("measure.kdtree.build"), "s")
    m["measure.kdtree.points"] = (c["measure.kdtree.points"], "count")
    m["measure.kdtree.query_s"] = (busy("measure.kdtree.query"), "s")
    m["measure.kdtree.queries"] = (c["measure.kdtree.queries"], "count")
    for key in ("covering.build_kgb", "covering.build_kgb.exact", "covering.build_kgb.sampled"):
        m[f"{key}.busy_s"] = (c[f"{key}.busy_s"], "s")
        for what in ("stages_scanned", "candidates", "selected", "shortfalls"):
            m[f"{key}.{what}"] = (c[f"{key}.{what}"], "count")
        cand = c[f"{key}.candidates"]
        m[f"{key}.kept_ratio"] = (c[f"{key}.selected"] / cand if cand else 0.0, "ratio")
    m["covering.greedy_net.busy_s"] = (busy("covering.greedy_net"), "s")
    m["covering.greedy_net.points_in"] = (c["covering.greedy_net.points_in"], "count")
    m["covering.five_r_cover.busy_s"] = (busy("covering.five_r_cover"), "s")
    m["covering.five_r_covers.busy_s"] = (busy("covering.five_r_covers"), "s")
    for f in ("build_cantor", "assign_mass", "verify_levels", "holder_check", "tree_to_json", "tree_from_json"):
        m[f"cantor.{f}.busy_s"] = (busy(f"cantor.{f}"), "s")
    trials = c["cantor.holder_check.trials"]
    m["cantor.holder_check.qualifying_ratio"] = (
        c["cantor.holder_check.qualifying"] / trials if trials else 0.0, "ratio"
    )
    m["cantor.leaves"] = (c["cantor.leaves"], "count")
    m["cantor.selection_balls"] = (c["cantor.selection_balls"], "count")
    m["randomsim.draw_isometry.calls"] = (calls("randomsim.draw_isometry"), "count")
    m["randomsim.draw_isometry.busy_s"] = (busy("randomsim.draw_isometry"), "s")
    m["randomsim.covering_exponent.busy_s"] = (busy("randomsim.covering_exponent"), "s")
    for t in (1, 2):
        m[f"randomsim.coverage_frequency.t{t}.busy_s"] = (busy(f"randomsim.coverage_frequency.t{t}"), "s")
    m["randomsim.stage_trials"] = (c["randomsim.stage_trials"], "count")
    for layer in LAYERS:
        names = [n for n in tot if n.split(".")[0] == layer]
        m[f"{layer}.self_s"] = (sum(tot[n]["self_s"] for n in names), "s")
        m[f"{layer}.errors"] = (sum(tot[n]["errors"] for n in names), "count")
    errors = {f"{n}.errors": t["errors"] for n, t in sorted(tot.items())}
    bases = {
        "covering.build_kgb.kept_ratio": c["covering.build_kgb.candidates"],
        "cantor.holder_check.qualifying_ratio": trials,
    }
    return m, errors, bases
