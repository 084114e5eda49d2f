"""Finite-depth nested ball construction with mass assignment and audits.

Builds, inside a domain ball, local levels of selection balls (radius = the
transformed stage radius) subdivided into target balls (radius = the stage
radius), sublevel by sublevel, under the separation/mass properties P0-P5;
assigns the telescoping probability mass; and checks the resulting measure
against the gauge of random balls.

Desk-scale notes baked into this module:

* The ambient gauge g must be the power law matching the ambient dimension
  (the Lebesgue volume of balls is then exactly ``2**n * g(r)``); the
  construction is implemented for 1-D domains with point-cloud stage
  providers, which is what the bundled configurations use.
* Sublevel radii collapse at least 18-fold per sublevel (separation times
  the one-third fit), so the per-sublevel ball count multiplies accordingly;
  feasible configurations keep the sublevel count at or below ~3.  The mass
  that deeper sublevels would carry in an untruncated construction is
  instead front-loaded through per-sublevel mass targets proportional to the
  strength parameter eta, preserving the eta-scaling of the measure
  denominator that the mass bound needs.

The tree is stored as arrays addressed by row.  Tree level 1 is the root;
``CantorTree.balls(level)`` returns the centers and radii of a level, whose
rows run through its local levels in order.  Each ``LocalLevel`` holds its
selection ("a") and target ("c") balls as flat arrays, built one sublevel at
a time, and names its parent ball by ``(parent_level, parent_index)``, a row
of ``balls(parent_level)``; mass assignment, the audits and the builder
all resolve parents by that row.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .covering import Ball, build_kgb, greedy_net
from .dimfun import GaugePair, eval_gauge, mtp_radius, ratio_direction_at, verify_gauge_pair
from .errors import (
    ArgumentError,
    ConstructionError,
    CoverageShortfall,
    TruncationError,
    UnsupportedCombination,
)
from .measure import _merge_length, ball_volume
from .sets import _norm

AUDIT_RTOL = 1e-9


@dataclass
class ConstructionParams:
    domain: Ball
    gauges: GaugePair
    eta: float
    stages: object  # provider with model(j), upsilon(j), sorted_points(j), j_max
    depth: int = 2
    g_floor: int = 1
    j_max: int | None = None
    c5: float = 1.0
    d2: float = 2.0
    pump_total: float | None = None
    holder_mass_factor: float = 2.5
    metric: str = "sup"
    max_nodes: int = 2_000_000
    max_sublevels: int = 64

    def __post_init__(self):
        if not (self.eta > 1):
            raise ArgumentError("eta must exceed 1")
        if self.j_max is None:
            self.j_max = getattr(self.stages, "j_max", 2**24)


@dataclass
class LocalLevel:
    parent_level: int
    parent_index: int
    l_b: int
    eps_b: float
    g_primes: list
    sub_targets: list
    sub_masses: list
    a_center: np.ndarray
    a_radius: np.ndarray
    a_j: np.ndarray
    a_sublevel: np.ndarray
    c_center: np.ndarray
    c_radius: np.ndarray
    c_j: np.ndarray
    c_sublevel: np.ndarray
    c_aidx: np.ndarray


@dataclass
class CantorTree:
    root: Ball
    metric: str
    constants: dict
    levels: list  # levels[k] = list of LocalLevel producing the (k+2)-level balls
    case: str = "a"

    def balls(self, level):
        """Ball arrays (centers (m, n), radii (m,)) of tree level ``level``;
        level 1 is the root, and the rows of a deeper level run through its
        local levels in order, so ``(level, row)`` names one ball."""
        if level == 1:
            return self.root.center[None, :], np.array([self.root.radius], dtype=float)
        locs = self.levels[level - 2]
        return np.concatenate([l.c_center for l in locs]), np.concatenate([l.c_radius for l in locs])

    def leaves(self):
        """Deepest-level ball arrays (centers, radii)."""
        return self.balls(len(self.levels) + 1)


@dataclass
class MassAssignment:
    mu: list  # per tree level: array aligned with the level's c-balls
    exact: list | None = None  # optional Fractions mirroring mu


@dataclass
class PropertyAudit:
    name: str
    passed: bool
    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


@dataclass
class AuditReport:
    properties: dict

    @property
    def ok(self):
        return all(p.passed for p in self.properties.values())


@dataclass
class HolderReport:
    eta: float
    max_ratio: float
    worst_ball: Ball | None
    implied_hf_lower_bound: float
    radius_cap: float
    qualifying_trials: int
    single_ball_trials: int
    single_ball_max_ratio: float
    full_range_max_ratio: float
    trials: int


# ---------------------------------------------------------------------------
# constants and stage-index scanning


def _ambient_constants(params: ConstructionParams):
    g = params.gauges.g
    n = params.domain.ambient_dim
    if not (g.kind == "power" and math.isclose(g.s, n)):
        raise UnsupportedCombination(
            "the construction requires the ambient gauge g = r**n so ball "
            "volumes are exactly 2**n * g(r)"
        )
    c1 = c2 = 2.0**n
    lam = 2.0**n
    c7 = 5.0**n
    c6 = (1.0 / (2.0 * lam)) * (c1 / c2) ** 2 * (params.c5 / c7)
    hg_b0 = ball_volume(n, params.domain.radius, params.metric)
    return {
        "c1": c1,
        "c2": c2,
        "lambda": lam,
        "c5": params.c5,
        "c6": c6,
        "c7": c7,
        "d2": params.d2,
        "hg_b0": hg_b0,
        "eta": params.eta,
    }


def _classify_case(pair: GaugePair):
    probe = 1e-6
    direction = ratio_direction_at(pair, probe)
    if direction == "increasing":
        return "a"
    if direction == "decreasing":
        return "b"
    return "c"


def root_sublevel_count(consts, eta):
    return int(math.floor(consts["c2"] * eta / (consts["c6"] * consts["hg_b0"]))) + 1


def child_sublevel_count(consts, pair: GaugePair, radius):
    vf = eval_gauge(pair.f, radius)
    vg = eval_gauge(pair.g, radius)
    return int(math.floor(vf / (consts["c6"] * vg))) + 1


def epsilon_b(consts, pair: GaugePair, radius, l_b):
    if l_b <= 1:
        return math.inf
    gr = eval_gauge(pair.g, radius)
    fr = eval_gauge(pair.f, radius)
    denom = (consts["c2"] ** 2 * consts["lambda"] ** 2 * consts["d2"] / consts["c1"]) * (
        gr / fr
    ) * (l_b - 1)
    return consts["c1"] / (4.0 * consts["lambda"]) / denom


def _stage_ok(params, consts, j, b_radius, eps, d_min=None, min_f=None, min_h=None):
    pair = params.gauges
    u = params.stages.upsilon(j)
    fu = eval_gauge(pair.f, u)
    gu = eval_gauge(pair.g, u)
    hu = fu / gu**pair.kappa
    tilde = mtp_radius(pair, u)
    if not (6.0 * u < tilde):
        return False
    if not (3.0 * gu ** (1.0 - pair.kappa) < hu):  # G1
        return False
    if math.isfinite(eps):  # G2
        if not (gu / fu < eps * eval_gauge(pair.g, b_radius) / eval_gauge(pair.f, b_radius)):
            return False
    if not (math.floor(fu / (consts["c6"] * gu)) >= 1):  # G3
        return False
    if not (3.0 * tilde <= b_radius):
        return False
    if d_min is not None and not (3.0 * tilde < d_min):
        return False
    if min_f is not None and not (fu <= 0.5 * min_f and hu <= 0.5 * min_h):
        return False
    return True


def _scan_first_ok(params, consts, lo, b_radius, eps, **kw):
    """First stage index satisfying the entry conditions (they only become
    easier as the stage radii shrink)."""
    j = max(lo, getattr(params.stages, "j_min", 1), 1)
    j_max = params.j_max
    if _stage_ok(params, consts, j, b_radius, eps, **kw):
        return j
    hi = j
    while True:
        hi = min(hi * 2, j_max)
        if _stage_ok(params, consts, hi, b_radius, eps, **kw):
            break
        if hi >= j_max:
            raise TruncationError(
                f"no stage index in [{lo}, {j_max}] satisfies the entry conditions"
            )
    lo_s = max(j, hi // 2)
    while lo_s + 1 < hi:
        mid = (lo_s + hi) // 2
        if _stage_ok(params, consts, mid, b_radius, eps, **kw):
            hi = mid
        else:
            lo_s = mid
    return hi


# ---------------------------------------------------------------------------
# local-level assembly (1-D point-cloud stage providers)


def _require_supported(params):
    if params.domain.ambient_dim != 1:
        raise UnsupportedCombination("the builder is implemented for 1-D domains")
    if not hasattr(params.stages, "sorted_points"):
        raise UnsupportedCombination("the builder needs a point-cloud stage provider")


def _slice_rows(i0, i1):
    """Flat row indices of the slices [i0[k], i1[k]) and the slice each row
    belongs to, slice by slice in order."""
    counts = i1 - i0
    owner = np.repeat(np.arange(len(i0)), counts)
    starts = np.cumsum(counts) - counts
    return np.arange(len(owner)) - starts[owner] + i0[owner], owner


def _caj_nets(params, a_centers, a_radii, j, upsilon):
    """Net points of the stage cloud inside half of each selection ball, as
    flat ``(centers, owner)`` sorted by owning ball.

    A sorted 1-D slice keeps every point under ``greedy_net`` unless some
    neighbouring gap is within the separation (the last pick is the nearest
    earlier point), so only such slices are netted; an empty slice yields its
    ball's own center.
    """
    cloud = params.stages.sorted_points(j)
    sep = 6.0 * upsilon
    i0 = np.searchsorted(cloud, a_centers - 0.5 * a_radii)
    i1 = np.searchsorted(cloud, a_centers + 0.5 * a_radii)
    rows, owner = _slice_rows(i0, i1)
    pts = cloud[rows]
    close = (owner[1:] == owner[:-1]) & (_norm(np.diff(pts)[:, None], params.metric) <= sep)
    dense = np.unique(owner[1:][close])
    keep = ~np.isin(owner, dense)
    empty = np.nonzero(i1 == i0)[0]
    nets = [greedy_net(cloud[i0[k] : i1[k]][:, None], sep, metric=params.metric)[:, 0] for k in dense]
    centers = np.concatenate([pts[keep], *nets, a_centers[empty]])
    owners = np.concatenate(
        [owner[keep], *(np.full(len(n), k) for k, n in zip(dense, nets)), empty]
    )
    order = np.argsort(owners, kind="stable")
    return centers[order], owners[order]


def _build_local_level(params, consts, B: Ball, node, rng):
    """Selection and target balls of the local level under ball B, the
    ``node = (level, row)`` of the tree."""
    pair = params.gauges
    n = B.ambient_dim
    vg_b = eval_gauge(pair.g, B.radius)
    vol_b = ball_volume(n, B.radius, params.metric)
    if node[0] == 1:
        l_b = root_sublevel_count(consts, params.eta)
    else:
        l_b = child_sublevel_count(consts, pair, B.radius)
    if l_b > params.max_sublevels:
        raise ConstructionError(
            f"P5 sublevel count {l_b} exceeds the budget {params.max_sublevels}; "
            "the radius ladder makes such levels infeasible at desk scale",
            node=node,
        )
    eps = epsilon_b(consts, pair, B.radius, l_b)
    floor_mass = consts["c6"] * vg_b
    # packing capacity in gauge units: disjoint 3-dilates inside the region
    # bound sum g(radius) by vol(region)/6^n, discounted to greedy jamming
    cap_first = 0.75 * vol_b / 6.0**n
    cap_deep = 0.75 * ball_volume(n, B.radius / 2.0, params.metric) / 6.0**n
    if floor_mass * 1.02 > cap_first:
        raise ConstructionError(
            f"P3 per-sublevel mass {floor_mass:.3g} exceeds the packing capacity "
            f"{cap_first:.3g} of the parent ball; no disjoint selection can satisfy it",
            node=node,
        )
    pump = params.pump_total if params.pump_total is not None else params.holder_mass_factor * params.eta

    # per-sublevel arrays: selection balls (center, radius, j, sublevel) and
    # target balls (center, radius, j, sublevel, selection row)
    a_parts, c_parts = [], []
    n_a = n_c = 0
    g_primes, sub_targets, sub_masses = [], [], []
    total_mass = 0.0
    d_min = math.inf

    for i in range(1, l_b + 1):
        floors_ahead = (l_b - i) * floor_mass * 1.02
        want = max(floor_mass * 1.02, pump - total_mass - floors_ahead)
        cap = cap_first if i == 1 else cap_deep
        if floor_mass * 1.02 > cap:
            raise ConstructionError(
                f"sublevel {i}: P3 floor {floor_mass:.3g} exceeds capacity {cap:.3g}",
                node=node,
                sublevel=i,
            )
        target = min(want, cap)
        sub_targets.append(target)
        scan_kw = {}
        if i > 1:
            min_f = eval_gauge(pair.f, d_min)
            scan_kw = dict(d_min=d_min, min_f=min_f, min_h=min_f / eval_gauge(pair.g, d_min) ** pair.kappa)
        try:
            g_prime = _scan_first_ok(
                params, consts, g_primes[-1] if i > 1 else params.g_floor, B.radius, eps, **scan_kw
            )
        except TruncationError as exc:
            raise TruncationError(str(exc), node=node, sublevel=i) from exc
        g_primes.append(g_prime)

        if i == 1:
            centers, radii, js, mass_i = _first_sublevel(params, B, g_prime, target, vol_b, rng, node)
        else:
            leaf_center, leaf_radius = (np.concatenate([p[k] for p in c_parts]) for k in (0, 1))
            centers, radii, js, mass_i = _deep_sublevel(
                params, B, i, g_prime, d_min, target, leaf_center, leaf_radius, node
            )
        if mass_i < floor_mass:
            raise ConstructionError(
                f"sublevel {i} mass {mass_i:.3g} fell below the P3 floor {floor_mass:.3g}",
                node=node,
                sublevel=i,
            )
        total_mass += mass_i
        sub_masses.append(mass_i)
        a_parts.append((centers, radii, js, np.full(len(js), i)))

        # expand each new selection ball into its target-radius balls, one
        # stage index at a time in order of first use
        for j in dict.fromkeys(js.tolist()):
            rows = np.nonzero(js == j)[0]
            u = params.stages.upsilon(j)
            pts, owner = _caj_nets(params, centers[rows], radii[rows], j, u)
            m = len(pts)
            c_parts.append((pts, np.full(m, u), np.full(m, j), np.full(m, i), n_a + rows[owner]))
            n_c += m
            d_min = min(d_min, u)
        n_a += len(js)
        if n_c > params.max_nodes:
            raise ConstructionError(
                f"node budget {params.max_nodes} exceeded at sublevel {i}",
                node=node,
                sublevel=i,
            )

    a_center, a_radius, a_j, a_sublevel = (np.concatenate(col) for col in zip(*a_parts))
    c_center, c_radius, c_j, c_sublevel, c_aidx = (np.concatenate(col) for col in zip(*c_parts))
    return LocalLevel(
        node[0], node[1], l_b, eps, g_primes, sub_targets, sub_masses,
        a_center[:, None], a_radius, a_j, a_sublevel,
        c_center[:, None], c_radius, c_j, c_sublevel, c_aidx,
    )


def _first_sublevel(params, B, g_start, target, vol_b, rng, node):
    """Sublevel 1: a K_{G,B} selection of transformed-radius balls from stage
    ``g_start`` on, covering the share of B that the mass target asks for."""
    pair = params.gauges
    seq = lambda j: (params.stages.model(j), mtp_radius(pair, params.stages.upsilon(j)))
    frac = min(1.0, (2.0**B.ambient_dim * target) / (params.c5 * vol_b))
    try:
        kgb = build_kgb(B, g_start, seq, params.j_max, frac, rng=rng, c5=params.c5, metric=params.metric)
    except CoverageShortfall as exc:
        raise ConstructionError(
            f"sublevel 1 selection covered only fraction "
            f"{exc.achieved_fraction:.3g} of its target",
            node=node,
            sublevel=1,
        ) from exc
    mass = 0.0
    for ib in kgb.selected:  # sequential sum: the last ulp decides later counts
        mass += eval_gauge(pair.g, ib.ball.radius)
    return (
        np.array([ib.ball.center[0] for ib in kgb.selected]),
        np.array([ib.ball.radius for ib in kgb.selected]),
        np.array([ib.j for ib in kgb.selected], dtype=np.int64),
        mass,
    )


def _sweep_chain(pool, sep):
    """Mask of the points that a left-to-right sweep over the sorted ``pool``
    keeps when it keeps the first point and then each point with
    ``pool[u] - last kept >= sep``.

    The predicate ``pool[u] - pool[t] >= sep`` is monotone in u (rounding
    is monotone), so ``nxt[t]``, the first u > t meeting it, is found by
    ``searchsorted`` and then settled with the exact predicate; the kept
    points are the chain ``0 -> nxt[0] -> ...``, marked by pointer doubling.
    """
    n = len(pool)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    t = np.arange(n)

    def reached(u):  # the exact predicate; n stands for "no such point"
        return (u >= n) | (pool[np.minimum(u, n - 1)] - pool >= sep)

    nxt = np.maximum(np.searchsorted(pool, pool + sep), t + 1)
    while np.any(short := ~reached(nxt)):
        nxt[short] += 1
    while np.any(over := (nxt - 1 > t) & reached(nxt - 1)):
        nxt[over] -= 1
    # after k rounds ``chain`` holds the first 2**k chain points and ``jump``
    # is nxt applied 2**k times; n is the sentinel, its own successor
    jump = np.append(nxt, n)
    chain = np.zeros(1, dtype=np.intp)
    while True:
        step = jump[chain]
        step = step[step < n]
        if len(step) == 0:
            break
        chain = np.concatenate([chain, step])
        jump = jump[jump]
    keep[chain] = True
    return keep


def _deep_sublevel(params, B, i, g_prime, d_min, target, leaf_center, leaf_radius, node):
    """Cover the leftover region with d_min-radius balls and pick one
    transformed-radius ball on the stage cloud inside each, until the
    sublevel mass target is met; returns (centers, radii, js, mass).

    The cover balls are a chain over the sorted pool of candidate centers:
    the first point, then each first point at least ``2 d_min (1 - 1e-12)``
    past the last kept one (``_sweep_chain``), so they are disjoint.
    """
    pair = params.gauges
    half_lo = B.center[0] - 0.5 * B.radius
    half_hi = B.center[0] + 0.5 * B.radius
    # leftover region: half of B minus the 4-dilates of every target ball
    # placed so far; cover centers outside 4L with radius <= r(L) cannot
    # touch 3L, which preserves P1 across sublevels
    order = np.argsort(leaf_center - 4.0 * leaf_radius)
    b_lo = (leaf_center - 4.0 * leaf_radius)[order]
    b_hi = np.maximum.accumulate((leaf_center + 4.0 * leaf_radius)[order])

    step = d_min / 2.0
    pool = np.arange(half_lo + d_min, half_hi - d_min + step / 4, step)
    if len(pool):
        idx = np.searchsorted(b_lo, pool, side="right") - 1
        inside = (idx >= 0) & (pool <= np.where(idx >= 0, b_hi[np.maximum(idx, 0)], -np.inf))
        pool = pool[~inside]
    # greedy same-radius disjoint cover of the leftover
    covers = pool[_sweep_chain(pool, 2.0 * d_min * (1 - 1e-12))]
    if len(covers) == 0:
        raise ConstructionError(
            f"sublevel {i}: leftover region produced no cover balls", node=node, sublevel=i
        )

    mass = 0.0
    j = g_prime
    unhosted = covers
    picks = []  # (centers, radius, j) per stage block
    while mass < target and j <= params.j_max and len(unhosted):
        u = params.stages.upsilon(j)
        tilde = mtp_radius(pair, u)
        room = d_min - 3.0 * tilde
        if room > 0:
            cloud = params.stages.sorted_points(j)
            pos = np.searchsorted(cloud, unhosted)
            left = cloud[np.clip(pos - 1, 0, len(cloud) - 1)]
            right = cloud[np.clip(pos, 0, len(cloud) - 1)]
            host = np.where(np.abs(unhosted - left) <= np.abs(unhosted - right), left, right)
            ok = np.abs(host - unhosted) <= room
            need = int(math.ceil((target - mass) / eval_gauge(pair.g, tilde)))
            take = host[ok][:need]
            picks.append((take, tilde, j))
            mass += len(take) * eval_gauge(pair.g, tilde)
            if mass >= target:
                break
            unhosted = unhosted[~ok]
        # advance to the next dyadic block; radii shrink, clouds densify
        j = max(1 << (int(math.floor(math.log2(max(j, 1)))) + 1), j + 1)
    if mass < target:
        raise TruncationError(
            f"sublevel {i}: mass {mass:.3g} below target {target:.3g} "
            f"({len(unhosted)} cover balls unhosted by stage {j})",
            node=node,
            sublevel=i,
        )
    return (
        np.concatenate([t for t, _, _ in picks]),
        np.concatenate([np.full(len(t), r) for t, r, _ in picks]),
        np.concatenate([np.full(len(t), jj, dtype=np.int64) for t, _, jj in picks]),
        mass,
    )


def build_cantor(params: ConstructionParams, rng=None) -> CantorTree:
    """Build the nested tree to the requested depth, enforcing P0-P5."""
    if rng is None:
        rng = np.random.default_rng(0)
    _require_supported(params)
    pair = params.gauges
    report = verify_gauge_pair(pair)
    if not (report.monotone_ok and report.f_over_g_kappa_ok):
        raise ArgumentError(f"gauge pair failed verification: {report.violations}")
    case = _classify_case(pair)
    if case != "a":
        raise ConstructionError(
            f"construction applies to the ratio-growing case only; this pair is case ({case})"
            + (" where the two measures are proportional" if case == "c" else "")
        )
    consts = _ambient_constants(params)
    tree = CantorTree(root=params.domain, metric=params.metric, constants=consts, levels=[], case=case)
    for level in range(1, params.depth):
        centers, radii = tree.balls(level)
        tree.levels.append([
            _build_local_level(params, consts, Ball(centers[row], float(radii[row])), (level, row), rng)
            for row in range(len(radii))
        ])
    return tree


def tree_fingerprint(tree: CantorTree) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(tree.constants, sort_keys=True).encode())
    for locs in tree.levels:
        for loc in locs:
            for arr in (loc.a_center, loc.a_radius, loc.a_j, loc.c_center, loc.c_radius, loc.c_j):
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# mass assignment


def _stage_radii(stages, js):
    """``stages.upsilon(j)`` for every entry of ``js``, one call per distinct j."""
    uniq, inverse = np.unique(js, return_inverse=True)
    return np.array([stages.upsilon(int(j)) for j in uniq])[inverse]


def assign_mass(tree: CantorTree, params: ConstructionParams, exact=False) -> MassAssignment:
    """Telescoping mass: the root carries 1; each target ball splits its
    selection ball's share, with selection shares proportional to
    h(stage radius)**(1/(1-kappa)) within the local level."""
    pair = params.gauges
    kappa = pair.kappa
    mu_levels = []
    exact_levels = [] if exact else None
    parent_mu, parent_exact = np.ones(1), [Fraction(1)]  # the root row
    for locs in tree.levels:
        mus, exacts = [], []
        for loc in locs:
            # weight h(upsilon)^(1/(1-kappa)) evaluated from the stage radii
            stage_u = _stage_radii(params.stages, loc.a_j)
            fu = eval_gauge(pair.f, stage_u)
            gu = eval_gauge(pair.g, stage_u)
            w = (fu / gu**kappa) ** (1.0 / (1.0 - kappa))
            denom = float(np.sum(w))
            counts = np.bincount(loc.c_aidx, minlength=len(loc.a_radius))
            pm = float(parent_mu[loc.parent_index])
            mus.append(pm * w[loc.c_aidx] / (denom * counts[loc.c_aidx]))
            if exact:
                wf = [Fraction(float(x)) for x in w]
                df = sum(wf, Fraction(0))
                pf = parent_exact[loc.parent_index]
                exacts.extend(pf * wf[a] / (df * int(counts[a])) for a in loc.c_aidx)
        parent_mu = np.concatenate(mus) if mus else np.empty(0)
        mu_levels.append(parent_mu)
        if exact:
            parent_exact = exacts
            exact_levels.append(exacts)
    return MassAssignment(mu=mu_levels, exact=exact_levels)


def ball_mass_upper(tree: CantorTree, mass: MassAssignment, D: Ball, metric=None) -> float:
    """Upper bound for the limit measure of D: total mass of deepest-level
    balls meeting D."""
    metric = metric or tree.metric
    centers, radii = tree.leaves()
    hit = _norm(centers - D.center, metric) < radii + D.radius
    return float(np.sum(mass.mu[-1][hit]))


# ---------------------------------------------------------------------------
# audits


def _neighborhood_in_window(cloud, u, centers, half_widths, gap):
    """Lengths of (cloud-point u-neighborhood) intersected with the windows
    [c - w, c + w], vectorized; exact when the point intervals are disjoint
    (2u below the cloud gap), else falls back to interval merging."""
    lo = centers - half_widths
    hi = centers + half_widths
    i0 = np.searchsorted(cloud, lo - u)
    i1 = np.searchsorted(cloud, hi + u)
    if 2.0 * u < gap:
        rows, owner = _slice_rows(i0, i1)
        p = cloud[rows]
        # work relative to each point so the tiny interval length does
        # not cancel against the ambient coordinate magnitude
        seg = np.clip(np.minimum(u, hi[owner] - p) - np.maximum(-u, lo[owner] - p), 0.0, None)
        return np.bincount(owner, weights=seg, minlength=len(centers))
    out = np.empty(len(centers))
    for t in range(len(centers)):
        spans = np.stack([cloud[i0[t] : i1[t]] - u, cloud[i0[t] : i1[t]] + u], axis=1)
        out[t] = _merge_length(spans, lo=lo[t], hi=hi[t])
    return out


def _points_on_stage(params, j, centers, tol):
    cloud = params.stages.sorted_points(int(j))
    pos = np.searchsorted(cloud, centers)
    best = np.full(len(centers), np.inf)
    for off in (-1, 0):
        k = np.clip(pos + off, 0, len(cloud) - 1)
        best = np.minimum(best, np.abs(cloud[k] - centers))
    return best <= tol


def verify_levels(tree: CantorTree, params: ConstructionParams) -> AuditReport:
    """Audit P0-P5 with independent geometric predicates.

    P0/P1/P2(geometry)/P4/P5 are exact checks; P3 and the P2 measure clause
    are numeric with the module tolerance.
    """
    pair = params.gauges
    consts = tree.constants
    props = {}
    props["P0"] = PropertyAudit("P0", bool(tree.root.radius > 0), details={"root": True})

    p1_viol, p2_viol, p3_viol, p4_viol, p5_viol = [], [], [], [], []
    p2_details = {"d1_hat": math.inf, "d2_hat": 0.0, "iv_max_ratio": 0.0}

    for lev_idx, locs in enumerate(tree.levels):
        parent_centers, parent_radii = tree.balls(lev_idx + 1)
        for li, loc in enumerate(locs):
            row = loc.parent_index
            parent = Ball(parent_centers[row], float(parent_radii[row]))
            tag = f"L{lev_idx + 2}/{li}"
            c = loc.c_center[:, 0]
            r = loc.c_radius
            # P1: 3-dilates pairwise disjoint (1-D neighbor sweep) and inside parent
            order = np.argsort(c)
            cc, rr = c[order], r[order]
            gaps = cc[1:] - cc[:-1]
            bad = gaps < 3.0 * (rr[1:] + rr[:-1]) * (1 - AUDIT_RTOL)
            for k in np.nonzero(bad)[0]:
                p1_viol.append((tag, "overlap", float(cc[k])))
            outside = np.abs(c - parent.center[0]) + 3.0 * r > parent.radius * (1 + AUDIT_RTOL)
            for k in np.nonzero(outside)[0]:
                p1_viol.append((tag, "outside-parent", float(c[k])))

            # P2 per selection ball
            ua = _stage_radii(params.stages, loc.a_j)
            counts = np.bincount(loc.c_aidx, minlength=len(loc.a_radius))
            if np.any(counts == 0):
                for k in np.nonzero(counts == 0)[0]:
                    p2_viol.append((tag, "empty-selection", int(k)))
            # (i) radii match the stage radius; centers on the stage set
            if not np.allclose(r, ua[loc.c_aidx], rtol=1e-12, atol=0):
                p2_viol.append((tag, "radius-mismatch", None))
            for j in np.unique(loc.c_j):
                sel = loc.c_j == j
                tol = max(1e-12, 1e-9 * params.stages.upsilon(int(j)))
                on = _points_on_stage(params, j, loc.c_center[sel, 0], tol)
                if not np.all(on):
                    p2_viol.append((tag, "center-off-stage", int(j)))
            # (ii) 3L inside A; (iii) handled by P1 within A via construction,
            # checked here per selection ball
            ac = loc.a_center[loc.c_aidx, 0]
            ar = loc.a_radius[loc.c_aidx]
            if np.any(np.abs(c - ac) + 3.0 * r > ar * (1 + AUDIT_RTOL)):
                p2_viol.append((tag, "3L-outside-A", None))
            # 3A disjoint within each sublevel + inside parent
            for i in np.unique(loc.a_sublevel):
                sel = loc.a_sublevel == i
                ac_i = loc.a_center[sel, 0]
                ar_i = loc.a_radius[sel]
                o = np.argsort(ac_i)
                aa, bb = ac_i[o], ar_i[o]
                if np.any(aa[1:] - aa[:-1] < 3.0 * (bb[1:] + bb[:-1]) * (1 - AUDIT_RTOL)):
                    p2_viol.append((tag, "3A-overlap", int(i)))
                if np.any(
                    np.abs(ac_i - parent.center[0]) + 3.0 * ar_i
                    > parent.radius * (1 + AUDIT_RTOL)
                ):
                    p2_viol.append((tag, "3A-outside-parent", int(i)))
            # (v) cardinality envelope relative to (f/g)^(kappa/(1-kappa))
            fu = eval_gauge(pair.f, ua)
            gu = eval_gauge(pair.g, ua)
            envelope = (fu / gu) ** (pair.kappa / (1.0 - pair.kappa))
            with np.errstate(divide="ignore"):
                ratios = counts / envelope
            p2_details["d1_hat"] = min(p2_details["d1_hat"], float(np.min(ratios)))
            p2_details["d2_hat"] = max(p2_details["d2_hat"], float(np.max(ratios)))
            # (iv) measure sandwich, exact 1-D intervals against the stage cloud
            iv_bound = 2.0 * 7.0 * (consts["c2"] / consts["c1"])
            vol_l_per_a = np.bincount(
                loc.c_aidx, weights=2.0 * r, minlength=len(loc.a_radius)
            )
            for j in np.unique(loc.a_j):
                sel = np.nonzero(loc.a_j == j)[0]
                u = params.stages.upsilon(int(j))
                cloud = params.stages.sorted_points(int(j))
                gap = np.min(np.diff(cloud)) if len(cloud) > 1 else math.inf
                ca = loc.a_center[sel, 0]
                ra = loc.a_radius[sel]
                vol_a = _neighborhood_in_window(cloud, u, ca, ra, gap)
                vol_half = _neighborhood_in_window(cloud, u, ca, ra / 2.0, gap)
                vol_l = vol_l_per_a[sel]
                for t in np.nonzero(vol_l > vol_a * (1 + 1e-9))[0]:
                    p2_viol.append((tag, "iv-upper", int(sel[t])))
                for t in np.nonzero(vol_half > iv_bound * vol_l)[0]:
                    p2_viol.append((tag, "iv-lower", int(sel[t])))
                pos = vol_l > 0
                if np.any(pos):
                    p2_details["iv_max_ratio"] = max(
                        p2_details["iv_max_ratio"], float(np.max(vol_half[pos] / vol_l[pos]))
                    )

            # P3 per sublevel
            vg_b = eval_gauge(pair.g, parent.radius)
            for i in np.unique(loc.a_sublevel):
                sel = loc.a_sublevel == i
                mass = float(np.sum(eval_gauge(pair.g, loc.a_radius[sel])))
                if mass < consts["c6"] * vg_b * (1 - AUDIT_RTOL):
                    p3_viol.append((tag, int(i), mass, consts["c6"] * vg_b))

            # P4 between consecutive sublevels
            subs = sorted(np.unique(loc.c_sublevel))
            for a, b in zip(subs[:-1], subs[1:]):
                fa = eval_gauge(pair.f, loc.c_radius[loc.c_sublevel == a])
                fb = eval_gauge(pair.f, loc.c_radius[loc.c_sublevel == b])
                ga = eval_gauge(pair.g, loc.c_radius[loc.c_sublevel == a])
                gb = eval_gauge(pair.g, loc.c_radius[loc.c_sublevel == b])
                ha = fa / ga**pair.kappa
                hb = fb / gb**pair.kappa
                if np.max(fb) > 0.5 * np.min(fa) * (1 + AUDIT_RTOL):
                    p4_viol.append((tag, int(a), int(b), "f"))
                if np.max(hb) > 0.5 * np.min(ha) * (1 + AUDIT_RTOL):
                    p4_viol.append((tag, int(a), int(b), "h"))

            # P5: recorded sublevel count equals formula; leaf formula >= 2
            if loc.parent_level == 1:
                formula = root_sublevel_count(consts, params.eta)
            else:
                formula = child_sublevel_count(consts, pair, parent.radius)
            built = len(np.unique(loc.a_sublevel))
            if loc.l_b != formula or built != formula:
                p5_viol.append((tag, loc.l_b, formula, built))
            leaf_counts = np.array(
                [child_sublevel_count(consts, pair, float(rr)) for rr in np.unique(loc.c_radius)]
            )
            if np.any(leaf_counts < 2):
                p5_viol.append((tag, "leaf-l_b<2", int(np.min(leaf_counts))))

    props["P1"] = PropertyAudit("P1", not p1_viol, p1_viol)
    props["P2"] = PropertyAudit("P2", not p2_viol, p2_viol, p2_details)
    props["P3"] = PropertyAudit("P3", not p3_viol, p3_viol)
    props["P4"] = PropertyAudit("P4", not p4_viol, p4_viol)
    props["P5"] = PropertyAudit("P5", not p5_viol, p5_viol)
    return AuditReport(properties=props)


# ---------------------------------------------------------------------------
# mass bound check


def holder_check(
    tree: CantorTree,
    mass: MassAssignment,
    params: ConstructionParams,
    trials=10_000,
    rng=None,
    radius_cap=None,
) -> HolderReport:
    """Max over random balls D of mass(D) * eta / f(r(D)).

    The reported maximum is restricted to trials resolving the construction:
    balls meeting at least two deepest-level balls with radius at most
    ``radius_cap`` (default: eight times the coarsest selection radius).
    Above that radius the truncated tree saturates (an untruncated
    construction would keep subdividing); those trials and single-ball
    trials are recorded separately.

    Trial t draws log r(D) uniformly up to log r(B0) (even t) or up to the
    cap (odd t), then the center uniformly in B0 (t % 4 < 2) or within
    2 r(D) of a uniformly chosen leaf center.  One loop makes exactly these
    scalar draws, so the generator stream and its final state do not depend
    on how the balls are scored.  Leaves are sorted by center, so the leaves
    a ball can meet form a window; the leaves deep inside the ball are
    certain hits, and only the two edge bands go through the hit predicate
    ``|c - x| < r + r(D)``.  The maxima are exact: trials are ranked by a
    prefix-sum mass with an absolute error bound, every trial that could
    reach a maximum is rescored with ``eta * sum(mass of hits) / f(r(D))``
    in trial order, and the first strict maximum gives ``worst_ball``.
    """
    if trials < 1000:
        raise ArgumentError("trials must be >= 1000")
    if rng is None:
        rng = np.random.default_rng(0)
    pair = params.gauges
    eta = params.eta
    centers, radii = tree.leaves()
    mu = mass.mu[-1]
    order = np.argsort(centers[:, 0])
    c = centers[order, 0]
    r = radii[order]
    m = mu[order]
    rmax_leaf = float(np.max(r))
    if radius_cap is None:
        # the coarsest resolved structure: selection balls pack at six times
        # their radius, so pairs of them are first jointly visible here
        radius_cap = 8.0 * float(np.max(np.concatenate([l.a_radius for l in tree.levels[0]])))
    r_lo = float(np.min(r))
    r_hi = tree.root.radius
    log_lo, log_hi = math.log(r_lo), math.log(r_hi)
    log_cap = math.log(min(radius_cap, r_hi))

    # the draws: half the radii probe the resolved band below the cap
    x = np.empty(trials)
    rad = np.empty(trials)
    uniform, integers, exp = rng.uniform, rng.integers, math.exp
    b0_lo = tree.root.center[0] - tree.root.radius
    b0_hi = tree.root.center[0] + tree.root.radius
    for t in range(trials):
        rad_t = exp(uniform(log_lo, log_hi if t % 2 == 0 else log_cap))
        if t % 4 < 2:
            x[t] = uniform(b0_lo, b0_hi)
        else:
            k = integers(0, len(c))
            x[t] = c[k] + uniform(-2.0 * rad_t, 2.0 * rad_t)
        rad[t] = rad_t

    # window [i0, i1) of leaves a ball can meet, core [k0, k1) of certain hits.
    # A core leaf lies more than ``slack`` inside the ball's edge; rounding of
    # the core bounds and of the hit predicate stays below 5u(|x| + r(D) + r)
    # (u = eps/2), so the slack 16u(...) makes every core leaf a hit
    i0 = np.searchsorted(c, x - rad - rmax_leaf)
    i1 = np.searchsorted(c, x + rad + rmax_leaf)
    slack = 8.0 * np.finfo(float).eps * (float(np.max(np.abs(x))) + float(np.max(rad)) + rmax_leaf)
    k0 = np.clip(np.searchsorted(c, x - rad + slack, side="right"), i0, i1)
    k1 = np.clip(np.searchsorted(c, x + rad - slack), k0, i1)
    rows, band = _slice_rows(np.concatenate([i0, k1]), np.concatenate([k0, i1]))
    band %= trials
    hit = np.abs(c[rows] - x[band]) < r[rows] + rad[band]
    n_hit = (k1 - k0) + np.bincount(band[hit], minlength=trials)
    prefix = np.concatenate([[0.0], np.cumsum(m)])
    approx_mass = prefix[k1] - prefix[k0] + np.bincount(band[hit], weights=m[rows[hit]], minlength=trials)
    # the prefix sums, their difference, the band sums and np.sum each err by
    # at most n u sum|m|, so 4(n + 1) eps sum|m| bounds |approx - np.sum|
    mass_err = 4.0 * (len(m) + 1) * np.finfo(float).eps * float(np.sum(np.abs(m)))

    scored = np.nonzero(n_hit > 0)[0]
    single = n_hit[scored] == 1
    qualifying = (n_hit[scored] >= 2) & (rad[scored] <= radius_cap)
    every = np.ones(len(scored), dtype=bool)
    f_rad = eval_gauge(pair.f, rad[scored])
    approx = eta * approx_mass[scored] / f_rad
    # slack for the mass error and for a few ulp between array and scalar
    # gauge evaluations and roundings of the ratio
    tol = 2.0 * eta * mass_err / f_rad + 1e-9 * np.abs(approx)
    contender = np.zeros(len(scored), dtype=bool)
    for cls in (every, single, qualifying):
        if np.any(cls):
            contender |= cls & (approx + tol >= np.max((approx - tol)[cls]))
    ratio = np.zeros(len(scored))
    for q in np.nonzero(contender)[0]:
        t = scored[q]
        seg = slice(i0[t], i1[t])
        hit_t = np.abs(c[seg] - x[t]) < r[seg] + rad[t]
        ratio[q] = eta * float(np.sum(m[seg][hit_t])) / eval_gauge(pair.f, float(rad[t]))

    def class_max(cls):
        sel = contender & cls
        return max(0.0, float(np.max(ratio[sel]))) if np.any(sel) else 0.0

    max_ratio = class_max(qualifying)
    worst = None
    if max_ratio > 0:
        q = np.nonzero(contender & qualifying)[0]
        t = scored[q[np.argmax(ratio[q])]]  # the first trial reaching the maximum
        worst = Ball(np.array([x[t]]), float(rad[t]))
    bound = eta / max_ratio if max_ratio > 0 else math.inf
    return HolderReport(
        eta=eta,
        max_ratio=max_ratio,
        worst_ball=worst,
        implied_hf_lower_bound=bound,
        radius_cap=radius_cap,
        qualifying_trials=int(np.count_nonzero(qualifying)),
        single_ball_trials=int(np.count_nonzero(single)),
        single_ball_max_ratio=class_max(single),
        full_range_max_ratio=class_max(every),
        trials=trials,
    )


def format_tree(tree: CantorTree, mass: MassAssignment | None = None, max_leaves=60) -> str:
    """Plain-text rendering of a small tree (root, selection balls, leaves)."""
    lines = [
        f"root B(center={tree.root.center.tolist()}, radius={tree.root.radius:g})",
        f"constants: c6={tree.constants['c6']:.4g} c5={tree.constants['c5']:.4g} "
        f"eta={tree.constants['eta']:g}",
    ]
    for lev_idx, locs in enumerate(tree.levels):
        level_no = lev_idx + 2
        end = 0
        for loc in locs:
            start, end = end, end + len(loc.c_center)  # the local level's rows
            lines.append(
                f"level {level_no} local level (parent L{loc.parent_level}#{loc.parent_index}): "
                f"l_B={loc.l_b} sublevel masses={[round(m, 4) for m in loc.sub_masses]}"
            )
            if len(loc.c_center) > max_leaves:
                lines.append(
                    f"  {len(loc.a_center)} selection balls, {len(loc.c_center)} leaves "
                    "(too many to print)"
                )
                continue
            for k in range(len(loc.a_center)):
                leaf_idx = np.nonzero(loc.c_aidx == k)[0]
                lines.append(
                    f"  (A;{int(loc.a_j[k])}) sub{int(loc.a_sublevel[k])} "
                    f"c={loc.a_center[k, 0]:.6g} r={loc.a_radius[k]:.4g} "
                    f"#C={len(leaf_idx)}"
                )
                for i in leaf_idx:
                    mu = ""
                    if mass is not None:
                        mu = f" mu={mass.mu[lev_idx][start + i]:.4g}"
                    lines.append(
                        f"    L c={loc.c_center[i, 0]:.6g} r={loc.c_radius[i]:.4g}{mu}"
                    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization


# array fields ``a_<key>`` and ``c_<key>`` form the "a" and "c" blocks of a
# local level; centers are stored as (m, 1) columns and written as lists
_BLOCKS = ("a", "c")


def _local_to_json(loc: LocalLevel) -> dict:
    out = {}
    for f in fields(LocalLevel):
        v = getattr(loc, f.name)
        block, _, key = f.name.partition("_")
        if block in _BLOCKS:
            out.setdefault(block, {})[key] = (v[:, 0] if key == "center" else v).tolist()
        else:
            out[f.name] = np.asarray(v).tolist() if isinstance(v, list) else v
    return out


def _local_from_json(e) -> LocalLevel:
    kw = {}
    for f in fields(LocalLevel):
        block, _, key = f.name.partition("_")
        if block in _BLOCKS:
            v = np.array(e[block][key], dtype=float if key in ("center", "radius") else np.int64)
            kw[f.name] = v[:, None] if key == "center" else v
        else:
            v = e[f.name]
            kw[f.name] = list(v) if isinstance(v, list) else v
    return LocalLevel(**kw)


def tree_to_json(tree: CantorTree) -> dict:
    return {
        "root": {"center": tree.root.center.tolist(), "radius": tree.root.radius},
        "metric": tree.metric,
        "constants": tree.constants,
        "case": tree.case,
        "levels": [[_local_to_json(loc) for loc in locs] for locs in tree.levels],
    }


def tree_from_json(obj) -> CantorTree:
    return CantorTree(
        root=Ball(np.array(obj["root"]["center"]), obj["root"]["radius"]),
        metric=obj["metric"],
        constants=obj["constants"],
        levels=[[_local_from_json(e) for e in locs] for locs in obj["levels"]],
        case=obj.get("case", "a"),
    )
