"""The first local level of the nested ball construction, with mass
assignment and audits.

Builds, inside a domain ball (the root), the local level of selection balls
(radius = the transformed stage radius) subdivided into target balls
(radius = the stage radius), sublevel by sublevel, under the
separation/mass properties P0-P5; assigns the telescoping probability mass;
and checks the resulting measure against the gauge of random balls.

Desk-scale notes baked into this module:

* The ambient gauge g must be the power law matching the ambient dimension
  (the Lebesgue volume of balls is then exactly ``2**n * g(r)``); the
  construction is implemented for 1-D domains with grid-cloud stage
  providers (``stages.GridCloudStages``), which the bundled configurations
  use.
* Sublevel radii collapse at least 18-fold per sublevel (separation times
  the one-third fit), so the per-sublevel ball count multiplies accordingly;
  feasible configurations keep the sublevel count at or below ~3.  The mass
  that deeper sublevels would carry in an untruncated construction is
  instead front-loaded through per-sublevel mass targets proportional to the
  strength parameter eta, preserving the eta-scaling of the measure
  denominator that the mass bound needs.
* A tree is its root and the one local level under it; its target balls are
  the leaves.  A leaf cannot carry a local level of its own: the root's P3
  capacity check caps c6 at 0.245, G1 puts f(u) > 3 g(u) at every stage
  radius a leaf takes, so a leaf's level would need at least 13 sublevels,
  each at least 18 times finer than the one before, which is under 1e-16
  of the leaf's radius.

The ``LocalLevel`` holds its selection ("a") and target ("c") balls as flat
1-D arrays addressed by row, built one sublevel at a time; a center is one
coordinate, and ``c_aidx`` names each target ball's selection ball by row.

Memory and time follow the balls the builder selects.  A stage cloud
(``stages.sorted_points(j)``) is read only through ``len``, slices,
integer-array gathers and ``.searchsorted``, which a ``stages.GridView``
computes on demand; the first sublevel's K_{G,B} selection sweeps its
stages ``BLOCK`` points at a time (``covering._chain_blocks``), and a
selection ball's target balls are a left-to-right sweep of its slice of
the stage cloud, every slice in one ``covering._sweep_chain``.  A deep
sublevel's cover pool is a ``GridView`` too: its covers are chosen by index,
every fourth point of each run the placed balls leave free, so they move
with the domain.  The audit costs O(balls) however many grid points a
ball spans: it decides whether a grid's point intervals are disjoint from
the grid spacing, scanning the gaps only when rounding could decide it
(``_points_disjoint``); it measures a window over disjoint intervals in
closed form from the first and last points it reaches
(``_neighborhood_in_window``); it tests a leaf center against the grid
point its index formula names, and searches for the nearest point only
where that one is off; and it reads a column's distinct values from its
runs.

Every center is a point of its stage cloud, whose size depends on the
stage index alone, so a saved tree (``tree_to_json``, format
``TREE_FORMAT``) stores each selection ball as its index into the cloud,
and codes every per-ball column as runs of equal values (``_rle``): each
block's radius, stage index and sublevel, and the steps between the
selection balls' indices.  A selection ball's target balls are swept from
its own stage cloud, near its center, and are mostly consecutive points of
it, so the target balls are stored as groups of consecutive indices under
one owner, each group placed relative to its owner's index, with the group
columns coded the same way.  ``tree_from_json`` gathers the centers back
from the same stages, bit for bit, and refuses a tree whose grid differs
from theirs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .covering import BLOCK, Ball, _nearest, _slice_rows, _sweep_chain, build_kgb
from .covering import greedy_net  # unread here; perfbench's tracer wraps cantor.greedy_net
from .dimfun import GaugePair, eval_gauge, mtp_radius, ratio_direction_at, verify_gauge_pair
from .errors import ArgumentError, ConstructionError, CoverageShortfall
from .measure import _merge_union, _union_length_in, ball_volume
from .stages import GridCloudStages, GridView

AUDIT_RTOL = 1e-9
MAX_SUBLEVELS = 64  # P5 sublevel budget of one local level
MAX_NODES = 2_000_000  # target-ball budget of one local level
FORMAT_MAX_LEAVES = 60  # a larger level prints as counts only
D2 = 2.0  # P2 cardinality constant, recorded in a tree's constants
MASS_FACTOR = 2.5  # a local level's mass target is MASS_FACTOR * eta
WINDOW_BLOCK = 16384  # audit windows measured at once, so that no temporary spans a whole stage


@dataclass
class ConstructionParams:
    domain: Ball
    gauges: GaugePair
    eta: float
    stages: GridCloudStages
    g_floor: int = 1
    c5: float = 1.0

    def __post_init__(self):
        if not (self.eta > 1):
            raise ArgumentError("eta must exceed 1")


@dataclass
class LocalLevel:
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
    constants: dict
    level: LocalLevel  # the local level under the root; its target balls are the leaves
    case: str = "a"

    @property
    def levels(self):
        # read only by perfbench's tracer (``_obs_build_cantor`` reads
        # ``levels[0][0]``); the package reads ``level``
        return [[self.level]]


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
        raise ArgumentError(
            "the construction requires the ambient gauge g = r**n so ball "
            "volumes are exactly 2**n * g(r)"
        )
    c1 = c2 = 2.0**n
    lam = 2.0**n
    c7 = 5.0**n
    c6 = (1.0 / (2.0 * lam)) * (c1 / c2) ** 2 * (params.c5 / c7)
    hg_b0 = ball_volume(n, params.domain.radius)
    return {
        "c1": c1,
        "c2": c2,
        "lambda": lam,
        "c5": params.c5,
        "c6": c6,
        "c7": c7,
        "d2": D2,
        "hg_b0": hg_b0,
        "eta": params.eta,
    }


def _classify_case(pair: GaugePair):
    return {"increasing": "a", "decreasing": "b"}.get(ratio_direction_at(pair, 1e-6), "c")


def _count_above(q):
    """floor(q) + 1, or inf for a q past the float range: a count over every budget."""
    return math.floor(q) + 1 if math.isfinite(q) else math.inf


def root_sublevel_count(consts, eta):
    return _count_above(consts["c2"] * eta / (consts["c6"] * consts["hg_b0"]))


def child_sublevel_count(consts, pair: GaugePair, radius):
    vf = eval_gauge(pair.f, radius)
    vg = eval_gauge(pair.g, radius)
    return _count_above(vf / (consts["c6"] * vg))


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
    j = max(lo, params.stages.j_min)
    j_max = params.stages.j_max
    if _stage_ok(params, consts, j, b_radius, eps, **kw):
        return j
    hi = j
    while True:
        hi = min(hi * 2, j_max)
        if _stage_ok(params, consts, hi, b_radius, eps, **kw):
            break
        if hi >= j_max:
            raise ConstructionError(
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
# local-level assembly (1-D grid-cloud stage providers)


def _require_supported(params):
    # keyed on the grid: a van der Corput provider serves sorted_points too
    if params.domain.ambient_dim != 1:
        raise ArgumentError("the builder is implemented for 1-D domains")
    if not isinstance(params.stages, GridCloudStages):
        raise ArgumentError("the builder needs a grid-cloud stage provider")


def _caj_nets(params, a_centers, a_radii, j, upsilon):
    """Net points of the stage cloud inside half of each selection ball, as
    flat ``(centers, owner)`` sorted by owning ball: the sweep of each
    slice that keeps a point more than 6 upsilon past the last one kept,
    which on the line is the greedy net.  An empty slice yields its ball's
    own center."""
    cloud = params.stages.sorted_points(j)
    i0 = cloud.searchsorted(a_centers - 0.5 * a_radii)
    i1 = cloud.searchsorted(a_centers + 0.5 * a_radii)
    _, owner, centers = _sweep_chain(cloud, i0, i1, np.nextafter(6.0 * upsilon, np.inf))
    empty = np.flatnonzero(i1 == i0)
    at = np.searchsorted(owner, empty)
    return np.insert(centers, at, a_centers[empty]), np.insert(owner, at, empty)


def _build_local_level(params, consts):
    """Selection and target balls of the local level under the root B."""
    pair = params.gauges
    B = params.domain
    n = B.ambient_dim
    vg_b = eval_gauge(pair.g, B.radius)
    vol_b = ball_volume(n, B.radius)
    l_b = root_sublevel_count(consts, params.eta)
    if l_b > MAX_SUBLEVELS:
        raise ConstructionError(
            f"P5 sublevel count {l_b:.3g} exceeds the budget {MAX_SUBLEVELS}; "
            "the radius ladder makes such levels infeasible at desk scale"
        )
    eps = epsilon_b(consts, pair, B.radius, l_b)
    floor_mass = consts["c6"] * vg_b
    # packing capacity in gauge units: disjoint 3-dilates inside the region
    # bound sum g(radius) by vol(region)/6^n, discounted to greedy jamming
    cap_first = 0.75 * vol_b / 6.0**n
    cap_deep = 0.75 * ball_volume(n, B.radius / 2.0) / 6.0**n
    if floor_mass * 1.02 > cap_first:
        raise ConstructionError(
            f"P3 per-sublevel mass {floor_mass:.3g} exceeds the packing capacity "
            f"{cap_first:.3g} of the parent ball; no disjoint selection can satisfy it"
        )
    pump = MASS_FACTOR * params.eta

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
                f"sublevel {i}: P3 floor {floor_mass:.3g} exceeds capacity {cap:.3g}", sublevel=i
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
        except ConstructionError as exc:
            raise ConstructionError(str(exc), sublevel=i) from exc
        g_primes.append(g_prime)

        if i == 1:
            centers, radii, js, mass_i = _first_sublevel(params, B, g_prime, target, vol_b)
        else:
            leaf_center, leaf_radius = (np.concatenate([p[k] for p in c_parts]) for k in (0, 1))
            centers, radii, js, mass_i = _deep_sublevel(
                params, B, i, g_prime, d_min, target, leaf_center, leaf_radius
            )
        if mass_i < floor_mass:
            raise ConstructionError(
                f"sublevel {i} mass {mass_i:.3g} fell below the P3 floor {floor_mass:.3g}", sublevel=i
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
        if n_c > MAX_NODES:
            raise ConstructionError(f"node budget {MAX_NODES} exceeded at sublevel {i}", sublevel=i)

    # the a_* then the c_* fields of LocalLevel, in order
    blocks = [np.concatenate(col) for parts in (a_parts, c_parts) for col in zip(*parts)]
    return LocalLevel(l_b, eps, g_primes, sub_targets, sub_masses, *blocks)


def transformed_stages(stages, pair: GaugePair):
    """The stage sequence ``j -> (stages.sorted_points(j), tilde_upsilon_j)``,
    each radius transformed by ``mtp_radius``, as ``build_kgb`` takes it."""
    return lambda j: (stages.sorted_points(j), mtp_radius(pair, stages.upsilon(j)))


def _first_sublevel(params, B, g_start, target, vol_b):
    """Sublevel 1: a K_{G,B} selection of transformed-radius balls from stage
    ``g_start`` on, covering the share of B that the mass target asks for."""
    pair = params.gauges
    frac = min(1.0, (2.0**B.ambient_dim * target) / (params.c5 * vol_b))
    try:
        kgb = build_kgb(B, g_start, transformed_stages(params.stages, pair), params.stages.j_max, frac, c5=params.c5)
    except CoverageShortfall as exc:
        raise ConstructionError(
            f"sublevel 1 selection met only {exc.achieved_fraction / (frac * params.c5):.3g} of its target",
            sublevel=1,
        ) from exc
    # a sequential sum, as np.cumsum adds: the last ulp decides later counts
    mass = float(np.cumsum(eval_gauge(pair.g, kgb.radii))[-1])
    return kgb.selected[:, 0], kgb.radii, kgb.js, mass


def _deep_sublevel(params, B, i, g_prime, d_min, target, leaf_center, leaf_radius):
    """Cover the leftover region with d_min-radius balls and pick one
    transformed-radius ball on the stage cloud inside each, until the
    sublevel mass target is met; returns (centers, radii, js, mass).

    The covers are chosen by index from a ``GridView`` pool of step d_min/2
    over half of B, point k at ``half_lo + d_min + k * step``.  Each merged
    4-dilate of a placed target ball blocks the index range of the pool
    points it holds (closed intervals), and the covers are every fourth
    index of each free run, so they are 2 d_min apart and disjoint.  No run
    carries a phase from the one before: a target radius is at least d_min,
    so a blocked range spans at least 16 steps.  Each stage hosts every
    remaining cover on its nearest cloud point, takes the first hosts within
    ``d_min - 3 tilde`` up to the target, and leaves the rest to the next
    stage whose cloud differs (``stages.next_change``).
    """
    pair = params.gauges
    step = d_min / 2.0
    lo = B.center[0] - 0.5 * B.radius + d_min - 0.5 * step
    size = max(int(math.floor(B.radius / step)) - 3, 0)  # k * step <= B.radius - 2 d_min
    pool = GridView(lo, lo + size * step, size)
    # leftover region: half of B minus the 4-dilates of every target ball
    # placed so far; cover centers outside 4L with radius <= r(L) cannot
    # touch 3L, which preserves P1 across sublevels
    starts, ends = _merge_union(leaf_center - 4.0 * leaf_radius, leaf_center + 4.0 * leaf_radius)
    run_lo = np.append(0, pool.searchsorted(np.nextafter(ends, np.inf)))
    run_hi = np.append(pool.searchsorted(starts), size)
    count = np.maximum(-((run_lo - run_hi) // 4), 0)  # ceil(run length / 4)
    covers = pool[4 * np.arange(count.sum()) + np.repeat(run_lo - 4 * (np.cumsum(count) - count), count)]
    if len(covers) == 0:
        raise ConstructionError(f"sublevel {i}: leftover region produced no cover balls", sublevel=i)

    mass = 0.0
    j = g_prime
    picks = []  # (centers, radii, js) per stage
    while mass < target and j <= params.stages.j_max and len(covers):
        tilde = mtp_radius(pair, params.stages.upsilon(j))
        room = d_min - 3.0 * tilde
        if room > 0:
            cloud = params.stages.sorted_points(j)
            g_tilde = eval_gauge(pair.g, tilde)
            host = _nearest(cloud, covers)
            ok = np.abs(host - covers) <= room
            take = host[ok][: int(math.ceil((target - mass) / g_tilde))]
            picks.append((take, np.full(len(take), tilde), np.full(len(take), j, dtype=np.int64)))
            mass += len(take) * g_tilde
            covers = covers[~ok]
        j = params.stages.next_change(j)
    if mass < target:
        raise ConstructionError(
            f"sublevel {i}: mass {mass:.3g} below target {target:.3g} "
            f"({len(covers)} cover balls unhosted by stage {j})",
            sublevel=i,
        )
    return (*map(np.concatenate, zip(*picks)), mass)


def build_cantor(params: ConstructionParams) -> CantorTree:
    """Build the root's local level, enforcing P0-P5."""
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
    return CantorTree(root=params.domain, constants=consts, level=_build_local_level(params, consts), case=case)


def check_tree_params(tree: CantorTree, params: ConstructionParams):
    """Raise ``ArgumentError`` naming the first way a tree differs from the
    parameters it is verified under: its root against the domain, a center
    that is not 1-D, its constants against the parameters' constants (JSON
    floats round-trip exactly), or its gauge case against the pair's.

    The stage grid is bound when the tree is read (``tree_from_json``); the
    stage radii, and the gauge pair beyond its case, stay unbound here, and
    the audits P2 and P5 test them in part.
    """
    root, domain = tree.root, params.domain
    if not (np.array_equal(root.center, domain.center) and root.radius == domain.radius):
        raise ArgumentError(
            f"tree root B({root.center.tolist()}, {root.radius!r}) is not the config's domain "
            f"B({domain.center.tolist()}, {domain.radius!r})"
        )
    # a 1-D tree holds its root center as (1,) and its level's centers as (m,)
    if root.center.shape != (1,) or tree.level.a_center.ndim != 1 or tree.level.c_center.ndim != 1:
        raise ArgumentError("tree holds a center that is not 1-D")
    consts = _ambient_constants(params)
    for key in sorted(consts.keys() | tree.constants.keys()):
        if tree.constants.get(key) != consts.get(key):
            raise ArgumentError(
                f"tree constant {key} = {tree.constants.get(key)!r}, the config gives {consts.get(key)!r}"
            )
    case = _classify_case(params.gauges)
    if tree.case != case:
        raise ArgumentError(f"tree case ({tree.case}) is not the config pair's case ({case})")


def tree_fingerprint(tree: CantorTree) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(tree.constants, sort_keys=True).encode())
    loc = tree.level
    for arr in (loc.a_center, loc.a_radius, loc.a_j, loc.c_center, loc.c_radius, loc.c_j):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# mass assignment


def _run_starts(col):
    """Indices where a run of equal values of the 1-D ``col`` starts."""
    return np.flatnonzero(np.concatenate([[True], col[1:] != col[:-1]]))[: len(col)]


def _distinct(col):
    """``np.unique(col)`` of a column made of runs of equal values, which
    sorts only the first value of each run."""
    return np.unique(col[_run_starts(col)])


def _stage_radii(stages, js):
    """``stages.upsilon(j)`` for every entry of ``js``, one call per distinct
    j, read from the runs of equal j."""
    start = _run_starts(js)
    uniq, inverse = np.unique(js[start], return_inverse=True)
    radii = np.array([stages.upsilon(int(j)) for j in uniq])
    return np.repeat(radii[inverse], np.diff(np.append(start, len(js))))


def assign_mass(tree: CantorTree, params: ConstructionParams) -> np.ndarray:
    """The leaves' masses, aligned with the target balls.  Telescoping mass:
    the root carries 1; each target ball splits its selection ball's share,
    with selection shares proportional to h(stage radius)**(1/(1-kappa))."""
    pair = params.gauges
    loc = tree.level
    stage_u = _stage_radii(params.stages, loc.a_j)
    w = (eval_gauge(pair.f, stage_u) / eval_gauge(pair.g, stage_u) ** pair.kappa) ** (1.0 / (1.0 - pair.kappa))
    counts = np.bincount(loc.c_aidx, minlength=len(loc.a_radius))
    return w[loc.c_aidx] / (float(np.sum(w)) * counts[loc.c_aidx])


# ---------------------------------------------------------------------------
# audits


def _min_gap(cloud):
    """Smallest gap between neighbouring points of a sorted cloud (inf for
    fewer than two), read in overlapping slices of ``BLOCK + 1`` points so
    that a grid view computes one slice at a time."""
    gaps = [np.min(np.diff(cloud[s : s + BLOCK + 1])) for s in range(0, len(cloud) - 1, BLOCK)]
    return min(gaps, default=math.inf)


# Element k of a grid view is lo + (hi - lo) * (k + 1/2) / size, computed
# with four roundings (k + 1/2 is exact), each of relative error at most
# eps / 2.  With S = |lo| + |hi|, an element lies within 2.01 eps S of the
# exact point, a computed gap within 4.3 eps S of the exact spacing
# (hi - lo) / size, and the computed spacing within 0.5 eps S of it.  A
# result below the normal range adds at most half the smallest subnormal per
# rounding.  The margin is over six times the sum, so 2u below the computed
# spacing less the margin is below every gap, and 2u at or above the spacing
# plus the margin is at or above every gap.
_GRID_GAP_RTOL = 32.0 * np.finfo(float).eps
_GRID_GAP_ATOL = 16.0 * np.finfo(float).smallest_subnormal


def _points_disjoint(cloud, u):
    """``2u < _min_gap(cloud)``: whether the u-intervals about the points of
    the sorted cloud are pairwise disjoint.

    On a grid view of two or more points the answer is read from the
    spacing ``(hi - lo) / size`` when 2u lies farther than the rounding
    margin from it, since every computed gap lies within the margin of the
    spacing; inside the margin, as on a grid whose points round to ties,
    and for any other cloud, the gaps are scanned.
    """
    if isinstance(cloud, GridView) and len(cloud) > 1:
        h = (cloud.hi - cloud.lo) / cloud.size
        margin = _GRID_GAP_RTOL * (abs(cloud.lo) + abs(cloud.hi)) + _GRID_GAP_ATOL
        if 2.0 * u < h - margin:
            return True
        if 2.0 * u >= h + margin:
            return False
    return bool(2.0 * u < _min_gap(cloud))


def _clipped_share(p, u, lo, hi):
    """Length of [p - u, p + u] inside [lo, hi], computed relative to p so
    that the tiny interval length does not cancel against the ambient
    coordinate magnitude; written over ``p``."""
    below = np.subtract(lo, p)
    np.subtract(hi, p, out=p)
    np.minimum(p, u, out=p)
    p -= np.maximum(below, -u, out=below)
    return np.maximum(p, 0.0, out=p)


def _neighborhood_in_window(cloud, u, centers, half_widths, disjoint):
    """Lengths of (cloud-point u-neighborhood) intersected with the windows
    [c - w, c + w], vectorized, over the n points each window reaches (from
    ``searchsorted(c - w - u)`` up to ``searchsorted(c + w + u)``).

    On ``disjoint`` intervals (``_points_disjoint``) a point with a reached
    neighbour on each side lies more than u inside both window ends, so its
    share ``min(u, hi - p) - max(-u, lo - p)`` is exactly 2u (u is a double
    and rounding is monotone).  A window's length is then ``share(first) +
    share(last) + (n - 2) * 2u`` (n >= 2), ``share(first)`` (n = 1) or 0,
    in O(1) per window, ``WINDOW_BLOCK`` windows at a time.  Where the first
    point lies on the rounded search start, the second may lie less than u
    inside lo, and its own share is taken.  The lengths equal the per-point
    sums bit for bit for n <= 2, and to the last ulps above.  Otherwise the
    intervals of every point the windows reach are merged once and each
    window reads its length from the union."""
    if not disjoint:
        lo = centers - half_widths
        hi = centers + half_widths
        p = cloud[cloud.searchsorted(lo - u).min(initial=len(cloud)) : cloud.searchsorted(hi + u).max(initial=0)]
        return _union_length_in(_merge_union(p - u, p + u), lo, hi)
    out = np.zeros(len(centers))
    if len(cloud):
        for s in range(0, len(centers), WINDOW_BLOCK):
            out[s : s + WINDOW_BLOCK] = _disjoint_lengths(
                cloud, u, centers[s : s + WINDOW_BLOCK], half_widths[s : s + WINDOW_BLOCK]
            )
    return out


def _disjoint_lengths(cloud, u, centers, half_widths):
    """``_neighborhood_in_window`` of disjoint intervals, non-empty cloud."""
    lo = centers - half_widths
    hi = centers + half_widths
    start = lo - u
    i0 = cloud.searchsorted(start)
    i1 = cloud.searchsorted(hi + u)
    n = i1 - i0
    first = cloud[np.minimum(i0, len(cloud) - 1)]
    on_start = first == start  # then first may lie below lo - u, and the second point short of 2u
    out = _clipped_share(first, u, lo, hi)
    out[n == 0] = 0.0
    many = np.flatnonzero(n >= 2)  # the windows whose last point is not their first
    if len(many) == len(n):  # a slice, not a gather
        many = slice(None)
    out[many] += _clipped_share(cloud[i1[many] - 1], u, lo[many], hi[many]) + (n[many] - 2) * (2.0 * u)
    second = np.flatnonzero(on_start & (n >= 3))
    if len(second):
        out[second] += _clipped_share(cloud[i0[second] + 1], u, lo[second], hi[second]) - 2.0 * u
    return out


def _overlapping_dilates(centers, radii):
    """Centers of the balls whose 3-dilate overlaps that of the next ball in
    center order (a 1-D neighbour sweep), in center order.  Sorted centers
    are read as they are; others come in sorted runs, which a stable sort
    merges.  Either way tied centers keep their row order."""
    c, r = centers, radii
    if not np.all(c[1:] >= c[:-1]):
        order = np.argsort(centers, kind="stable")
        c, r = centers[order], radii[order]
    return c[:-1][c[1:] - c[:-1] < 3.0 * (r[1:] + r[:-1]) * (1 - AUDIT_RTOL)]


def verify_levels(tree: CantorTree, params: ConstructionParams) -> AuditReport:
    """Audit P0-P5 with independent geometric predicates.

    P0/P1/P2(geometry)/P4/P5 are exact checks; P3 and the P2 measure clause
    are numeric with the module tolerance.

    The P2(iv) sandwich measures the stage cloud's u-neighbourhood inside
    each selection ball and its half.  Where the points' u-intervals are
    disjoint, a window's length is the clipped shares of its first and last
    points plus 2u for each point between (``_neighborhood_in_window``), so
    a length over three or more points, and ``p2_details["iv_max_ratio"]``,
    may differ in the last ulps from a sum over every point.  The cost is
    O(selection balls + leaves), not O(grid points inside the balls).
    """
    pair = params.gauges
    consts = tree.constants
    props = {}
    props["P0"] = PropertyAudit("P0", bool(tree.root.radius > 0), details={"root": True})

    p1_viol, p2_viol, p3_viol, p4_viol, p5_viol = [], [], [], [], []
    p2_details = {"d1_hat": math.inf, "d2_hat": 0.0, "iv_max_ratio": 0.0}
    loc, root = tree.level, tree.root
    c = loc.c_center
    r = loc.c_radius
    # P1: 3-dilates pairwise disjoint and inside the root
    p1_viol += [("overlap", float(x)) for x in _overlapping_dilates(c, r)]
    outside = np.abs(c - root.center[0]) + 3.0 * r > root.radius * (1 + AUDIT_RTOL)
    p1_viol += [("outside-parent", float(x)) for x in c[outside]]

    # P2 per selection ball
    ua = _stage_radii(params.stages, loc.a_j)
    counts = np.bincount(loc.c_aidx, minlength=len(loc.a_radius))
    p2_viol += [("empty-selection", int(k)) for k in np.nonzero(counts == 0)[0]]
    # (i) radii match the stage radius; centers on the stage set
    if not np.allclose(r, ua[loc.c_aidx], rtol=1e-12, atol=0):
        p2_viol.append(("radius-mismatch", None))
    for j in _distinct(loc.c_j):
        cj = c[loc.c_j == j]
        tol = max(1e-12, 1e-9 * params.stages.upsilon(int(j)))
        cloud = params.stages.sorted_points(int(j))
        if isinstance(cloud, GridView):  # the nearest point is no farther than the guessed one
            cj = cj[~(np.abs(cloud[cloud.nearest_index(cj)] - cj) <= tol)]
        if len(cj) and not np.all(np.abs(_nearest(cloud, cj) - cj) <= tol):
            p2_viol.append(("center-off-stage", int(j)))
    # (ii) 3L inside A; (iii) handled by P1 within A via construction,
    # checked here per selection ball
    ac = loc.a_center[loc.c_aidx]
    ar = loc.a_radius[loc.c_aidx]
    if np.any(np.abs(c - ac) + 3.0 * r > ar * (1 + AUDIT_RTOL)):
        p2_viol.append(("3L-outside-A", None))
    # 3A disjoint within each sublevel + inside the root
    for i in _distinct(loc.a_sublevel):
        sel = loc.a_sublevel == i
        ac_i = loc.a_center[sel]
        ar_i = loc.a_radius[sel]
        if len(_overlapping_dilates(ac_i, ar_i)):
            p2_viol.append(("3A-overlap", int(i)))
        if np.any(np.abs(ac_i - root.center[0]) + 3.0 * ar_i > root.radius * (1 + AUDIT_RTOL)):
            p2_viol.append(("3A-outside-parent", int(i)))
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
    vol_l_per_a = np.bincount(loc.c_aidx, weights=2.0 * r, minlength=len(loc.a_radius))
    for j in _distinct(loc.a_j):
        sel = np.nonzero(loc.a_j == j)[0]
        u = params.stages.upsilon(int(j))
        cloud = params.stages.sorted_points(int(j))
        disjoint = _points_disjoint(cloud, u)
        ca = loc.a_center[sel]
        ra = loc.a_radius[sel]
        vol_a = _neighborhood_in_window(cloud, u, ca, ra, disjoint)
        vol_half = _neighborhood_in_window(cloud, u, ca, ra / 2.0, disjoint)
        vol_l = vol_l_per_a[sel]
        for t in np.nonzero(vol_l > vol_a * (1 + 1e-9))[0]:
            p2_viol.append(("iv-upper", int(sel[t])))
        for t in np.nonzero(vol_half > iv_bound * vol_l)[0]:
            p2_viol.append(("iv-lower", int(sel[t])))
        pos = vol_l > 0
        if np.any(pos):
            p2_details["iv_max_ratio"] = max(
                p2_details["iv_max_ratio"], float(np.max(vol_half[pos] / vol_l[pos]))
            )

    # P3 per sublevel
    vg_b = eval_gauge(pair.g, root.radius)
    for i in _distinct(loc.a_sublevel):
        sel = loc.a_sublevel == i
        mass = float(np.sum(eval_gauge(pair.g, loc.a_radius[sel])))
        if mass < consts["c6"] * vg_b * (1 - AUDIT_RTOL):
            p3_viol.append((int(i), mass, consts["c6"] * vg_b))

    # P4 between consecutive sublevels
    def f_and_h(i):  # f and h = f / g**kappa at the distinct target radii of sublevel i
        radii = _distinct(loc.c_radius[loc.c_sublevel == i])
        f = eval_gauge(pair.f, radii)
        return {"f": f, "h": f / eval_gauge(pair.g, radii) ** pair.kappa}

    subs = _distinct(loc.c_sublevel).tolist()
    for a, b in zip(subs[:-1], subs[1:]):
        va, vb = f_and_h(a), f_and_h(b)
        p4_viol += [(int(a), int(b), k) for k in "fh" if np.max(vb[k]) > 0.5 * np.min(va[k]) * (1 + AUDIT_RTOL)]

    # P5: recorded sublevel count equals formula; leaf formula >= 2
    formula = root_sublevel_count(consts, params.eta)
    built = len(_distinct(loc.a_sublevel))
    if loc.l_b != formula or built != formula:
        p5_viol.append((loc.l_b, formula, built))
    leaf_counts = np.array([child_sublevel_count(consts, pair, float(rr)) for rr in _distinct(loc.c_radius)])
    if np.any(leaf_counts < 2):
        p5_viol.append(("leaf-l_b<2", int(np.min(leaf_counts))))

    props["P1"] = PropertyAudit("P1", not p1_viol, p1_viol)
    props["P2"] = PropertyAudit("P2", not p2_viol, p2_viol, p2_details)
    props["P3"] = PropertyAudit("P3", not p3_viol, p3_viol)
    props["P4"] = PropertyAudit("P4", not p4_viol, p4_viol)
    props["P5"] = PropertyAudit("P5", not p5_viol, p5_viol)
    return AuditReport(properties=props)


# ---------------------------------------------------------------------------
# mass bound check


def _holder_draws(rng, trials, c, logs, b0):
    """Centers and radii of ``holder_check``'s trial balls, drawn from the
    PCG64 generator ``rng`` exactly as this scalar loop draws them::

        for t in range(trials):
            rad[t] = exp(rng.uniform(log_lo, log_hi if t % 2 == 0 else log_cap))
            if t % 4 < 2:
                x[t] = rng.uniform(*b0)
            else:
                k = rng.integers(0, len(c))
                x[t] = c[k] + rng.uniform(-2.0 * rad[t], 2.0 * rad[t])

    The loop's requests are laid out in stream order (the radius, a near
    trial's index tries, the center) and read from one ``random_raw`` block
    of the generator's 64-bit words.  A double takes a word w and is
    ``(w >> 11) * 2**-53``; ``uniform``'s ``low + (high - low) * u`` is
    applied as arrays.  An index below n = len(c) takes Lemire's bounded
    method's tries until one is accepted.  n is at most 2**32 (a level holds
    at most ``MAX_NODES`` leaves), so a try reads a 32-bit half: the half
    the generator holds over (``has_uint32`` and ``uinteger`` in its state,
    kept across doubles), else the low half of a fresh word, whose high half
    it then holds; the try accepts v when (v n mod 2**32) >= (2**32 - n) mod
    n and gives (v n) >> 32.  n = 1 draws nothing.  The first layout gives
    every index one try; while an index's last try is rejected, the first
    such index gains a try and the words are decoded again, any word the
    longer layout needs drawn after the block.  A try is rejected with
    probability below n / 2**32, so a decode pass is rarely repeated, and
    the generator ends exactly past the loop's words; its held half is then
    set as the loop leaves it.
    The radii keep ``math.exp``, as ``np.exp`` may round differently.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ArgumentError(f"holder_check needs a PCG64 generator, not {type(bitgen).__name__}")
    log_lo, log_hi, log_cap = logs
    n = len(c)
    state = bitgen.state
    held, held_half = state["has_uint32"], state["uinteger"]
    near = np.nonzero(np.arange(trials) % 4 >= 2)[0]  # trials drawn near a leaf
    tries = np.full(len(near), int(n > 1))
    words = np.empty(0, dtype=np.uint64)
    low32 = np.uint64(2**32 - 1)
    while True:
        per = np.full(trials, 2)  # requests of each trial, in stream order
        per[near] += tries
        first = np.cumsum(per) - per
        req = _slice_rows(first[near] + 1, first[near] + 1 + tries)[0]
        # q counts the tries after the held half: a try with even q takes a
        # fresh word's low half, with odd q the high half of the word try
        # q - 1 took
        q = np.arange(len(req)) - held
        fresh = np.ones(int(per.sum()), dtype=bool)
        fresh[req] = q % 2 == 0
        word = np.cumsum(fresh) - 1
        if word[-1] >= len(words):
            words = np.concatenate([words, bitgen.random_raw(word[-1] + 1 - len(words))])
        if not len(req):
            break
        odd = q % 2
        half = words[word[req[np.arange(len(req)) - odd]]] >> (32 * odd).astype(np.uint64) & low32
        half[q < 0] = held_half
        m = half * np.uint64(n)  # below 2**64
        accept, value = m & low32 >= (2**32 - n) % n, m >> np.uint64(32)
        last = np.cumsum(tries) - 1
        rejected = np.nonzero(~accept[last])[0]
        if not len(rejected):
            break
        tries[rejected[0]] += 1
    leaf = value[last].astype(np.intp) if len(req) else np.zeros(len(near), dtype=np.intp)
    if len(req):
        state = bitgen.state
        state["has_uint32"] = int(not odd[-1])
        state["uinteger"] = int(half[-1] if odd[-1] else words[word[req[-1]]] >> np.uint64(32))
        bitgen.state = state
    u = (words[word[first]] >> np.uint64(11)) * 2.0**-53
    v = (words[word[first + per - 1]] >> np.uint64(11)) * 2.0**-53
    high = np.where(np.arange(trials) % 2 == 0, log_hi, log_cap)
    rad = np.fromiter(map(math.exp, (log_lo + (high - log_lo) * u).tolist()), float, trials)
    x = b0[0] + (b0[1] - b0[0]) * v
    r2 = 2.0 * rad[near]
    x[near] = c[leaf] + (-r2 + (r2 - -r2) * v[near])
    return x, rad


def holder_check(
    tree: CantorTree,
    mu,
    params: ConstructionParams,
    trials=10_000,
    *,
    rng,
    radius_cap=None,
) -> HolderReport:
    """Max over random balls D of mass(D) * eta / f(r(D)), with ``mu`` the
    leaves' masses (``assign_mass``).

    The reported maximum is restricted to trials resolving the construction:
    balls meeting at least two leaves with radius at most
    ``radius_cap`` (default: eight times the coarsest selection radius).
    Above that radius the truncated tree saturates (an untruncated
    construction would keep subdividing); those trials and single-ball
    trials are recorded separately.

    Trial t draws log r(D) uniformly up to log r(B0) (even t) or up to the
    cap (odd t), then the center uniformly in B0 (t % 4 < 2) or within
    2 r(D) of a uniformly chosen leaf center.  ``rng`` must be a PCG64
    ``Generator`` (``np.random.default_rng``; any other raises
    ``ArgumentError``, as does a level of more than ``MAX_NODES`` leaves):
    ``_holder_draws`` reads its raw words and gives the values and final
    state a loop of scalar draws would, so the generator
    stream does not depend on how the balls are drawn or scored.  Leaves
    are sorted by center, so the leaves
    a ball can meet form a window; the leaves deep inside the ball are
    certain hits, and only the two edge bands go through the hit predicate
    ``|c - x| < r + r(D)``.  The maxima are exact: trials are ranked by a
    prefix-sum mass with an absolute error bound, every trial that could
    reach a maximum is rescored with ``eta * sum(mass of hits) / f(r(D))``
    in trial order, and the first strict maximum gives ``worst_ball``.
    """
    if trials < 1000:
        raise ArgumentError("trials must be >= 1000")
    if len(tree.level.c_center) > MAX_NODES:
        raise ArgumentError(f"holder_check reads at most {MAX_NODES} leaves, not {len(tree.level.c_center)}")
    pair = params.gauges
    eta = params.eta
    order = np.argsort(tree.level.c_center)
    c = tree.level.c_center[order]
    r = tree.level.c_radius[order]
    m = mu[order]
    rmax_leaf = float(np.max(r))
    if radius_cap is None:
        # the coarsest resolved structure: selection balls pack at six times
        # their radius, so pairs of them are first jointly visible here
        radius_cap = 8.0 * float(np.max(tree.level.a_radius))
    r_lo = float(np.min(r))
    r_hi = tree.root.radius
    log_lo, log_hi = math.log(r_lo), math.log(r_hi)
    log_cap = math.log(min(radius_cap, r_hi))

    # the draws: half the radii probe the resolved band below the cap
    b0 = (tree.root.center[0] - tree.root.radius, tree.root.center[0] + tree.root.radius)
    x, rad = _holder_draws(rng, trials, c, (log_lo, log_hi, log_cap), b0)

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


def format_tree(tree: CantorTree, mu=None) -> str:
    """Plain-text rendering of a small tree (root, selection balls, leaves),
    with the leaves' masses ``mu`` (``assign_mass``) when given."""
    loc = tree.level
    lines = [
        f"root B(center={tree.root.center.tolist()}, radius={tree.root.radius:g})",
        f"constants: c6={tree.constants['c6']:.4g} c5={tree.constants['c5']:.4g} "
        f"eta={tree.constants['eta']:g}",
        f"local level: l_B={loc.l_b} sublevel masses={[round(m, 4) for m in loc.sub_masses]}",
    ]
    if len(loc.c_center) > FORMAT_MAX_LEAVES:
        lines.append(f"  {len(loc.a_center)} selection balls, {len(loc.c_center)} leaves (too many to print)")
        return "\n".join(lines)
    for k in range(len(loc.a_center)):
        leaf_idx = np.nonzero(loc.c_aidx == k)[0]
        lines.append(
            f"  (A;{int(loc.a_j[k])}) sub{int(loc.a_sublevel[k])} "
            f"c={loc.a_center[k]:.6g} r={loc.a_radius[k]:.4g} #C={len(leaf_idx)}"
        )
        for i in leaf_idx:
            m = "" if mu is None else f" mu={mu[i]:.4g}"
            lines.append(f"    L c={loc.c_center[i]:.6g} r={loc.c_radius[i]:.4g}{m}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization


TREE_FORMAT = 5  # the tree.json layout that tree_to_json writes and tree_from_json reads
_BLOCKS = ("a", "c")  # LocalLevel's selection and target ball columns, a_<key> and c_<key>
_RUN_KEYS = ("sublevel", "j", "radius")  # the per-ball columns both blocks store, run-length coded
_GROUP_KEYS = ("owner", "first", "count")  # the c block's group columns


def json_default(obj):
    """``json.dumps`` default for ``tree_to_json``: an array becomes its
    list only while the encoder writes it, so no whole-tree list is built;
    any other number is written as a float."""
    return obj.tolist() if isinstance(obj, np.ndarray) else float(obj)


def _cloud_index(loc: LocalLevel, block, stages):
    """Each ball's index into its stage cloud ``stages.sorted_points(j)``."""
    center, js = getattr(loc, f"{block}_center"), getattr(loc, f"{block}_j")
    index = np.empty(len(js), dtype=np.int64)
    start = _run_starts(js)
    for s, e in zip(start, np.append(start[1:], len(js))):
        j = int(js[s])
        cloud = stages.sorted_points(j)
        k = np.minimum(cloud.searchsorted(center[s:e]), len(cloud) - 1)
        off = np.flatnonzero(cloud[k].view(np.int64) != center[s:e].view(np.int64))
        if len(off):
            raise ConstructionError(
                f"{block}-ball {s + off[0]} center {center[s + off[0]]!r} is not a point of "
                f"the stage-{j} cloud, so the tree cannot be saved"
            )
        index[s:e] = k
    return index


def _rle(col):
    """``[values, lengths]`` of the runs of equal values of the 1-D ``col``."""
    start = _run_starts(col)
    return [col[start], np.diff(np.append(start, len(col)))]


def _groups_to_json(index, aidx, a_index):
    """The c block's balls as groups, the maximal runs of balls with one
    owner and consecutive cloud indices: each group's step from the previous
    group's owner (the first steps from -1), its first cloud index less its
    owner's, and its ball count."""
    n = len(index)
    new = np.concatenate([[True], (np.diff(aidx) != 0) | (np.diff(index) != 1)])[:n]
    g = np.flatnonzero(new)
    owner = aidx[g]
    cols = (np.diff(owner, prepend=-1), index[g] - a_index[owner], np.diff(np.append(g, n)))
    return {key: _rle(col) for key, col in zip(_GROUP_KEYS, cols)}


def _level_to_json(loc: LocalLevel, stages) -> dict:
    out = {}
    for f in fields(LocalLevel):
        v = getattr(loc, f.name)
        if f.name.partition("_")[0] not in _BLOCKS:
            out[f.name] = np.asarray(v).tolist() if isinstance(v, list) else v
    a_index, c_index = (_cloud_index(loc, block, stages) for block in _BLOCKS)
    for block in _BLOCKS:
        out[block] = {key: _rle(getattr(loc, f"{block}_{key}")) for key in _RUN_KEYS}
    out["a"]["index"] = _rle(np.diff(a_index, prepend=0))
    out["c"]["groups"] = _groups_to_json(c_index, loc.c_aidx, a_index)
    return out


def _ints(v, what):
    """A JSON list of integers as an int64 array; anything else is refused,
    so that no float is truncated."""
    a = np.asarray(v)
    if a.ndim != 1 or (a.size and a.dtype.kind != "i"):
        raise ArgumentError(f"{what} is not a list of integers")
    return a.astype(np.int64)


def _floats(v, what):
    """A JSON list of numbers as a float array."""
    a = np.asarray(v)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "if"):
        raise ArgumentError(f"{what} is not a list of numbers")
    return a.astype(float)


def _unrle(pair, what, parse=_ints):
    """The column that ``_rle`` coded as ``pair``, its values read by
    ``parse``.  Like a built local level, it holds at most ``MAX_NODES``
    entries, so no run length can ask for more memory than a build would."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ArgumentError(f"{what} is not a [values, lengths] pair")
    values, lengths = parse(pair[0], what), _ints(pair[1], f"{what} lengths")
    if len(lengths) != len(values) or np.any((lengths <= 0) | (lengths > MAX_NODES)) or lengths.sum() > MAX_NODES:
        raise ArgumentError(f"{what} lengths are not one positive length per value, at most {MAX_NODES} in all")
    return np.repeat(values, lengths)


def _groups_from_json(groups, a_index):
    """Each c-ball's cloud index and a-ball row, from the groups that
    ``_groups_to_json`` wrote."""
    step, first, count = (_unrle(groups[key], f"c group {key}") for key in _GROUP_KEYS)
    if not len(step) == len(first) == len(count):
        raise ArgumentError("c group columns have unequal lengths")
    owner = np.cumsum(step) - 1
    if np.any((owner < 0) | (owner >= len(a_index))):
        raise ArgumentError(f"c group owner is not one of the {len(a_index)} a-balls")
    if np.any((count <= 0) | (count > MAX_NODES)) or count.sum() > MAX_NODES:
        raise ArgumentError(f"c group counts are not positive, at most {MAX_NODES} in all")
    offset = a_index[owner] + first - (np.cumsum(count) - count)  # a group's index less its first row
    return np.arange(count.sum()) + np.repeat(offset, count), np.repeat(owner, count)


def _block_from_json(obj, index, stages, block):
    """A block's columns, its centers gathered by ``index`` from the clouds
    of its stages."""
    col = {key: _unrle(obj[key], f"{block} {key}", _floats if key == "radius" else _ints) for key in _RUN_KEYS}
    for key, c in col.items():
        if len(c) != len(index):
            raise ArgumentError(f"{block} {key} holds {len(c)} entries for {len(index)} {block}-balls")
    js = col["j"]
    col["center"] = np.empty(len(index))
    start = _run_starts(js)
    for s, e in zip(start, np.append(start[1:], len(js))):
        cloud = stages.sorted_points(int(js[s]))
        k = index[s:e]
        if np.any((k < 0) | (k >= len(cloud))):
            raise ArgumentError(f"{block} index lies outside its stage-{js[s]} cloud")
        col["center"][s:e] = cloud[k]
    return col


def _level_from_json(e, stages) -> LocalLevel:
    a_index = np.cumsum(_unrle(e["a"]["index"], "a index"))
    c_index, c_aidx = _groups_from_json(e["c"]["groups"], a_index)
    kw = {"c_aidx": c_aidx}
    for block, index in zip(_BLOCKS, (a_index, c_index)):
        for key, v in _block_from_json(e[block], index, stages, block).items():
            kw[f"{block}_{key}"] = v
    for f in fields(LocalLevel):
        if f.name not in kw:
            v = e[f.name]
            kw[f.name] = list(v) if isinstance(v, list) else v
    return LocalLevel(**kw)


def tree_to_json(tree: CantorTree, stages) -> dict:
    """The tree as a JSON-ready dict in format ``TREE_FORMAT``.

    The local level is the ``level`` object.  Every per-ball column of its
    two blocks is run-length coded as ``[values, lengths]``: each block's
    ``sublevel``, ``j`` and ``radius``; the ``a`` block's ``index``, the
    steps between its selection balls' indices into their stage clouds
    ``stages.sorted_points(j)``; and the ``c`` block's ``groups``, the
    maximal runs of target balls with one owner and consecutive cloud
    indices, as ``owner`` (the step from the previous group's owner),
    ``first`` (the group's first cloud index less its owner's) and
    ``count``.  A center that is not a point of its cloud raises
    ``ConstructionError``.  The columns stay ndarrays; write the dict with
    ``json.dumps(..., default=json_default)``.  ``tree_from_json`` reads
    both this dict and its parsed JSON text."""
    return {
        "format": TREE_FORMAT,
        "grid": {"lo": stages.lo, "hi": stages.hi},
        "root": {"center": tree.root.center.tolist(), "radius": tree.root.radius},
        "constants": tree.constants,
        "case": tree.case,
        "level": _level_to_json(tree.level, stages),
    }


def tree_from_json(obj, stages) -> CantorTree:
    """The tree that ``tree_to_json(tree, stages)`` wrote, its centers
    gathered from ``stages.sorted_points(j)``.

    The tree is bound to the stages it is read with: its grid must be their
    [lo, hi], and each index must lie in its stage's cloud.  A tree of
    another format, a mismatch, a malformed column or group, or columns
    that do not hold one entry per ball raise ``ArgumentError``; so does a
    level of more than ``MAX_NODES`` balls in a block, which no build
    writes.
    """
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt != TREE_FORMAT:
        raise ArgumentError(f"tree format {fmt!r}: this version reads format {TREE_FORMAT} only; rebuild the tree")
    if not isinstance(stages, GridCloudStages):
        raise ArgumentError("a saved tree is read against point-cloud stages, and these have no clouds")
    grid = (obj["grid"]["lo"], obj["grid"]["hi"])
    if grid != (stages.lo, stages.hi):
        raise ArgumentError(f"tree grid {list(grid)} is not the config's stage grid {[stages.lo, stages.hi]}")
    if not isinstance(obj["constants"], dict):
        raise ArgumentError("tree constants are not an object")
    return CantorTree(
        root=Ball(np.array(obj["root"]["center"]), obj["root"]["radius"]),
        constants=obj["constants"],
        level=_level_from_json(obj["level"], stages),
        case=obj["case"],
    )
