"""Random limsup-set simulator on the unit torus.

Stage sets are isometric copies of base models, translated by uniform draws
derived deterministically from a master seed (counter-based, one stream per
stage index, so stages are independent by construction and any run is
reproducible bit for bit).  The module provides membership queries,
Borel-Cantelli frequency diagnostics, and a covering-exponent estimator for
matched-scale tail unions, whose fitted slope is compared against the
predicted value kappa*s + 1/tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, UnsupportedCombination
from .measure import ScalingFit, _ols_line
from .sets import AffinePlane, Isometry, PointSet, SetModel, distance_to_set, transform_model


@dataclass
class RandomScheme:
    base: object  # SetModel or callable j -> SetModel
    tau: float
    s: float
    kappa: float
    master_seed: int
    n: int
    rotations: bool = False  # draw torus-compatible rotations (off by default)

    def __post_init__(self):
        if not (0 <= self.kappa < 1):
            raise ArgumentError("kappa must lie in [0, 1)")
        if not (self.s - self.kappa * self.s > 0):
            raise ArgumentError("requires s - kappa*s > 0")
        if not (self.tau > 1.0 / (self.s - self.kappa * self.s)):
            raise ArgumentError("requires tau > 1 / (s - kappa*s)")

    def base_model(self, j) -> SetModel:
        return self.base(j) if callable(self.base) else self.base


def draw_isometry(scheme: RandomScheme, j) -> Isometry:
    """Uniform torus translation for stage j, reproducible from the seed.

    With ``rotations`` enabled a uniform signed permutation (the rotation
    class acting on the torus) is drawn from the same per-stage stream.
    """
    rng = np.random.default_rng([scheme.master_seed, int(j)])
    translation = rng.uniform(0.0, 1.0, size=scheme.n)
    rotation = None
    if scheme.rotations:
        perm = rng.permutation(scheme.n)
        signs = rng.integers(0, 2, size=scheme.n) * 2 - 1
        rotation = np.zeros((scheme.n, scheme.n))
        rotation[np.arange(scheme.n), perm] = signs
    return Isometry(translation=translation, rotation=rotation, wrap=True)


def stage_model(scheme: RandomScheme, j) -> SetModel:
    return transform_model(scheme.base_model(j), draw_isometry(scheme, j))


def stage_radius(scheme: RandomScheme, j, mode="standard", t=None):
    if mode == "standard":
        return float(j) ** (-scheme.tau)
    if mode == "transformed":
        if t is None:
            raise ArgumentError("transformed mode needs the target exponent t")
        expo = scheme.tau * (scheme.kappa * scheme.s - t) / (scheme.s - scheme.kappa * scheme.s)
        return float(j) ** expo
    raise ArgumentError(f"unknown radius mode {mode!r}")


def _translations(scheme, J, N):
    return np.array(
        [draw_isometry(scheme, j).translation for j in range(J, N + 1)]
    )


def _wrapped_dist(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


def hit_indices(scheme: RandomScheme, x, radii="standard", J=1, N=1000, t=None):
    """Stage indices j in [J, N] whose stage set's radius_j-neighborhood
    contains x (torus metric).

    ``radii="standard"`` uses j**-tau; ``radii="transformed"`` uses the
    enlarged radii matched to a target exponent t.
    """
    if J > N:
        raise ArgumentError("requires J <= N")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    js = np.arange(J, N + 1)
    rads = np.array([stage_radius(scheme, j, radii, t) for j in js])
    base = scheme.base_model(J)
    fast = (
        isinstance(base, PointSet)
        and len(base.points) == 1
        and not callable(scheme.base)
        and not scheme.rotations
    )
    if fast:
        trans = _translations(scheme, J, N)
        q = np.mod(base.points[0][None, :] + trans, 1.0)
        d = np.max(_wrapped_dist(q, x[None, :]), axis=1)
        return js[d < rads]
    hits = []
    for idx, j in enumerate(js):
        m = transform_model(scheme.base_model(j), draw_isometry(scheme, j))
        if distance_to_set(m, x, metric="sup", wrap=True) < rads[idx]:
            hits.append(j)
    return np.array(hits, dtype=np.int64)


@dataclass
class CoverageDiagnostic:
    j_values: np.ndarray
    p_hat: np.ndarray
    partial_sums: np.ndarray
    classification: str
    last_octave_increment: float
    increment_stderr: float


def coverage_frequency(
    scheme: RandomScheme, x, radius_rule, J, N, trials=1000, rng=None, threads=1
) -> CoverageDiagnostic:
    """Empirical stage-hit probabilities over independent re-draws, with a
    divergence classification of the partial sums.

    ``radius_rule`` is a callable j -> radius.  Divergence is judged by the
    growth of the partial sums over the last octave of stage indexes against
    its sampling error.  When no generator is passed, each stage draws from
    its own stream derived from the scheme seed, so results do not depend on
    ``threads``.
    """
    if trials < 1000:
        raise ArgumentError("trials must be >= 1000")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    base = scheme.base_model(J)
    js = np.arange(J, N + 1)
    p_hat = np.empty(len(js))

    def _one(idx_j):
        idx, j = idx_j
        r = float(radius_rule(j))
        gen = (
            np.random.default_rng([scheme.master_seed, 917, int(j)]) if rng is None else rng
        )
        trans = gen.uniform(0.0, 1.0, size=(trials, scheme.n))
        if isinstance(base, PointSet) and len(base.points) == 1 and not scheme.rotations:
            q = np.mod(base.points[0][None, :] + trans, 1.0)
            d = np.max(_wrapped_dist(q, x[None, :]), axis=1)
        elif isinstance(base, AffinePlane) and not scheme.rotations:
            # translated plane: distance only moves along unspanned axes
            free = np.isclose(np.abs(base.basis).max(axis=0), 1.0)
            d = np.zeros(trials)
            for axis in np.nonzero(~free)[0]:
                q = np.mod(base.base[axis] + trans[:, axis], 1.0)
                d = np.maximum(d, _wrapped_dist(q, x[axis]))
        else:
            d = np.empty(trials)
            for k in range(trials):
                rot = None
                if scheme.rotations:
                    perm = gen.permutation(scheme.n)
                    signs = gen.integers(0, 2, size=scheme.n) * 2 - 1
                    rot = np.zeros((scheme.n, scheme.n))
                    rot[np.arange(scheme.n), perm] = signs
                m = transform_model(
                    scheme.base_model(j),
                    Isometry(translation=trans[k], rotation=rot, wrap=True),
                )
                d[k] = distance_to_set(m, x, metric="sup", wrap=True)
        p_hat[idx] = np.count_nonzero(d < r) / trials

    items = list(enumerate(js))
    if threads > 1 and rng is None:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_one, items))
    else:
        for it in items:
            _one(it)
    sums = np.cumsum(p_hat)
    half = np.searchsorted(js, max(J, N // 2))
    inc = float(sums[-1] - sums[half])
    se = float(np.sqrt(np.sum(p_hat[half:] * (1 - p_hat[half:])) / trials))
    divergent = inc > max(0.3, 5.0 * se)
    return CoverageDiagnostic(
        j_values=js,
        p_hat=p_hat,
        partial_sums=sums,
        classification="divergent" if divergent else "convergent",
        last_octave_increment=inc,
        increment_stderr=se,
    )


# ---------------------------------------------------------------------------
# box counting of tail unions


def _interval_union_count(intervals, m):
    """Number of distinct integer box indices covered by [lo, hi] ranges mod m."""
    if not intervals:
        return 0
    parts = []
    for lo, hi in intervals:
        lo_m = lo % m
        hi_m = hi % m
        if hi - lo + 1 >= m:
            return m
        if lo_m <= hi_m:
            parts.append((lo_m, hi_m))
        else:  # wraps around the torus seam
            parts.append((lo_m, m - 1))
            parts.append((0, hi_m))
    parts.sort()
    total = 0
    cur_lo, cur_hi = parts[0]
    for a, b in parts[1:]:
        if a > cur_hi + 1:
            total += cur_hi - cur_lo + 1
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    total += cur_hi - cur_lo + 1
    return total


@dataclass
class CoveringFit:
    fit: ScalingFit
    predicted: float
    n_values: list
    counts: list
    sides: list
    per_j_constants: list = field(default_factory=list)  # max #Y_j / j^(tau*kappa*s) per window


def covering_exponent(scheme: RandomScheme, N_list, rng=None, box_budget=50_000_000) -> CoveringFit:
    """Box-count the tail unions Delta(stage_j, j^-tau), j in [N, 2N], with
    boxes of side N^-tau, and fit the count against 1/side.

    Supported bases: single points (n = 1) and axis-aligned lines (n = 2),
    counted exactly through integer interval unions.
    """
    N_list = sorted(int(N) for N in N_list)
    if len(N_list) < 4:
        raise ArgumentError("need at least 4 stage counts")
    base = scheme.base_model(N_list[0])
    counts, sides, consts = [], [], []
    for N in N_list:
        m = round(N**scheme.tau)
        # counting is exact through integer interval unions, so the limit is
        # index precision and the per-window interval count, not grid memory
        if m > 2**48 or N > box_budget:
            raise ArgumentError(f"box indexing for N={N} exceeds the supported range; lower N")
        side = 1.0 / m
        if scheme.rotations:
            raise UnsupportedCombination(
                "exact box counting supports translation-only schemes"
            )
        js = np.arange(N, 2 * N + 1)
        trans = _translations(scheme, N, 2 * N)
        rads = js.astype(float) ** (-scheme.tau)
        yj_norm = []
        if isinstance(base, PointSet) and len(base.points) == 1 and scheme.n == 1:
            q = np.mod(base.points[0][0] + trans[:, 0], 1.0)
            lo = np.floor((q - rads) * m).astype(np.int64)
            hi = np.floor((q + rads) * m).astype(np.int64)
            count = _interval_union_count(list(zip(lo.tolist(), hi.tolist())), m)
            yj = hi - lo + 1
            yj_norm = yj / js.astype(float) ** (scheme.tau * scheme.kappa * scheme.s)
        elif isinstance(base, AffinePlane) and scheme.n == 2 and base.plane_dim == 1:
            free = np.isclose(np.abs(base.basis[0]), 1.0)
            axis = int(np.nonzero(~free)[0][0])
            q = np.mod(base.base[axis] + trans[:, axis], 1.0)
            lo = np.floor((q - rads) * m).astype(np.int64)
            hi = np.floor((q + rads) * m).astype(np.int64)
            rows = _interval_union_count(list(zip(lo.tolist(), hi.tolist())), m)
            count = rows * m
            yj = (hi - lo + 1) * m
            yj_norm = yj / js.astype(float) ** (scheme.tau * scheme.kappa * scheme.s)
        else:
            raise UnsupportedCombination(
                "covering exponent supports single-point bases (n=1) and "
                "axis-aligned line bases (n=2)"
            )
        counts.append(count)
        sides.append(side)
        consts.append(float(np.max(yj_norm)))
    x = np.log(1.0 / np.asarray(sides))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept, slope_se, resid = _ols_line(x, y)
    fit = ScalingFit(
        exponent=float(slope),
        exponent_stderr=float(slope_se),
        intercept=float(intercept),
        residual_max=float(np.max(np.abs(resid))),
        points=list(zip(x.tolist(), y.tolist())),
    )
    predicted = scheme.kappa * scheme.s + 1.0 / scheme.tau
    return CoveringFit(
        fit=fit,
        predicted=predicted,
        n_values=N_list,
        counts=counts,
        sides=sides,
        per_j_constants=consts,
    )
