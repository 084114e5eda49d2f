"""Random limsup-set simulator on the unit torus.

Stage sets are copies of one base model, translated by uniform draws derived
deterministically from a master seed (one stream per stage index, so stages
are independent by construction and any run is reproducible bit for bit).
Stages are simulated serially, and every query measures torus distances
through one kernel (vectorized for point sets and axis-aligned planes).
The module provides membership queries, Borel-Cantelli frequency
diagnostics, and a covering-exponent estimator for matched-scale tail
unions, whose fitted slope is compared against the predicted value
kappa*s + 1/tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, UnsupportedCombination
from .measure import ScalingFit, _ols_line
from .sets import (
    AffinePlane,
    Isometry,
    PointSet,
    SetModel,
    _spanned_axes,
    distance_to_set,
    transform_model,
)

_MAX_N = 50_000_000  # largest window start N that covering_exponent counts


@dataclass
class RandomScheme:
    base: SetModel
    tau: float
    s: float
    kappa: float
    master_seed: int
    n: int

    def __post_init__(self):
        if not (0 <= self.kappa < 1):
            raise ArgumentError("kappa must lie in [0, 1)")
        if not (self.s - self.kappa * self.s > 0):
            raise ArgumentError("requires s - kappa*s > 0")
        if not (self.tau > 1.0 / (self.s - self.kappa * self.s)):
            raise ArgumentError("requires tau > 1 / (s - kappa*s)")


def draw_isometry(scheme: RandomScheme, j) -> Isometry:
    """Uniform torus translation for stage j, reproducible from the seed."""
    rng = np.random.default_rng([scheme.master_seed, int(j)])
    return Isometry(translation=rng.uniform(0.0, 1.0, size=scheme.n), wrap=True)


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


def _torus_distances(base: SetModel, trans, x):
    """Sup-metric torus distance from x to base + t for each row t of trans.

    Point sets and axis-aligned planes are computed for all rows at once; any
    other base is translated and queried one row at a time.
    """
    if isinstance(base, PointSet):
        q = np.mod(base.points[None, :, :] + trans[:, None, :], 1.0)
        return _wrapped_dist(q, x).max(axis=2).min(axis=1)
    free = _spanned_axes(base.basis) if isinstance(base, AffinePlane) else None
    if free is not None:
        # a translated coordinate plane only moves along its unspanned axes
        q = np.mod(base.base[~free] + trans[:, ~free], 1.0)
        return _wrapped_dist(q, x[~free]).max(axis=1)
    return np.array(
        [
            distance_to_set(
                transform_model(base, Isometry(translation=t, wrap=True)), x, metric="sup", wrap=True
            )
            for t in trans
        ]
    )


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
    d = _torus_distances(scheme.base, _translations(scheme, J, N), x)
    return js[d < rads]


@dataclass
class CoverageDiagnostic:
    j_values: np.ndarray
    p_hat: np.ndarray
    partial_sums: np.ndarray
    classification: str
    last_octave_increment: float
    increment_stderr: float


def coverage_frequency(scheme: RandomScheme, x, radius_rule, J, N, trials=1000) -> CoverageDiagnostic:
    """Empirical stage-hit probabilities over independent re-draws, with a
    divergence classification of the partial sums.

    ``radius_rule`` is a callable j -> radius.  Divergence is judged by the
    growth of the partial sums over the last octave of stage indexes against
    its sampling error.  Each stage draws its ``trials`` translations from
    its own stream derived from the scheme seed, so a stage's estimate does
    not depend on the window [J, N] it is computed in.
    """
    if trials < 1000:
        raise ArgumentError("trials must be >= 1000")
    if J > N:
        raise ArgumentError("requires J <= N")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (scheme.n,):
        raise ArgumentError(f"x must be one point in dimension {scheme.n}")
    js = np.arange(J, N + 1)
    p_hat = np.empty(len(js))
    for idx, j in enumerate(js):
        gen = np.random.default_rng([scheme.master_seed, 917, int(j)])
        trans = gen.uniform(0.0, 1.0, size=(trials, scheme.n))
        d = _torus_distances(scheme.base, trans, x)
        p_hat[idx] = np.count_nonzero(d < float(radius_rule(j))) / trials
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


def covering_exponent(scheme: RandomScheme, N_list) -> CoveringFit:
    """Box-count the tail unions Delta(stage_j, j^-tau), j in [N, 2N], with
    boxes of side N^-tau, and fit the count against 1/side.

    Supported bases: single points (n = 1) and axis-aligned lines (n = 2),
    counted exactly through integer interval unions.
    """
    N_list = sorted(int(N) for N in N_list)
    if len(N_list) < 4:
        raise ArgumentError("need at least 4 stage counts")
    base = scheme.base
    if isinstance(base, PointSet) and len(base.points) == 1 and scheme.n == 1:
        axis, offset, line = 0, base.points[0][0], False
    elif (
        isinstance(base, AffinePlane)
        and scheme.n == 2
        and base.plane_dim == 1
        and (free := _spanned_axes(base.basis)) is not None
    ):
        axis = int(np.flatnonzero(~free)[0])
        offset, line = base.base[axis], True
    else:
        raise UnsupportedCombination(
            "covering exponent supports single-point bases (n=1) and "
            "axis-aligned line bases (n=2)"
        )
    counts, sides, consts = [], [], []
    for N in N_list:
        m = round(N**scheme.tau)
        # counting is exact through integer interval unions, so the limit is
        # index precision and the per-window interval count, not grid memory
        if m > 2**48 or N > _MAX_N:
            raise ArgumentError(f"box indexing for N={N} exceeds the supported range; lower N")
        side = 1.0 / m
        # a translated line covers every box of each row its interval meets
        width = m if line else 1
        js = np.arange(N, 2 * N + 1)
        trans = _translations(scheme, N, 2 * N)
        rads = js.astype(float) ** (-scheme.tau)
        q = np.mod(offset + trans[:, axis], 1.0)
        lo = np.floor((q - rads) * m).astype(np.int64)
        hi = np.floor((q + rads) * m).astype(np.int64)
        count = _interval_union_count(list(zip(lo.tolist(), hi.tolist())), m) * width
        yj = (hi - lo + 1) * width
        counts.append(count)
        sides.append(side)
        consts.append(float(np.max(yj / js.astype(float) ** (scheme.tau * scheme.kappa * scheme.s))))
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
