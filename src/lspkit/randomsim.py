"""Random limsup-set simulator on the unit torus.

Stage sets are copies of one base model, translated by uniform draws from a
counter-based generator: Philox4x64 keyed by ``(master_seed, tag)``, where
stage j owns its own run of counter blocks.  So stages are independent by
construction, a stage's draws do not depend on the window it is simulated
in, and any run is reproducible bit for bit.  A whole window of stages is
one call into numpy's Philox.  Tag 0 draws the stage translations, tag 917
the re-draws of the coverage trials.  Every query measures torus distances
through one kernel (vectorized for point sets and axis-aligned planes), and
the coverage diagnostic measures each block of stages once for all of its
radius rules.  The module provides membership queries, Borel-Cantelli
frequency diagnostics, and a covering-exponent estimator for matched-scale
tail unions, whose fitted slope is compared against the predicted value
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
_TRANSLATION_TAG = 0  # Philox key word 1 of the stage translations
_TRIAL_TAG = 917  # Philox key word 1 of the coverage-trial re-draws
_BLOCK_DRAWS = 2**16  # about this many uniforms per block of coverage stages


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


def stage_uniforms(seed, tag, J, N, k) -> np.ndarray:
    """Uniforms on [0, 1) for stages J..N, shape (N - J + 1, k).

    Row j - J holds the first k doubles of the stream that
    ``Philox(key=(seed, tag), counter=j * b)`` starts, with b = ceil(k / 4)
    (one Philox4x64 call yields four 64-bit words), converted as
    ``Generator.random`` does.  Each stage owns b counter blocks, so a row
    does not depend on the window it is drawn in, and the whole window is
    one ``random_raw`` call.
    """
    J, N, k = int(J), int(N), int(k)
    if J > N:
        raise ArgumentError("requires J <= N")
    b = -(-k // 4)
    key = np.array([seed, tag], dtype=np.uint64)
    raw = np.random.Philox(key=key, counter=J * b).random_raw((N - J + 1) * b * 4)
    return ((raw >> np.uint64(11)) * 2.0**-53).reshape(N - J + 1, 4 * b)[:, :k]


def draw_isometry(scheme: RandomScheme, j) -> Isometry:
    """Uniform torus translation for stage j, reproducible from the seed."""
    t = stage_uniforms(scheme.master_seed, _TRANSLATION_TAG, j, j, scheme.n)[0]
    return Isometry(translation=t, wrap=True)


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
    """Stage translations for j in [J, N], one row per stage."""
    return stage_uniforms(scheme.master_seed, _TRANSLATION_TAG, J, N, scheme.n)


def _frac(q):
    """``q mod 1``, bit for bit as ``np.mod(q, 1.0)`` (the fractional part
    of a double is exact, so both round only the final ``+ 1`` of a negative
    q), at a quarter of its cost."""
    return q - np.floor(q)


def _wrapped_dist(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d)


def _torus_distances(base: SetModel, trans, x):
    """Sup-metric torus distance from x to base + t for each row t of trans.

    Point sets and axis-aligned planes are computed for all rows at once; any
    other base is translated and queried one row at a time.
    """
    if isinstance(base, PointSet):
        q = _frac(base.points[None, :, :] + trans[:, None, :])
        return _wrapped_dist(q, x).max(axis=2).min(axis=1)
    free = _spanned_axes(base.basis) if isinstance(base, AffinePlane) else None
    if free is not None:
        # a translated coordinate plane only moves along its unspanned axes
        q = _frac(base.base[~free] + trans[:, ~free])
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


def coverage_frequency(
    scheme: RandomScheme, x, radius_rules, J, N, trials=1000
) -> list[CoverageDiagnostic]:
    """Empirical stage-hit probabilities over independent re-draws, with a
    divergence classification of the partial sums; one ``CoverageDiagnostic``
    per rule of ``radius_rules``.

    Each rule is a callable j -> radius.  Divergence is judged by the growth
    of the partial sums over the last octave of stage indexes against its
    sampling error.  Stage j re-draws its ``trials`` translations from its
    own counter blocks (tag 917), so a stage's estimate does not depend on
    the window [J, N] it is computed in.  Stages are drawn and measured in
    blocks of about 2**16 uniforms, once for all rules: every rule sees the
    same draws, and its diagnostic is the one a call with that rule alone
    would return, bit for bit.
    """
    if trials < 1000:
        raise ArgumentError("trials must be >= 1000")
    if J > N:
        raise ArgumentError("requires J <= N")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (scheme.n,):
        raise ArgumentError(f"x must be one point in dimension {scheme.n}")
    js = np.arange(J, N + 1)
    radii = np.array([[float(rule(j)) for j in js] for rule in radius_rules])
    hits = np.empty(radii.shape, dtype=np.int64)
    k = trials * scheme.n
    step = max(1, _BLOCK_DRAWS // k)
    for lo in range(0, len(js), step):
        hi = min(lo + step, len(js))
        trans = stage_uniforms(scheme.master_seed, _TRIAL_TAG, js[lo], js[hi - 1], k)
        d = _torus_distances(scheme.base, trans.reshape(-1, scheme.n), x).reshape(hi - lo, trials)
        for rads, row in zip(radii, hits):
            row[lo:hi] = np.count_nonzero(d < rads[lo:hi, None], axis=1)
    return [_classify(js, h / trials, trials) for h in hits]


def _classify(js, p_hat, trials) -> CoverageDiagnostic:
    sums = np.cumsum(p_hat)
    half = np.searchsorted(js, max(js[0], js[-1] // 2))
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


def _interval_union_count(lo, hi, m):
    """Number of distinct integer box indices covered by the ranges
    [lo[i], hi[i]] mod m.

    Ranges that wrap the torus seam are split in two; the pieces are sorted
    by start and merged through the running maximum of their ends, adjacent
    ranges joining into one.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if lo.size == 0:
        return 0
    if np.any(hi - lo + 1 >= m):
        return m
    lo_m, hi_m = lo % m, hi % m
    wraps = lo_m > hi_m
    starts = np.concatenate([lo_m, np.zeros(np.count_nonzero(wraps), dtype=np.int64)])
    ends = np.concatenate([np.where(wraps, m - 1, hi_m), hi_m[wraps]])
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    reach = np.maximum.accumulate(ends[order])
    first = np.flatnonzero(np.concatenate([[True], starts[1:] > reach[:-1] + 1]))
    last = np.concatenate([first[1:] - 1, [len(starts) - 1]])
    return int(np.sum(reach[last] - starts[first] + 1))


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
        q = _frac(offset + trans[:, axis])
        lo = np.floor((q - rads) * m).astype(np.int64)
        hi = np.floor((q + rads) * m).astype(np.int64)
        count = _interval_union_count(lo, hi, m) * width
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
