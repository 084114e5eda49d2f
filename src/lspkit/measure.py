"""Neighborhood-measure estimators, box dimension, Minkowski content, and
scaling-exponent regression.

Volumes are Lebesgue (a constant multiple of the n-dimensional Hausdorff
measure; the constant cancels in every exponent fit).  Ball/box geometry
follows the sup norm by default so sampling windows and ball volumes are
exact.  In ambient dimension 1 with point sets or attractors an exact
interval-arithmetic path replaces Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ArgumentError, EstimationError
from .sets import (
    IFSAttractor,
    PointSet,
    SetModel,
    attractor_bounds,
    cylinder_cut,
    distance_to_set,
    model_window,
    sample_on_set,
)

DEFAULT_SAMPLES = 100_000


@dataclass
class MeasureEstimate:
    value: float
    std_error: float
    samples: int
    method: str  # monte_carlo | exact_1d | grid


@dataclass
class ScalingFit:
    exponent: float
    exponent_stderr: float
    intercept: float
    residual_max: float
    points: list = field(default_factory=list)


@dataclass
class LspFit(ScalingFit):
    kappa_hat: float = float("nan")
    kappa_stderr: float = float("nan")
    c3_hat: float = float("nan")
    c4_hat: float = float("nan")


def ball_volume(n, r, metric="sup"):
    if metric == "sup":
        return (2.0 * r) ** n
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * r**n


def sample_in_ball(center, r, k, rng, metric="sup"):
    """Uniform samples inside B(center, r); rejection from the box for the
    Euclidean case (fine in the catalogue dimensions)."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    if metric == "sup":
        return center + rng.uniform(-r, r, size=(k, n))
    out = np.empty((k, n))
    got = 0
    # batches sized to the acceptance rate (plus 1 % and 16 rows); the points
    # kept are the first k of the uniform stream whatever the batch sizes
    rate = ball_volume(n, 1.0, "euclidean") / 2.0**n
    while got < k:
        cand = rng.uniform(-r, r, size=(int((k - got) / rate * 1.01) + 16, n))
        # squared norms summed left to right, column by column.  np.sum adds
        # rows of up to 7 coordinates in this same order (checked on numpy
        # 2.4 over 400 k rows per length), so the accepted points match
        # np.sum(cand * cand, axis=1) bit for bit there; longer rows are
        # summed pairwise by np.sum and may differ in the last ulp, which
        # only moves points within an ulp of the sphere.
        sq = cand[:, 0] * cand[:, 0]
        for i in range(1, n):
            sq += cand[:, i] * cand[:, i]
        keep = np.compress(sq <= r * r, cand, axis=0)
        take = min(len(keep), k - got)
        out[got : got + take] = keep[:take]
        got += take
    out += center
    return out


# ---------------------------------------------------------------------------
# exact 1-D interval path


def _merge_length(intervals, lo=None, hi=None):
    """Total length of a union of intervals, optionally clipped to [lo, hi]."""
    if len(intervals) == 0:
        return 0.0
    arr = np.asarray(intervals, dtype=float)
    if lo is not None:
        arr = np.clip(arr, lo, hi)
    order = np.argsort(arr[:, 0], kind="stable")
    a = arr[order, 0]
    b = arr[order, 1]
    cummax = np.maximum.accumulate(b)
    prev = np.concatenate([[-np.inf], cummax[:-1]])
    return float(np.sum(np.clip(np.minimum(b, np.inf) - np.maximum(a, prev), 0.0, None)))


def _merge_union(intervals):
    """Sorted disjoint (starts, ends) of a union of intervals, with the
    cumulative length before each piece (None for an empty union)."""
    arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if len(arr) == 0:
        return None
    order = np.argsort(arr[:, 0], kind="stable")
    a = arr[order, 0]
    reach = np.maximum.accumulate(arr[order, 1])
    first = np.flatnonzero(np.concatenate([[True], a[1:] > reach[:-1]]))
    starts = a[first]
    ends = reach[np.concatenate([first[1:] - 1, [len(a) - 1]])]
    return starts, ends, np.concatenate([[0.0], np.cumsum(ends - starts)])


def _union_length_in(union, lo, hi):
    """Length of a merged union (from ``_merge_union``) inside each window
    [lo[i], hi[i]]; each window costs two ``searchsorted`` reads."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if union is None:
        return np.zeros(np.broadcast(lo, hi).shape)
    starts, ends, cum = union

    def covered(x):  # union length in (-inf, x]
        k = np.searchsorted(starts, x, side="right")
        over = np.where(k > 0, ends[np.maximum(k - 1, 0)] - x, 0.0)
        return cum[k] - np.maximum(over, 0.0)

    return np.maximum(covered(hi) - covered(lo), 0.0)


def model_intervals_1d(m: SetModel, delta, resolution=0.02):
    """Intervals whose union is the delta-neighborhood of a 1-D model.

    For attractors the union over the cylinder cut at scale
    ``resolution * delta`` overestimates the neighborhood by at most that
    resolution.
    """
    if isinstance(m, PointSet):
        pts = m.points[:, 0]
        return np.stack([pts - delta, pts + delta], axis=1)
    if isinstance(m, IFSAttractor):
        ifs = m.ifs
        _, r0 = attractor_bounds(ifs)
        target = resolution * delta / max(2 * r0, 1e-300)
        centers, radii = cylinder_cut(ifs, min(target, 1.0))
        c = centers[:, 0]
        return np.stack([c - radii - delta, c + radii + delta], axis=1)
    raise ArgumentError("exact 1-D path supports point sets and attractors only")


def _exact_1d(m, center, r, delta):
    union = _merge_union(model_intervals_1d(m, delta))
    c = float(np.asarray(center).reshape(-1)[0])
    val = float(_union_length_in(union, c - r, c + r))
    return MeasureEstimate(value=val, std_error=0.0, samples=0, method="exact_1d")


# ---------------------------------------------------------------------------
# distance oracles for hit testing


class _DistanceOracle:
    """Vectorized distance evaluator matched to a working scale.

    Attractors are replaced by a KD-tree over cylinder reference points at a
    resolution proportional to the scale; the proportionality constant is the
    same at every scale, so the substitution shifts measure estimates by a
    common factor and leaves every fitted exponent unbiased.  Trees are built
    with sliding-midpoint splits and uncompacted nodes, which build faster;
    nearest-neighbour distances do not depend on the tree's shape.
    """

    def __init__(self, m: SetModel, scale, metric="sup", resolution=0.05):
        self.m = m
        self.metric = metric
        self.p = np.inf if metric == "sup" else 2
        self.tree = None
        if isinstance(m, IFSAttractor):
            _, r0 = attractor_bounds(m.ifs)
            target = resolution * scale / max(2 * r0, 1e-300)
            pts, _ = cylinder_cut(m.ifs, min(target, 1.0), cap=5_000_000)
            self.tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
        elif isinstance(m, PointSet) and len(m.points) > 64:
            self.tree = cKDTree(m.points, balanced_tree=False, compact_nodes=False)

    def __call__(self, pts, bound=np.inf):
        """Distances to the model; a tree query reads inf from ``bound`` on."""
        if self.tree is not None:
            d, _ = self.tree.query(pts, k=1, p=self.p, distance_upper_bound=bound)
            return d
        return distance_to_set(self.m, pts, metric=self.metric)

    def hits(self, pts, delta):
        """Boolean mask of points within delta of the model (bounded query)."""
        return self(pts, delta) < delta


def _hit_counts(m: SetModel, clouds, deltas, metric="sup", resolution=0.05):
    """counts[i, j]: points of ``clouds[i]`` within ``deltas[j]`` of m.

    Every delta reads the same clouds.  Models with an exact distance make
    one distance pass per cloud (a point-set tree query bounded by the
    largest delta) and count each delta against it.  Attractors build one
    proxy tree per delta, since the proxy resolution follows the scale; each
    tree queries every cloud and is freed before the next one is built.
    """
    deltas = np.asarray(deltas, dtype=float)
    counts = np.empty((len(clouds), len(deltas)), dtype=np.int64)
    if isinstance(m, IFSAttractor):
        for j, d in enumerate(deltas):
            oracle = _DistanceOracle(m, d, metric=metric, resolution=resolution)
            for i, pts in enumerate(clouds):
                counts[i, j] = np.count_nonzero(oracle.hits(pts, d))
            del oracle
        return counts
    dmax = float(deltas.max())
    oracle = _DistanceOracle(m, dmax, metric=metric)
    for i, pts in enumerate(clouds):
        dist = oracle(pts, dmax)
        for j, d in enumerate(deltas):
            counts[i, j] = np.count_nonzero(dist < d)
    return counts


def _mc_volume(vol, hits, samples):
    """Monte Carlo volumes and binomial standard errors from hit counts."""
    p = np.asarray(hits) / samples
    return vol * p, vol * np.sqrt(np.maximum(p * (1 - p), 1e-300) / samples)


# ---------------------------------------------------------------------------
# operations


def neighborhood_measure(
    m: SetModel,
    center,
    r,
    delta,
    samples=DEFAULT_SAMPLES,
    rng=None,
    metric="sup",
):
    """Volume of B(center, r) intersected with the delta-neighborhood of m.

    Monte Carlo with binomial standard error; exact interval arithmetic in
    ambient dimension 1 for point sets and attractors.
    """
    if not (0 < delta < r):
        raise ArgumentError("requires 0 < delta < r")
    if samples < 1000:
        raise ArgumentError("samples must be >= 1000")
    n = m.ambient_dim
    if n == 1 and isinstance(m, (PointSet, IFSAttractor)):
        return _exact_1d(m, center, r, delta)
    if rng is None:
        rng = np.random.default_rng(0)
    pts = sample_in_ball(center, r, samples, rng, metric=metric)
    hits = _hit_counts(m, [pts], [delta], metric=metric)[0, 0]
    value, err = _mc_volume(ball_volume(n, r, metric), hits, samples)
    return MeasureEstimate(value=float(value), std_error=float(err), samples=samples, method="monte_carlo")


def _window_volumes(m, scales, samples_per_scale, rng, metric, resolution=0.4):
    """Estimated vol of the delta-neighborhood per scale over a bounding window.

    The window is fixed by the largest scale, and one uniform window sample
    serves every scale: each scale counts its hits among the same points.
    The attractor proxy resolution is proportional to each scale, so the
    proxy bias is a scale-independent factor and cancels in slope fits.
    """
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    lo, hi = model_window(m, margin=float(scales.max()) * 1.5)
    n = m.ambient_dim
    if n == 1 and isinstance(m, (PointSet, IFSAttractor)):
        vols = [_merge_length(model_intervals_1d(m, d), lo=lo[0], hi=hi[0]) for d in scales]
        return scales, np.array(vols), np.zeros(len(scales))
    pts = rng.uniform(lo, hi, size=(samples_per_scale, n))
    counts = _hit_counts(m, [pts], scales, metric=metric, resolution=resolution)[0]
    vols, errs = _mc_volume(float(np.prod(hi - lo)), counts, samples_per_scale)
    return scales, vols, errs


def _ols_line(x, y):
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    fitted = a @ coef
    resid = y - fitted
    dof = max(len(x) - 2, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(a.T @ a)
    return coef[0], coef[1], math.sqrt(max(cov[0, 0], 0.0)), resid


def _support_slopes(x, y):
    """Slopes of the least-gap support lines below and above the points."""
    from scipy.optimize import linprog

    n = len(x)
    out = []
    for sign in (1.0, -1.0):
        c = -sign * np.array([n, float(np.sum(x))])
        a_ub = sign * np.vstack([np.ones(n), x]).T
        b_ub = sign * y
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * 2, method="highs")
        out.append(res.x[1] if res.success else float("nan"))
    return out[0], out[1]  # below, above


def box_dimensions(m: SetModel, scales, samples_per_scale=DEFAULT_SAMPLES, rng=None, metric="sup"):
    """Lower/upper box-dimension fits from neighborhood volumes.

    The central estimate is n minus the least-squares slope of log volume
    against log delta; the lower/upper split fits the support lines touching
    the residual envelope from below and above.
    """
    scales = np.asarray(scales, dtype=float)
    if len(scales) < 4 or scales.max() / scales.min() < 100:
        raise ArgumentError("need >= 4 scales spanning >= 2 decades")
    if rng is None:
        rng = np.random.default_rng(0)
    n = m.ambient_dim
    sc, vols, _ = _window_volumes(m, scales, samples_per_scale, rng, metric)
    if np.all(vols <= 0):
        raise EstimationError("zero measure at every scale")
    keep = vols > 0
    if np.count_nonzero(keep) < 3:
        raise EstimationError("too few scales with positive measure")
    x = np.log(sc[keep])
    y = np.log(vols[keep])
    slope, intercept, slope_se, resid = _ols_line(x, y)
    s_lo, s_hi = _support_slopes(x, y)
    dims = sorted([n - s_lo, n - s_hi])
    pts = list(zip(x.tolist(), y.tolist()))
    rmax = float(np.max(np.abs(resid)))
    lower = ScalingFit(dims[0], slope_se, intercept, rmax, pts)
    upper = ScalingFit(dims[1], slope_se, intercept, rmax, pts)
    return lower, upper


def minkowski_content(m: SetModel, d, scales, samples_per_scale=DEFAULT_SAMPLES, rng=None, metric="sup"):
    """Min and max over scales of delta**-(n-d) * vol of the neighborhood.

    Uses the classical normalization (negative exponent on delta), which
    keeps the content positive and finite for the catalogue sets.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    scales = np.asarray(scales, dtype=float)
    if len(scales) < 4 or scales.max() / scales.min() < 100:
        raise ArgumentError("need >= 4 scales spanning >= 2 decades")
    n = m.ambient_dim
    sc, vols, _ = _window_volumes(m, scales, samples_per_scale, rng, metric)
    if np.all(vols <= 0):
        raise EstimationError("zero measure at every scale")
    contents = vols * sc ** (-(n - d))
    return float(np.min(contents)), float(np.max(contents))


def regress_lsp(log_delta, log_r, log_h):
    """Two-variable least squares log H ~ a*log delta + b*log r + const.

    This is the regression backbone of :func:`fit_lsp`, exposed so its
    correctness can be checked on synthetic power-law data with no geometry
    attached.
    """
    ld = np.asarray(log_delta, dtype=float)
    lr = np.asarray(log_r, dtype=float)
    lh = np.asarray(log_h, dtype=float)
    if np.std(ld) < 1e-12 or np.std(lr) < 1e-12:
        raise ArgumentError("delta and r grids must both vary")
    a = np.vstack([ld, lr, np.ones_like(ld)]).T
    coef, *_ = np.linalg.lstsq(a, lh, rcond=None)
    resid = lh - a @ coef
    dof = max(len(lh) - 3, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(a.T @ a)
    return {
        "delta_exp": float(coef[0]),
        "r_exp": float(coef[1]),
        "intercept": float(coef[2]),
        "delta_exp_stderr": math.sqrt(max(cov[0, 0], 0.0)),
        "r_exp_stderr": math.sqrt(max(cov[1, 1], 0.0)),
        "residuals": resid,
    }


def fit_lsp(
    m: SetModel,
    r_grid,
    delta_ratios,
    samples=DEFAULT_SAMPLES,
    rng=None,
    centers_per_cell=4,
    metric="sup",
):
    """Fit the local scaling exponent kappa from neighborhood measures.

    For each r, centers are drawn on the model and one Monte Carlo cloud per
    center; that one draw (and one distance pass per cloud) serves every
    delta = ratio * r, and each (r, delta) cell averages the measures over
    the centers.  The model log H = (1-kappa)*n log delta + kappa*n log r +
    const is fitted by least squares and kappa read off the r coefficient.
    Envelope constants are reported relative to the fitted exponents.

    Cells that share an r share their draws, so their errors are
    correlated and ``kappa_stderr`` (the ordinary least-squares standard
    error) understates the seed-to-seed spread of ``kappa_hat``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    r_grid = np.asarray(r_grid, dtype=float)
    delta_ratios = np.asarray(delta_ratios, dtype=float)
    if np.any(delta_ratios >= 1.0):
        raise ArgumentError("every delta must stay below its paired r")
    n = m.ambient_dim
    exact = n == 1 and isinstance(m, (PointSet, IFSAttractor))
    rows = []
    unions = {}  # exact path: merged delta-neighbourhood per distinct delta
    for r in r_grid:
        # one draw per r serves every delta = ratio * r: vals[j, i] is the
        # measure at delta j around center i
        deltas = delta_ratios * r
        centers = sample_on_set(m, centers_per_cell, rng)
        if exact:
            c0 = centers[:, 0]
            for d in deltas:
                if d not in unions:
                    unions[d] = _merge_union(model_intervals_1d(m, d))
            vals = np.array([_union_length_in(unions[d], c0 - r, c0 + r) for d in deltas])
            errs = np.zeros_like(vals)
        else:
            clouds = [sample_in_ball(c, r, samples, rng, metric=metric) for c in centers]
            counts = _hit_counts(m, clouds, deltas, metric=metric)
            vals, errs = _mc_volume(ball_volume(n, r, metric), counts.T, samples)
        for d, v, e in zip(deltas, vals, errs):
            mean = float(np.mean(v))
            if mean > 0:
                stderr = float(np.linalg.norm(e)) / len(e)
                rows.append((math.log(r), math.log(d), math.log(mean), stderr / mean, mean))
    if len(rows) < 4:
        raise EstimationError("not enough cells with positive measure")
    lr, ld, lh, ses, hs = map(np.array, zip(*rows))
    reg = regress_lsp(ld, lr, lh)
    kappa_hat = reg["r_exp"] / n
    kappa_se = reg["r_exp_stderr"] / n
    scale = np.exp(ld * (1 - kappa_hat) * n + lr * kappa_hat * n)
    ratios = hs / scale
    fit = LspFit(
        exponent=reg["r_exp"],
        exponent_stderr=reg["r_exp_stderr"],
        intercept=reg["intercept"],
        residual_max=float(np.max(np.abs(reg["residuals"]))),
        points=list(zip(lr.tolist(), ld.tolist(), lh.tolist(), ses.tolist())),
        kappa_hat=float(kappa_hat),
        kappa_stderr=float(kappa_se),
        c3_hat=float(np.min(ratios)),
        c4_hat=float(np.max(ratios)),
    )
    return fit


def scaling_fit_to_json(fit: ScalingFit) -> dict:
    out = {
        "exponent": fit.exponent,
        "exponent_stderr": fit.exponent_stderr,
        "intercept": fit.intercept,
        "residual_max": fit.residual_max,
        "points": fit.points,
    }
    if isinstance(fit, LspFit):
        out.update(
            kappa_hat=fit.kappa_hat,
            kappa_stderr=fit.kappa_stderr,
            c3_hat=fit.c3_hat,
            c4_hat=fit.c4_hat,
        )
    return out
