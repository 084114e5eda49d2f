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
    while got < k:
        cand = rng.uniform(-r, r, size=(2 * (k - got) + 16, n))
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
    spans = model_intervals_1d(m, delta)
    c = float(np.asarray(center).reshape(-1)[0])
    val = _merge_length(spans, lo=c - r, hi=c + r)
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

    def __call__(self, pts):
        if self.tree is not None:
            d, _ = self.tree.query(pts, k=1, p=self.p)
            return d
        return distance_to_set(self.m, pts, metric=self.metric)

    def hits(self, pts, delta):
        """Boolean mask of points within delta of the model (bounded query)."""
        if self.tree is not None:
            d, _ = self.tree.query(pts, k=1, p=self.p, distance_upper_bound=delta)
            return np.isfinite(d) & (d < delta)
        return distance_to_set(self.m, pts, metric=self.metric) < delta


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
    oracle=None,
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
    if oracle is None:
        oracle = _DistanceOracle(m, delta, metric=metric)
    pts = sample_in_ball(center, r, samples, rng, metric=metric)
    hits = int(np.count_nonzero(oracle.hits(pts, delta)))
    p = hits / samples
    vol = ball_volume(n, r, metric)
    return MeasureEstimate(
        value=vol * p,
        std_error=vol * math.sqrt(max(p * (1 - p), 1e-300) / samples),
        samples=samples,
        method="monte_carlo",
    )


def _window_volumes(m, scales, samples_per_scale, rng, metric, resolution=0.4):
    """Estimated vol of the delta-neighborhood per scale over a bounding window.

    The attractor proxy resolution is proportional to each scale, so the
    proxy bias is a scale-independent factor and cancels in slope fits.
    """
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    lo, hi = model_window(m, margin=float(scales.max()) * 1.5)
    wvol = float(np.prod(hi - lo))
    n = m.ambient_dim
    vols, errs = [], []
    exact = n == 1 and isinstance(m, (PointSet, IFSAttractor))
    for d in scales:
        if exact:
            spans = model_intervals_1d(m, d)
            vols.append(_merge_length(spans, lo=lo[0], hi=hi[0]))
            errs.append(0.0)
            continue
        pts = rng.uniform(lo, hi, size=(samples_per_scale, n))
        # one oracle per scale, freed before the next scale's is built
        hits = _DistanceOracle(m, d, metric=metric, resolution=resolution).hits(pts, d)
        p = np.count_nonzero(hits) / samples_per_scale
        vols.append(wvol * p)
        errs.append(wvol * math.sqrt(max(p * (1 - p), 1e-300) / samples_per_scale))
    return scales, np.array(vols), np.array(errs)


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

    For each (r, delta = ratio * r) cell, centers are drawn on the model and
    the measures averaged; the model log H = (1-kappa)*n log delta +
    kappa*n log r + const is fitted by least squares and kappa read off the
    r coefficient.  Envelope constants are reported relative to the fitted
    exponents.
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
    for r in r_grid:
        for q in delta_ratios:
            d = q * r
            centers = sample_on_set(m, centers_per_cell, rng)
            vals, errs = [], []
            if exact:
                spans = model_intervals_1d(m, d)
                for c in centers:
                    c0 = float(np.asarray(c).reshape(-1)[0])
                    vals.append(_merge_length(spans, lo=c0 - r, hi=c0 + r))
                    errs.append(0.0)
            else:
                oracle = _DistanceOracle(m, d, metric=metric)
                for c in centers:
                    est = neighborhood_measure(
                        m, c, r, d, samples=samples, rng=rng, metric=metric, oracle=oracle
                    )
                    vals.append(est.value)
                    errs.append(est.std_error)
            mean = float(np.mean(vals))
            if mean > 0:
                stderr = float(np.linalg.norm(errs)) / len(errs)
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
