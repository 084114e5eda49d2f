"""Dimension functions (gauges) and their closed-form transforms.

A gauge is a non-decreasing function vanishing at 0, represented either as a
power law r**s or as a tabulated monotone curve interpolated log-linearly.
The module also houses the paired-gauge checks (doubling, monotone ratio) and
the radius transform that sends a target radius to the enlarged radius at
which full measure in the coarse gauge forces full measure in the fine one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ToolkitError

BISECT_RTOL = 1e-10
BISECT_MAX_ITER = 200
MONOTONE_RTOL = 1e-9


@dataclass(frozen=True)
class Gauge:
    """A dimension function: power law ``r**s`` or a tabulated monotone curve.

    Tabulated samples are (r, value) pairs with strictly increasing r > 0 and
    non-decreasing positive values; evaluation interpolates log-linearly,
    which preserves monotonicity and reproduces power laws between samples.
    """

    kind: str
    s: float = float("nan")
    samples: tuple = ()

    def __post_init__(self):
        if self.kind == "power":
            if not (self.s >= 0):
                raise ArgumentError("power gauge needs exponent s >= 0")
        elif self.kind == "tabulated":
            rs = np.array([p[0] for p in self.samples], dtype=float)
            vs = np.array([p[1] for p in self.samples], dtype=float)
            if len(rs) < 2:
                raise ArgumentError("tabulated gauge needs >= 2 samples")
            if np.any(rs <= 0) or np.any(vs <= 0):
                raise ArgumentError("tabulated samples must have r > 0 and value > 0")
            if np.any(np.diff(rs) <= 0):
                raise ArgumentError("tabulated radii must be strictly increasing")
            if np.any(np.diff(vs) < 0):
                raise ArgumentError("tabulated values must be non-decreasing")
        else:
            raise ArgumentError(f"unknown gauge kind {self.kind!r}")

    @classmethod
    def power(cls, s):
        return cls(kind="power", s=float(s))

    @classmethod
    def tabulated(cls, samples):
        return cls(kind="tabulated", samples=tuple((float(r), float(v)) for r, v in samples))


def eval_gauge(f: Gauge, r):
    """Evaluate the gauge at r (scalar or array), r > 0.

    Tabulated gauges interpolate log-linearly and reject radii outside the
    sample hull.  A scalar radius is checked with Python comparisons and
    evaluated as a 0-d array, by the same numpy power an array takes.
    """
    arr = np.asarray(r, dtype=float)
    if arr.ndim:
        bad = np.any(arr <= 0) or not np.all(np.isfinite(arr))
    else:
        x = float(arr)
        bad = not 0.0 < x < math.inf
    if bad:
        raise ArgumentError("gauge argument must be positive and finite")
    if f.kind == "power":
        out = arr**f.s
    else:
        r_lo, r_hi = f.samples[0][0] * (1 - 1e-12), f.samples[-1][0] * (1 + 1e-12)
        if (np.any(arr < r_lo) or np.any(arr > r_hi)) if arr.ndim else not r_lo <= x <= r_hi:
            raise ArgumentError("radius outside tabulated hull")
        rs = np.array([p[0] for p in f.samples])
        vs = np.array([p[1] for p in f.samples])
        out = np.exp(np.interp(np.log(arr), np.log(rs), np.log(vs)))
    return out if arr.ndim else float(out)


def invert_gauge(g: Gauge, y):
    """Solve g(r) = y for r on the gauge's working range.

    Power gauges invert in closed form, to inf where the root lies past the
    float range; tabulated gauges bisect on the log-linear interpolant until
    ``|g(r) - y| <= BISECT_RTOL * y``.
    """
    y = float(y)
    if y <= 0 or not math.isfinite(y):
        raise ArgumentError("can only invert positive finite values")
    if g.kind == "power":
        if g.s == 0:
            raise ArgumentError("constant gauge (s=0) is not invertible")
        try:
            return y ** (1.0 / g.s)
        except OverflowError:
            return math.inf
    rs = [p[0] for p in g.samples]
    vs = [p[1] for p in g.samples]
    if not (vs[0] * (1 - 1e-12) <= y <= vs[-1] * (1 + 1e-12)):
        raise ArgumentError("value outside the range of the tabulated gauge")
    lo, hi = rs[0], rs[-1]
    for _ in range(BISECT_MAX_ITER):
        mid = math.sqrt(lo * hi)  # bisect in log space, matching interpolation
        val = eval_gauge(g, mid)
        if abs(val - y) <= BISECT_RTOL * y:
            return mid
        if val < y:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@dataclass(frozen=True)
class GaugePair:
    """A pair (f, g) with scaling fraction kappa in [0, 1)."""

    f: Gauge
    g: Gauge
    kappa: float

    def __post_init__(self):
        if not (0 <= self.kappa < 1):
            raise ArgumentError("kappa must lie in [0, 1)")


@dataclass
class PairReport:
    monotone_ok: bool
    doubling_lambda_estimate: float
    ratio_direction: str  # behaviour of f/g as r -> 0: increasing/decreasing/constant
    f_over_g_kappa_ok: bool
    violations: list = field(default_factory=list)


def default_grid(lo=1e-6, hi=1.0, n=64):
    return np.logspace(math.log10(lo), math.log10(hi), n)


def _monotone(values, direction):
    """Check monotonicity allowing a relative slack of MONOTONE_RTOL."""
    v = np.asarray(values, dtype=float)
    scale = np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    diff = np.diff(v)
    if direction == "nondecreasing":
        return bool(np.all(diff >= -MONOTONE_RTOL * scale))
    return bool(np.all(diff <= MONOTONE_RTOL * scale))


def verify_gauge_pair(pair: GaugePair, grid=None) -> PairReport:
    """Certify the pair's hypotheses on a finite grid of radii.

    Checks, on the grid only: both gauges non-decreasing, g doubling (the
    estimate is ``max g(2x)/g(x)`` over grid points with 2x evaluable), f/g
    monotone with the direction recorded as r -> 0, and h = f/g**kappa a
    gauge (non-decreasing with h -> 0 visible at the left edge).
    """
    if grid is None:
        grid = default_grid()
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ArgumentError("grid must be non-empty")
    if grid.size < 8 or grid[-1] / grid[0] < 100:
        raise ArgumentError("grid must have >= 8 points spanning >= 2 decades")

    violations = []
    fv = eval_gauge(pair.f, grid)
    gv = eval_gauge(pair.g, grid)
    mono = True
    for name, vals in (("f", fv), ("g", gv)):
        if not _monotone(vals, "nondecreasing"):
            mono = False
            violations.append(f"{name} not non-decreasing on grid")

    # doubling estimate; for tabulated gauges skip points where 2x leaves the hull
    if pair.g.kind == "power":
        lam = 2.0**pair.g.s
    else:
        doubled = grid[2 * grid <= pair.g.samples[-1][0]]
        if doubled.size == 0:
            raise ArgumentError("no grid point with 2x inside the tabulated hull")
        lam = float(np.max(eval_gauge(pair.g, 2 * doubled) / eval_gauge(pair.g, doubled)))

    ratio = fv / gv
    inc = _monotone(ratio, "nondecreasing")
    dec = _monotone(ratio, "nonincreasing")
    if inc and dec:
        direction = "constant"
    elif dec:
        direction = "increasing"  # decreasing in r means increasing as r -> 0
    elif inc:
        direction = "decreasing"
    else:
        direction = "non-monotone"
        mono = False
        violations.append("f/g not monotone on grid")

    h = fv / gv**pair.kappa
    h_ok = bool(_monotone(h, "nondecreasing") and h[0] < h[-1])
    if not h_ok:
        violations.append("f/g^kappa is not a gauge on grid")

    return PairReport(
        monotone_ok=mono,
        doubling_lambda_estimate=lam,
        ratio_direction=direction,
        f_over_g_kappa_ok=h_ok,
        violations=violations,
    )


def ratio_direction_at(pair: GaugePair, r):
    """Local direction of f/g as r -> 0, probed at r and r/2."""
    q1 = eval_gauge(pair.f, r) / eval_gauge(pair.g, r)
    q0 = eval_gauge(pair.f, r / 2) / eval_gauge(pair.g, r / 2)
    if math.isclose(q0, q1, rel_tol=1e-12):
        return "constant"
    return "increasing" if q0 > q1 else "decreasing"


def mtp_radius(pair: GaugePair, upsilon):
    """Transformed radius g^{-1}((f(u) / g(u)^kappa)^{1/(1-kappa)}).

    In the regime where f/g grows as r -> 0 the result must dominate the
    input radius; a violation beyond a relative 1e-9 signals an inconsistent
    pair and raises.
    """
    u = float(upsilon)
    if u <= 0:
        raise ArgumentError("radius must be positive")
    fu = eval_gauge(pair.f, u)
    gu = eval_gauge(pair.g, u)
    try:
        val = (fu / gu**pair.kappa) ** (1.0 / (1.0 - pair.kappa))
    except (OverflowError, ZeroDivisionError):  # past the float range, or g(u) rounded to 0
        val = math.inf
    if not math.isfinite(val) or val <= 0:
        raise ToolkitError("non-finite intermediate in radius transform")
    out = invert_gauge(pair.g, val)
    if not math.isfinite(out):
        raise ToolkitError("non-finite transformed radius")
    if ratio_direction_at(pair, u) == "increasing" and out < u * (1 - 1e-9):
        raise ToolkitError(
            f"transformed radius {out:.6g} fell below input {u:.6g} despite growing f/g"
        )
    return out


def corollary_exponent(s, kappa, n):
    """Power-law reduction exponent (s - kappa*n) / ((1 - kappa) * n)."""
    if not (0 <= kappa < 1):
        raise ArgumentError("kappa must lie in [0, 1)")
    if n <= 0 or int(n) != n:
        raise ArgumentError("n must be a positive integer")
    if not (s > kappa * n):
        raise ArgumentError("requires s > kappa * n")
    return (s - kappa * n) / ((1.0 - kappa) * n)


def gauge_from_json(obj) -> Gauge:
    kind = obj.get("kind")
    key = {"power": "s", "tabulated": "samples"}.get(kind)
    if key is None:
        raise ArgumentError(f"unknown gauge kind {kind!r}")
    if key not in obj:
        raise ArgumentError(f"a {kind} gauge needs the key {key!r}")
    return Gauge.power(obj["s"]) if kind == "power" else Gauge.tabulated(obj["samples"])
