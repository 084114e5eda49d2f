"""Covering machinery: greedy 5r-covers, separated nets on sets, and the
two-stage ball selections used by the nested construction.

Disjointness is for open balls throughout: two balls are disjoint when the
distance between centers is at least the sum of radii (tangency counts as
disjoint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CoverageShortfall
from .measure import ball_volume
from .sets import PointSet, SetModel, _norm, sample_on_set

_DISJOINT_SLACK = 1e-12  # relative slack so float tangency still counts


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ArgumentError("ball radius must be positive")
        object.__setattr__(self, "center", c)

    def dilate(self, alpha):
        return Ball(self.center, alpha * self.radius)

    @property
    def ambient_dim(self):
        return self.center.shape[0]


@dataclass(frozen=True)
class IndexedBall:
    ball: Ball
    j: int


@dataclass
class BallFamily:
    balls: list
    metric: str = "sup"

    def __post_init__(self):
        if any(isinstance(b, IndexedBall) for b in self.balls):
            self.balls = [b if isinstance(b, IndexedBall) else IndexedBall(b, 0) for b in self.balls]

    def plain(self):
        return [b.ball if isinstance(b, IndexedBall) else b for b in self.balls]


def _dist(c1, c2, metric):
    return float(_norm(np.asarray(c1) - np.asarray(c2), metric))


def balls_disjoint(b1: Ball, b2: Ball, metric="sup"):
    s = b1.radius + b2.radius
    return _dist(b1.center, b2.center, metric) >= s * (1 - _DISJOINT_SLACK)


def ball_contains(outer: Ball, inner: Ball, metric="sup", slack=1e-12):
    return (
        _dist(outer.center, inner.center, metric) + inner.radius
        <= outer.radius * (1 + slack)
    )


_PAIR_BLOCK = 1 << 20  # coordinate differences per broadcast block


def _ball_arrays(balls):
    return np.array([b.center for b in balls], dtype=float), np.array([b.radius for b in balls], dtype=float)


def _row_blocks(rows, cols, dim):
    """Row ranges of a (rows x cols) pair table, about _PAIR_BLOCK differences each."""
    step = max(1, _PAIR_BLOCK // max(1, cols * dim))
    return ((s, min(s + step, rows)) for s in range(0, rows, step))


def family_is_disjoint(fam: BallFamily):
    """True when every two balls of the family are disjoint (``balls_disjoint``,
    tangency counts), checked one broadcast row block at a time."""
    balls = fam.plain()
    if len(balls) < 2:
        return True
    c, r = _ball_arrays(balls)
    col = np.arange(len(r))
    for s, e in _row_blocks(len(r), len(r), c.shape[1]):
        dist = _norm(c[s:e, None, :] - c[None, :, :], fam.metric)
        # a NaN distance is not apart, as in balls_disjoint
        apart = dist >= (r[s:e, None] + r[None, :]) * (1 - _DISJOINT_SLACK)
        if np.any(~apart & (col[s:e, None] < col[None, :])):
            return False
    return True


def five_r_covers(inputs: BallFamily, selected: BallFamily):
    """True when every input ball sits inside the 5-dilate of some selected
    ball (``ball_contains``), checked one broadcast row block at a time."""
    balls, sel = inputs.plain(), selected.plain()
    if not balls:
        return True
    if not sel:
        return False
    c, r = _ball_arrays(balls)
    sc, sr = _ball_arrays(sel)
    for s, e in _row_blocks(len(r), len(sr), c.shape[1]):
        dist = _norm(sc[None, :, :] - c[s:e, None, :], inputs.metric)
        inside = dist + r[s:e, None] <= (5.0 * sr[None, :]) * (1 + 1e-12)
        if not np.all(np.any(inside, axis=1)):
            return False
    return True


def five_r_cover(fam: BallFamily) -> BallFamily:
    """Greedy disjoint subfamily whose 5-dilates cover every input ball.

    Processes balls by descending radius (ties by input order) and keeps a
    ball iff it is disjoint from everything kept so far; the first kept ball
    meeting a rejected one is at least as large, which gives the 5-dilate
    cover.
    """
    if not fam.balls:
        raise ArgumentError("family must be non-empty")
    entries = list(fam.balls)
    order = sorted(range(len(entries)), key=lambda i: (-_radius(entries[i]), i))
    kept = []
    first = entries[0].ball if isinstance(entries[0], IndexedBall) else entries[0]
    centers = np.empty((len(entries), first.ambient_dim))
    radii = np.empty(len(entries))
    count = 0
    for i in order:
        b = entries[i].ball if isinstance(entries[i], IndexedBall) else entries[i]
        if count:
            dist = _norm(centers[:count] - b.center, fam.metric)
            if np.any(dist < (radii[:count] + b.radius) * (1 - _DISJOINT_SLACK)):
                continue
        centers[count] = b.center
        radii[count] = b.radius
        count += 1
        kept.append(entries[i])
    return BallFamily(kept, metric=fam.metric)


def _radius(entry):
    return entry.ball.radius if isinstance(entry, IndexedBall) else entry.radius


# ---------------------------------------------------------------------------
# separated nets


@dataclass
class NetResult:
    points: np.ndarray
    sep: float
    pool_size: int
    pool_maximal: bool = True  # maximality is relative to the candidate pool


def greedy_net(points, sep, metric="sup"):
    """Greedy subset with pairwise distances > sep, maximal for the pool."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    chosen = np.empty_like(pts)
    count = 0
    for p in pts:
        if count:
            if np.any(_norm(chosen[:count] - p, metric) <= sep):
                continue
        chosen[count] = p
        count += 1
    return chosen[:count].copy()


def _candidates(m: SetModel, k, rng, tol):
    """Points a covering selection draws from a set model: every distinct
    point of a finite point set, otherwise k samples on the model."""
    if isinstance(m, PointSet):
        return np.unique(m.points, axis=0)
    return sample_on_set(m, k, rng, tol=tol)


def separated_net(
    m: SetModel, region: Ball, sep, candidates=10_000, rng=None, metric="sup", tol=1e-9
) -> NetResult:
    """Greedy sep-separated net on the model inside the region.

    The pool is every distinct point of a finite point set inside the region,
    so the net is maximal; for any other model it is the in-region share of
    ``candidates`` samples and the net is maximal for that pool.  An empty
    result signals that the pool holds no point of the region (the set may
    simply miss it); it is not an error.
    """
    # sep >= region diameter is allowed: the net then degenerates to <= 1 point
    if candidates < 100:
        raise ArgumentError("candidate pool must hold >= 100 samples")
    if rng is None:
        rng = np.random.default_rng(0)
    pool = _candidates(m, candidates, rng, tol)
    pool = pool[_norm(pool - region.center, metric) < region.radius]
    if len(pool) == 0:
        return NetResult(points=np.empty((0, m.ambient_dim)), sep=sep, pool_size=0)
    pts = greedy_net(pool, sep, metric=metric)
    return NetResult(points=pts, sep=sep, pool_size=len(pool))


# ---------------------------------------------------------------------------
# the two selection procedures


@dataclass
class CajResult:
    balls: list
    j: int
    upsilon: float
    net: NetResult

    def __len__(self):
        return len(self.balls)


def build_caj(
    A: Ball, j, m: SetModel, upsilon_j, rng=None, pool=10_000, metric="sup", net_points=None
) -> CajResult:
    """Balls of radius upsilon centered on a 6*upsilon-separated net of the
    model inside half of A.

    Requires 6*upsilon < r(A); the triangle inequality then puts every
    3-dilate inside A, and the net separation makes the 3-dilates pairwise
    disjoint by construction.
    """
    if not (6.0 * upsilon_j < A.radius):
        raise ArgumentError("requires 6 * upsilon < radius of A")
    if net_points is not None:
        net = NetResult(points=np.atleast_2d(net_points), sep=6.0 * upsilon_j, pool_size=len(net_points))
        pts = greedy_net(net.points, 6.0 * upsilon_j, metric=metric)
        net = NetResult(points=pts, sep=net.sep, pool_size=net.pool_size)
    else:
        net = separated_net(m, A.dilate(0.5), 6.0 * upsilon_j, candidates=pool, rng=rng, metric=metric)
    balls = [Ball(p, upsilon_j) for p in net.points]
    return CajResult(balls=balls, j=j, upsilon=upsilon_j, net=net)


@dataclass
class KgbResult:
    selected: list  # IndexedBall, radius = transformed radius at its index
    achieved_fraction: float
    target_fraction: float
    c5: float
    n0: int
    metric: str = "sup"


def build_kgb(
    B: Ball,
    G,
    seq,
    j_max,
    target_fraction,
    rng=None,
    c5=1.0,
    pool=10_000,
    metric="sup",
    tol=1e-9,
) -> KgbResult:
    """Disjoint transformed-radius balls on the stage sets capturing a fixed
    fraction of a ball's volume.

    ``seq(j)`` returns (model_j, tilde_upsilon_j) with tilde_upsilon
    decreasing.  Candidates B(x, 3*tilde_upsilon_j) inside B are collected
    stage by stage, greedily thinned to a disjoint family (equivalent to the
    5r greedy since radii decrease in j), scaled back by 1/3, and truncated
    at the first index where vol of the union reaches
    ``target_fraction * c5 * vol(B)``.

    The candidate centers of a stage are every distinct point of a finite
    point-set model; ``pool`` samples are drawn only from other models.
    """
    if not (0 < target_fraction <= 1):
        raise ArgumentError("target_fraction must lie in (0, 1]")
    if rng is None:
        rng = np.random.default_rng(0)
    n = B.ambient_dim
    vol_b = ball_volume(n, B.radius, metric)
    target = target_fraction * c5 * vol_b
    cap = 1024
    sel_centers = np.empty((cap, n))
    sel_radii3 = np.empty(cap)
    count = 0
    selected = []
    acc = 0.0
    prev_tilde = math.inf
    j = G
    while j <= j_max:
        model, tilde = seq(j)
        if tilde > prev_tilde * (1 + 1e-12):
            raise ArgumentError("tilde radii must be non-increasing in j")
        prev_tilde = tilde
        if 3.0 * tilde < B.radius:  # otherwise no candidate can fit
            cand = np.unique(_candidates(model, pool, rng, tol), axis=0)
            cand = cand[_norm(cand - B.center, metric) + 3.0 * tilde <= B.radius * (1 + 1e-12)]
            for x in cand:
                if count:
                    dist = _norm(sel_centers[:count] - x, metric)
                    if np.any(dist < (sel_radii3[:count] + 3.0 * tilde) * (1 - _DISJOINT_SLACK)):
                        continue
                if count == cap:
                    cap *= 2
                    sel_centers = np.vstack([sel_centers, np.empty_like(sel_centers)])
                    sel_radii3 = np.concatenate([sel_radii3, np.empty_like(sel_radii3)])
                sel_centers[count] = x
                sel_radii3[count] = 3.0 * tilde
                count += 1
                selected.append(IndexedBall(Ball(x, tilde), j))
                acc += ball_volume(n, tilde, metric)
                if acc >= target:
                    return KgbResult(selected, acc / vol_b, target_fraction, c5, j, metric)
        j += 1
    raise CoverageShortfall(
        f"covered fraction {acc / vol_b:.3g} of target {target_fraction * c5:.3g} by j_max={j_max}",
        achieved_fraction=acc / vol_b,
    )


def family_to_json(fam: BallFamily) -> list:
    out = []
    for b in fam.balls:
        if isinstance(b, IndexedBall):
            out.append({"c": b.ball.center.tolist(), "r": b.ball.radius, "j": b.j})
        else:
            out.append({"c": b.center.tolist(), "r": b.radius})
    return out


def family_from_json(arr, metric="sup") -> BallFamily:
    balls = []
    for e in arr:
        b = Ball(np.array(e["c"], dtype=float), float(e["r"]))
        balls.append(IndexedBall(b, int(e["j"])) if "j" in e else b)
    return BallFamily(balls, metric=metric)
