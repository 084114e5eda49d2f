"""Covering machinery: greedy 5r-covers, separated nets on sets, and the
two-stage ball selections used by the nested construction.

A ball family is held as arrays, centers (m, n) and radii (m,): a
``BallFamily``, the K_{G,B} selection's ``KgbResult``, and a C(A; j)
selection, which is the ``NetResult`` of its centers at one radius.  The
K_{G,B} stage sets are finite point sets, and every distinct point of a
stage is a candidate center.

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
        if self.radius <= 0:
            raise ArgumentError("ball radius must be positive")
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))

    @property
    def ambient_dim(self):
        return self.center.shape[0]


@dataclass
class BallFamily:
    """Balls as arrays: row i is the ball B(centers[i], radii[i])."""

    centers: np.ndarray  # (m, n)
    radii: np.ndarray  # (m,)
    metric: str = "sup"

    def __post_init__(self):
        self.centers, self.radii = np.asarray(self.centers, dtype=float), np.asarray(self.radii, dtype=float)
        if self.centers.ndim != 2 or self.radii.shape != self.centers.shape[:1]:
            raise ArgumentError("a ball family needs centers of shape (m, n) and radii of shape (m,)")
        if not np.all(self.radii > 0):
            raise ArgumentError("ball radius must be positive")


def balls_disjoint(b1: Ball, b2: Ball, metric="sup"):
    return _norm(b1.center - b2.center, metric) >= (b1.radius + b2.radius) * (1 - _DISJOINT_SLACK)


def ball_contains(outer: Ball, inner: Ball, metric="sup"):
    return _norm(outer.center - inner.center, metric) + inner.radius <= outer.radius * (1 + 1e-12)


_PAIR_BLOCK = 1 << 20  # coordinate differences per broadcast block


def _row_blocks(rows, cols, dim):
    """Row ranges of a (rows x cols) pair table, about _PAIR_BLOCK differences each."""
    step = max(1, _PAIR_BLOCK // max(1, cols * dim))
    return ((s, min(s + step, rows)) for s in range(0, rows, step))


def family_is_disjoint(fam: BallFamily):
    """True when every two balls of the family are disjoint (``balls_disjoint``,
    tangency counts), checked one broadcast row block at a time."""
    c, r = fam.centers, fam.radii
    if len(r) < 2:
        return True
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
    c, r = inputs.centers, inputs.radii
    sc, sr = selected.centers, selected.radii
    if not len(r):
        return True
    if not len(sr):
        return False
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
    if not len(fam.radii):
        raise ArgumentError("family must be non-empty")
    # a sorted copy; kept rows move to the front, so rows [:count] are the
    # kept balls and every later row is still to be read
    order = np.argsort(-fam.radii, kind="stable")
    centers, radii = fam.centers[order], fam.radii[order]
    count = 0
    for i in range(len(radii)):
        dist = _norm(centers[:count] - centers[i], fam.metric)
        if np.any(dist < (radii[:count] + radii[i]) * (1 - _DISJOINT_SLACK)):
            continue
        centers[count] = centers[i]
        radii[count] = radii[i]
        count += 1
    return BallFamily(centers[:count], radii[:count], fam.metric)


# ---------------------------------------------------------------------------
# separated nets


@dataclass
class NetResult:
    points: np.ndarray
    pool_size: int


def greedy_net(points, sep, metric="sup"):
    """Greedy subset with pairwise distances > sep, maximal for the pool."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    chosen = np.empty_like(pts)
    count = 0
    for p in pts:
        if np.any(_norm(chosen[:count] - p, metric) <= sep):
            continue
        chosen[count] = p
        count += 1
    return chosen[:count].copy()


def separated_net(m: SetModel, region: Ball, sep, candidates=10_000, rng=None, metric="sup") -> NetResult:
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
    if region.ambient_dim != m.ambient_dim:
        raise ArgumentError(f"region has dimension {region.ambient_dim}, the set model {m.ambient_dim}")
    if isinstance(m, PointSet):
        pool = np.unique(m.points, axis=0)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        pool = sample_on_set(m, candidates, rng)
    pool = pool[_norm(pool - region.center, metric) < region.radius]
    if len(pool) == 0:
        return NetResult(points=np.empty((0, m.ambient_dim)), pool_size=0)
    return NetResult(points=greedy_net(pool, sep, metric=metric), pool_size=len(pool))


# ---------------------------------------------------------------------------
# the two selection procedures


def build_caj(A: Ball, m: SetModel, upsilon_j, rng=None, pool=10_000, metric="sup") -> NetResult:
    """The C(A; j) selection: the balls of radius upsilon centered on the
    points of the returned 6*upsilon-separated net of the model inside half
    of A.

    Requires 0 < 6*upsilon < r(A); the triangle inequality then puts every
    3-dilate inside A, and the net separation makes the 3-dilates pairwise
    disjoint by construction.
    """
    if not (0 < 6.0 * upsilon_j < A.radius):
        raise ArgumentError("requires 0 < 6 * upsilon < radius of A")
    half = Ball(A.center, 0.5 * A.radius)
    return separated_net(m, half, 6.0 * upsilon_j, candidates=pool, rng=rng, metric=metric)


@dataclass
class KgbResult:
    selected: np.ndarray  # (k, n) centers of the kept balls, in selection order
    radii: np.ndarray  # (k,) transformed radius of each kept ball
    js: np.ndarray  # (k,) stage index of each kept ball
    achieved_fraction: float
    n0: int


def build_kgb(B: Ball, G, seq, j_max, target_fraction, c5=1.0, metric="sup") -> KgbResult:
    """Disjoint transformed-radius balls on the stage sets capturing a fixed
    fraction of a ball's volume.

    ``seq(j)`` returns (a ``PointSet``, tilde_upsilon_j) with tilde_upsilon
    positive and non-increasing.  Candidates B(x, 3*tilde_upsilon_j) inside
    B, for every distinct point x of the stage set, are collected stage by
    stage, greedily thinned to a disjoint family (equivalent to the 5r
    greedy since radii decrease in j), scaled back by 1/3, and truncated at
    the first index where vol of the union reaches
    ``target_fraction * c5 * vol(B)``.
    """
    if not (0 < target_fraction <= 1):
        raise ArgumentError("target_fraction must lie in (0, 1]")
    n = B.ambient_dim
    vol_b = ball_volume(n, B.radius, metric)
    target = target_fraction * c5 * vol_b
    sel_centers, sel_radii3 = np.empty((1024, n)), np.empty(1024)
    count = 0
    radii, js = [], []
    acc = 0.0
    prev_tilde = math.inf
    j = G
    while j <= j_max:
        model, tilde = seq(j)
        if model.ambient_dim != n:
            raise ArgumentError(f"region has dimension {n}, stage {j} has dimension {model.ambient_dim}")
        if not (0 < tilde <= prev_tilde * (1 + 1e-12)):
            raise ArgumentError("tilde radii must be positive and non-increasing in j")
        prev_tilde = tilde
        if 3.0 * tilde < B.radius:  # otherwise no candidate can fit
            cand = np.unique(model.points, axis=0)
            cand = cand[_norm(cand - B.center, metric) + 3.0 * tilde <= B.radius * (1 + 1e-12)]
            for x in cand:
                dist = _norm(sel_centers[:count] - x, metric)
                if np.any(dist < (sel_radii3[:count] + 3.0 * tilde) * (1 - _DISJOINT_SLACK)):
                    continue
                if count == len(sel_radii3):  # grow; only rows [:count] are read
                    sel_centers = np.resize(sel_centers, (2 * count, n))
                    sel_radii3 = np.resize(sel_radii3, 2 * count)
                sel_centers[count] = x
                sel_radii3[count] = 3.0 * tilde
                count += 1
                radii.append(tilde)
                js.append(j)
                acc += ball_volume(n, tilde, metric)
                if acc >= target:
                    selected = sel_centers[:count].copy()
                    return KgbResult(selected, np.array(radii), np.array(js, dtype=np.int64), acc / vol_b, j)
        j += 1
    raise CoverageShortfall(
        f"covered fraction {acc / vol_b:.3g} of target {target_fraction * c5:.3g} by j_max={j_max}",
        achieved_fraction=acc / vol_b,
    )
