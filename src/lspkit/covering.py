"""Covering machinery: greedy 5r-covers, separated nets on sets, and the
two-stage ball selections used by the nested construction.

A ball family is held as arrays, centers (m, n) and radii (m,): a
``BallFamily``, the K_{G,B} selection's ``KgbResult``, and a C(A; j)
selection, which is the ``NetResult`` of its centers at one radius.  The
K_{G,B} stages are sorted 1-D clouds (``stages.sorted_points(j)``), and every
distinct point of a stage is a candidate center.  A stage's cloud is thinned
by one sweep (``_chain_blocks``), read ``BLOCK`` points at a time.
``_sweep_chain`` is the one greedy sweep of sorted 1-D clouds: it thins
these blocks, and the slices of a stage cloud that hold the nested
construction's C(A; j) nets.

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
BLOCK = 2**16  # points per slice of a swept stage cloud or audited grid


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


_PAIR_BLOCK = 1 << 20  # coordinate differences per broadcast block


def _row_blocks(rows, cols, dim):
    """Row ranges of a (rows x cols) pair table, about _PAIR_BLOCK differences each."""
    step = max(1, _PAIR_BLOCK // max(1, cols * dim))
    return ((s, min(s + step, rows)) for s in range(0, rows, step))


def family_is_disjoint(fam: BallFamily):
    """True when every two balls of the family are disjoint: the distance of
    their centers is at least ``(r_1 + r_2) * (1 - _DISJOINT_SLACK)``, so
    tangency counts.  Checked one broadcast row block at a time."""
    c, r = fam.centers, fam.radii
    if len(r) < 2:
        return True
    col = np.arange(len(r))
    for s, e in _row_blocks(len(r), len(r), c.shape[1]):
        dist = _norm(c[s:e, None, :] - c[None, :, :], fam.metric)
        # a NaN distance is not apart
        apart = dist >= (r[s:e, None] + r[None, :]) * (1 - _DISJOINT_SLACK)
        if np.any(~apart & (col[s:e, None] < col[None, :])):
            return False
    return True


def five_r_covers(inputs: BallFamily, selected: BallFamily):
    """True when every input ball sits inside the 5-dilate of some selected
    ball: ``dist + r <= 5 r_s * (1 + 1e-12)``.  Checked one broadcast row
    block at a time."""
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


# greedy_net screens up to _NET_BLOCK pool points per broadcast, and at most
# about _NET_PAIRS differences: 128 KB temporaries, which the allocator
# reuses, where larger ones are mapped and page-faulted afresh on every block
_NET_BLOCK = 256
_NET_PAIRS = 1 << 14


def greedy_net(points, sep, metric="sup"):
    """Greedy subset with pairwise distances > sep, maximal for the pool: the
    points the loop over the pool keeps when it keeps each point, in order,
    unless it lies within ``sep`` of a point kept before it.

    The pool is read in blocks of up to ``_NET_BLOCK`` points.  One
    broadcast drops the block's points within ``sep`` of a point kept before
    the block; the survivors then take the loop's test, one at a time,
    against the points kept inside the block.  A point's verdict depends only
    on the points kept before it, and each distance is ``_norm`` of the
    loop's own difference, so the net is the loop's, ties at exactly ``sep``
    included.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    chosen = np.empty_like(pts)
    count = start = 0
    while start < len(pts):
        stop = min(len(pts), start + _NET_BLOCK, start + max(1, _NET_PAIRS // max(1, count * pts.shape[1])))
        block = pts[start:stop]
        if count:
            block = block[~np.any(_norm(chosen[None, :count] - block[:, None], metric) <= sep, axis=1)]
        first = count
        for p in block:
            if np.any(_norm(chosen[first:count] - p, metric) <= sep):
                continue
            chosen[count] = p
            count += 1
        start = stop
    return chosen[:count].copy()


def separated_net(m: SetModel, region: Ball, sep, candidates=10_000, *, rng, metric="sup") -> NetResult:
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
        pool = sample_on_set(m, candidates, rng)
    pool = pool[_norm(pool - region.center, metric) < region.radius]
    if len(pool) == 0:
        return NetResult(points=np.empty((0, m.ambient_dim)), pool_size=0)
    return NetResult(points=greedy_net(pool, sep, metric=metric), pool_size=len(pool))


# ---------------------------------------------------------------------------
# sorted 1-D sweeps


def _slice_rows(i0, i1):
    """Flat row indices of the slices [i0[k], i1[k]) and the slice each row
    belongs to, slice by slice in order."""
    counts = i1 - i0
    owner = np.repeat(np.arange(len(i0)), counts)
    starts = np.cumsum(counts) - counts
    return np.arange(len(owner)) - starts[owner] + i0[owner], owner


def _nearest(cloud, x):
    """The point of the sorted ``cloud`` nearest each x, the lower one of
    two at equal distance."""
    pos = cloud.searchsorted(x)
    below = cloud[np.clip(pos - 1, 0, len(cloud) - 1)]
    above = cloud[np.clip(pos, 0, len(cloud) - 1)]
    return np.where(np.abs(x - below) <= np.abs(x - above), below, above)


def _sweep_chain(pool, lo, hi, sep):
    """The kept indices, the range of each and their points, range by
    range, of a left-to-right sweep over each index range [lo[k], hi[k]) of
    the sorted ``pool`` (an array or a ``GridView``) that keeps the range's
    first point, then each point with ``pool[u] - last kept >= sep``.

    The predicate is monotone in u (rounding is monotone), so ``nxt[t]``,
    the first later point of t's range meeting it, is t + 1 where that gap
    meets it, else found by ``searchsorted`` and settled with the exact
    predicate.  The chains ``first -> nxt[first] -> ...`` are marked by
    pointer doubling."""
    lo, hi = np.atleast_1d(lo, hi)
    rows, owner = _slice_rows(lo, hi)
    pts = pool[rows]
    t = np.flatnonzero(~(np.diff(pts) >= sep) & (owner[1:] == owner[:-1]))
    if not len(t):  # every point is kept
        return rows, owner, pts
    n = len(pts)
    end = np.cumsum(hi - lo)  # one past each range's last flat index
    nxt = np.arange(1, n + 1)
    nxt[nxt == end[owner]] = n  # n stands for "no such point"
    e = end[owner[t]]

    def reached(u):  # the exact predicate, for u in (t, e]
        return (u >= e) | (pts[np.minimum(u, n - 1)] - pts[t] >= sep)

    u = np.clip(pool.searchsorted(pts[t] + sep) - rows[t] + t, t + 1, e)
    while np.any(short := ~reached(u)):
        u[short] += 1
    while np.any(over := (u - 1 > t) & reached(u - 1)):
        u[over] -= 1
    nxt[t] = np.where(u < e, u, n)
    # after k rounds ``chain`` holds the first 2**k points of each range's
    # chain and ``jump`` is nxt applied 2**k times; n is its own successor
    jump = np.append(nxt, n)
    chain = (end - (hi - lo))[hi > lo]
    while True:
        step = jump[chain]
        step = step[step < n]
        if len(step) == 0:
            break
        chain = np.concatenate([chain, step])
        jump = jump[jump]
    keep = np.zeros(n, dtype=bool)
    keep[chain] = True
    return rows[keep], owner[keep], pts[keep]


def _chain_blocks(pool, start, stop, blocked, sep, block):
    """The points of the sorted ``pool[start:stop]`` that one sweep keeps,
    one array per slice of ``block`` points: the sweep skips the points that
    ``blocked(pts)`` masks and keeps each other point at least ``sep`` past
    the last kept one (``_sweep_chain``).

    The sweep's predicate is monotone along the sorted pool, so a slice's
    next kept point is its first unblocked point p with ``p - last >= sep``,
    ``last`` being the last point kept before it, and the slice's chain runs
    from there.  Only one slice is held at a time.
    """
    last = -math.inf
    for s in range(start, stop, block):
        pts = pool[s : min(s + block, stop)]
        pts = pts[~blocked(pts) & (pts - last >= sep)]
        if len(pts):
            pts = _sweep_chain(pts, 0, len(pts), sep)[2]
            last = pts[-1]
        yield pts


def _first_true(cloud, pred, k):
    """First index of the sorted ``cloud`` whose point meets ``pred``, for a
    predicate that is false and then true along the cloud, found by stepping
    from the guess ``k`` with the exact predicate."""
    while k < len(cloud) and not pred(cloud[k]):
        k += 1
    while k > 0 and pred(cloud[k - 1]):
        k -= 1
    return k


def _range_in(cloud, center, half, inside):
    """Index range [lo, hi) of the points x of the sorted ``cloud`` with
    ``inside(x - center)``, for a test that holds on one interval about
    ``center`` and is monotone in |x - center|; ``center -+ half`` are the
    guessed ends, settled with the exact test.

    Left of the center the test turns true along the cloud, right of it
    false, so the range runs from the first point that is right of the
    center or inside, to the first that is right of it and outside.
    """
    lo = _first_true(cloud, lambda x: x >= center or inside(x - center), int(cloud.searchsorted(center - half)))
    hi = _first_true(cloud, lambda x: x > center and not inside(x - center), int(cloud.searchsorted(center + half)))
    return lo, max(lo, hi)


# ---------------------------------------------------------------------------
# the two selection procedures


def build_caj(A: Ball, m: SetModel, upsilon_j, *, rng, pool=10_000, metric="sup") -> NetResult:
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

    ``seq(j)`` returns (the stage's sorted 1-D cloud, tilde_upsilon_j), as a
    ``stages`` provider does when called, with tilde_upsilon positive and
    non-increasing; B must be 1-D.  Candidates B(x, 3*tilde_upsilon_j)
    inside B, for every distinct point x of the stage cloud, are collected
    stage by stage, greedily thinned to a disjoint family (equivalent to the
    5r greedy since radii decrease in j), scaled back by 1/3, and truncated
    at the first index where vol of the union reaches
    ``target_fraction * c5 * vol(B)``.

    Each stage is one sorted pass, with no per-candidate loop.  The
    candidates inside B form one index range of the cloud (``_range_in``),
    read ``BLOCK`` points at a time, so no stage is materialized.  A
    candidate is dropped when the nearest earlier kept center on either
    side blocks it: the kept balls are disjoint and, up to the schedule's
    1e-12 tolerance, no smaller than this stage's, so a farther center lies
    beyond a whole kept ball and cannot reach the candidate.  The rest
    share one radius, so the greedy over them is ``_sweep_chain``, and one
    ``np.cumsum`` (which adds in order, as the greedy does) finds the early
    exit.
    """
    if not (0 < target_fraction <= 1):
        raise ArgumentError("target_fraction must lie in (0, 1]")
    n = B.ambient_dim
    vol_b = ball_volume(n, B.radius, metric)
    target = target_fraction * c5 * vol_b
    reach = B.radius * (1 + 1e-12)
    kept, kept_r3 = np.empty(0), np.empty(0)  # earlier stages' kept centers, sorted, and 3-dilate radii
    picks = []  # (centers, tilde, j) per stage that kept a ball
    acc = 0.0
    prev_tilde = math.inf
    j = G
    while j <= j_max:
        cloud, tilde = seq(j)
        if n != 1:
            raise ArgumentError(f"region has dimension {n}, stage {j} has dimension 1")
        if not (0 < tilde <= prev_tilde * (1 + 1e-12)):
            raise ArgumentError("tilde radii must be positive and non-increasing in j")
        prev_tilde = tilde
        r3 = 3.0 * tilde
        if r3 < B.radius:  # otherwise no candidate can fit
            vol = ball_volume(n, tilde, metric)
            lo, hi = _range_in(
                cloud, B.center[0], reach - r3, lambda d: _norm(np.asarray(d)[..., None], metric) + r3 <= reach
            )

            def blocked(pts):
                out = np.zeros(len(pts), dtype=bool)
                if not len(kept):
                    return out
                pos = np.searchsorted(kept, pts)
                for k in (pos - 1, pos):  # the nearest kept center on each side
                    has = (k >= 0) & (k < len(kept))
                    k = k[has]
                    dist = _norm((kept[k] - pts[has])[:, None], metric)
                    out[has] |= dist < (kept_r3[k] + r3) * (1 - _DISJOINT_SLACK)
                return out

            stage = []
            # kept points of one stage are at least sep apart; in 1-D the
            # metric's norm of a difference d >= 0 is d (sqrt(d * d) == d in
            # binary floating point, Boldo 2015), so the sweep's raw
            # difference makes the same test
            for pts in _chain_blocks(cloud, lo, hi, blocked, (r3 + r3) * (1 - _DISJOINT_SLACK), BLOCK):
                if not len(pts):
                    continue
                cum = np.cumsum(np.concatenate([[acc], np.full(len(pts), vol)]))[1:]
                stop = int(np.searchsorted(cum, target))  # the first cum >= target, if any
                stage.append(pts[: stop + 1])
                acc = float(cum[min(stop, len(pts) - 1)])
                if acc >= target:
                    break
            if stage:
                pts = np.concatenate(stage)
                picks.append((pts, tilde, j))
                if acc >= target:
                    return KgbResult(
                        np.concatenate([p for p, _, _ in picks])[:, None],
                        np.concatenate([np.full(len(p), t) for p, t, _ in picks]),
                        np.concatenate([np.full(len(p), jj, dtype=np.int64) for p, _, jj in picks]),
                        acc / vol_b,
                        j,
                    )
                at = np.searchsorted(kept, pts)
                kept, kept_r3 = np.insert(kept, at, pts), np.insert(kept_r3, at, r3)
        j += 1
    raise CoverageShortfall(
        f"covered fraction {acc / vol_b:.3g} of target {target_fraction * c5:.3g} by j_max={j_max}",
        achieved_fraction=acc / vol_b,
    )
