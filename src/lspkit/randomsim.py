"""Random limsup-set simulator on the unit torus.

Stage sets are copies of one base model, translated by uniform draws from a
counter-based generator: Philox4x64 keyed by ``(master_seed, tag)``, where
stage j owns its own run of counter blocks.  So stages are independent by
construction, a stage's draws do not depend on the window it is simulated
in, and any run is reproducible bit for bit.  A whole window of stages is
one call into numpy's Philox.  Tag 0 draws the stage translations, tag 917
the re-draws of the coverage trials, and tag 2027 one uniform per stage for
the coverage counts of a base with a hit law.  The torus lives here alone:
``_torus_distances`` measures all translations at once by one exact rule per
kind of base, and a scheme refuses a base that no rule measures
(``_torus_rule``).  A single point and a plane are hit with a chance that
does not depend on x (``_hit_law``), so the coverage diagnostic draws each
stage's hit count from its exact binomial law and holds nothing per trial.
For any other base it draws each block of stages' trials into one buffer,
measures them there (several points in place, with scratch arrays), and
compares them with every radius rule in one boolean buffer, all allocated
once per call.  The module provides Borel-Cantelli frequency diagnostics and
a covering-exponent estimator for matched-scale tail unions, whose fitted
slope is compared against the predicted value kappa*s + 1/tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ArgumentError
from .measure import ScalingFit, _merge_union, _ols_line
from .sets import AffinePlane, IFSAttractor, Isometry, PointSet, SetModel, distance_to_set, model_window

# largest window start N that covering_exponent counts: a window holds
# N + 1 stages, about 160 MB per million, so 2**22 peaks near 0.7 GB
MAX_N = 2**22
# a bc-diagnostic of a base with no hit law holds each trial's coordinates: a
# 3-point base at a million trials peaks at 163 MB in R^4 and 530 MB in R^16
MAX_DIM = 16
# a bounded base is measured once per unit shift of its window
MAX_SHIFTS = 1024
_TRANSLATION_TAG = 0  # Philox key word 1 of the stage translations
_TRIAL_TAG = 917  # Philox key word 1 of the coverage-trial re-draws
_LAW_TAG = 2027  # Philox key word 1 of the coverage stages' hit-count uniforms
_BLOCK_DRAWS = 2**16  # about this many uniforms per block of coverage stages
_LAW_CELLS = 2**13  # at most this many cells per count table
# mode +- (13 sd + 20) holds all but 1e-35 of a binomial's mass, far below a
# uniform's 2**-53 step (checked for n from 10**3 to 10**6, means 1e-3 to n/2)
_LAW_SD, _LAW_PAD = 13.0, 20.0


@dataclass
class RandomScheme:
    base: SetModel
    tau: float
    s: float
    kappa: float
    master_seed: int

    @property
    def n(self):
        return self.base.ambient_dim

    def __post_init__(self):
        if not (0 <= self.kappa < 1):
            raise ArgumentError("kappa must lie in [0, 1)")
        if not (self.s - self.kappa * self.s > 0):
            raise ArgumentError("requires s - kappa*s > 0")
        if not (self.tau > 1.0 / (self.s - self.kappa * self.s)):
            raise ArgumentError("requires tau > 1 / (s - kappa*s)")
        _torus_rule(self.base)


def stage_uniforms(seed, tag, J, N, k, out=None) -> np.ndarray:
    """Uniforms on [0, 1) for stages J..N, shape (N - J + 1, k).

    Row j - J holds the first k doubles of the stream that
    ``Philox(key=(seed, tag), counter=j * b)`` starts, with b = ceil(k / 4)
    (one Philox4x64 call yields four 64-bit words), each the top 53 bits of
    a word times 2**-53.  Each stage owns b counter blocks, so a row does not
    depend on the window it is drawn in, and the whole window is one
    ``Generator.random`` call, which converts the words in that one pass.
    The draws fill ``out`` when it is given, a C-contiguous float array of
    shape (N - J + 1, 4 * b), and the result is a view of it.
    """
    J, N, k = int(J), int(N), int(k)
    if J > N:
        raise ArgumentError("requires J <= N")
    b = -(-k // 4)
    key = np.array([seed, tag], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=J * b))
    return gen.random((N - J + 1, 4 * b), out=out)[:, :k]


def draw_isometry(scheme: RandomScheme, j) -> Isometry:
    """Uniform torus translation for stage j, reproducible from the seed."""
    t = stage_uniforms(scheme.master_seed, _TRANSLATION_TAG, j, j, scheme.n)[0]
    return Isometry(translation=t)


def _translations(scheme, J, N):
    """Stage translations for j in [J, N], one row per stage."""
    return stage_uniforms(scheme.master_seed, _TRANSLATION_TAG, J, N, scheme.n)


def _frac(q):
    """``q mod 1``, bit for bit as ``np.mod(q, 1.0)`` (the fractional part
    of a double is exact, so both round only the final ``+ 1`` of a negative
    q), at a quarter of its cost."""
    return q - np.floor(q)


def _wrapped_sup(q, x, axes, scratch):
    """Sup over ``axes`` of the torus distance min(d, 1 - d), d = |frac(q) - x|,
    along each axis: computed in q, bit for bit as out of place, with
    ``scratch`` (q's shape) taking the floors and 1 - d.  A view of q."""
    np.floor(q, out=scratch)
    q -= scratch
    q -= x
    np.abs(q, out=q)
    np.subtract(1.0, q, out=scratch)
    np.minimum(q, scratch, out=q)
    d = q[..., axes[0]]
    for i in axes[1:]:
        np.maximum(d, q[..., i], out=d)
    return d


def _scratch_planes(base):
    """How many arrays of the translations' shape ``_torus_distances`` needs."""
    if isinstance(base, PointSet) and len(base.points) > 1:
        return 3
    return 1 if _torus_rule(base) is None else 0


def _torus_rule(base: SetModel):
    """What ``_torus_distances`` measures ``base`` by: None for a point set or a
    coordinate plane, a hyperplane's primitive integer normal with entries of
    at most 64, or the unit shifts of a bounded base whose window sides are at
    most 3, at most ``MAX_SHIFTS`` of them.  Raises ``ArgumentError`` naming
    any other base, and any base in more than ``MAX_DIM`` dimensions."""
    if isinstance(base, IFSAttractor):
        raise ArgumentError("randsim cannot measure an IFS attractor on the torus: a base may be a point set, "
                            "a plane, a circle, a sphere or a polyline")
    kind = {PointSet: "point set", AffinePlane: "plane"}.get(type(base), type(base).__name__.lower())
    if base.ambient_dim > MAX_DIM:
        raise ArgumentError(f"randsim cannot measure a {kind} in dimension {base.ambient_dim} on the torus: "
                            f"a base may have at most {MAX_DIM} dimensions")
    if isinstance(base, PointSet) or (isinstance(base, AffinePlane) and base.free_axes is not None):
        return None
    if isinstance(base, AffinePlane):
        normal = np.linalg.svd(base.basis, full_matrices=True)[2][-1]
        # the least integral multiple of normal / max|normal| is primitive
        scaled = np.arange(1, 65)[:, None] * (normal / np.abs(normal).max())
        whole = np.all(np.abs(scaled - np.rint(scaled)) < 1e-9, axis=1)
        if base.plane_dim < base.ambient_dim - 1 or not whole.any():
            raise ArgumentError(f"randsim cannot measure a tilted plane of dimension {base.plane_dim} in dimension "
                                f"{base.ambient_dim} on the torus: only coordinate planes and hyperplanes whose "
                                "normal is an integer vector with entries of at most 64 are exact")
        return np.rint(scaled[np.argmax(whole)])
    lo, hi = model_window(base)
    widths = hi - lo
    if np.any(widths > 3):
        raise ArgumentError(f"randsim cannot measure a {kind} whose window is "
                            f"{float(widths.max()):.6g} wide on the torus: a window side may be at most 3")
    steps = [range(-1, max(1, math.ceil(w)) + 1) for w in widths]
    shifts = math.prod(map(len, steps))
    if shifts > MAX_SHIFTS:
        raise ArgumentError(f"randsim cannot measure a {kind} in dimension {base.ambient_dim} whose window takes "
                            f"{shifts} unit shifts on the torus: at most {MAX_SHIFTS}")
    return np.array(list(product(*steps)), dtype=float)


def _hit_law(base: SetModel):
    """F(r), the chance that the sup-metric torus distance from a fixed x to
    ``base`` + t, t uniform on the torus, is below r, as a function of an
    array of radii; None for a base whose chance depends on x.  Along each
    axis a point's torus distance is uniform on [0, 1/2], so a single point
    in R^n reads min(1, 2r)^n and a coordinate plane min(1, 2r)^m, m its
    unspanned axes.  A hyperplane of primitive integer normal nu is within r
    when nu . t mod 1, which is uniform, is within r ||nu||_1 of a level
    (``_torus_distances``): min(1, 2r ||nu||_1).  Several points, circles,
    spheres and polylines have no such law."""
    rule = _torus_rule(base)
    if isinstance(base, PointSet) and len(base.points) == 1:
        axes, scale = base.ambient_dim, 2.0
    elif isinstance(base, AffinePlane) and rule is None:
        axes, scale = int(np.count_nonzero(~base.free_axes)), 2.0
    elif isinstance(base, AffinePlane):
        axes, scale = 1, 2.0 * float(np.abs(rule).sum())
    else:
        return None
    return lambda r: np.clip(scale * np.asarray(r, dtype=float), 0.0, 1.0) ** axes


def _binomial_quantiles(n, p, u):
    """The least k with P(Binomial(n, p) <= k) > u, for the matching entries
    of the 1-D arrays p and u (u in [0, 1)): n for p >= 1, 0 for p <= 0 or
    NaN.  The probabilities are tabulated over the mode +- (13 sd + 20)
    only, which leaves out less than 1e-35 of the mass, each relative to the
    window's low end by the ratios P(k) / P(k - 1) = (n - k + 1) p /
    (k (1 - p)).  So a row costs O(1 + sqrt(n p (1 - p))), whatever n.  The
    cumulative sums run toward u's nearer tail: u < 1/2 is compared with the
    lower sums, and otherwise 1 - u, which is exact, with the upper ones, so
    both tails keep their relative precision.  Rows are tabulated in order
    of width, at most ``_LAW_CELLS`` cells a table and each row at least
    four fifths of its table's width; a row's result does not depend on the
    rows it is tabulated with."""
    p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
    k = np.where(p >= 1.0, n, 0)
    rows = np.flatnonzero((p > 0.0) & (p < 1.0))
    p, u = p[rows], u[rows]
    mode = np.minimum(np.floor((n + 1) * p), n)
    half = np.ceil(_LAW_SD * np.sqrt(n * p * (1.0 - p))) + _LAW_PAD
    lo = np.maximum(mode - half, 0.0)
    width = (np.minimum(mode + half, n) - lo + 1).astype(np.int64)
    order = np.argsort(width, kind="stable")
    widths = width[order]
    a = 0
    while a < len(order):
        b = int(np.searchsorted(widths, widths[a] * 5 // 4, side="right"))
        cols = int(widths[b - 1])
        b = min(b, a + max(1, _LAW_CELLS // cols))
        r = order[a:b]
        r = r[np.argsort(u[r] >= 0.5, kind="stable")]  # the lower-tail rows first
        k[rows[r]] = lo[r] + _quantile_counts(n, p[r], u[r], lo[r], width[r], cols)
        a = b
    return k


def _quantile_counts(n, p, u, lo, width, cols):
    """How many of each row's window counts lo, lo + 1, ... have a
    cumulative probability of at most u, on a table of ``cols`` columns: the
    rows with u < 1/2 come first, and a row's cells past its ``width`` are
    zero."""
    weight = np.empty((len(p), cols))
    weight[:, 0] = 1.0
    ratio = weight[:, 1:]
    ks = lo[:, None] + np.arange(1.0, cols)
    np.subtract(n + 1.0, ks, out=ratio)
    ratio /= ks
    ratio *= (p / (1.0 - p))[:, None]
    short = np.flatnonzero(width < cols)
    ratio[short, width[short] - 1] = 0.0  # the products past it are zero too
    np.cumprod(weight, axis=1, out=weight)
    low = int(np.count_nonzero(u < 0.5))
    counts = np.empty(len(p), dtype=np.int64)
    below = np.cumsum(weight[:low], axis=1)  # P(X <= k), unnormalised
    np.sum(below <= (u[:low] * below[:, -1])[:, None], axis=1, out=counts[:low])
    # P(X <= k) <= u exactly when P(X >= k + 1) >= 1 - u
    above = np.cumsum(weight[low:, ::-1], axis=1)[:, ::-1]
    np.sum(above[:, 1:] >= ((1.0 - u[low:]) * above[:, 0])[:, None], axis=1, out=counts[low:])
    return counts


def _torus_distances(base: SetModel, trans, x, scratch=None):
    """Sup-metric torus distance from x to base + t, that is from q = x - t to
    the base, for each t along the last axis of trans; the result has
    trans's other axes.  Point sets and coordinate planes reduce mod 1.  A
    hyperplane of primitive integer normal nu is at dist(nu . (q - b), Z) /
    ||nu||_1: its integer translates are the level sets nu . (p - b) in Z,
    and l1 is the sup norm's dual.  A bounded base reduces q into the unit
    box at its window's low corner and takes the shifts -1 .. max(1,
    ceil(w_i)) on each axis i of window width w_i; a farther shift is
    farther in that coordinate from every base point than the one before it,
    so it never wins, in the sup or the Euclidean norm.  The nearest shift
    is measured for every row, and each later one only for the rows that
    lie, on every axis, nearer its shifted window than their running
    minimum: one bit per row per axis and shift value.  Point sets and
    coordinate planes are measured in trans (in a copy when ``scratch`` is
    None); ``scratch`` holds ``_scratch_planes(base)`` arrays of its shape:
    the floors, and for several points a copy per point and their minimum."""
    x = _frac(x)
    rule = _torus_rule(base)
    if rule is None:
        if scratch is None:
            trans, scratch = trans.copy(), np.empty((_scratch_planes(base),) + trans.shape)
        if isinstance(base, PointSet):
            axes, points = range(base.ambient_dim), base.points
        else:  # a translated coordinate plane only moves along its unspanned axes
            axes, points = np.flatnonzero(~base.free_axes), base.base[None]
        *others, last = points
        if others:
            best = scratch[2][..., 0]
            best.fill(np.inf)
            for p in others:
                np.minimum(best, _wrapped_sup(np.add(trans, p, out=scratch[1]), x, axes, scratch[0]), out=best)
        d = _wrapped_sup(np.add(trans, last, out=trans), x, axes, scratch[0])
        return np.minimum(best, d, out=best) if others else d
    flat = trans.reshape(-1, base.ambient_dim)
    if isinstance(base, AffinePlane):
        level = (x - flat - base.base) @ rule
        d = np.abs(level - np.rint(level)) / np.abs(rule).sum()
    else:  # one shift at a time: each row's distance is its own, and a minimum is exact
        lo, hi = model_window(base)
        q = _frac(x - flat - lo) + lo
        # nearest shift first: unit cell center to window center
        shifts = rule[np.argsort(np.abs(rule + 0.5 - (hi - lo) / 2).max(axis=1), kind="stable")]
        d = distance_to_set(base, q + shifts[0], metric="sup")
        # The base lies in its window, so a row at least as far from the
        # shifted window along some axis as its running minimum keeps it.
        # Each (axis, shift) pair's screen is formed once, against the
        # running minimum then; the slack covers both distances' rounding,
        # which keeps every minimum bit for bit.
        slack = 2.0**-30 * (1.0 + float(np.abs(np.concatenate([lo, hi])).max()))
        within = {}  # (axis, shift) -> the rows' screens, eight to a byte
        for shift in shifts[1:]:
            for i, v in enumerate(shift):
                if (i, v) not in within:
                    t = q[:, i] + v
                    gap = lo[i] - t
                    np.maximum(gap, np.subtract(t, hi[i], out=t), out=gap)
                    within[i, v] = np.packbits(np.subtract(gap, slack, out=gap) < d)
            near = np.bitwise_and.reduce([within[i, v] for i, v in enumerate(shift)])
            rows = np.flatnonzero(np.unpackbits(near, count=len(d)))
            # a block of rows at a time, so a shift takes no more memory than the first
            for a in range(0, rows.size, _BLOCK_DRAWS):
                part = rows[a : a + _BLOCK_DRAWS]
                y = q[part]
                y += shift
                d[part] = np.minimum(d[part], distance_to_set(base, y, metric="sup"))
    return d.reshape(trans.shape[:-1])


@dataclass
class CoverageDiagnostic:
    j_values: np.ndarray
    p_hat: np.ndarray
    partial_sums: np.ndarray
    classification: str
    last_octave_increment: float
    increment_stderr: float
    expected_partial_sum: float | None = None  # sum of F(r_j) over the window, for a base with a hit law


def coverage_frequency(
    scheme: RandomScheme, x, radius_rules, J, N, trials=1000
) -> list[CoverageDiagnostic]:
    """Empirical stage-hit probabilities over independent re-draws, with a
    divergence classification of the partial sums; one ``CoverageDiagnostic``
    per rule of ``radius_rules``.

    Each rule is a callable j -> radius.  Divergence is judged by the growth
    of the partial sums over the last octave of stage indexes against its
    sampling error.  Stage j's hits out of ``trials`` come from its own
    counter blocks, so a stage's estimate does not depend on the window
    [J, N] it is computed in, and each rule's diagnostic is the one a call
    with that rule alone would return, bit for bit.  Stages run in blocks,
    and each rule is called for a block's stages when the block is counted,
    once per stage.

    A single point and a plane have a hit law F (``_hit_law``) that does not
    depend on x: stage j draws one uniform (Philox tag 2027), and each rule
    reads the Binomial(trials, F(r_j)) quantile at it (``_binomial_quantiles``),
    so nothing is held per trial and ``expected_partial_sum`` reports the sum
    of F(r_j).  Blocks hold 2**14 stages.

    Any other base re-draws its ``trials`` translations (tag 917) and
    measures them (``_torus_distances``), in blocks of about 2**16 uniforms,
    once for all rules.  The draws, the scratch planes (``_scratch_planes``)
    and the comparisons are reused by every block: 8 bytes per trial per
    coordinate each, and 1 per trial, for the block's stages.  The window
    keeps one hit count per stage per rule.  Tag 0 is the stage translations
    themselves (``draw_isometry``).
    """
    if trials < 1000:
        raise ArgumentError("trials must be >= 1000")
    if J > N:
        raise ArgumentError("requires J <= N")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (scheme.n,):
        raise ArgumentError(f"x must be one point in dimension {scheme.n}")
    js = np.arange(J, N + 1)
    hits = np.empty((len(radius_rules), len(js)), dtype=np.int64)
    law = _hit_law(scheme.base)
    if law is not None:
        expected = [0.0] * len(radius_rules)
        step = _BLOCK_DRAWS // 4  # a stage's one uniform takes a Philox block of four
        draws = np.empty((min(step, len(js)), 4))
        for lo in range(0, len(js), step):
            hi = min(lo + step, len(js))
            u = stage_uniforms(scheme.master_seed, _LAW_TAG, js[lo], js[hi - 1], 1, out=draws[: hi - lo])[:, 0]
            for i, (rule, row) in enumerate(zip(radius_rules, hits)):
                p = law(_radii(rule, js[lo:hi]))
                row[lo:hi] = _binomial_quantiles(trials, p, u)
                expected[i] += float(np.sum(p))
        return [_classify(js, h / trials, trials, e) for h, e in zip(hits, expected)]
    k = trials * scheme.n
    step = max(1, _BLOCK_DRAWS // k)
    # fresh block-sized temporaries would leave the heap to be trimmed and
    # refaulted: about 344,000 page faults per 100,000-stage run, not 2,000
    draws = np.empty((step, 4 * -(-k // 4)))
    scratch = np.empty((_scratch_planes(scheme.base), step, trials, scheme.n))
    below = np.empty((step, trials), dtype=bool)
    for lo in range(0, len(js), step):
        hi = min(lo + step, len(js))
        trans = stage_uniforms(scheme.master_seed, _TRIAL_TAG, js[lo], js[hi - 1], k, out=draws[: hi - lo])
        d = _torus_distances(scheme.base, trans.reshape(hi - lo, trials, scheme.n), x, scratch[:, : hi - lo])
        hit = below[: hi - lo]
        for rule, row in zip(radius_rules, hits):
            np.less(d, _radii(rule, js[lo:hi])[:, None], out=hit)
            np.sum(hit, axis=1, out=row[lo:hi])
    return [_classify(js, h / trials, trials) for h in hits]


def _radii(rule, js):
    return np.array([float(rule(j)) for j in js])


def _classify(js, p_hat, trials, expected=None) -> CoverageDiagnostic:
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
        expected_partial_sum=expected,
    )


# ---------------------------------------------------------------------------
# box counting of tail unions


def _interval_union_count(lo, hi, m):
    """Number of distinct integer box indices covered by the ranges
    [lo[i], hi[i]] mod m.

    Ranges that wrap the torus seam are split in two, and the pieces are
    merged as the half-open integer intervals [lo, hi + 1) by
    ``_merge_union``, so adjacent ranges join into one.
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
    starts, ends = _merge_union(starts, ends + 1)
    return int(np.sum(ends - starts))


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
        and (free := base.free_axes) is not None
    ):
        axis = int(np.flatnonzero(~free)[0])
        offset, line = base.base[axis], True
    else:
        raise ArgumentError(
            "covering exponent supports single-point bases (n=1) and "
            "axis-aligned line bases (n=2)"
        )
    counts, sides, consts = [], [], []
    for N in N_list:
        try:
            m = round(N**scheme.tau)
        except OverflowError:  # N**tau past the float range
            m = math.inf
        # counting is exact through integer interval unions, so the limit is
        # index precision and the per-window interval count, not grid memory
        if m > 2**48 or N > MAX_N:
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
