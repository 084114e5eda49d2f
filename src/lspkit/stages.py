"""Stage-set providers: sequences j -> (sorted 1-D cloud, radius) used by
the covering selections and the nested construction.

Both providers expose ``sorted_points(j)``, ``upsilon(j)``, ``j_max`` and
their support ``[lo, hi]``; calling one with j gives ``(sorted_points(j),
upsilon(j))``, the stage protocol of ``covering.build_kgb``, and
``cantor.transformed_stages`` gives the same with transformed radii.
``VdcPointStages`` serves one low-discrepancy point per stage.
``GridCloudStages`` serves dyadic grid clouds of ``cloud_size(j)`` points
(the count doubles at powers of two, so ``next_change(j)`` is the next one)
from stage ``j_min`` on, with a piecewise radius schedule whose plateaus
put the stage radii at the scales a construction needs.  A grid cloud is served as a ``GridView``,
which computes only the points its caller indexes or searches, so no stage
holds its cloud.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ArgumentError

GAMMA = 0.04  # plateau decay: radii fall as j**-GAMMA within a plateau


def van_der_corput(j):
    """Base-2 radical inverse of the integer j, 0 <= j < 2**64: its 64 bits
    reversed, read as a binary fraction."""
    if not 0 <= j < 2**64:
        raise ArgumentError("a van der Corput index must lie in [0, 2**64)")
    return int(f"{j:064b}"[::-1], 2) * 2.0**-64


@dataclass
class VdcPointStages:
    """One van der Corput point per stage, radii from a callable (1/j by
    default)."""

    radius_fn: callable = lambda j: float(j) ** -1.0
    lo: float = 0.0
    hi: float = 1.0
    j_max: int = 10**6

    def upsilon(self, j):
        return float(self.radius_fn(j))

    def sorted_points(self, j):
        """The stage's one point, as a one-point array."""
        return np.array([self.lo + (self.hi - self.lo) * van_der_corput(j)])

    def __call__(self, j):
        return self.sorted_points(j), self.upsilon(j)


class GridView:
    """The sorted cell midpoints of a regular grid of ``size`` cells over
    [lo, hi], computed on demand.

    Element k is ``lo + (hi - lo) * (k + 0.5) / size``, the same operations
    in the same order as the array ``lo + (hi - lo) * (np.arange(size) +
    0.5) / size``, so every element, slice and gather equals that array's
    bit for bit.  Rounding is monotone, so the elements are sorted.  The
    view supports ``len``, slices, non-negative integer and integer-array
    indices, ``np.asarray`` and ``searchsorted``; it holds no element.  A
    search computes the two elements about each value's formula guess, and
    more only for the values whose guess misses.
    """

    __slots__ = ("lo", "hi", "size")

    def __init__(self, lo, hi, size):
        self.lo, self.hi, self.size = lo, hi, int(size)

    def __len__(self):
        return self.size

    def _at(self, k):
        return self.lo + (self.hi - self.lo) * (k + 0.5) / self.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._at(np.arange(*key.indices(self.size)))
        k = np.asarray(key)
        if k.dtype.kind not in "iu":
            raise IndexError("a grid view takes integer, integer-array and slice indices")
        if k.size and (k.min() < 0 or k.max() >= self.size):
            raise IndexError(f"index out of range for a grid of {self.size} points")
        return self._at(k)

    def nearest_index(self, v):
        """The index whose formula point is nearest each value, clipped to
        the grid (NaN gives the last): a guess, since the computed element
        there may round past a neighbour."""
        with np.errstate(invalid="ignore"):
            k = np.rint((np.asarray(v, dtype=float) - self.lo) / (self.hi - self.lo) * self.size - 0.5)
        return np.fmax(np.fmin(k, self.size - 1), 0).astype(np.intp)

    def __array__(self, dtype=None, copy=None):
        grid = self[:]
        return grid if dtype is None else grid.astype(dtype, copy=False)

    def searchsorted(self, v):
        """``np.searchsorted(np.asarray(self), v)`` (side left): for each v,
        the first k with ``self[k] >= v``, or ``size`` if there is none.

        The index g is guessed from the formula and settled with exact
        comparisons against the computed elements.  One vector check,
        ``self[g - 1] < v <= self[g]`` (with g = 0 and g = size passing
        their missing side), accepts a right guess: the elements are
        sorted, so no earlier one reaches v.  Only the values that fail it,
        NaN among them, are searched further: the guess brackets the answer,
        and a bisection over the bracket (the whole grid where the guess
        misses) finds it.
        """
        shape = np.shape(v)
        v = np.asarray(v, dtype=float).ravel()
        n = self.size
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            guess = np.ceil((v - self.lo) / (self.hi - self.lo) * n - 0.5)
        # NaN sorts after every element, as in np.searchsorted (fmin takes n over NaN)
        guess = np.fmax(np.fmin(guess, n), 0).astype(np.intp)
        ok = ((guess == 0) | (self._at(guess - 1) < v)) & ((guess == n) | (self._at(guess) >= v))
        miss = np.flatnonzero(~ok)
        if not miss.size:
            return guess.reshape(shape)[()]
        v = v[miss]
        a = np.maximum(guess[miss] - 1, 0)
        b = np.minimum(guess[miss] + 1, n)
        # the answer lies in [a, b] unless an element below a reaches v or
        # the element at b falls short of it
        a[(a > 0) & (self._at(a - 1) >= v)] = 0
        b[(b < n) & ~(self._at(b) >= v)] = n
        todo = np.nonzero(a < b)[0]
        while len(todo):
            mid = (a[todo] + b[todo]) // 2
            up = self._at(mid) >= v[todo]
            b[todo[up]] = mid[up]
            a[todo[~up]] = mid[~up] + 1
            todo = todo[a[todo] < b[todo]]
        guess[miss] = a
        return guess.reshape(shape)[()]


@dataclass
class GridCloudStages:
    """Dyadic grid clouds over [lo, hi] with a plateau radius schedule.

    ``sorted_points(j)`` is the regular grid of ``2**floor(log2 j)`` cell
    midpoints, as a ``GridView`` that computes them on demand, so a stage
    costs memory only for the points its caller reads; ``upsilon(j)``
    follows ``a_k * (j_k / j)**GAMMA`` on the plateau starting at ``j_k``,
    so radii decay slowly within a plateau and drop at the configured
    breakpoints.  Plateau starts are integers of at least 1, the first at
    most ``j_max``, plateau radii are positive and ``lo < hi``, so every
    grid is sorted and every radius real and positive.
    """

    lo: float
    hi: float
    plateaus: tuple  # ((j_start, upsilon_start), ...) with j_start ascending
    j_max: int = 2**24

    def __post_init__(self):
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ArgumentError(f"stages lo {self.lo} and hi {self.hi} must be finite, with lo below hi")
        for j, _ in self.plateaus:  # 512 or, as JSON may spell it, 512.0
            if not (isinstance(j, Integral) or isinstance(j, float) and j.is_integer()) or j < 1:
                raise ArgumentError(f"stages plateau start {j!r} must be an integer of at least 1")
        self.plateaus = tuple((int(j), float(u)) for j, u in self.plateaus)
        for _, u in self.plateaus:
            if not u > 0:
                raise ArgumentError(f"stages.plateaus radius {u!r} must be above 0")
        if not self.plateaus or any(
            self.plateaus[k][0] >= self.plateaus[k + 1][0] for k in range(len(self.plateaus) - 1)
        ):
            raise ArgumentError("plateau break indices must be ascending")
        if self.j_min > self.j_max:
            start = str(self.j_min)  # a start of over 20 digits is named by its digit count
            start = start if len(start) <= 20 else f"of {len(start)} digits"
            raise ArgumentError(f"stages.plateaus first start {start} lies past stages.j_max {self.j_max}")
        # the schedule must be globally non-increasing across breakpoints
        for k in range(len(self.plateaus) - 1):
            jb, ub = self.plateaus[k + 1]
            if ub > self._plateau_value(k, jb):
                raise ArgumentError("plateau values must not increase at a breakpoint")

    def _plateau_value(self, k, j):
        j0, u0 = self.plateaus[k]
        return u0 * (j0 / j) ** GAMMA

    @property
    def j_min(self):
        return self.plateaus[0][0]

    def upsilon(self, j):
        if j < self.plateaus[0][0]:
            raise ArgumentError(f"stage index {j} below schedule start {self.plateaus[0][0]}")
        k = 0
        for t, (j0, _) in enumerate(self.plateaus):
            if j >= j0:
                k = t
        return self._plateau_value(k, j)

    def cloud_size(self, j):
        return 1 << (max(int(j), 1).bit_length() - 1)

    def next_change(self, j):
        """The first stage after j whose cloud differs: the next power of two."""
        return 1 << int(j).bit_length()

    def sorted_points(self, j):
        return GridView(self.lo, self.hi, self.cloud_size(j))

    def __call__(self, j):
        return self.sorted_points(j), self.upsilon(j)
