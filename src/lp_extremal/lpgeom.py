"""Finite point sets in l_p spaces: norms, distances, and distance-ratio reports.

All values are plain floats / float64 arrays.  Norm accumulation is
compensated (``math.fsum``) and the p = 4 path squares twice instead of
calling a general power routine, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "Configuration",
    "RatioReport",
    "p_norm",
    "distance",
    "ratio_report",
    "is_equilateral",
]

#: Default relative tolerance of is_equilateral and of check-equilateral --tol.
DEFAULT_TOL = 1e-9


def _check_int(value, name: str, minimum: int) -> int:
    """``value`` as a Python int from ``minimum`` up to the largest float.

    Accepts anything with ``__index__`` (int, numpy integers) and rejects
    bools, floats and strings, so every integer argument obeys one rule.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} is too large for a float")
    return value


def _assign(record, **values) -> None:
    """Set fields of a frozen dataclass ``record``, which blocks only ``__setattr__``."""
    vars(record).update(values)


def _check_real(value, name: str, minimum: float = -math.inf) -> float:
    """``value`` as a float, finite and >= ``minimum``.  A bool, a string or a numpy
    complex (whose imaginary part float() drops) is not a number, and an int beyond
    the float range is too large."""
    try:
        if type(value) is not float and isinstance(value, (bool, np.bool_, str, bytes,
                                                           np.complexfloating)):
            raise TypeError
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and x >= minimum):
        floor = "" if minimum == -math.inf else f" >= {minimum}"
        raise ValueError(f"{name} must be a finite number{floor}, got {value!r}")
    return x


def _as_floats(values, name: str, ndim: int) -> np.ndarray:
    """A float64 copy of ``values``, the caller's to freeze: a non-empty ``ndim``-D
    array of finite numbers.  A string, a complex value or an array of bools is not a
    number; only an object array (a JSON integer beyond int64 makes one) is scanned,
    and a value float() refuses, or cannot hold, is an error too.
    """
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind in "USbc" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat)):
        raise ValueError(f"{name} must be numbers, not text, bools or complex (dtype {arr.dtype})")
    try:
        arr = arr.astype(float)
    except TypeError:
        raise ValueError(f"{name} must be numbers (dtype {arr.dtype})") from None
    except OverflowError:
        raise ValueError(f"{name} must be numbers a float can hold; one is too large") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    if ndim == 1:
        # on 5 coordinates np.isfinite(...).all() took 1.31 us, math.isfinite over the
        # Python floats 0.20 us, and their sum, finite only if every float is, half that
        vals = arr.tolist()
        finite = math.isfinite(sum(vals)) or all(map(math.isfinite, vals))
    else:
        finite = np.isfinite(arr).all()
    if not finite:
        raise ValueError(f"{name} must be finite (no NaN/inf)")
    return arr


def p_norm(v, p) -> float:
    """(sum_i |v_i|^p)^(1/p) for a coordinate vector ``v`` and exponent ``p >= 1``.

    The largest absolute coordinate is factored out before powering, so no
    power overflows or underflows, and the per-term powers are accumulated
    with compensated summation.  A norm beyond the largest float (up to
    n^(1/p) times the largest coordinate) raises ValueError.  Short
    vectors dominate the callers, so the work runs on Python floats; only
    a general exponent goes through ``np.power``.

    Parameters
    ----------
    v : array_like
        Non-empty 1-D vector of finite coordinates.
    p : float
        Exponent, finite and >= 1.

    Returns
    -------
    float
        The norm; 0 exactly iff ``v`` is the zero vector.
    """
    return _norm(_as_floats(v, "coordinates", 1).tolist(), _check_real(p, "norm exponent", 1))


def _norm(vals: list, pp: float) -> float:
    """:func:`p_norm` of a list of floats, for an exponent already checked.

    The floats are finite, except where a difference in :func:`distance`
    overflowed: then the norm is nan, and as |u_i - v_i| <= ||u - v||_p the
    distance is out of range too.
    """
    vmax = max(map(abs, vals))
    if vmax == 0.0:
        return 0.0
    scaled = [abs(t) / vmax for t in vals]
    if pp == 4.0:
        root = math.sqrt(math.sqrt(math.fsum([(t * t) * (t * t) for t in scaled])))
    elif pp == 2.0:
        root = math.sqrt(math.fsum([t * t for t in scaled]))
    else:
        root = math.fsum(np.power(scaled, pp).tolist()) ** (1.0 / pp)
    norm = vmax * root
    if not norm < math.inf:
        raise ValueError("the norm exceeds the floating-point range")
    return norm


def distance(u, v, p) -> float:
    """l_p distance between two points of equal dimension."""
    uu = _as_floats(u, "coordinates", 1).tolist()
    vv = _as_floats(v, "coordinates", 1).tolist()
    if len(uu) != len(vv):
        raise ValueError(f"dimension mismatch: {len(uu)} vs {len(vv)}")
    return _norm(list(map(operator.sub, uu, vv)), _check_real(p, "norm exponent", 1))


@dataclass(frozen=True)
class Configuration:
    """An ordered list of m >= 2 points in R^n together with the exponent p.

    Immutable after construction: the coordinate array is copied and marked
    read-only.
    """

    points: np.ndarray
    p: float

    def __post_init__(self):
        pts = _as_floats(self.points, "coordinates", 2)
        if pts.shape[0] < 2:
            raise ValueError(f"points must be an (m, n) array, m >= 2; got shape {pts.shape}")
        pts.flags.writeable = False
        _assign(self, points=pts, p=_check_real(self.p, "norm exponent", 1))

    @property
    def size(self) -> int:
        """Number of points m."""
        return self.points.shape[0]

    def to_dict(self) -> dict:
        """Wire format: ``{"p": 4.0, "points": [[...], ...]}``."""
        return {"p": self.p, "points": self.points.tolist()}


@dataclass(frozen=True)
class RatioReport:
    """Extremes of the pairwise distances of a configuration; ratio is max_dist / min_dist."""

    max_dist: float
    min_dist: float
    ratio: float = field(init=False)
    argmax_pair: tuple[int, int]
    argmin_pair: tuple[int, int]

    def __post_init__(self):
        if not self.min_dist > 0.0:
            raise ValueError(f"min_dist must be > 0, got {self.min_dist!r}")
        _assign(self, ratio=self.max_dist / self.min_dist)

    def to_dict(self) -> dict:
        return {
            "max_dist": self.max_dist,
            "min_dist": self.min_dist,
            "ratio": self.ratio,
            "argmax_pair": list(self.argmax_pair),
            "argmin_pair": list(self.argmin_pair),
        }


#: Largest number of float64 elements in one chunk of pair differences.
PAIR_BLOCK_ELEMENTS = 1 << 16


@functools.lru_cache(maxsize=16)
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the pairs i < j, in row-major order.

    Only sets whose pairs fit in one chunk of :func:`_pair_sums` come here,
    as the search prices such sets thousands of times.  A larger set builds
    its indices on each call (0.9 ms at m = 386, under 2 % of its scan): at 16
    bytes a pair, a cached entry would pin 1.2 MB at m = 386 for as long as
    the module lives, and 8.4 MB at m = 1026.
    """
    i, j = np.triu_indices(m, 1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _sum_floor(n: int) -> float:
    """n times the smallest normal float: a pair sum of n terms below it may
    have lost digits to underflow (see :func:`_pair_power_scan`)."""
    return n * sys.float_info.min


def _powered_sums(d: np.ndarray, p: float) -> np.ndarray:
    """:func:`_pair_sums`'s values from differences ``d`` (coordinates on the
    last axis), reduced by one contiguous last-axis ``sum``; ``d`` is
    overwritten."""
    if p == 4.0 or p == 2.0:
        np.multiply(d, d, out=d)
        if p == 4.0:
            np.multiply(d, d, out=d)
        return d.sum(axis=-1)
    np.abs(d, out=d)
    top = d.max(axis=-1)
    np.divide(d, np.where(top > 0.0, top, 1.0)[..., None], out=d)
    np.power(d, p, out=d)
    return top * d.sum(axis=-1) ** (1.0 / p)


def _pair_sums(x: np.ndarray, p: float) -> np.ndarray:
    """Per-pair values for all i < j of the rows of ``x``, in row-major order.

    For p = 4 and p = 2 the value is sum_m |x_im - x_jm|^p; for any other p
    it is the l_p distance itself, with each pair's largest |difference|
    factored out before powering as in :func:`p_norm`, so a large p cannot
    underflow every term to 0.

    The pair differences x[j] - x[i] are gathered in chunks of at most
    ``PAIR_BLOCK_ELEMENTS`` values, and at least one pair.  A set
    whose pairs fit in one chunk returns its sums at once.  Each pair is
    reduced by one contiguous last-axis ``sum`` whatever the chunking, so
    the chunk size does not change a bit, and no BLAS routine is involved.
    """
    m, n = x.shape
    count = m * (m - 1) // 2
    step = max(1, PAIR_BLOCK_ELEMENTS // n)
    # subtracting in place saves a chunk-sized temporary: about 10 % at n = 384;
    # at n = 32 that 144 KiB temporary page-faulted afresh on every search step
    if count <= step:
        i, j = _pair_index(m)
        d = x.take(j, axis=0)
        d -= x.take(i, axis=0)
        return _powered_sums(d, p)
    i, j = np.triu_indices(m, 1)
    out = np.empty(count)
    for a in range(0, count, step):
        b = a + step
        d = x.take(j[a:b], axis=0)
        d -= x.take(i[a:b], axis=0)
        out[a:b] = _powered_sums(d, p)
    return out


def _pair_at(t: int, m: int) -> tuple[int, int]:
    """The pair (i, j), i < j, at row-major position ``t`` among m points:
    counted from the end, row m - 2 - r holds positions r(r + 1)/2 to
    r(r + 1)/2 + r, which an integer square root finds exactly."""
    u = m * (m - 1) // 2 - 1 - t
    i = m - 2 - (math.isqrt(8 * u + 1) - 1) // 2
    return i, t - i * (2 * m - i - 1) // 2 + i + 1


def _power_of_two_scaled(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """``(pts * 2^-k, k)``, where 2^k is the power of two just above max|x|.

    Every scaled coordinate lies in (-1, 1), and the scaling is exact in the
    normal range, so it changes no comparison between coordinates.
    """
    k = math.frexp(float(np.abs(pts).max()))[1]
    return np.ldexp(pts, -k), k


def _pair_power_scan(pts: np.ndarray, p: float):
    """:func:`_pair_sums` on the points scaled by :func:`_power_of_two_scaled`.

    The coordinate scale alone then cannot make the powers underflow or
    overflow, and selections agree with the unscaled sums.  Returns ``(sums,
    x, k, low, dists)``: the sums are in units of 2^(p*k) (distances in units
    of 2^k for p other than 2 and 4) and ``x`` holds the scaled points.

    ``low`` holds the row-major positions of the sums that may have lost
    digits to underflow, and ``dists`` the :func:`p_norm` distances of those
    pairs of rows of ``x``.  Each of the n terms of a sum loses at most one
    subnormal unit, so a sum at or above n times the smallest normal float
    is accurate to about one rounding.  Below that (scaled points about
    1e-77 apart for p = 4, 1e-154 for p = 2) the sums no longer order the
    distances.  The low pairs are walked in row-major order, and the first
    pair of exactly equal points raises ValueError naming it; a distinct
    pair whose power sum underflowed is not a duplicate.
    """
    x, k = _power_of_two_scaled(pts)
    sums = _pair_sums(x, p)
    m, n = pts.shape
    low = (sums < _sum_floor(n)).nonzero()[0]
    dists = np.empty(low.size)
    for r, t in enumerate(low.tolist()):
        i, j = _pair_at(t, m)
        if np.array_equal(pts[i], pts[j]):
            raise ValueError(f"duplicate points at indices {(i, j)}")
        dists[r] = _norm((x[j] - x[i]).tolist(), p)
    return sums, x, k, low, dists


def ratio_report(config: Configuration) -> RatioReport:
    """Max distance M, min distance mu, and their ratio over all unordered pairs.

    Exactly coincident points make mu = 0 and are rejected with the offending
    index pair; merely close points are legal and simply produce a large ratio.
    The two extremes are repriced as :func:`p_norm` does on the rescaled
    points and mapped back by 2^k, so coordinates near the float limit work
    as long as M itself is representable.

    Returns
    -------
    RatioReport
        ``ratio == max_dist / min_dist`` as computed; the arg pairs identify a
        maximizing and a minimizing pair (first encountered on ties).
    """
    m = config.size
    sums, x, k, low, dists = _pair_power_scan(config.points, config.p)
    tmax = int(sums.argmax())
    tmin = int(sums.argmin())
    if low.size:
        # the extremes among underflowed sums are chosen by their p_norm distances
        tmin = int(low[dists.argmin()])
        if low.size == sums.size:
            tmax = int(low[dists.argmax()])
    imax, jmax = _pair_at(tmax, m)
    imin, jmin = _pair_at(tmin, m)
    try:
        max_dist = math.ldexp(_norm((x[jmax] - x[imax]).tolist(), config.p), k)
    except OverflowError:
        raise ValueError("the maximum distance exceeds the floating-point range") from None
    min_dist = math.ldexp(_norm((x[jmin] - x[imin]).tolist(), config.p), k)
    return RatioReport(
        max_dist=max_dist,
        min_dist=min_dist,
        argmax_pair=(imax, jmax),
        argmin_pair=(imin, jmin),
    )


def _distances(sums: np.ndarray, p: float) -> np.ndarray:
    """Distances from :func:`_pair_sums` values, in the same units 2^k."""
    if p == 4.0:
        return np.sqrt(np.sqrt(sums))
    if p == 2.0:
        return np.sqrt(sums)
    return sums


def _unequal_from_point_zero(pts: np.ndarray, p: float, tol: float) -> bool:
    """Whether the distances from point 0 alone prove ``pts`` not equilateral.

    They are x[j] - x[0] reduced by :func:`_powered_sums`, so they are m - 1
    of the full scan's values bit for bit, and its extremes satisfy dmax >=
    rmax and dmin <= rmin.  For tol <= 1 then dmax - dmin - tol*dmax >=
    (1 - tol)*rmax - rmin, and the set is not equilateral once rmax - rmin >
    tol*rmax.  The test asks for twice that spread (so it never passes for
    tol >= 1/2), which leaves room for the few roundings on either side;
    where tol*rmax is subnormal, any spread of distances whose sums clear
    the underflow floor is far larger still.  A sum below that floor, or two
    equal points anywhere, leave the verdict to the full scan, which
    reprices the one and names the first pair of the other.  Two points give
    rmax == rmin and never pass.
    """
    n = pts.shape[1]
    x, _ = _power_of_two_scaled(pts)
    sums = _powered_sums(x[1:] - x[0], p)
    if sums.min() < _sum_floor(n):
        return False
    dists = _distances(sums, p)
    rmax = float(dists.max())
    rmin = float(dists.min())
    if not rmax - rmin > 2.0 * tol * rmax:
        return False
    # equal points have bit-equal sums from point 0, so without a tie there
    # is none; rows equal under == (-0.0 and 0.0 too) sort next to each other
    if len(set(sums.tolist())) == sums.size:
        return True
    rows = pts[np.lexsort(pts.T)]
    return not bool((rows[1:] == rows[:-1]).all(axis=1).any())


def is_equilateral(config: Configuration, tol: float = DEFAULT_TOL) -> tuple[bool, Optional[float]]:
    """Whether all pairwise distances agree to relative tolerance ``tol``.

    Returns ``(flag, lam)``: ``flag`` is true iff (max - min) <= tol * max over
    the pairwise distances, and ``lam`` is the mean pairwise distance when the
    flag is true (None otherwise).

    The distances from point 0 are looked at first, and ``(False, None)``
    is returned when their spread alone settles the verdict
    (:func:`_unequal_from_point_zero`); any other set, and every set with
    exactly equal points, goes through the full scan.
    """
    tol = _check_real(tol, "tol", 0)
    if _unequal_from_point_zero(config.points, config.p, tol):
        return False, None
    sums, x, k, low, repriced = _pair_power_scan(config.points, config.p)
    # distances in units of 2^k: the verdict is scale-free, only lam is mapped back
    dists = _distances(sums, config.p)
    dists[low] = repriced
    dmax = float(dists.max())
    dmin = float(dists.min())
    if dmax - dmin <= tol * dmax:
        try:
            return True, math.ldexp(math.fsum(dists.tolist()) / len(dists), k)
        except OverflowError:
            raise ValueError("the common distance exceeds the floating-point range") from None
    return False, None
