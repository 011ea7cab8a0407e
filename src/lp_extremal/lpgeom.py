"""Finite point sets in l_p spaces: norms, distances, and distance-ratio reports.

All values are plain floats / float64 arrays.  Norm accumulation is
compensated (``math.fsum``) and the p = 4 path squares twice instead of
calling a general power routine, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    """``value`` as a float, finite and >= ``minimum``.  A bool, a string, a numpy complex
    (float() drops its imaginary part) or an array with ndim > 0 (numpy before 1.25 let
    float() take its element) is not a number; an int beyond the float range is too large."""
    try:
        if type(value) is not float and (getattr(value, "ndim", 0) or isinstance(
                value, (bool, np.bool_, str, bytes, np.complexfloating))):
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


def _check_instance(config, name: str, n: Optional[int] = None) -> int:
    """The dimension of ``config``, an instance of the theorem: a Configuration of n + 2
    points in R^n with p = 4, where n is the given ``n`` if there is one.  Anything else
    has shape (0, 0), so it fails the count before p is read, and is named by its type."""
    m, d = config.points.shape if isinstance(config, Configuration) else (0, 0)
    if m == d + 2 and config.p == 4.0 and n in (None, d):
        return d
    given = f"{m} points in R^{d} with p = {config.p}" if m else type(config).__name__
    asked = "n+2 points in R^n" if n is None else f"{n + 2} points in R^{n}"
    raise ValueError(f"{name} must be {asked} with p = 4, got {given}")


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


def _distance(u: list, v: list, pp: float) -> float:
    """:func:`distance` of two float lists of equal length, for a checked exponent."""
    return _norm(list(map(operator.sub, u, v)), pp)


def distance(u, v, p) -> float:
    """l_p distance between two points of equal dimension."""
    uu = _as_floats(u, "coordinates", 1).tolist()
    vv = _as_floats(v, "coordinates", 1).tolist()
    if len(uu) != len(vv):
        raise ValueError(f"dimension mismatch: {len(uu)} vs {len(vv)}")
    return _distance(uu, vv, _check_real(p, "norm exponent", 1))


@dataclass(frozen=True, eq=False)
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
        max_dist = _check_real(self.max_dist, "max_dist", 0)
        try:
            min_dist = _check_real(self.min_dist, "min_dist", math.ulp(0.0))
        except ValueError as exc:
            if isinstance(self.min_dist, bool) or not isinstance(self.min_dist, numbers.Real):
                raise  # not a number: the number rule says so
            raise ValueError(f"min_dist must be > 0 and finite, got {self.min_dist!r}") from exc
        ratio = max_dist / min_dist
        if not math.isfinite(ratio):
            raise ValueError("the distance ratio exceeds the floating-point range")
        _assign(self, max_dist=max_dist, min_dist=min_dist, ratio=ratio)

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


def _chunk_pairs(n: int) -> int:
    """Pairs of n coordinates in one chunk of the pair kernel: at least one."""
    return max(1, PAIR_BLOCK_ELEMENTS // n)


def _pair_sums(x: np.ndarray, p: float) -> np.ndarray:
    """Per-pair values for all i < j of the rows of ``x``, in row-major order.

    For p = 4 and p = 2 the value is sum_m |x_im - x_jm|^p; for any other p
    it is the l_p distance itself, with each pair's largest |difference|
    factored out before powering as in :func:`p_norm`, so a large p cannot
    underflow every term to 0.

    The pair differences x[j] - x[i] are gathered in chunks of at most
    ``PAIR_BLOCK_ELEMENTS`` values per set, and at least one pair.  A set
    whose pairs fit in one chunk returns its sums at once.  Each pair is
    reduced by one contiguous last-axis ``sum`` whatever the chunking, so
    the chunk size does not change a bit, and no BLAS routine is involved.

    ``x`` may carry leading axes, as the search's (restarts, m, n) stack
    does: each (m, n) set gets its own sums on the last axis of the result,
    bit for bit those it gets alone.  The leading axes multiply a chunk's
    size, so a caller keeps a stacked call small: each chunk makes two
    temporaries, and above about 128 KiB they page-fault afresh on every call.
    """
    m, n = x.shape[-2:]
    # subtracting in place saves a chunk-sized temporary: about 10 % at n = 384;
    # at n = 32 that 144 KiB temporary page-faulted afresh on every search step
    if m * (m - 1) // 2 <= _chunk_pairs(n):
        i, j = _pair_index(m)
        d = x.take(j, axis=-2)
        d -= x.take(i, axis=-2)
        return _powered_sums(d, p)
    return _sums_at(x, *np.triu_indices(m, 1), p)


def _sums_at(x: np.ndarray, i: np.ndarray, j: np.ndarray, p: float) -> np.ndarray:
    """:func:`_pair_sums`'s values of the pairs (i[t], j[t]) of rows of ``x``,
    bit for bit, gathered in chunks as it gathers them."""
    step = _chunk_pairs(x.shape[-1])
    out = np.empty(x.shape[:-2] + i.shape)
    for a in range(0, i.size, step):
        b = a + step
        d = x.take(j[a:b], axis=-2)
        d -= x.take(i[a:b], axis=-2)
        out[..., a:b] = _powered_sums(d, p)
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


def _gram_bounds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, w)``, an (m, m) array and a vector: for rows i != j of ``x``,
    all |x| < 1, the p = 4 sum :func:`_pair_sums` gives their pair lies
    within e_ij = w_i + w_j of s_ij.

    s is formed from Gram products on y = x - x[0], which is exact
    (Sterbenz) wherever the offset dominates the spread, so a set far from
    the origin keeps bounds on the scale of its spread.  With a = y_ik and
    b = y_jk, (a - b)^4 = a^4 + b^4 - 4a^3 b - 4ab^3 + 6a^2 b^2, so the sum
    of y's pair is P_i + P_j - 4(C_ij + C_ji) + 6 D_ij, where P holds the row
    sums of y^4, C = y^3 y^T and D = y^2 (y^2)^T; s is that formula in
    floats, the products from BLAS.  By AM-GM |a^3 b| <= (3a^4 + b^4)/4,
    |ab^3| <= (a^4 + 3b^4)/4 and a^2 b^2 <= (a^4 + b^4)/2, so the terms'
    absolute values sum to at most 8(P_i + P_j).  With u = 2^-53:

    - each term takes at most n + 7 roundings: up to three forming y^2, y^3
      or y^4, n in a dot product or row sum (gamma_n sum |a_k b_k| in any
      order, with or without FMA: Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., 2002, section 3.1), one for the factor
      6 and four additions, so s is within 8 gamma_(n+7) (P_i + P_j) of y's
      exact sum;
    - y's difference a - b is x's within u(|a| + |b|) to first order, which
      moves (a - b)^4 by at most 4u(|a| + |b|)^4 <= 32u(a^4 + b^4), so y's
      exact sum is within 32u (P_i + P_j) of x's;
    - the kernel rounds each term 7 times and n - 1 times in its reduction,
      and (a - b)^4 <= 8(a^4 + b^4), so its sum is within 8 gamma_(n+6)
      (P_i + P_j) of x's exact sum.

    To first order the kernel is then within 16(n + 9)u (P_i + P_j) of s.
    w is twice that on the computed P, which covers P's own error, the
    second order terms for any n below 2^40 and a few roundings in forming
    w and s -/+ e.  Underflow adds at most one subnormal unit to a
    rounding, which later products, |y| < 2, grow at most 8 times: under
    2^10 n units in all; e adds n times the smallest normal float
    (:func:`_sum_floor`), 2^42 times that.  Besides ``x``, at most three
    (m, n) or (m, m) arrays are live at once.
    """
    m, n = x.shape
    y = x - x[0]
    sq = y * y
    row = (sq * sq).sum(axis=1)
    sq *= y  # y^3
    c = sq @ y.T
    np.multiply(y, y, out=sq)
    del y
    s = sq @ sq.T
    del sq
    s *= 6.0
    c *= 4.0  # exact: a power of two
    s -= c
    s -= c.T
    del c
    s += row[:, None]
    s += row
    row *= 32.0 * (n + 9) * 2.0 ** -53
    row += 0.5 * _sum_floor(n)
    return s, row


def _gram_candidates(x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``(i, j)``, in row-major order, the pairs i < j of rows of ``x`` that
    may hold the largest or the smallest of :func:`_pair_sums`'s sums at
    p = 4; None when any may sit below the underflow floor.

    By :func:`_gram_bounds` a pair whose interval [s - e, s + e] lies wholly
    below the largest lower end cannot hold the largest kernel sum, nor one
    wholly above the least upper end the smallest.  A lower end below the
    floor may stand for two equal points or a sum that lost digits, which
    only the full scan tells apart.  The ends are formed in place, so at
    most two (m, m) float arrays are live at once.
    """
    m, n = x.shape
    hi, w = _gram_bounds(x)
    lo = hi - w[:, None]
    lo -= w
    upper = ~np.tri(m, dtype=bool)  # the pairs i < j
    if lo.min(where=upper, initial=math.inf) < _sum_floor(n):
        return None
    top = lo.max(where=upper, initial=-math.inf)
    hi += w[:, None]
    hi += w
    bottom = hi.min(where=upper, initial=math.inf)
    return np.nonzero(upper & ((hi >= top) | (lo <= bottom)))


def _extreme_sums(pts: np.ndarray):
    """The largest and the smallest of :func:`_pair_power_scan`'s p = 4 sums.

    Returns ``(top, bottom, x, k, low)``: the two sums bit for bit, and the
    scan's scaled points, k and underflowed positions.  A set with more
    pairs than one chunk of the pair kernel has the kernel price only
    :func:`_gram_candidates`, so BLAS chooses which pairs are priced and
    never a reported bit.  The full scan runs instead when a pair may sit
    below the underflow floor, and for every smaller set.
    """
    m, n = pts.shape
    if m * (m - 1) // 2 > _chunk_pairs(n):
        x, k = _power_of_two_scaled(pts)
        pairs = _gram_candidates(x)
        if pairs is not None:
            sums = _sums_at(x, *pairs, 4.0)
            return float(sums.max()), float(sums.min()), x, k, np.empty(0, dtype=np.intp)
    sums, x, k, low, _ = _pair_power_scan(pts, 4.0)
    return float(sums.max()), float(sums.min()), x, k, low


def ratio_report(config: Configuration) -> RatioReport:
    """Max distance M, min distance mu, and their ratio over all unordered pairs.

    Exactly coincident points make mu = 0 and are rejected with the offending
    index pair.  The pair scan chooses the extreme pairs and :func:`distance`'s
    arithmetic prices them, so distinct points give mu > 0, and an M or a ratio
    beyond the float range is a ValueError.

    Returns
    -------
    RatioReport
        ``ratio == max_dist / min_dist`` as computed; the arg pairs identify a
        maximizing and a minimizing pair (first encountered on ties).
    """
    m = config.size
    sums, _, _, low, dists = _pair_power_scan(config.points, config.p)
    tmax = int(sums.argmax())
    tmin = int(sums.argmin())
    if low.size:
        # the extremes among underflowed sums are chosen by their p_norm distances
        tmin = int(low[dists.argmin()])
        if low.size == sums.size:
            tmax = int(low[dists.argmax()])
    imax, jmax = _pair_at(tmax, m)
    imin, jmin = _pair_at(tmin, m)
    pts = config.points
    return RatioReport(
        max_dist=_distance(pts[imax].tolist(), pts[jmax].tolist(), config.p),
        min_dist=_distance(pts[imin].tolist(), pts[jmin].tolist(), config.p),
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
