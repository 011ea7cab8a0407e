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
from dataclasses import dataclass
from typing import Optional, Sequence

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

#: Default relative tolerance for equality-style tests (overridable everywhere).
DEFAULT_TOL = 1e-9


def _check_int(value, name: str, minimum: int) -> int:
    """``value`` as a Python int of at least ``minimum``.

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
    return value


def _check_tol(tol) -> float:
    """``tol`` as a float, required finite and >= 0."""
    try:
        t = float(tol)
    except (TypeError, ValueError):
        t = math.nan
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return t


def _as_points(points) -> np.ndarray:
    """A float copy of ``points``: m >= 2 rows of n >= 1 finite coordinates."""
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
        raise ValueError(f"points must be an (m, n) array, m >= 2, n >= 1; got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite (no NaN/inf)")
    return pts


def _as_vector(v) -> list:
    """The coordinates of a non-empty 1-D finite vector, as Python floats."""
    vec = np.asarray(v, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"expected a non-empty 1-D coordinate vector, got shape {vec.shape}")
    vals = vec.tolist()
    if not all(map(math.isfinite, vals)):
        raise ValueError("coordinates must be finite (no NaN/inf)")
    return vals


def _check_exponent(p) -> float:
    """``p`` as a float, required finite and >= 1; bools are rejected as in
    :func:`_check_int`."""
    try:
        pp = float(p)
    except (TypeError, ValueError):
        pp = math.nan
    if not (math.isfinite(pp) and pp >= 1.0) or isinstance(p, (bool, np.bool_)):
        raise ValueError(f"norm exponent must be a finite real >= 1, got {p!r}")
    return pp


def p_norm(v, p) -> float:
    """(sum_i |v_i|^p)^(1/p) for a coordinate vector ``v`` and exponent ``p >= 1``.

    The largest absolute coordinate is factored out before powering, so the
    result cannot overflow/underflow for representable inputs, and the
    per-term powers are accumulated with compensated summation.  Short
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
    vals = _as_vector(v)
    pp = _check_exponent(p)
    vmax = max(map(abs, vals))
    if vmax == 0.0:
        return 0.0
    scaled = [abs(t) / vmax for t in vals]
    if pp == 4.0:
        return vmax * math.sqrt(math.sqrt(math.fsum([(t * t) * (t * t) for t in scaled])))
    if pp == 2.0:
        return vmax * math.sqrt(math.fsum([t * t for t in scaled]))
    total = math.fsum(np.power(scaled, pp).tolist())
    return vmax * total ** (1.0 / pp)


def distance(u, v, p) -> float:
    """l_p distance between two points of equal dimension."""
    uu = _as_vector(u)
    vv = _as_vector(v)
    if len(uu) != len(vv):
        raise ValueError(f"dimension mismatch: {len(uu)} vs {len(vv)}")
    return p_norm(np.subtract(uu, vv), p)


@dataclass(frozen=True)
class Configuration:
    """An ordered list of m >= 2 points in R^n together with the exponent p.

    Immutable after construction: the coordinate array is copied and marked
    read-only, so instances are safe to share across threads.
    """

    points: np.ndarray
    p: float

    def __post_init__(self):
        pts = _as_points(self.points)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "p", _check_exponent(self.p))

    @property
    def size(self) -> int:
        """Number of points m."""
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        """Ambient dimension n."""
        return self.points.shape[1]

    def to_dict(self) -> dict:
        """Wire format: ``{"p": 4.0, "points": [[...], ...]}``."""
        return {"p": self.p, "points": self.points.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Configuration":
        try:
            return cls(points=np.asarray(data["points"], dtype=float), p=data["p"])
        except KeyError as exc:
            raise ValueError(f"configuration object is missing field {exc}") from exc


@dataclass(frozen=True)
class RatioReport:
    """Extremes of the pairwise distances of a configuration."""

    max_dist: float
    min_dist: float
    ratio: float
    argmax_pair: tuple[int, int]
    argmin_pair: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "max_dist": self.max_dist,
            "min_dist": self.min_dist,
            "ratio": self.ratio,
            "argmax_pair": list(self.argmax_pair),
            "argmin_pair": list(self.argmin_pair),
        }


#: Largest number of float64 elements in the pair kernel's difference buffer.
PAIR_BLOCK_ELEMENTS = 1 << 16


@functools.lru_cache(maxsize=16)
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the pairs i < j, in row-major order."""
    i, j = np.triu_indices(m, 1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


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

    A set whose m(m-1)/2 x n pair differences fit in ``PAIR_BLOCK_ELEMENTS``
    values gathers them in one step through cached pair indices.  At the
    sizes ``search`` evaluates thousands of times that takes fewer numpy
    calls than the blocked path, which needs a buffer and a mask to select
    the pairs i < j: 11-14 us against 21 us per call at m = 10, n = 8 (one
    2-vCPU x86 VM).  Larger sets take the rows in blocks whose difference
    buffer holds at most ``PAIR_BLOCK_ELEMENTS`` values (a row or a few at
    n in the hundreds); the buffer is reused across blocks and powered in
    place.  Each pair is reduced by the same contiguous last-axis ``sum`` on
    either path, so the sums do not depend on the path or the blocking, and
    no BLAS routine is involved.
    """
    m, n = x.shape
    if m * (m - 1) // 2 * n <= PAIR_BLOCK_ELEMENTS:
        i, j = _pair_index(m)
        return _powered_sums(x[j] - x[i], p)
    out = np.empty(m * (m - 1) // 2)
    buf = np.empty(max(PAIR_BLOCK_ELEMENTS, (m - 1) * n))
    pos = 0
    a = 0
    while a < m - 1:
        width = m - 1 - a
        rows = min(width, max(1, PAIR_BLOCK_ELEMENTS // (width * n)))
        d = buf[: rows * width * n].reshape(rows, width, n)
        np.subtract(x[None, a + 1:], x[a:a + rows, None], out=d)
        s = _powered_sums(d, p)
        # row r of the block holds the pairs (a + r, a + 1 + c); keep c >= r
        vals = s.ravel() if rows == 1 else s[np.arange(width) >= np.arange(rows)[:, None]]
        out[pos:pos + vals.size] = vals
        pos += vals.size
        a += rows
    return out


def _pair_at(t: int, m: int) -> tuple[int, int]:
    """The pair (i, j), i < j, at row-major position ``t`` among m points."""
    rows = np.arange(m - 1)
    i = int(np.searchsorted(rows * (2 * m - rows - 1) // 2, t, side="right")) - 1
    return i, int(t - i * (2 * m - i - 1) // 2 + i + 1)


def _power_of_two_scaled(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """``(pts * 2^-k, k)``, where 2^k is the power of two just above max|x|.

    Every scaled coordinate lies in (-1, 1), and the scaling is exact in the
    normal range, so it changes no comparison between coordinates.
    """
    k = int(np.frexp(np.max(np.abs(pts)))[1])
    return np.ldexp(pts, -k), k


def _pair_power_scan(pts: np.ndarray, p: float):
    """:func:`_pair_sums` on the points scaled by :func:`_power_of_two_scaled`.

    The coordinate scale alone then cannot make the powers underflow or
    overflow, and selections agree with the unscaled sums.  Returns ``(sums,
    x, k)``: the sums are in units of 2^(p*k) (distances in units of 2^k for
    p other than 2 and 4) and ``x`` holds the scaled points.  Raises
    ValueError naming the row-major first pair of exactly equal points.
    Only pairs whose value is exactly 0 are compared, so a distinct pair
    whose power sum underflowed is not a duplicate.
    """
    x, k = _power_of_two_scaled(pts)
    sums = _pair_sums(x, p)
    m = pts.shape[0]
    for t in np.flatnonzero(sums == 0.0):
        i, j = _pair_at(int(t), m)
        if np.array_equal(pts[i], pts[j]):
            raise ValueError(f"duplicate points at indices {(i, j)}")
    return sums, x, k


def _underflowed(sums: np.ndarray, x: np.ndarray, p: float):
    """Row-major positions of the pair sums that may have lost digits to
    underflow, and the :func:`p_norm` distances of those pairs of rows of ``x``.

    Each of the n terms of a sum loses at most one subnormal unit, so a sum
    at or above n times the smallest normal float is accurate to about one
    rounding.  Below that (scaled points about 1e-77 apart for p = 4, 1e-154
    for p = 2) the sums no longer order the distances.
    """
    low = np.flatnonzero(sums < x.shape[1] * sys.float_info.min)
    pairs = (_pair_at(int(t), x.shape[0]) for t in low)
    return low, np.array([p_norm(x[j] - x[i], p) for i, j in pairs])


def ratio_report(config: Configuration) -> RatioReport:
    """Max distance M, min distance mu, and their ratio over all unordered pairs.

    Exactly coincident points make mu = 0 and are rejected with the offending
    index pair; merely close points are legal and simply produce a large ratio.
    The two extremes are repriced through :func:`p_norm` on the rescaled
    points and mapped back by 2^k, so coordinates near the float limit work
    as long as M itself is representable.

    Returns
    -------
    RatioReport
        ``ratio == max_dist / min_dist`` as computed; the arg pairs identify a
        maximizing and a minimizing pair (first encountered on ties).
    """
    m = config.size
    sums, x, k = _pair_power_scan(config.points, config.p)
    tmax = int(np.argmax(sums))
    tmin = int(np.argmin(sums))
    low, dists = _underflowed(sums, x, config.p)
    if low.size:
        # the extremes among underflowed sums are chosen by their p_norm distances
        tmin = int(low[np.argmin(dists)])
        if low.size == sums.size:
            tmax = int(low[np.argmax(dists)])
    imax, jmax = _pair_at(tmax, m)
    imin, jmin = _pair_at(tmin, m)
    try:
        max_dist = math.ldexp(p_norm(x[jmax] - x[imax], config.p), k)
    except OverflowError:
        raise ValueError("the maximum distance exceeds the floating-point range") from None
    min_dist = math.ldexp(p_norm(x[jmin] - x[imin], config.p), k)
    return RatioReport(
        max_dist=max_dist,
        min_dist=min_dist,
        ratio=max_dist / min_dist,
        argmax_pair=(imax, jmax),
        argmin_pair=(imin, jmin),
    )


def is_equilateral(config: Configuration, tol: float = DEFAULT_TOL) -> tuple[bool, Optional[float]]:
    """Whether all pairwise distances agree to relative tolerance ``tol``.

    Returns ``(flag, lam)``: ``flag`` is true iff (max - min) <= tol * max over
    the pairwise distances, and ``lam`` is the mean pairwise distance when the
    flag is true (None otherwise).
    """
    tol = _check_tol(tol)
    sums, x, k = _pair_power_scan(config.points, config.p)
    # distances in units of 2^k: the verdict is scale-free, only lam is mapped back
    if config.p == 4.0:
        dists = np.sqrt(np.sqrt(sums))
    elif config.p == 2.0:
        dists = np.sqrt(sums)
    else:
        dists = sums
    low, repriced = _underflowed(sums, x, config.p)
    if low.size:
        dists[low] = repriced
    dmax = float(np.max(dists))
    dmin = float(np.min(dists))
    if dmax - dmin <= tol * dmax:
        try:
            return True, math.ldexp(math.fsum(dists.tolist()) / len(dists), k)
        except OverflowError:
            raise ValueError("the common distance exceeds the floating-point range") from None
    return False, None
