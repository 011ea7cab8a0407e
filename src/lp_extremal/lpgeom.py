"""Finite point sets in l_p spaces: norms, distances, and distance-ratio reports.

All values are plain floats / float64 arrays.  Norm accumulation is
compensated (``math.fsum``) and the p = 4 path squares twice instead of
calling a general power routine, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

import math
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


def _as_vector(v) -> np.ndarray:
    vec = np.asarray(v, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError(f"expected a non-empty 1-D coordinate vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("coordinates must be finite (no NaN/inf)")
    return vec


def _check_exponent(p) -> float:
    pp = float(p)
    if not math.isfinite(pp) or pp < 1.0:
        raise ValueError(f"norm exponent must be a finite real >= 1, got {p!r}")
    return pp


def p_norm(v, p) -> float:
    """(sum_i |v_i|^p)^(1/p) for a coordinate vector ``v`` and exponent ``p >= 1``.

    The largest absolute coordinate is factored out before powering, so the
    result cannot overflow/underflow for representable inputs, and the
    per-term powers are accumulated with compensated summation.

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
    vec = _as_vector(v)
    pp = _check_exponent(p)
    vmax = float(np.max(np.abs(vec)))
    if vmax == 0.0:
        return 0.0
    scaled = np.abs(vec) / vmax
    if pp == 4.0:
        sq = scaled * scaled
        total = math.fsum((sq * sq).tolist())
        return vmax * math.sqrt(math.sqrt(total))
    if pp == 2.0:
        total = math.fsum((scaled * scaled).tolist())
        return vmax * math.sqrt(total)
    if pp == 1.0:
        return vmax * math.fsum(scaled.tolist())
    total = math.fsum(np.power(scaled, pp).tolist())
    return vmax * total ** (1.0 / pp)


def distance(u, v, p) -> float:
    """l_p distance between two points of equal dimension."""
    uu = _as_vector(u)
    vv = _as_vector(v)
    if uu.shape != vv.shape:
        raise ValueError(f"dimension mismatch: {uu.shape[0]} vs {vv.shape[0]}")
    return p_norm(uu - vv, p)


@dataclass(frozen=True)
class Configuration:
    """An ordered list of m >= 2 points in R^n together with the exponent p.

    Immutable after construction: the coordinate array is copied and marked
    read-only, so instances are safe to share across threads.
    """

    points: np.ndarray
    p: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D (m, n) array, got shape {pts.shape}")
        m, n = pts.shape
        if m < 2:
            raise ValueError(f"need at least 2 points, got {m}")
        if n < 1:
            raise ValueError("points must have dimension >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite (no NaN/inf)")
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
        return {"p": self.p, "points": [list(map(float, row)) for row in self.points]}

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


def _pair_power_scan(pts: np.ndarray, p: float):
    """Per-pair sums of |x_i - x_j|^p on rescaled points, plus the duplicate pair.

    The points are first scaled by 2^-k, where 2^k is the power of two just
    above max|x|, so the coordinate scale alone cannot make the powers
    underflow or overflow; the scaling is exact in the normal range, so
    selections agree with the unscaled sums.  Vectorized selection pass; the extremes a caller reports
    should be recomputed through :func:`p_norm` (compensated path).  Returns
    ``(power_sums, pairs, duplicate_pair, k)``: the sums are in units of
    2^(p*k), and ``duplicate_pair`` is the first exactly-equal pair of
    points, or None.
    """
    k = int(np.frexp(np.max(np.abs(pts)))[1])
    scaled = np.ldexp(pts, -k)
    m = pts.shape[0]
    sums = []
    pairs = []
    for i in range(m - 1):
        diff = scaled[i + 1:] - scaled[i]
        dup_rows = np.flatnonzero(np.all(pts[i + 1:] == pts[i], axis=1))
        if dup_rows.size:
            return None, None, (i, i + 1 + int(dup_rows[0])), k
        if p == 4.0:
            sq = diff * diff
            s = np.sum(sq * sq, axis=1)
        elif p == 2.0:
            s = np.sum(diff * diff, axis=1)
        else:
            s = np.sum(np.abs(diff) ** p, axis=1)
        if not np.isfinite(s).all():
            # overflow in the raw powers; fall back to the guarded scalar path
            s = np.array([p_norm(diff[j], p) ** p for j in range(diff.shape[0])])
        sums.append(s)
        pairs.extend((i, j) for j in range(i + 1, m))
    return np.concatenate(sums), pairs, None, k


def ratio_report(config: Configuration) -> RatioReport:
    """Max distance M, min distance mu, and their ratio over all unordered pairs.

    Exactly coincident points make mu = 0 and are rejected with the offending
    index pair; merely close points are legal and simply produce a large ratio.

    Returns
    -------
    RatioReport
        ``ratio == max_dist / min_dist`` as computed; the arg pairs identify a
        maximizing and a minimizing pair (first encountered on ties).
    """
    pts = config.points
    sums, pairs, dup, _ = _pair_power_scan(pts, config.p)
    if dup is not None:
        raise ValueError(f"duplicate points at indices {dup}: distance ratio is undefined")
    hi = int(np.argmax(sums))
    lo = int(np.argmin(sums))
    imax, jmax = pairs[hi]
    imin, jmin = pairs[lo]
    max_dist = distance(pts[imax], pts[jmax], config.p)
    min_dist = distance(pts[imin], pts[jmin], config.p)
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
    if tol < 0:
        raise ValueError("tol must be >= 0")
    pts = config.points
    sums, _, dup, k = _pair_power_scan(pts, config.p)
    if dup is not None:
        raise ValueError(f"duplicate points at indices {dup}: equilateral test is undefined")
    # distances in units of 2^k: the verdict is scale-free, only lam is mapped back
    if config.p == 4.0:
        dists = np.sqrt(np.sqrt(sums))
    elif config.p == 2.0:
        dists = np.sqrt(sums)
    else:
        dists = np.power(sums, 1.0 / config.p)
    dmax = float(np.max(dists))
    dmin = float(np.min(dists))
    if dmax - dmin <= tol * dmax:
        try:
            return True, math.ldexp(math.fsum(dists.tolist()) / len(dists), k)
        except OverflowError:
            raise ValueError("the common distance exceeds the floating-point range") from None
    return False, None
