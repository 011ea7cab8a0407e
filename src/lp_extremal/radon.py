"""Radon partitions and per-instance distance-ratio certificates.

Any n+2 points in R^n admit a partition into two sides whose convex
hulls share a point.  The convex weights of that common point yield a
computable lower bound 2/(2 - sum(alpha^2) - sum(beta^2)) on the
fourth power of the max/min distance ratio in the 4-norm;
`audit_chain` re-derives the bound step by step on the given points
and verifies every intermediate inequality numerically.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import (
    Configuration, _as_points, _check_tol, _pair_power_scan, _power_of_two_scaled
)

__all__ = [
    "RadonCertificate",
    "InequalityRecord",
    "ChainAudit",
    "radon_partition",
    "certificate_bound",
    "audit_chain",
]

WEIGHT_RESIDUAL_TOL = 1e-10
CHAIN_TOL = 1e-9


def _null_vector(x: np.ndarray):
    """Nonzero lambda with sum(lambda) = 0 and sum(lambda_i x_i) = 0.

    The dependence is affine-invariant, so the (n+1) x (n+2) homogeneous
    system is built on coordinates ``x`` already scaled by 2^-k, where 2^k
    is the power of two just above max|x| (exact, and applied before
    centering so nothing overflows), and then centered on their mean.
    Pivots count as zero below 1e-13 times the largest centered
    coordinate, so a set whose spread is tiny next to its distance from
    the origin keeps its rank.  Forward elimination with partial pivoting
    updates only the trailing block; back substitution sets the last
    non-pivot column to 1 and any other free columns to 0.  Plain numpy,
    no LAPACK or BLAS-3 call, so the result does not depend on the BLAS
    thread count.

    Returns (lambda, condition): condition holds the rank and the smallest
    accepted pivot.
    """
    m, n = x.shape
    x = x - x.mean(axis=0)
    a = np.empty((n + 1, m))
    a[0] = 1.0
    a[1:] = x.T
    n_rows = n + 1
    tiny = 1e-13 * float(np.max(np.abs(x)))
    pivot_cols = []
    row = 0
    for col in range(m):
        if row == n_rows:
            break
        best = row + int(np.argmax(np.abs(a[row:, col])))
        pivot = a[best, col]
        if abs(pivot) <= tiny:
            continue  # free column
        if best != row:
            a[[row, best]] = a[[best, row]]
        a[row + 1:, col:] -= np.outer(a[row + 1:, col] / pivot, a[row, col:])
        pivot_cols.append(col)
        row += 1
    # n+1 rows and n+2 columns: at least one column is always free
    free = max(set(range(m)).difference(pivot_cols))
    lam = np.zeros(m)
    lam[free] = 1.0
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        lam[c] = -float(np.sum(a[r, c + 1:] * lam[c + 1:])) / a[r, c]
    condition = {
        "rank": len(pivot_cols),
        "min_pivot": float(np.min(np.abs(a[range(len(pivot_cols)), pivot_cols]))),
    }
    return lam, condition


def _square_sum(weights: np.ndarray) -> float:
    """Compensated sum of the squared weights.

    ``** 2`` goes through the C library's pow, whose last bit differs from
    the correctly rounded ``w * w`` in about one square in a thousand; it is
    kept so that certificates keep their bits.
    """
    return math.fsum([w ** 2 for w in weights.tolist()])


def _certificate_value(sum_sq: float) -> float:
    """2 / (2 - sum_sq), where sum_sq sums the squares of both sides' weights."""
    denom = 2.0 - sum_sq
    if denom <= 0.0:
        raise NumericalBreakdown(
            "weight squares sum to >= 2; certificate undefined",
            diagnostics={"sum_sq": sum_sq},
        )
    return 2.0 / denom


@dataclass(frozen=True)
class RadonCertificate:
    """Radon partition with convex weights and the ratio certificate.

    side_a and side_b are disjoint index tuples covering all n+2
    points; alphas and betas are the convex weights expressing the
    common point from each side.  certificate = 2/(2 - sum(alpha^2) -
    sum(beta^2)) bounds (max dist / min dist)^4 from below in the
    4-norm.  residual is the max-norm error of the two weighted-sum
    constraints relative to common_point.
    """

    side_a: tuple
    side_b: tuple
    alphas: np.ndarray
    betas: np.ndarray
    common_point: np.ndarray
    certificate: float
    residual: float

    def __post_init__(self):
        for name in ("alphas", "betas", "common_point"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "side_a", tuple(int(i) for i in self.side_a))
        object.__setattr__(self, "side_b", tuple(int(i) for i in self.side_b))
        if len(self.side_a) != len(self.alphas) or len(self.side_b) != len(self.betas):
            raise ValueError("weight vectors must match their index sets")
        if len(self.side_a) < 1 or len(self.side_b) < 1:
            raise ValueError("both sides of the partition must be non-empty")
        if set(self.side_a) & set(self.side_b):
            raise ValueError("partition sides overlap")
        if np.any(self.alphas < 0) or np.any(self.betas < 0):
            raise ValueError("convex weights must be nonnegative")
        for w in (self.alphas, self.betas):
            if abs(math.fsum(w.tolist()) - 1.0) > 1e-12:
                raise ValueError("convex weights must sum to 1")

    @property
    def k(self) -> int:
        return len(self.side_a)

    @property
    def l(self) -> int:
        return len(self.side_b)

    def to_dict(self) -> dict:
        return {
            "side_a": list(self.side_a),
            "side_b": list(self.side_b),
            "alphas": self.alphas.tolist(),
            "betas": self.betas.tolist(),
            "common_point": self.common_point.tolist(),
            "certificate": self.certificate,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RadonCertificate":
        try:
            return cls(
                side_a=tuple(data["side_a"]),
                side_b=tuple(data["side_b"]),
                alphas=np.array(data["alphas"], dtype=float),
                betas=np.array(data["betas"], dtype=float),
                common_point=np.array(data["common_point"], dtype=float),
                certificate=float(data["certificate"]),
                residual=float(data["residual"]),
            )
        except KeyError as exc:
            raise ValueError(f"certificate dict missing field {exc.args[0]!r}") from None


def radon_partition(points, tol: float = WEIGHT_RESIDUAL_TOL) -> RadonCertificate:
    """Partition n+2 points in R^n into sides with intersecting hulls.

    Splits on the sign of a nonzero affine dependence: positive
    coefficients form side_a, strictly negative form side_b, and zero
    coefficients join side_b with weight 0.  The normalized weights
    place the common point in both convex hulls; `tol` bounds the
    allowed weighted-sum residual relative to the coordinate scale.
    The weighted sums, the common point and the residual are formed on
    the points scaled by 2^-k and mapped back by 2^k, which is exact in
    the normal range, so coordinates near the float limit work too.  The
    residual is compared with ``tol`` times the largest coordinate in that
    frame, so the verdict does not change when the points are scaled.
    """
    pts = _as_points(points)
    m, n = pts.shape
    if m != n + 2:
        raise ValueError(f"need exactly n+2 = {n + 2} points in R^{n}, got {m}")
    tol = _check_tol(tol)
    x, k = _power_of_two_scaled(pts)
    lam, condition = _null_vector(x)
    condition["scale_exponent"] = k
    pos = lam > 0
    neg = lam < 0
    pos_sum = float(lam[pos].sum())
    neg_sum = float(-lam[neg].sum())
    if not pos.any() or not neg.any():
        raise NumericalBreakdown(
            "affine dependence vector is one-signed; cannot split",
            diagnostics={
                "lambda": lam.tolist(),
                "positive_mass": pos_sum,
                "negative_mass": neg_sum,
                **condition,
            },
        )
    side_a = tuple(int(i) for i in np.flatnonzero(pos))
    side_b = tuple(int(i) for i in np.flatnonzero(~pos))
    alphas = lam[pos] / pos_sum
    betas = np.abs(lam[~pos]) / neg_sum  # zero entries stay exactly +0
    sum_a = alphas @ x[list(side_a)]
    sum_b = betas @ x[list(side_b)]
    common = 0.5 * (sum_a + sum_b)
    res = float(max(np.max(np.abs(sum_a - common)), np.max(np.abs(sum_b - common))))
    scale = float(np.max(np.abs(x)))
    residual = math.ldexp(res, k)
    if res > tol * scale:
        raise NumericalBreakdown(
            "weighted sums of the two sides disagree beyond tolerance",
            diagnostics={
                "residual": residual,
                "scale": math.ldexp(scale, k),
                "tol": tol,
                "lambda": lam.tolist(),
                **condition,
            },
        )
    try:
        certificate = _certificate_value(_square_sum(alphas) + _square_sum(betas))
    except NumericalBreakdown as exc:
        exc.diagnostics.update(condition)
        raise
    return RadonCertificate(
        side_a=side_a,
        side_b=side_b,
        alphas=alphas,
        betas=betas,
        common_point=np.ldexp(common, k),
        certificate=certificate,
        residual=residual,
    )


def certificate_bound(cert: RadonCertificate) -> float:
    """Lower bound on ratio^4 implied by the certificate's weights.

    Recomputed from the weights rather than read off the stored field,
    so a hand-edited certificate is re-checked.
    """
    return _certificate_value(_square_sum(cert.alphas) + _square_sum(cert.betas))


@dataclass(frozen=True)
class InequalityRecord:
    """One audited inequality: lhs >= rhs up to relative tolerance.

    The tolerance is relative to max(scale, |lhs|).  A fourth-power
    record carries M^4 as its scale, so the test does not change when
    the points are scaled; the dimensionless ratio record keeps 1.
    """

    name: str
    lhs: float
    rhs: float
    scale: float = 1.0

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def holds(self, tol: float = CHAIN_TOL) -> bool:
        return self.lhs >= self.rhs - tol * max(self.scale, abs(self.lhs))

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


@dataclass(frozen=True)
class ChainAudit:
    """Both sides of every inequality in the certificate derivation.

    within_a / within_b: the side-internal fourth-moment inequalities
    (1 - sum w^2) M^4 >= 2 sum_m sum_i w_i c_im^4 + 6 sum_m (sum_i w_i c_im^2)^2.
    cross: the between-sides inequality bounding the fourth moments
    below by mu^4 minus the mixed second-moment term.  ratio: the
    final M^4/mu^4 >= certificate.  square_slack is the nonnegative
    perfect-square term 6 sum_m (sum alpha a^2 - sum beta b^2)^2 that
    the final chain discards; zero slack means the ratio step is tight.
    """

    within_a: InequalityRecord
    within_b: InequalityRecord
    cross: InequalityRecord
    ratio: InequalityRecord
    square_slack: float
    tol: float

    def records(self) -> tuple:
        return (self.within_a, self.within_b, self.cross, self.ratio)

    def all_hold(self) -> bool:
        return all(r.holds(self.tol) for r in self.records()) and self.square_slack >= -self.tol

    def to_dict(self) -> dict:
        return {
            "within_a": self.within_a.to_dict(),
            "within_b": self.within_b.to_dict(),
            "cross": self.cross.to_dict(),
            "ratio": self.ratio.to_dict(),
            "square_slack": self.square_slack,
            "tol": self.tol,
        }


def _weighted_moments(weights: np.ndarray, block: np.ndarray):
    """(sum_i w_i c_im^2 per coordinate, total weighted fourth moment)."""
    sq = block * block
    second = weights @ sq
    fourth = math.fsum((weights @ (sq * sq)).tolist())
    return second, fourth


def audit_chain(
    config: Configuration, cert: RadonCertificate, tol: float = CHAIN_TOL
) -> ChainAudit:
    """Re-derive the certificate on config's points, checking each step.

    The audit reads only the certificate's sides and weights.  All moment
    arithmetic runs on points scaled by the power of two 2^-k from the pair
    scan and translated to the first point; the within-side moments are
    taken about the common point 0.5 (sum alpha a + sum beta b) formed in
    that frame, so a set far from the origin loses no digits to its offset.
    M^4 and mu^4 come from fourth-power sums, never from rooted distances.
    Reported values are mapped back by 2^(4k), which is exact in the normal
    range; a value that would leave the floating-point range raises
    NumericalBreakdown carrying k.  The fourth-power inequalities are
    tested to ``tol`` relative to M^4, so the verdict is scale-free.  A
    violated inequality also raises NumericalBreakdown: the chain is a
    theorem, so a violation means degenerate numerics or an implementation
    bug, not a counterexample.
    """
    if config.p != 4.0:
        raise ValueError(f"the certificate chain is specific to p = 4, got p = {config.p}")
    m, n = config.points.shape
    if m != n + 2:
        raise ValueError(f"need exactly n+2 = {n + 2} points, got {m}")
    if sorted(cert.side_a + cert.side_b) != list(range(m)):
        raise ValueError("certificate sides do not cover the configuration's indices")
    tol = _check_tol(tol)

    sums, x, k = _pair_power_scan(config.points, 4.0)
    m4 = float(sums.max())
    mu4 = float(sums.min())
    # exact (Sterbenz) wherever the offset dominates the spread
    x = x - x[0]
    a = x[list(cert.side_a)]
    b = x[list(cert.side_b)]
    centre = 0.5 * (cert.alphas @ a + cert.betas @ b)
    a_second, a_fourth = _weighted_moments(cert.alphas, a - centre)
    b_second, b_fourth = _weighted_moments(cert.betas, b - centre)
    sum_sq_a = _square_sum(cert.alphas)
    sum_sq_b = _square_sum(cert.betas)
    diff = a_second - b_second

    # fourth-power quantities in units of 2^(4k), in the order they are checked
    scaled = {
        "M^4": m4,
        "mu^4": mu4,
        "within_a lhs": (1.0 - sum_sq_a) * m4,
        "within_a rhs": 2.0 * a_fourth + 6.0 * math.fsum((a_second * a_second).tolist()),
        "within_b lhs": (1.0 - sum_sq_b) * m4,
        "within_b rhs": 2.0 * b_fourth + 6.0 * math.fsum((b_second * b_second).tolist()),
        "cross lhs": a_fourth + b_fourth,
        "cross rhs": mu4 - 6.0 * math.fsum((a_second * b_second).tolist()),
        "square_slack": 6.0 * math.fsum((diff * diff).tolist()),
    }
    raw = {}
    for name, value in scaled.items():
        try:
            out = math.ldexp(value, 4 * k)
        except OverflowError:
            out = math.inf
        # the pair scan rejected duplicates, so a zero M^4 or mu^4 underflowed
        if math.isinf(out) or (
            (value != 0.0 or name in ("M^4", "mu^4")) and abs(out) < sys.float_info.min
        ):
            raise NumericalBreakdown(
                f"{name} leaves the floating-point range at this coordinate scale",
                diagnostics={"quantity": name, "scaled_value": value, "scale_exponent": k},
            )
        raw[name] = out

    m4_raw = raw["M^4"]
    within_a = InequalityRecord("within_a", raw["within_a lhs"], raw["within_a rhs"], m4_raw)
    within_b = InequalityRecord("within_b", raw["within_b lhs"], raw["within_b rhs"], m4_raw)
    cross = InequalityRecord("cross", raw["cross lhs"], raw["cross rhs"], m4_raw)
    # the certificate_bound of cert, from the square sums already at hand
    ratio = InequalityRecord("ratio", m4 / mu4, _certificate_value(sum_sq_a + sum_sq_b))
    audit = ChainAudit(within_a, within_b, cross, ratio, raw["square_slack"], tol)
    for rec in audit.records():
        if not rec.holds(tol):
            raise NumericalBreakdown(
                f"audited inequality {rec.name!r} violated; this indicates a bug "
                "or degenerate numerics, not a counterexample",
                diagnostics={
                    "name": rec.name,
                    "lhs": rec.lhs,
                    "rhs": rec.rhs,
                    "margin": rec.margin,
                    "tol": tol,
                    "weight_residual": cert.residual,
                },
            )
    return audit
