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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import (
    Configuration, _as_floats, _assign, _check_instance, _check_real, _extreme_sums,
    _power_of_two_scaled,
)

__all__ = [
    "RadonCertificate",
    "InequalityRecord",
    "ChainAudit",
    "radon_partition",
    "certificate_bound",
    "audit_chain",
]

#: Fixed soundness guards, not parameters: the weight residual relative to
#: the largest coordinate, and each audited inequality's slack relative to M^4.
WEIGHT_RESIDUAL_TOL = 1e-10
CHAIN_TOL = 1e-9


#: Columns per panel of the blocked elimination in :func:`_null_vector`.
#: Solve times were flat from 16 to 64 (about 30 ms at n = 384 and 0.3 s at
#: n = 1024 on one 2-vCPU x86 VM, against 60 ms and 1.3 s unblocked).
RADON_PANEL = 32


def _null_vector(x: np.ndarray):
    """Nonzero lambda with sum(lambda) = 0 and sum(lambda_i x_i) = 0.

    The dependence is affine-invariant, so the (n+1) x (n+2) homogeneous
    system is built on coordinates ``x`` already scaled by 2^-k, where 2^k
    is the power of two just above max|x| (exact, and applied before
    centering so nothing overflows), and then centered on their mean.
    Pivots count as zero below 1e-13 times the largest centered
    coordinate, so a set whose spread is tiny next to its distance from
    the origin keeps its rank.

    Forward elimination is block LU with partial pivoting (Golub & Van
    Loan, Matrix Computations, block LU).  The columns are taken in
    panels of ``RADON_PANEL``.  Within a panel each pivot is chosen over
    all remaining rows, whole rows are swapped, the multipliers are kept
    below the pivot and a rank-1 update reaches only the panel's columns;
    a column with no pivot above the threshold is free and skipped.  The
    panel's pivot rows then take their own updates in the columns right
    of the panel, and the rows below take all of the panel's at once,
    through numpy's own ``einsum`` loop.  A system of at most
    ``RADON_PANEL`` columns is one panel, whose arithmetic is plain
    rank-1 elimination.  Back substitution sets the last non-pivot column
    to 1 and any other free columns to 0.  Plain numpy, no LAPACK or
    BLAS call, so the result does not depend on the BLAS thread count
    or kernel.

    Returns (lambda, condition): condition holds the rank and the smallest
    accepted pivot.
    """
    m, n = x.shape
    x = x - np.add.reduce(x, axis=0) / m  # the bits of x.mean(axis=0)
    a = np.empty((n + 1, m))
    a[0] = 1.0
    a[1:] = x.T
    n_rows = n + 1
    tiny = 1e-13 * float(np.abs(x).max())
    pivot_cols = []
    row = 0
    for start in range(0, m, RADON_PANEL):
        end = min(start + RADON_PANEL, m)
        top = row
        for col in range(start, end):
            if row == n_rows:
                break
            best = row + int(np.abs(a[row:, col]).argmax())
            pivot = a.item(best, col)
            if abs(pivot) <= tiny:
                continue  # free column
            if best != row:
                a[row], a[best] = a[best], a[row].copy()
            mult = a[row + 1:, col]
            mult /= pivot
            rest = a[row + 1:, col + 1:end]
            rest -= mult[:, None] * a[row, col + 1:end]
            pivot_cols.append(col)
            row += 1
        if end == m or row == top:
            continue
        cols = pivot_cols[top - row:]
        for r in range(top, row - 1):
            a[r + 1:row, end:] -= a[r + 1:row, cols[r - top], None] * a[r, end:]
        if row < n_rows:
            a[row:, end:] -= np.einsum("ik,kj->ij", a[row:, cols], a[top:row, end:], optimize=False)
    # n+1 rows and n+2 columns: at least one column is always free
    free = max(set(range(m)).difference(pivot_cols))
    lam = np.zeros(m)
    lam[free] = 1.0
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        lam[c] = -float(np.add.reduce(a[r, c + 1:] * lam[c + 1:])) / a.item(r, c)
    condition = {
        "rank": len(pivot_cols),
        "min_pivot": min(abs(a.item(r, c)) for r, c in enumerate(pivot_cols)),
    }
    return lam, condition


def _row_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * rows[i], one rounded product per entry, the rows added
    in index order to +0.0.

    The one rule for every weighted sum of points in this module.  ``accumulate``
    is defined as that left-to-right loop, so each bit is numpy's own arithmetic
    at any shape: no BLAS kernel, thread count or pairwise reduction takes part,
    and no multiply is fused into an add.  (``einsum("i,ij->j")`` keeps that order
    only while there are two or more columns; on one it takes a dot-product loop
    with several partial sums.)  Adding +0.0 turns the -0.0 of a column of
    negative-zero products into the +0.0 the loop starts from.
    """
    return np.add.accumulate(weights[:, None] * rows, axis=0)[-1] + 0.0


def _square_sum(weights: np.ndarray) -> float:
    """Compensated sum of the squared weights."""
    return math.fsum([w * w for w in weights.tolist()])


@dataclass(frozen=True, eq=False)
class RadonCertificate:
    """Radon partition with convex weights and the ratio certificate.

    weights holds one signed weight per point, the normalised affine
    dependence: alpha_i > 0 on side a, -beta_i <= 0 on side b, each side
    summing to 1.  Derived from it: side_a (the indices of positive
    weight), side_b (the rest), alphas and betas (|weights| on side b, so
    a zero weight is a beta of +0.0).  certificate = 2/(2 - sum(alpha^2) -
    sum(beta^2)) bounds (max dist / min dist)^4 from below in the 4-norm:
    :func:`certificate_bound` of the weights, unless a finite value >= 1
    is given by keyword: the one computed field of any record that a
    caller can set, as the benchmark's tests plant a wrong certificate
    through ``dataclasses.replace``.  residual (>= 0) is the max-norm
    error of the two weighted-sum constraints relative to common_point.
    condition (the rank, smallest accepted pivot and power-of-two scale
    exponent of the solve) is None on a certificate built by hand, and
    is left out of equality and of ``to_dict``.
    """

    weights: np.ndarray
    common_point: np.ndarray
    certificate: Optional[float] = field(default=None, kw_only=True)
    residual: float
    condition: Optional[dict] = field(default=None, compare=False)
    side_a: tuple = field(init=False)
    side_b: tuple = field(init=False)
    alphas: np.ndarray = field(init=False)
    betas: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("weights", "common_point"):
            arr = _as_floats(getattr(self, name), name, 1)
            arr.setflags(write=False)
            _assign(self, **{name: arr})
        pos = self.weights > 0
        alphas, betas = self.weights[pos], np.abs(self.weights[~pos])
        for side in (alphas, betas):
            if abs(math.fsum(side.tolist()) - 1.0) > 1e-12:
                raise ValueError("both sides of the partition must be non-empty, each summing to 1")
            side.setflags(write=False)
        _assign(self, side_a=tuple(pos.nonzero()[0].tolist()),
                side_b=tuple((~pos).nonzero()[0].tolist()), alphas=alphas, betas=betas,
                residual=_check_real(self.residual, "residual", 0))
        bound = certificate_bound(self)  # raises where the bound is undefined
        if self.certificate is not None:
            bound = _check_real(self.certificate, "certificate", 1)
        _assign(self, certificate=bound)

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


def radon_partition(points) -> RadonCertificate:
    """Partition n+2 points in R^n into sides with intersecting hulls.

    Splits on the sign of a nonzero affine dependence lambda: the
    certificate's weights are lambda divided by the mass of its own sign,
    so positive coefficients form side_a, and negative and zero ones
    side_b.  The normalized weights place the common point in both
    convex hulls.
    The weighted sums (:func:`_row_sum`), the common point and the residual
    are formed on the points scaled by 2^-k and mapped back by 2^k, which is exact in
    the normal range, so coordinates near the float limit work too.  The
    residual must stay within ``WEIGHT_RESIDUAL_TOL`` times the largest
    coordinate in that frame, so the verdict does not change when the
    points are scaled; beyond it, NumericalBreakdown.
    """
    pts = _as_floats(points, "coordinates", 2)
    m, n = pts.shape
    if m != n + 2:
        raise ValueError(f"need exactly n+2 = {n + 2} points in R^{n}, got {m}")
    x, k = _power_of_two_scaled(pts)
    lam, condition = _null_vector(x)
    condition["scale_exponent"] = k
    pos = lam > 0
    pos_sum = float(lam[pos].sum())
    neg_sum = float((-lam[lam < 0]).sum())  # an empty sum stays +0.0
    # a side's mass is positive exactly when it has an entry
    if not (pos_sum > 0.0 and neg_sum > 0.0):
        raise NumericalBreakdown(
            "affine dependence vector is one-signed; cannot split",
            diagnostics={
                "lambda": lam.tolist(),
                "positive_mass": pos_sum,
                "negative_mass": neg_sum,
                **condition,
            },
        )
    weights = np.where(pos, lam / pos_sum, lam / neg_sum)
    sum_a = _row_sum(weights[pos], x[pos])
    sum_b = _row_sum(np.abs(weights[~pos]), x[~pos])  # zero entries stay exactly +0
    common = 0.5 * (sum_a + sum_b)
    res = max(float(np.abs(sum_a - common).max()), float(np.abs(sum_b - common).max()))
    scale = float(np.abs(x).max())
    residual = math.ldexp(res, k)
    if res > WEIGHT_RESIDUAL_TOL * scale:
        raise NumericalBreakdown(
            "weighted sums of the two sides disagree beyond tolerance",
            diagnostics={
                "residual": residual,
                "scale": math.ldexp(scale, k),
                "tol": WEIGHT_RESIDUAL_TOL,
                "lambda": lam.tolist(),
                **condition,
            },
        )
    return RadonCertificate(
        weights=weights,
        common_point=np.ldexp(common, k),
        residual=residual,
        condition=condition,
    )


def certificate_bound(cert: RadonCertificate) -> float:
    """2/(2 - sum(alpha^2) - sum(beta^2)), the lower bound on ratio^4 of the weights.

    The one formula for the bound, behind the certificate's own field and
    ``audit_chain``'s ratio record.  It reads only the weights, so a given
    ``certificate`` is re-checked.  Two single points of weight 1 leave it
    undefined: NumericalBreakdown carrying sum_sq and the condition.
    """
    sum_sq = _square_sum(cert.alphas) + _square_sum(cert.betas)
    denom = 2.0 - sum_sq
    if denom <= 0.0:
        raise NumericalBreakdown(
            "weight squares sum to >= 2; certificate undefined",
            diagnostics={"sum_sq": sum_sq, **(cert.condition or {})},
        )
    return 2.0 / denom


@dataclass(frozen=True)
class InequalityRecord:
    """One audited inequality: lhs >= rhs up to relative tolerance.

    The tolerance is ``CHAIN_TOL`` relative to max(scale, |lhs|).  A fourth-power
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

    def holds(self) -> bool:
        return self.lhs >= self.rhs - CHAIN_TOL * max(self.scale, abs(self.lhs))

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

    def records(self) -> tuple:
        return (self.within_a, self.within_b, self.cross, self.ratio)

    def all_hold(self) -> bool:
        return all(r.holds() for r in self.records()) and self.square_slack >= -CHAIN_TOL

    def to_dict(self) -> dict:
        return {
            "within_a": self.within_a.to_dict(),
            "within_b": self.within_b.to_dict(),
            "cross": self.cross.to_dict(),
            "ratio": self.ratio.to_dict(),
            "square_slack": self.square_slack,
            "tol": CHAIN_TOL,
        }


def _weighted_moments(weights: np.ndarray, block: np.ndarray):
    """(sum_i w_i c_im^2 per coordinate, total weighted fourth moment)."""
    sq = block * block
    second = _row_sum(weights, sq)
    fourth = math.fsum(_row_sum(weights, sq * sq).tolist())
    return second, fourth


def audit_chain(config: Configuration, cert: RadonCertificate) -> ChainAudit:
    """Re-derive the certificate on config's points, checking each step.

    The audit reads only the certificate's sides and weights.  All moment
    arithmetic runs on points scaled by the power of two 2^-k from the pair
    scan and translated to the first point; the within-side moments are
    taken about the common point 0.5 (sum alpha a + sum beta b) formed in
    that frame, so a set far from the origin loses no digits to its offset.
    M^4 and mu^4 come from fourth-power sums, never from rooted distances.
    Reported values are mapped back by 2^(4k), which is exact in the normal
    range.  mu^4 must map to a normal float (M^4 >= mu^4 then does too), and
    no value, the ratio M^4/mu^4 included, may overflow; otherwise
    NumericalBreakdown is raised carrying k.
    A smaller derived value (a slack, a moment term) may come back subnormal:
    it is reported but not exact, and each is compared only with CHAIN_TOL * M^4.
    A set with a pair below the pair scan's underflow floor also raises
    NumericalBreakdown, as its mu^4 may have lost digits in any frame.
    The fourth-power inequalities are tested to ``CHAIN_TOL`` relative to M^4, so
    the verdict is scale-free.  A violated inequality also raises
    NumericalBreakdown: the chain is a theorem, so a violation means
    degenerate numerics or an implementation bug, not a counterexample.
    """
    m = _check_instance(config, "config") + 2
    if cert.weights.size != m:
        raise ValueError(f"the certificate has {cert.weights.size} weights for {m} points")

    m4, mu4, x, k, low = _extreme_sums(config.points)
    if low.size:
        raise NumericalBreakdown(
            "mu^4 may have lost digits to underflow: the closest pair is too close "
            "relative to the largest coordinate",
            diagnostics={"quantity": "mu^4", "scaled_value": mu4, "scale_exponent": k},
        )
    # exact (Sterbenz) wherever the offset dominates the spread
    x = x - x[0]
    a = x.take(cert.side_a, axis=0)
    b = x.take(cert.side_b, axis=0)
    centre = 0.5 * (_row_sum(cert.alphas, a) + _row_sum(cert.betas, b))
    a_second, a_fourth = _weighted_moments(cert.alphas, a - centre)
    b_second, b_fourth = _weighted_moments(cert.betas, b - centre)
    sum_sq_a = _square_sum(cert.alphas)
    sum_sq_b = _square_sum(cert.betas)
    diff = a_second - b_second

    # fourth-power quantities in units of 2^(4k), then the dimensionless
    # ratio, in the order they are checked
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
        "ratio": m4 / mu4,
    }
    raw = {}
    for name, value in scaled.items():
        try:
            out = value if name == "ratio" else math.ldexp(value, 4 * k)
        except OverflowError:
            out = math.inf
        if math.isinf(out) or (name == "mu^4" and out < sys.float_info.min):
            raise NumericalBreakdown(
                f"{name} leaves the floating-point range at this coordinate scale",
                diagnostics={"quantity": name, "scaled_value": value, "scale_exponent": k},
            )
        raw[name] = out

    m4_raw = raw["M^4"]
    within_a = InequalityRecord("within_a", raw["within_a lhs"], raw["within_a rhs"], m4_raw)
    within_b = InequalityRecord("within_b", raw["within_b lhs"], raw["within_b rhs"], m4_raw)
    cross = InequalityRecord("cross", raw["cross lhs"], raw["cross rhs"], m4_raw)
    ratio = InequalityRecord("ratio", raw["ratio"], certificate_bound(cert))
    audit = ChainAudit(within_a, within_b, cross, ratio, raw["square_slack"])
    for rec in audit.records():
        if not rec.holds():
            raise NumericalBreakdown(
                f"audited inequality {rec.name!r} violated; this indicates a bug "
                "or degenerate numerics, not a counterexample",
                diagnostics={
                    "name": rec.name,
                    "lhs": rec.lhs,
                    "rhs": rec.rhs,
                    "margin": rec.margin,
                    "tol": CHAIN_TOL,
                    "weight_residual": cert.residual,
                },
            )
    return audit
