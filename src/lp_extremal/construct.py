"""Explicit (n+2)-point sets in the 4-norm with only two distinct distances.

The even-dimensional building block lives in R^k: the k coordinate
permutations of a = (1+x, x, ..., x) together with b = (y, ..., y)
form an equilateral k+1 set once (x, y) solves

    (1+x)^4 + (k-1) x^4 = k y^4,
    (1+x-y)^4 + (k-1) (x-y)^4 = 2.

Two such blocks on orthogonal coordinate axes give n+2 points in R^n
whose distance ratio is 1 + sqrt(2/n) + O(n^{-3/4}).  The solver works
through f(t) = (((1+t)^4 + (k-1)t^4)/k)^{1/4}: with alpha_k the unique
negative solution of f(t) = (2/k)^{1/4}, the branch with y > 0 is
x_k = the unique root of f(t) - t = -alpha_k and y_k = x_k - alpha_k.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import Configuration, _assign, _check_int, _check_real

__all__ = [
    "f_eval",
    "solve_alpha",
    "ConstructionSolution",
    "BuiltConfiguration",
    "build_configuration",
]

SYSTEM_RESIDUAL_TOL = 1e-10
BISECT_WIDTH = 1e-13
NEWTON_STEPS = 3


def f_eval(t, k) -> float:
    """(((1+t)^4 + (k-1) t^4) / k)^(1/4); the scaled block norm profile.

    Equals k^{-1/4} ||(1,0,...,0) + t (1,...,1)||_4: strictly convex,
    strictly Lipschitz with constant below 1, minimum between -1/k and 0.
    t is any finite number.  Where the fourth-power sum overflows (|t|
    above about 1e77), it is redone with the power of two 2^e >=
    max(|1+t|, |t|) factored out, which is exact, and f is scaled back
    by 2^e; in-range sums are untouched.  A k beyond the float range is
    a ValueError.
    """
    k = _check_int(k, "k", 1)
    t = _check_real(t, "t")
    try:
        s = math.fsum([(1.0 + t) ** 4, (k - 1.0) * t ** 4])
    except OverflowError:
        s = math.inf
    if s != math.inf:
        return (s / k) ** 0.25
    e = math.frexp(max(abs(1.0 + t), abs(t)))[1]
    try:
        s = math.fsum([math.ldexp(1.0 + t, -e) ** 4, (k - 1.0) * math.ldexp(t, -e) ** 4])
        return math.ldexp((s / k) ** 0.25, e)
    except OverflowError:
        raise ValueError(f"f_eval at t = {t!r}, k = {k} exceeds the floating-point range") from None


def _bisect_newton(poly, dpoly, lo, hi, label, diagnostics):
    """Root of poly on [lo, hi]: bisection to a tight bracket, Newton polish.

    The sign change is mathematically guaranteed; if the initial bracket
    misses it (edge cases sit exactly on an endpoint) the interval is
    widened by doubling to the left.  Bisection cannot diverge, and the
    few Newton steps on the polynomial restore full float precision.
    """
    flo, fhi = poly(lo), poly(hi)
    widenings = 0
    while flo * fhi > 0.0:
        widenings += 1
        if widenings > 60:
            raise NumericalBreakdown(
                f"no sign change found for {label} after doubling the bracket",
                diagnostics={**diagnostics, "lo": lo, "hi": hi, "flo": flo, "fhi": fhi},
            )
        lo -= hi - lo
        flo = poly(lo)
    if flo == 0.0:
        root = lo
    elif fhi == 0.0:
        root = hi
    else:
        a, b, fa = lo, hi, flo
        while b - a > BISECT_WIDTH:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break  # interval at float resolution
            fm = poly(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b = mid
        root = 0.5 * (a + b)
        for _ in range(NEWTON_STEPS):
            d = dpoly(root)
            if d == 0.0:
                break
            step = poly(root) / d
            candidate = root - step
            if not math.isfinite(candidate) or candidate < lo or candidate > hi:
                break
            root = candidate
    return root


def solve_alpha(k) -> float:
    """Unique negative solution of f(t) = (2/k)^{1/4}.

    The root of (1+t)^4 + (k-1) t^4 - 2 below -k^{-1/4}; at k = 1 it is
    exactly -1 - 2^{1/4}.  A k beyond the float range is a ValueError.
    """
    k = _check_int(k, "k", 1)

    def poly(t):
        return math.fsum([(1.0 + t) ** 4, (k - 1.0) * t ** 4, -2.0])

    def dpoly(t):
        return 4.0 * (1.0 + t) ** 3 + 4.0 * (k - 1.0) * t ** 3

    hi = -float(k) ** -0.25
    alpha = _bisect_newton(poly, dpoly, -1.0 - 2.0 ** 0.25, hi, "alpha", {"k": k})
    if not alpha < hi:
        raise NumericalBreakdown(
            "negative branch root failed its bracket constraint",
            diagnostics={"k": k, "alpha": alpha},
        )
    return alpha


@dataclass(frozen=True)
class ConstructionSolution:
    """Solved block parameters (x, y) for one k, with residual evidence.

    Computed from k: alpha_root = solve_alpha(k); x, the root of f(t) - t =
    -alpha_k in [-1, 0] by bisection and a Newton polish; y = x - alpha_root;
    residual1 and residual2 of the two block equations; f_at_alpha_residual
    = |f(alpha) - (2/k)^{1/4}|.  A solution off the y > 0 branch or above a
    residual guard is a NumericalBreakdown that carries every field.
    """

    k: int
    x: float = field(init=False)
    y: float = field(init=False)
    alpha_root: float = field(init=False)
    residual1: float = field(init=False)
    residual2: float = field(init=False)
    f_at_alpha_residual: float = field(init=False)

    def __post_init__(self):
        k = _check_int(self.k, "k", 1)
        alpha = solve_alpha(k)

        def poly(t):
            return math.fsum([(1.0 + t) ** 4, (k - 1.0) * t ** 4, -k * (t - alpha) ** 4])

        def dpoly(t):
            return 4.0 * (1.0 + t) ** 3 + 4.0 * (k - 1.0) * t ** 3 - 4.0 * k * (t - alpha) ** 3

        x = _bisect_newton(poly, dpoly, -1.0, 0.0, "x", {"k": k, "alpha": alpha})
        y = x - alpha
        residual1 = abs(math.fsum([(1.0 + x) ** 4, (k - 1.0) * x ** 4, -k * y ** 4]))
        residual2 = abs(math.fsum([(1.0 + x - y) ** 4, (k - 1.0) * (x - y) ** 4, -2.0]))
        f_gap = abs(f_eval(alpha, k) - (2.0 / k) ** 0.25)
        _assign(self, k=k, x=x, y=y, alpha_root=alpha, residual1=residual1,
                residual2=residual2, f_at_alpha_residual=f_gap)
        for holds, message in [
            (x < 0.0 < y, "branch must satisfy x < 0 < y"),
            (residual1 <= SYSTEM_RESIDUAL_TOL and residual2 <= SYSTEM_RESIDUAL_TOL,
             "equation residuals exceed SYSTEM_RESIDUAL_TOL"),
            (f_gap <= 1e-12, "f(alpha) misses (2/k)^(1/4) by more than 1e-12"),
        ]:
            if not holds:
                raise NumericalBreakdown(message, diagnostics=asdict(self))

    def asymptotic_gaps(self) -> dict:
        """Scaled deviations from the three large-k expansions.

        Each entry is |value - expansion| * k, where the expansions are
        x ~ -k^{-1/2} + k^{-3/4}, y ~ k^{-1/4} - k^{-3/4} and
        alpha ~ -k^{-1/4} - k^{-1/2} + 2 k^{-3/4}, all with O(k^{-1})
        error terms; boundedness of the scaled gap certifies the rate.
        """
        k = float(self.k)
        return {
            "x": abs(self.x + k ** -0.5 - k ** -0.75) * k,
            "y": abs(self.y - k ** -0.25 + k ** -0.75) * k,
            "alpha": abs(self.alpha_root + k ** -0.25 + k ** -0.5 - 2.0 * k ** -0.75) * k,
        }

    def to_dict(self) -> dict:
        """Every field in declaration order, then ``asymptotic_gaps``."""
        return {**asdict(self), "asymptotic_gaps": self.asymptotic_gaps()}


def _equilateral_block(sol: ConstructionSolution) -> np.ndarray:
    """The k+1 block vectors in R^k: permutations of a, then b."""
    k = sol.k
    block = np.full((k + 1, k), sol.x)
    np.fill_diagonal(block[:k], 1.0 + sol.x)
    block[k, :] = sol.y
    return block


@dataclass(frozen=True)
class BuiltConfiguration:
    """An assembled n+2 point configuration, built from its block solutions.

    solution_even_part always holds the k-block solution; for odd n a
    second, (k+1)-dimensional block is used and solution_odd_part holds
    its solution (None for even n).  Computed from them: config, the two
    blocks on orthogonal coordinate groups, and expected_ratio, the
    closed-form ratio implied by the block norms, which matches
    ratio_report on config to within accumulation error.
    """

    config: Configuration = field(init=False)
    expected_ratio: float = field(init=False)
    solution_even_part: ConstructionSolution
    solution_odd_part: Optional[ConstructionSolution] = None

    def __post_init__(self):
        sol_a, odd = self.solution_even_part, self.solution_odd_part
        sol_b = sol_a if odd is None else odd
        if not all(isinstance(sol, ConstructionSolution) for sol in (sol_a, sol_b)):
            raise ValueError("the block solutions must be ConstructionSolution records")
        k = sol_a.k
        if odd is not None and odd.k != k + 1:
            raise ValueError(f"the odd part solves k = {odd.k}, not the even part's k + 1")
        n = k + sol_b.k
        pts = np.zeros((n + 2, n))
        pts[: k + 1, :k] = _equilateral_block(sol_a)  # k+1 points in R^k
        pts[k + 1 :, k:] = _equilateral_block(sol_b)  # n-k+1 points in R^{n-k}
        if odd is not None:
            cross4 = math.fsum([k * sol_a.y ** 4, (k + 1) * sol_b.y ** 4])
            expected = 2.0 ** 0.25 / cross4 ** 0.25
        else:
            # cross distance^4 = 2 k y^4, within = 2; ratio = 1 / (k^{1/4} y)
            expected = 1.0 / (float(k) ** 0.25 * sol_a.y)
        _assign(self, config=Configuration(pts, 4.0), expected_ratio=expected)

    def to_dict(self) -> dict:
        """The configuration's wire format plus the solver provenance under
        ``diagnostics``: the layout ``construct`` writes."""
        odd = self.solution_odd_part
        return {
            **self.config.to_dict(),
            "diagnostics": {
                "expected_ratio": self.expected_ratio,
                "solution_even_part": self.solution_even_part.to_dict(),
                "solution_odd_part": None if odd is None else odd.to_dict(),
            },
        }


def build_configuration(n) -> BuiltConfiguration:
    """n+2 points in R^n (4-norm) with only two distinct distances.

    Even n = 2k places the k-block on each of two orthogonal coordinate
    groups; odd n = 2k+1 pairs the k-block with the (k+1)-block.  The
    within-block distance is 2^{1/4}; the cross-block distance is
    smaller, so the ratio is 2^{1/4} / cross = 1 + sqrt(2/n) + O(n^{-3/4}).
    """
    n = _check_int(n, "n", 2)
    even = ConstructionSolution(n // 2)
    return BuiltConfiguration(even, ConstructionSolution(n // 2 + 1) if n % 2 else None)
