"""Closed-form distance-ratio bounds and equilateral-set thresholds.

Any n+2 points in l_p^n (p = 2 or 4) have max/min distance ratio at
least `schuette_bound(n, p)`.  Consequently equilateral sets in l_p^n
cap at n+1 points for p in an interval around 2 and around 4 whose
half-width is `epsilon_threshold`; the interval transfer uses the
norm-equivalence factor n^{|1/4 - 1/p|}.
"""

import math
from dataclasses import dataclass, field

from lp_extremal.lpgeom import _assign, _check_int, _check_real

__all__ = [
    "schuette_bound",
    "epsilon_threshold",
    "norm_equivalence_factor",
    "BoundRow",
    "BoundTable",
    "bound_sweep",
]

#: Exponents the closed forms are proven for, in the order `check-equilateral` tries them.
PROVEN_EXPONENTS = (4.0, 2.0)


def schuette_bound(n, p) -> float:
    """Lower bound on the distance ratio of any n+2 points in l_p^n.

    Parameters
    ----------
    n : int
        Dimension, n >= 1.
    p : {2, 4}
        Norm exponent.  Only these two cases are proven.

    Returns
    -------
    float
        (1 + 2/n)^(1/p) for even n, (1 + 2/(n - 1/(n+2)))^(1/p) for
        odd n.  Strictly decreasing in n and > 1 in exact arithmetic
        only: in floats, consecutive n can share a value from about 2^26
        (n = 67108865 and 67108866 do, at p = 4), and the value is exactly
        1.0 from n = 2^52 - 1 at p = 4 (2^53 - 2 at p = 2).
    """
    return BoundRow(n, p).bound


def epsilon_threshold(n, center_p) -> float:
    """Half-width of the exponent interval forcing e(l_p^n) = n+1.

    Any p with |p - center_p| < epsilon_threshold(n, center_p) admits
    no equilateral set of more than n+1 points in dimension n.

    Returns center_p * ln(1 + 2/n) / ln(n + 2); positive, and of order
    2*center_p / (n ln n) as n grows.
    """
    return BoundRow(n, center_p).epsilon


def norm_equivalence_factor(n, p) -> float:
    """Two-sided comparison constant between the 4-norm and the p-norm.

    For every v in R^n, each of ||v||_4 and ||v||_p bounds the other
    within a factor n^{|1/4 - 1/p|}.  Any other exponent obeys the
    finite-number rule of ``p_norm``; p = math.inf is accepted here
    (and only here) as the 1/p -> 0 limit.
    """
    n = _check_int(n, "dimension", 1)
    inv_p = 0.0 if p == math.inf else 1.0 / _check_real(p, "norm exponent", 1)
    return float(n) ** abs(0.25 - inv_p)


@dataclass(frozen=True)
class BoundRow:
    """Dimension n, exponent p in PROVEN_EXPONENTS, and the two closed
    forms: bound = schuette_bound(n, p) and epsilon = epsilon_threshold(n, p).
    Any n up to the float range is taken, but in floats the bounds of n and n + 1
    can agree from about n = 2^26, and the bound is 1.0 from n = 2^52 - 1 at p = 4."""

    n: int
    p: float
    bound: float = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        n, p = _check_int(self.n, "dimension", 1), _check_real(self.p, "norm exponent", 1)
        if p not in PROVEN_EXPONENTS:
            raise ValueError(f"bounds are proven only for p in {{2, 4}}, got {p!r}")
        if n % 2 == 0:
            d = float(n)
        else:
            d = n - 1.0 / (n + 2)
        # log1p keeps full precision in the bound's excess over 1 at large n
        bound = math.exp(math.log1p(2.0 / d) / p)
        epsilon = p * math.log1p(2.0 / n) / math.log(n + 2)
        _assign(self, n=n, p=p, bound=bound, epsilon=epsilon)

    def to_dict(self) -> dict:
        return {"n": self.n, "p": self.p, "bound": self.bound, "epsilon": self.epsilon}


@dataclass(frozen=True)
class BoundTable:
    """Sweep of schuette_bound and epsilon_threshold over a dimension range."""

    rows: tuple

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def to_csv(self) -> str:
        """CSV with header n,p,bound,epsilon; floats as their shortest round-trip repr."""
        lines = ["n,p,bound,epsilon"]
        lines += [f"{r.n},{r.p!r},{r.bound!r},{r.epsilon!r}" for r in self.rows]
        return "\n".join(lines) + "\n"


#: Largest number of rows one sweep builds.
MAX_SWEEP_ROWS = 100_000


def bound_sweep(n_start, n_end, p) -> BoundTable:
    """BoundTable rows for every dimension in [n_start, n_end]."""
    n_start = _check_int(n_start, "dimension", 1)
    n_end = _check_int(n_end, "dimension", 1)
    if n_end < n_start:
        raise ValueError(f"empty sweep range {n_start}..{n_end}")
    if n_end - n_start + 1 > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep range {n_start}..{n_end} has more than {MAX_SWEEP_ROWS} rows")
    return BoundTable(tuple(BoundRow(n, p) for n in range(n_start, n_end + 1)))
