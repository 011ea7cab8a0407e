"""Extremal distance ratios of finite point sets in l_p spaces.

Core objects: p-norm geometry (`Configuration`, `ratio_report`,
`is_equilateral`), lower bounds for the max/min distance ratio and the
equilateral-set thresholds derived from them, Radon-partition ratio
certificates with a full inequality audit trail, an explicit
(n+2)-point construction in the p = 4 space, and a simulated-annealing
search that probes how sharp the construction is.
"""

__version__ = "0.1.0"

from lp_extremal.bounds import (
    BoundRow,
    BoundTable,
    bound_sweep,
    epsilon_threshold,
    norm_equivalence_factor,
    schuette_bound,
)
from lp_extremal.construct import (
    BuiltConfiguration,
    ConstructionSolution,
    build_configuration,
    f_eval,
    solve_alpha,
    solve_system,
)
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import (
    DEFAULT_TOL,
    Configuration,
    RatioReport,
    distance,
    is_equilateral,
    p_norm,
    ratio_report,
)
from lp_extremal.radon import (
    ChainAudit,
    InequalityRecord,
    RadonCertificate,
    audit_chain,
    certificate_bound,
    radon_partition,
)
from lp_extremal.search import SearchResult, minimize_ratio

__all__ = [
    "BoundRow",
    "BoundTable",
    "BuiltConfiguration",
    "ChainAudit",
    "Configuration",
    "ConstructionSolution",
    "DEFAULT_TOL",
    "InequalityRecord",
    "NumericalBreakdown",
    "RadonCertificate",
    "RatioReport",
    "SearchResult",
    "audit_chain",
    "bound_sweep",
    "build_configuration",
    "certificate_bound",
    "distance",
    "epsilon_threshold",
    "f_eval",
    "is_equilateral",
    "minimize_ratio",
    "norm_equivalence_factor",
    "p_norm",
    "radon_partition",
    "ratio_report",
    "schuette_bound",
    "solve_alpha",
    "solve_system",
    "__version__",
]
