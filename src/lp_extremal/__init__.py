"""Extremal distance ratios of finite point sets in l_p spaces.

Core objects: p-norm geometry (`Configuration`, `ratio_report`,
`is_equilateral`), lower bounds for the max/min distance ratio and the
equilateral-set thresholds derived from them, Radon-partition ratio
certificates with a full inequality audit trail, an explicit
(n+2)-point construction in the p = 4 space, and a simulated-annealing
search that probes how sharp the construction is.
"""

__version__ = "0.1.0"

from lp_extremal import bounds, construct, errors, lpgeom, radon, search
from lp_extremal.bounds import *
from lp_extremal.construct import *
from lp_extremal.errors import *
from lp_extremal.lpgeom import *
from lp_extremal.radon import *
from lp_extremal.search import *

__all__ = ["__version__"]
__all__ += bounds.__all__
__all__ += construct.__all__
__all__ += errors.__all__
__all__ += lpgeom.__all__
__all__ += radon.__all__
__all__ += search.__all__
