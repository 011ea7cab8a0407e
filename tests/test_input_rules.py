"""One list of bad values per kind of input (integer, number, vector, point
set), run through every public function or record that takes that kind:
each pair is a ValueError, and none of them starts a search."""

import math

import numpy as np
import pytest

import lp_extremal.search
from lp_extremal import (
    BoundRow,
    Configuration,
    ConstructionSolution,
    RadonCertificate,
    bound_sweep,
    build_configuration,
    distance,
    epsilon_threshold,
    f_eval,
    minimize_ratio,
    norm_equivalence_factor,
    p_norm,
    radon_partition,
    schuette_bound,
    solve_alpha,
)

UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
WEIGHTS = [1.0, -0.5, -0.5]

BAD_INTEGERS = {
    "bool": True, "float": 4.0, "text": "4", "array": np.array([4]), "negative": -1,
    "huge": 10 ** 400,
}
BAD_NUMBERS = {
    "bool": True, "text": "4", "complex": 2 + 0j, "numpy-complex": np.complex128(4 + 1j),
    "array": np.array([4.0]), "nan": math.nan, "huge": 10 ** 400,
}
BAD = {"exponent": BAD_NUMBERS, "integer": BAD_INTEGERS}


def _with_first(good, x):
    """A copy of the nested list ``good`` whose first number is ``x``."""
    return [_with_first(good[0], x) if isinstance(good[0], list) else x, *good[1:]]


def _bad_arrays(good):
    """The bad arrays for an input whose valid value is ``good``, each one change from it."""
    points = isinstance(good[0], list)
    return {
        "bool": True,
        "text": "4",
        "complex": _with_first(good, 2 + 0j),
        "wrong-ndim": good[0] if points else [good],
        "empty": np.zeros((2, 0)) if points else [],
        "nan": _with_first(good, math.nan),
        "huge": _with_first(good, 10 ** 400),
    }


# (kind, entry point, a call taking the value, a value the call accepts)
ENTRIES = [
    ("exponent", "p_norm", lambda p: p_norm([3.0, 4.0], p), 4),
    ("exponent", "distance", lambda p: distance([0.0, 0.0], [1.0, 1.0], p), 4),
    ("exponent", "Configuration", lambda p: Configuration(UNIT_SQUARE, p), 4),
    ("exponent", "schuette_bound", lambda p: schuette_bound(3, p), 4),
    ("exponent", "epsilon_threshold", lambda p: epsilon_threshold(3, p), 4),
    ("exponent", "norm_equivalence_factor", lambda p: norm_equivalence_factor(3, p), 4),
    ("exponent", "BoundRow", lambda p: BoundRow(3, p), 4),
    ("exponent", "bound_sweep", lambda p: bound_sweep(2, 3, p), 4),
    ("integer", "f_eval", lambda k: f_eval(0.5, k), 2),
    ("integer", "solve_alpha", solve_alpha, 2),
    ("integer", "ConstructionSolution", ConstructionSolution, 2),
    ("integer", "build_configuration", build_configuration, 2),
    ("integer", "minimize_ratio-n", lambda n: minimize_ratio(n, 10, "auto", 0), 2),
    ("integer", "minimize_ratio-budget", lambda b: minimize_ratio(2, b, "auto", 0), 10),
    ("integer", "minimize_ratio-rng_seed", lambda s: minimize_ratio(2, 10, "auto", s), 0),
    ("array", "p_norm", lambda v: p_norm(v, 4), [3.0, 4.0]),
    ("array", "distance", lambda u: distance(u, [1.0, 1.0], 4), [0.0, 0.0]),
    ("array", "Configuration", lambda pts: Configuration(pts, 4), UNIT_SQUARE),
    ("array", "radon_partition", radon_partition, UNIT_SQUARE),
    ("array", "RadonCertificate-weights",
     lambda w: RadonCertificate(weights=w, common_point=[0.0], residual=0.0), WEIGHTS),
    ("array", "RadonCertificate-common_point",
     lambda c: RadonCertificate(weights=WEIGHTS, common_point=c, residual=0.0), [0.0]),
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{kind}-{name}-{label}")
    for kind, name, call, good in ENTRIES
    for label, value in (BAD[kind] if kind in BAD else _bad_arrays(good)).items()
])
def test_a_bad_value_is_a_value_error(call, value, monkeypatch):
    def no_work(*args):
        raise AssertionError("a refused argument starts no search")

    monkeypatch.setattr(lp_extremal.search, "build_configuration", no_work)
    monkeypatch.setattr(lp_extremal.search, "_run_restart", no_work)
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=f"{kind}-{name}") for kind, name, call, good in ENTRIES
])
def test_each_bad_value_is_the_only_fault_of_its_call(call, good):
    call(good)
