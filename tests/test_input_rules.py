"""One list of bad values per kind of input (integer, number, vector, point
set, instance of the theorem), run through every public function or record
that takes that kind: each pair is a ValueError, and none of them starts a
search."""

import json
import math

import numpy as np
import pytest

import lp_extremal.search
from lp_extremal import (
    BoundRow,
    Configuration,
    ConstructionSolution,
    RadonCertificate,
    RatioReport,
    SearchResult,
    audit_chain,
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
SQUARE = Configuration(UNIT_SQUARE, 4.0)
WEIGHTS = [1.0, -0.5, -0.5]


class OldNumpyArray(np.ndarray):
    """An array whose float() is its first element, as numpy before 1.25 made it."""

    def __float__(self):
        return float(self.flat[0])


BAD_INTEGERS = {
    "bool": True, "float": 4.0, "text": "4", "array": np.array([4]), "negative": -1,
    "huge": 10 ** 400,
}
BAD_NUMBERS = {
    "bool": True, "text": "4", "complex": 2 + 0j, "numpy-complex": np.complex128(4 + 1j),
    "array": np.array([4.0]), "old-numpy-array": np.array([4.0]).view(OldNumpyArray),
    "nan": math.nan, "huge": 10 ** 400,
}
#: (bad instance, how the error names it): n + 2 points in R^n with p = 4 is asked
BAD_INSTANCES = {
    "array": (np.array(UNIT_SQUARE), "ndarray"),
    "p=2": (Configuration(UNIT_SQUARE, 2.0), "4 points in R^2 with p = 2.0"),
    "three-points": (Configuration(UNIT_SQUARE[:3], 4.0), "3 points in R^2 with p = 4.0"),
}
BAD = {
    "exponent": BAD_NUMBERS,
    "integer": BAD_INTEGERS,
    "instance": {label: value for label, (value, _) in BAD_INSTANCES.items()},
}


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
        "ragged": [*good, good[0][:-1] if points else [good[0]]],
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
    ("exponent", "RatioReport-max_dist", lambda d: RatioReport(d, 1.0, (0, 1), (0, 1)), 1.0),
    ("exponent", "RatioReport-min_dist", lambda d: RatioReport(1.0, d, (0, 1), (0, 1)), 1.0),
    ("exponent", "RadonCertificate-residual",
     lambda r: RadonCertificate(weights=WEIGHTS, common_point=[0.0], residual=r), 0.0),
    ("exponent", "RadonCertificate-certificate",
     lambda c: RadonCertificate(weights=WEIGHTS, common_point=[0.0], residual=0.0, certificate=c),
     4.0),
    ("integer", "f_eval", lambda k: f_eval(0.5, k), 2),
    ("integer", "solve_alpha", solve_alpha, 2),
    ("integer", "ConstructionSolution", ConstructionSolution, 2),
    ("integer", "build_configuration", build_configuration, 2),
    ("integer", "minimize_ratio-n", lambda n: minimize_ratio(n, 10, "auto", 0), 2),
    ("integer", "minimize_ratio-budget", lambda b: minimize_ratio(2, b, "auto", 0), 10),
    ("integer", "minimize_ratio-rng_seed", lambda s: minimize_ratio(2, 10, "auto", s), 0),
    ("integer", "BoundRow", lambda n: BoundRow(n, 4), 3),
    ("integer", "SearchResult-restarts", lambda r: SearchResult(SQUARE, r, 1, 0), 1),
    ("integer", "SearchResult-evaluations", lambda e: SearchResult(SQUARE, 1, e, 0), 1),
    ("integer", "SearchResult-rng_seed", lambda s: SearchResult(SQUARE, 1, 1, s), 0),
    ("integer", "RatioReport-argmax_pair", lambda j: RatioReport(2.0, 1.0, (0, j), (0, 1)), 2),
    ("integer", "RatioReport-argmin_pair", lambda j: RatioReport(2.0, 1.0, (0, 2), (0, j)), 1),
    ("array", "p_norm", lambda v: p_norm(v, 4), [3.0, 4.0]),
    ("array", "distance", lambda u: distance(u, [1.0, 1.0], 4), [0.0, 0.0]),
    ("array", "Configuration", lambda pts: Configuration(pts, 4), UNIT_SQUARE),
    ("array", "radon_partition", radon_partition, UNIT_SQUARE),
    ("array", "RadonCertificate-weights",
     lambda w: RadonCertificate(weights=w, common_point=[0.0], residual=0.0), WEIGHTS),
    ("array", "RadonCertificate-common_point",
     lambda c: RadonCertificate(weights=WEIGHTS, common_point=c, residual=0.0), [0.0]),
    ("instance", "audit_chain", lambda c: audit_chain(c, radon_partition(UNIT_SQUARE)), SQUARE),
    ("instance", "SearchResult", lambda c: SearchResult(c, 1, 1, 0), SQUARE),
    ("instance", "minimize_ratio-seeds", lambda c: minimize_ratio(2, 10, [c], 0), SQUARE),
]
#: What each instance entry calls the instance in its error; the search is
#: asked for n = 2, so its seeds must be 4 points in R^2.
INSTANCE_ASKED = {
    "audit_chain": "config must be n+2 points in R^n",
    "SearchResult": "best_config must be n+2 points in R^n",
    "minimize_ratio-seeds": "each seed must be 4 points in R^2",
}


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{kind}-{name}-{label}")
    for kind, name, call, good in ENTRIES
    for label, value in (BAD[kind] if kind in BAD else _bad_arrays(good)).items()
])
def test_a_bad_value_is_a_value_error(call, value, monkeypatch):
    def no_work(*args):
        raise AssertionError("a refused argument starts no search")

    monkeypatch.setattr(lp_extremal.search, "build_configuration", no_work)
    monkeypatch.setattr(lp_extremal.search, "_walk", no_work)
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=f"{kind}-{name}") for kind, name, call, good in ENTRIES
])
def test_each_bad_value_is_the_only_fault_of_its_call(call, good):
    call(good)


@pytest.mark.parametrize("call, asked, value, given", [
    pytest.param(call, INSTANCE_ASKED[name], value, given, id=f"{name}-{label}")
    for kind, name, call, _ in ENTRIES if kind == "instance"
    for label, (value, given) in BAD_INSTANCES.items()
])
def test_each_bad_instance_gets_the_one_message(call, asked, value, given):
    with pytest.raises(ValueError) as exc_info:
        call(value)
    assert str(exc_info.value) == f"{asked} with p = 4, got {given}"


def test_an_integer_field_is_stored_as_a_python_int():
    row = BoundRow(np.int64(3), 4)
    res = SearchResult(SQUARE, np.int64(1), np.int64(2), np.int64(0))
    assert [type(v) for v in (row.n, res.restarts, res.evaluations, res.rng_seed)] == [int] * 4
    assert json.loads(json.dumps(row.to_dict()))["n"] == 3
    assert json.loads(json.dumps(res.to_dict()))["rng_seed"] == 0


#: Arg pairs RatioReport refuses for their shape or order: two indices 0 <= i < j are asked
BAD_PAIRS = {
    "none": None, "text": ("a", "b"), "descending": (1, 0), "equal": (0, 0), "negative": (-1, 2),
    "fraction": (0.5, 1), "triple": (0, 1, 2), "single": (0,), "scalar": 1, "string": "01",
}


@pytest.mark.parametrize("name", ["argmax_pair", "argmin_pair"])
@pytest.mark.parametrize("label", BAD_PAIRS)
def test_a_bad_arg_pair_is_a_value_error_naming_its_field(name, label):
    pairs = {"argmax_pair": (0, 2), "argmin_pair": (0, 1), name: BAD_PAIRS[label]}
    with pytest.raises(ValueError, match=f"^{name}"):
        RatioReport(2.0, 1.0, **pairs)


def test_an_arg_pair_is_stored_as_a_tuple_of_python_ints():
    rep = RatioReport(2.0, 1.0, np.array([0, 3]), [np.int64(1), 2])
    assert rep.argmax_pair == (0, 3) and rep.argmin_pair == (1, 2)
    assert [type(v) for v in (*rep.argmax_pair, *rep.argmin_pair)] == [int] * 4
    assert json.loads(json.dumps(rep.to_dict()))["argmax_pair"] == [0, 3]

