"""Each public record takes as arguments only the fields that do not follow
from the others; every other field is computed from them, so a record
cannot carry a value that contradicts its inputs."""

import dataclasses

import numpy as np
import pytest

import lp_extremal
from lp_extremal import (
    BoundRow,
    BuiltConfiguration,
    Configuration,
    ConstructionSolution,
    RadonCertificate,
    RatioReport,
    SearchResult,
    bound_sweep,
    build_configuration,
    minimize_ratio,
    radon_partition,
    ratio_report,
)
from lp_extremal.errors import NumericalBreakdown

INIT_FIELDS = {
    "BoundRow": ["n", "p"],
    "BoundTable": ["rows"],
    "ConstructionSolution": ["k"],
    "BuiltConfiguration": ["n"],
    "Configuration": ["points", "p"],
    "RatioReport": ["max_dist", "min_dist", "argmax_pair", "argmin_pair"],
    # certificate is derived too, but a caller may plant a value by keyword
    "RadonCertificate": ["weights", "common_point", "certificate", "residual", "condition"],
    "InequalityRecord": ["name", "lhs", "rhs", "scale"],
    "ChainAudit": ["within_a", "within_b", "cross", "ratio", "square_slack"],
    "SearchResult": ["best_config", "restarts", "evaluations", "rng_seed"],
}

UNIT_SQUARE = Configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 4.0)

#: Two records of each kind with derived fields, which differ in every derived field.
RECORD_PAIRS = {
    "BoundRow": lambda: (BoundRow(3, 4.0), BoundRow(4, 2.0)),
    "ConstructionSolution": lambda: (ConstructionSolution(2), ConstructionSolution(5)),
    "BuiltConfiguration": lambda: (build_configuration(4), build_configuration(7)),
    "RatioReport": lambda: (
        RatioReport(2.0, 1.0, (0, 1), (0, 2)), ratio_report(build_configuration(3).config)
    ),
    "RadonCertificate": lambda: (
        radon_partition(UNIT_SQUARE.points), radon_partition([[0, 0], [2, 0], [0, 2], [0.5, 0.5]])
    ),
    "SearchResult": lambda: (
        SearchResult(UNIT_SQUARE, 1, 1, 0), SearchResult(build_configuration(3).config, 1, 1, 0)
    ),
}


def plain(value):
    """``value`` in a form ``==`` can compare: records by their wire format."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.to_dict() if hasattr(value, "to_dict") else value


def test_init_fields_are_exactly_the_inputs():
    records = {
        name: getattr(lp_extremal, name)
        for name in lp_extremal.__all__
        if dataclasses.is_dataclass(getattr(lp_extremal, name))
    }
    fields = {name: dataclasses.fields(cls) for name, cls in records.items()}
    init = {name: [f.name for f in fs if f.init] for name, fs in fields.items()}
    assert init == INIT_FIELDS
    assert sum(map(len, init.values())) == 29
    assert {name for name, fs in fields.items() if not all(f.init for f in fs)} == set(RECORD_PAIRS)


@pytest.mark.parametrize("name", sorted(RECORD_PAIRS))
def test_derived_fields_are_computed_not_passed(name):
    a, b = RECORD_PAIRS[name]()
    fields = dataclasses.fields(type(a))
    inputs = {f.name: getattr(b, f.name) for f in fields if f.init}
    moved = dataclasses.replace(a, **inputs)
    for derived in [f.name for f in fields if not f.init]:
        assert plain(getattr(a, derived)) != plain(getattr(b, derived))
        # replace recomputes the field from b's inputs instead of copying a's
        assert plain(getattr(moved, derived)) == plain(getattr(b, derived))
        with pytest.raises(TypeError, match=f"'{derived}'"):
            type(a)(**inputs, **{derived: getattr(b, derived)})


#: A maker of each record that holds arrays: two calls build equal twins.
ARRAY_RECORDS = {
    "Configuration": lambda: Configuration(UNIT_SQUARE.points, 4.0),
    "RadonCertificate": lambda: radon_partition(UNIT_SQUARE.points),
    "BuiltConfiguration": lambda: build_configuration(4),
    "SearchResult": lambda: minimize_ratio(2, 8, "auto", 0),
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_records_that_hold_arrays_compare_and_hash_by_identity(name):
    a, twin = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert plain(a) == plain(twin)
    assert a == a and a != twin
    assert a in [twin, a]
    assert len({a, twin}) == 2


class TestContradictionsAreRejected:
    def test_construction_residuals_are_computed_from_x_and_alpha_root(self, monkeypatch):
        # residual1 of a planted solver output is 7.027, computed, not claimed
        monkeypatch.setattr(lp_extremal.construct, "solve_alpha", lambda k: -1.5)
        monkeypatch.setattr(lp_extremal.construct, "_bisect_newton", lambda *args: -0.1)
        with pytest.raises(NumericalBreakdown, match="equation residuals exceed") as exc_info:
            ConstructionSolution(2)
        assert exc_info.value.diagnostics["residual1"] == pytest.approx(7.027)

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ({"k": "2"}, "k must be an integer"),
            ({"k": True}, "k must be an integer"),
            ({"k": 10 ** 400}, "k is too large for a float"),
        ],
    )
    def test_construction_inputs_are_checked(self, inputs, message):
        with pytest.raises(ValueError, match=message):
            ConstructionSolution(**inputs)

    def test_bound_row_follows_the_bound_rules(self):
        with pytest.raises(ValueError, match="proven only for p in"):
            BoundRow(3, 3.0)
        with pytest.raises(ValueError, match="dimension must be"):
            BoundRow(0, 4.0)
        assert BoundRow(3, 4.0) == bound_sweep(3, 3, 4).rows[0]

    def test_built_configuration_is_built_from_n_alone(self):
        assert BuiltConfiguration(5).to_dict() == build_configuration(5).to_dict()
        assert type(BuiltConfiguration(np.int64(5)).n) is int
        for n, message in [(1, "n must be >= 2"), (5.0, "n must be an integer")]:
            with pytest.raises(ValueError, match=message):
                BuiltConfiguration(n)

    def test_search_result_on_the_unit_square_sits_on_the_bound(self):
        res = SearchResult(UNIT_SQUARE, restarts=1, evaluations=1, rng_seed=0)
        assert res.best_ratio == ratio_report(UNIT_SQUARE).ratio
        assert res.gap == 0.0

    @pytest.mark.parametrize(
        "config",
        [Configuration(UNIT_SQUARE.points[:3], 4.0), Configuration(UNIT_SQUARE.points, 2.0)],
        ids=["three-points-in-the-plane", "p=2"],
    )
    def test_search_result_needs_n_plus_2_points_in_the_4_norm(self, config):
        with pytest.raises(ValueError, match="n\\+2 points in R\\^n with p = 4"):
            SearchResult(config, restarts=1, evaluations=1, rng_seed=0)
