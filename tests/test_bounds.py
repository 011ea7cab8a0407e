import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_extremal.bounds import (
    BoundRow,
    BoundTable,
    bound_sweep,
    epsilon_threshold,
    norm_equivalence_factor,
    schuette_bound,
)
from lp_extremal.lpgeom import Configuration, p_norm, ratio_report
from lp_extremal.radon import audit_chain, radon_partition

# frozen 20-digit evaluations (mpmath, 50 dps)
FOURTH_ROOT_2 = 1.1892071150027210667
FOURTH_ROOT_12_7 = 1.1442496849097028646
EPS_10_CENTER4 = 0.29348636788349273555


class TestSchuetteBound:
    def test_n2_p4(self):
        assert schuette_bound(2, 4) == pytest.approx(FOURTH_ROOT_2, abs=1e-15)

    def test_n2_p2(self):
        assert schuette_bound(2, 2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_n3_p4_odd_formula(self):
        # 1 + 2/(3 - 1/5) = 12/7
        assert schuette_bound(3, 4) == pytest.approx(FOURTH_ROOT_12_7, abs=1e-15)

    def test_even_fourth_power_identity(self):
        # (bound^4 - 1 - 2/n) stays within a few ulps; exact zero is not
        # representable after re-powering
        for n in range(2, 5000, 2):
            b = schuette_bound(n, 4)
            v = 1.0 + 2.0 / n
            assert (b * b) * (b * b) == pytest.approx(v, rel=5e-15)

    def test_strictly_decreasing(self):
        for p in (2, 4):
            vals = [schuette_bound(n, p) for n in range(1, 400)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert all(v > 1.0 for v in vals)

    def test_odd_between_even_neighbors(self):
        for n in range(3, 400, 2):
            hi = schuette_bound(n - 1, 4)
            lo = schuette_bound(n + 1, 4)
            assert lo < schuette_bound(n, 4) < hi

    def test_matches_mpmath(self):
        with mpmath.workdps(50):
            for n in [1, 2, 3, 10, 11, 1000, 10**6 + 1]:
                for p in (2, 4):
                    d = mpmath.mpf(n) if n % 2 == 0 else n - mpmath.mpf(1) / (n + 2)
                    ref = float((1 + 2 / d) ** (mpmath.mpf(1) / p))
                    assert schuette_bound(n, p) == pytest.approx(ref, rel=1e-14)

    def test_hadamard_set_attains_the_bound_at_n6(self):
        # Sylvester's Hadamard matrix of order 8 has first row and column +1;
        # its rows, mapped +1 -> 1 and -1 -> 0 with columns 0 and 1 dropped,
        # are 8 points of {0,1}^6.  Distinct rows differ in 4 of 8 columns,
        # never in column 0, so two points differ in 3 or 4 of the 6 kept
        # coordinates: ratio^4 = 4/3 = 1 + 2/n exactly
        h = np.array([[1]])
        while h.shape[0] < 8:
            h = np.block([[h, h], [h, -h]])
        pts = (h[:, 2:] == 1).astype(float)
        d4 = {int(np.sum(np.abs(u - v))) for i, u in enumerate(pts) for v in pts[:i]}
        assert Fraction(max(d4), min(d4)) == 1 + Fraction(2, 6)
        cfg = Configuration(pts, 4.0)
        assert ratio_report(cfg).ratio == schuette_bound(6, 4)
        # the Radon certificate and the audit chain are tight as well
        audit = audit_chain(cfg, radon_partition(pts))
        assert audit.ratio.lhs == audit.ratio.rhs == 4 / 3
        assert audit.square_slack == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            schuette_bound(0, 4)
        with pytest.raises(ValueError):
            schuette_bound(2, 3)
        with pytest.raises(ValueError):
            schuette_bound(2, math.inf)
        with pytest.raises(ValueError):
            schuette_bound(2.5, 4)


class TestEpsilonThreshold:
    def test_n2_center4_exact(self):
        # 4 ln 2 / ln 4 = 2, and the float route preserves it exactly
        assert epsilon_threshold(2, 4) == 2.0

    def test_n2_center2_exact(self):
        assert epsilon_threshold(2, 2) == 1.0

    def test_n10_center4(self):
        assert epsilon_threshold(10, 4) == pytest.approx(EPS_10_CENTER4, abs=1e-15)

    def test_asymptote_8_over_nlogn(self):
        n = 10**6
        product = epsilon_threshold(n, 4) * n * math.log(n)
        assert abs(product - 8.0) / 8.0 < 0.01

    def test_matches_mpmath(self):
        with mpmath.workdps(50):
            for n in [1, 2, 7, 100, 10**6]:
                for c in (2, 4):
                    ref = float(c * mpmath.log(1 + mpmath.mpf(2) / n) / mpmath.log(n + 2))
                    assert epsilon_threshold(n, c) == pytest.approx(ref, rel=1e-14)

    def test_strictly_decreasing_positive(self):
        vals = [epsilon_threshold(n, 4) for n in range(1, 500)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            epsilon_threshold(0, 4)
        with pytest.raises(ValueError):
            epsilon_threshold(5, 3)


class TestNormEquivalenceFactor:
    def test_identity_at_p4(self):
        for n in [1, 5, 81]:
            assert norm_equivalence_factor(n, 4) == 1.0

    def test_p2(self):
        assert norm_equivalence_factor(16, 2) == 2.0

    def test_infinity_limit(self):
        assert norm_equivalence_factor(81, math.inf) == 3.0

    def test_rejects_p_below_1(self):
        with pytest.raises(ValueError):
            norm_equivalence_factor(4, 0.5)

    def test_exponent_follows_the_norm_exponent_rule(self):
        # one named ValueError for a bool, a string or a non-finite value other than +inf
        for p in (True, np.True_, "4", "inf", None, math.nan, -math.inf):
            with pytest.raises(ValueError, match="norm exponent must be a finite number >= 1"):
                norm_equivalence_factor(3, p)

    def test_two_sided_inequality_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            v = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3])
            p = float(rng.uniform(1, 16))
            n4 = p_norm(v, 4.0)
            np_ = p_norm(v, p)
            fac = norm_equivalence_factor(n, p)
            tol = 1e-12 * max(n4, np_)
            if p <= 4:
                assert n4 <= np_ + tol
                assert np_ <= fac * n4 + tol
            else:
                assert np_ <= n4 + tol
                assert n4 <= fac * np_ + tol

    @given(st.integers(1, 50), st.floats(1.0, 64.0))
    @settings(max_examples=150)
    def test_factor_at_least_one(self, n, p):
        assert norm_equivalence_factor(n, p) >= 1.0


class TestBoundSweep:
    def test_rows_cover_range(self):
        table = bound_sweep(3, 9, 4)
        assert [r.n for r in table.rows] == list(range(3, 10))
        for r in table.rows:
            assert r.bound == schuette_bound(r.n, 4)
            assert r.epsilon == epsilon_threshold(r.n, 4)
            assert r.p == 4.0

    def test_csv_shape_and_round_trip(self):
        table = bound_sweep(2, 5, 2)
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,p,bound,epsilon"
        assert len(lines) == 1 + 4
        n, p, bound, eps = lines[1].split(",")
        assert int(n) == 2
        assert float(bound) == schuette_bound(2, 2)
        assert float(eps) == epsilon_threshold(2, 2)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bound_sweep(5, 4, 4)

    def test_oversized_range_rejected(self):
        with pytest.raises(ValueError, match="100000 rows"):
            bound_sweep(1, 100_001, 4)
        with pytest.raises(ValueError, match="dimension is too large for a float"):
            bound_sweep(2, 10 ** 400, 4)

    def test_dict_shape(self):
        d = bound_sweep(2, 3, 4).to_dict()
        assert d["rows"][0] == {
            "n": 2,
            "p": 4.0,
            "bound": schuette_bound(2, 4),
            "epsilon": epsilon_threshold(2, 4),
        }


class TestIntegerArguments:
    @pytest.mark.parametrize("call", [
        lambda n: schuette_bound(n, 4),
        lambda n: epsilon_threshold(n, 4),
        lambda n: norm_equivalence_factor(n, 3.0),
        lambda n: bound_sweep(n, 3, 4),
        lambda n: bound_sweep(1, n, 4),
    ])
    def test_bool_is_not_a_dimension(self, call):
        with pytest.raises(ValueError, match="dimension must be an integer, got True"):
            call(True)

    @pytest.mark.parametrize("call", [
        lambda n: schuette_bound(n, 4),
        lambda n: epsilon_threshold(n, 4),
        lambda n: norm_equivalence_factor(n, 3.0),
        lambda n: BoundRow(n, 4.0),
        lambda n: bound_sweep(n, n, 4),
    ], ids=["schuette_bound", "epsilon_threshold", "norm_equivalence_factor", "BoundRow",
            "bound_sweep"])
    def test_dimension_beyond_the_float_range_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="dimension is too large for a float"):
            call(10 ** 400)

    def test_numpy_integers_are_dimensions(self):
        for n in (np.int64(3), np.int32(4), np.uint8(5)):
            assert schuette_bound(n, 4) == schuette_bound(int(n), 4)
            assert epsilon_threshold(n, 2) == epsilon_threshold(int(n), 2)
            assert norm_equivalence_factor(n, 3.0) == norm_equivalence_factor(int(n), 3.0)
            assert bound_sweep(2, n, 4) == bound_sweep(2, int(n), 4)
