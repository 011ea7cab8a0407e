import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lp_extremal
from lp_extremal.bounds import schuette_bound
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import Configuration, _power_of_two_scaled, is_equilateral, ratio_report
from lp_extremal.radon import (
    CHAIN_TOL,
    RADON_PANEL,
    ChainAudit,
    RadonCertificate,
    _null_vector,
    _row_sum,
    audit_chain,
    certificate_bound,
    radon_partition,
)
from lp_extremal.search import minimize_ratio

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
THREE_ONE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.5, 0.5]])


class TestRadonPartition:
    def test_unit_square_diagonals(self):
        cert = radon_partition(UNIT_SQUARE)
        # lambda = (-1, 1, -1, 1): sides are the two diagonals
        assert set(cert.side_a) in ({0, 2}, {1, 3})
        assert set(cert.side_b) in ({0, 2}, {1, 3})
        assert set(cert.side_a) | set(cert.side_b) == {0, 1, 2, 3}
        np.testing.assert_allclose(cert.alphas, [0.5, 0.5])
        np.testing.assert_allclose(cert.betas, [0.5, 0.5])
        np.testing.assert_allclose(cert.common_point, [0.5, 0.5], atol=1e-15)
        assert cert.certificate == 2.0
        assert cert.residual == 0.0

    def test_three_one_split(self):
        # (0.5,0.5) = 0.5*(0,0) + 0.25*(2,0) + 0.25*(0,2), solved by hand
        cert = radon_partition(THREE_ONE)
        assert cert.side_a == (3,)
        assert cert.side_b == (0, 1, 2)
        np.testing.assert_allclose(cert.alphas, [1.0])
        np.testing.assert_allclose(cert.betas, [0.5, 0.25, 0.25])
        assert cert.certificate == pytest.approx(3.2, abs=1e-15)
        np.testing.assert_allclose(cert.common_point, [0.5, 0.5], atol=1e-15)

    def test_collinear_degenerate(self):
        # rank-deficient system: one dependence coefficient is exactly 0
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        cert = radon_partition(pts)
        assert len(cert.side_a) + len(cert.side_b) == 4
        assert math.fsum(cert.alphas.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(cert.betas.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(cert.alphas >= 0) and np.all(cert.betas >= 0)
        assert cert.residual <= 1e-10 * 3.0
        # the zero-coefficient point lands in side_b with weight exactly 0
        assert 2 in cert.side_b
        assert cert.betas[cert.side_b.index(2)] == 0.0
        assert not np.signbit(cert.betas).any()
        assert cert.certificate == pytest.approx(4.5, rel=1e-14)

    def test_certificate_carries_the_condition_of_its_solve(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        cert = radon_partition(pts)
        # 4 collinear points in R^2: the ones row and the x row, 3 = 0.75 * 2^2
        assert cert.condition["rank"] == 2
        assert 0.0 < cert.condition["min_pivot"] <= 1.0
        assert cert.condition["scale_exponent"] == 2
        # diagnostics only: no payload field, no part of equality
        assert "condition" not in cert.to_dict()
        fields = {f.name: f for f in dataclasses.fields(RadonCertificate)}
        assert fields["condition"].compare is False
        assert dataclasses.replace(cert, condition=None).to_dict() == cert.to_dict()

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="n\\+2"):
            radon_partition(np.zeros((4, 3)))

    def test_nonfinite_rejected(self):
        pts = UNIT_SQUARE.copy()
        pts[0, 0] = math.nan
        with pytest.raises(ValueError):
            radon_partition(pts)

    def test_tolerance_override_and_diagnostics(self, monkeypatch):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 4))
        assert radon_partition(pts).residual > 0.0
        # the guard is read when radon_partition runs
        monkeypatch.setattr(lp_extremal.radon, "WEIGHT_RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalBreakdown, match="disagree beyond tolerance") as exc_info:
            radon_partition(pts)
        diag = exc_info.value.diagnostics
        assert diag["residual"] > 0.0 and diag["tol"] == 0.0
        assert diag["rank"] == 5

    def test_residual_verdict_does_not_change_with_scale(self, monkeypatch):
        # the guard is relative to the largest coordinate: a guard just below
        # r/scale fails at every power-of-two scale and one just above passes,
        # where an absolute floor of 1 let any residual below 1e-10 pass at 2^-60
        pts = np.random.default_rng(0).normal(size=(6, 4))
        r = radon_partition(pts).residual
        ratio = r / float(np.max(np.abs(pts)))
        assert r > 0.0
        for e in (-60, 0, 60):
            scaled = np.ldexp(pts, e)
            monkeypatch.setattr(lp_extremal.radon, "WEIGHT_RESIDUAL_TOL", ratio * (1.0 - 1e-6))
            with pytest.raises(NumericalBreakdown, match="disagree"):
                radon_partition(scaled)
            monkeypatch.setattr(lp_extremal.radon, "WEIGHT_RESIDUAL_TOL", ratio * (1.0 + 1e-6))
            assert radon_partition(scaled).residual == math.ldexp(r, e)

    def test_one_signed_dependence_is_a_named_error(self, monkeypatch):
        # no input is known to give a one-signed null vector, so one is planted
        def one_signed(x):
            return np.array([1.0, 2.0, 0.0, 0.5]), {"rank": 3, "min_pivot": 1.0}

        monkeypatch.setattr(lp_extremal.radon, "_null_vector", one_signed)
        with pytest.raises(NumericalBreakdown, match="one-signed") as exc_info:
            radon_partition(UNIT_SQUARE)
        diag = exc_info.value.diagnostics
        assert diag["positive_mass"] == 3.5 and diag["negative_mass"] == 0.0
        assert math.copysign(1.0, diag["negative_mass"]) == 1.0  # +0.0, not -0.0
        assert diag["rank"] == 3 and diag["scale_exponent"] == 1

    def test_translation_stability(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 3))
        base = radon_partition(pts)
        shifted = radon_partition(pts + np.array([10.0, -3.0, 0.125]))
        assert shifted.certificate == pytest.approx(base.certificate, rel=1e-9)

    @pytest.mark.parametrize(
        "scale, offset", [(1e-14, 1.0), (1e-12, 1e3), (1e-9, 1e6), (1e-3, 1e10)]
    )
    def test_small_square_far_from_the_origin(self, scale, offset):
        cert = radon_partition(UNIT_SQUARE * scale + offset)
        assert cert.certificate == 2.0

    def test_square_near_the_top_of_the_float_range(self):
        # the unscaled weighted sums of these points overflow
        pts = [[1.5e308, 0.0], [1.6e308, 0.0], [1.6e308, 1e307], [1.5e308, 1e307]]
        cert = radon_partition(pts)
        assert cert.certificate == 2.0
        np.testing.assert_allclose(cert.common_point, [1.55e308, 5e306], rtol=1e-15)
        assert cert.residual <= 1e-10 * 1.6e308

    @pytest.mark.parametrize(
        "tol", [-1.0, math.nan, math.inf, -math.inf, None, "x", True, np.True_, "1e-9"]
    )
    def test_invalid_tolerance_is_rejected_everywhere(self, tol):
        # is_equilateral is the one function that takes a tolerance; the
        # partition and the audit hold fixed guards
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            is_equilateral(Configuration(UNIT_SQUARE, 4.0), tol)

    def test_guards_are_not_parameters(self):
        # bench/tracer.py reads radon_partition's points and audit_chain's order
        assert list(inspect.signature(radon_partition).parameters) == ["points"]
        assert list(inspect.signature(audit_chain).parameters) == ["config", "cert"]
        assert "tol" not in {f.name for f in dataclasses.fields(ChainAudit)}


class TestCertificateBound:
    def test_recomputes_from_weights(self):
        cert = radon_partition(THREE_ONE)
        assert certificate_bound(cert) == cert.certificate

    def test_zero_weight_members_are_inert(self):
        a = RadonCertificate(
            weights=np.array([2.0 / 3.0, -1.0, 0.0, 1.0 / 3.0]),
            common_point=np.array([1.0]),
            residual=0.0,
        )
        b = RadonCertificate(
            weights=np.array([2.0 / 3.0, -1.0, 1.0 / 3.0]),
            common_point=np.array([1.0]),
            residual=0.0,
        )
        assert a.side_b == (1, 2) and b.side_b == (1,)
        assert certificate_bound(a) == certificate_bound(b)

    def test_uniform_even_split_matches_even_case_bound(self):
        # K = L = (n+2)/2 uniform weights reproduce (1 + 2/n) = bound^4
        for n in range(2, 200, 2):
            half = (n + 2) // 2
            w = np.full(half, 1.0 / half)
            cert = RadonCertificate(
                weights=np.concatenate([w, -w]),
                common_point=np.zeros(n),
                residual=0.0,
            )
            assert certificate_bound(cert) == pytest.approx(1.0 + 2.0 / n, rel=1e-14)

    def test_invalid_weights_rejected(self):
        # side a sums to 0.9, then side b to 0.5
        for weights in ([0.9, -1.0], [1.0, -0.5]):
            with pytest.raises(ValueError, match="each summing to 1"):
                RadonCertificate(weights=np.array(weights), common_point=np.zeros(1), residual=0.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"weights": []}, "weights must be a non-empty 1-D array"),
            ({"weights": [-1.0]}, "both sides of the partition must be non-empty"),
            ({"weights": [1.0, 0.0]}, "both sides of the partition must be non-empty"),
        ],
    )
    def test_malformed_partitions_are_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RadonCertificate(common_point=[0.0], residual=0.0, **fields)

    @pytest.mark.parametrize("field", ["weights", "common_point"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, field, bad):
        fields = {"weights": [1.0, -1.0], "common_point": [0.0], field: [bad]}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RadonCertificate(residual=0.0, **fields)


# one point against two: sum of squares 1 + 1/2, certificate 2 / (1/2) = 4
ONE_TWO = {"weights": [1.0, -0.5, -0.5], "common_point": [0.0], "residual": 0.0}


class TestDerivedCertificate:
    def test_certificate_is_computed_from_the_weights(self):
        cert = RadonCertificate(**ONE_TWO)
        assert cert.certificate == certificate_bound(cert) == 4.0
        assert cert.to_dict()["certificate"] == 4.0

    def test_two_single_points_of_weight_one_raise_at_construction(self):
        with pytest.raises(NumericalBreakdown, match="weight squares sum to >= 2") as exc_info:
            RadonCertificate(**{**ONE_TWO, "weights": [1.0, -1.0]})
        assert exc_info.value.diagnostics == {"sum_sq": 2.0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5, "4.0", True])
    def test_a_given_certificate_must_be_a_finite_number_of_at_least_1(self, bad):
        with pytest.raises(ValueError, match="certificate must be a finite number >= 1"):
            RadonCertificate(**ONE_TWO, certificate=bad)

    def test_a_given_certificate_is_kept_and_rechecked_from_the_weights(self):
        cert = radon_partition(UNIT_SQUARE)
        inflated = dataclasses.replace(cert, certificate=cert.certificate * 1e3)
        assert inflated.certificate == 2e3
        assert certificate_bound(inflated) == 2.0
        assert audit_chain(Configuration(UNIT_SQUARE, 4.0), inflated).ratio.rhs == 2.0


class TestCertificateInputRules:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"weights": ["1", "-0.5", "-0.5"]}, "weights must be numbers"),
            ({"weights": [True, False]}, "weights must be numbers"),
            ({"weights": [1.0, "-0.5", -0.5]}, "weights must be numbers"),
            ({"common_point": ["0.5"]}, "common_point must be numbers"),
            ({"common_point": [False]}, "common_point must be numbers"),
            ({"weights": [1.0, -0.5 + 0j, -0.5]}, "weights must be numbers"),
            ({"weights": [1.0, {}, -0.5]}, "weights must be numbers"),
            ({"weights": [10**400, -1.0]}, "weights must be numbers.*too large"),
            ({"weights": [[1.0, -1.0]]}, "weights must be a non-empty 1-D array"),
            ({"weights": 1.0}, "weights must be a non-empty 1-D array"),
            ({"common_point": [[0.0]]}, "common_point must be a non-empty 1-D array"),
            ({"common_point": [0.0, 1j]}, "common_point must be numbers"),
            ({"residual": -1}, "residual must be a finite number >= 0"),
            ({"residual": math.nan}, "residual must be a finite number >= 0"),
            ({"residual": "0"}, "residual must be a finite number >= 0"),
            ({"residual": True}, "residual must be a finite number >= 0"),
        ],
    )
    def test_malformed_inputs_are_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RadonCertificate(**{**ONE_TWO, **fields})


class TestAuditChain:
    def test_unit_square_equality(self):
        cfg = Configuration(UNIT_SQUARE, 4.0)
        cert = radon_partition(UNIT_SQUARE)
        audit = audit_chain(cfg, cert)
        assert audit.all_hold()
        # by symmetry the per-coordinate second moments match exactly
        assert audit.square_slack == 0.0
        assert audit.ratio.lhs == pytest.approx(2.0, abs=1e-15)
        assert audit.ratio.rhs == pytest.approx(2.0, abs=1e-15)
        assert audit.ratio.margin == pytest.approx(0.0, abs=1e-15)

    def test_tolerance_is_relative_to_the_largest_fourth_power(self):
        # side_a is one point; its moments are the solve's rounding residual,
        # which scales with the points, so an absolute floor failed at 2^47
        base = np.array([[-3.0, 20.0], [-2.0, 18.0], [3.0, 19.0], [0.0, 19.0]])
        for e in (0, 47, 200):
            pts = math.ldexp(1.0, e) * base
            cert = radon_partition(pts)
            audit = audit_chain(Configuration(pts, 4.0), cert)
            assert list(cert.side_a) == [3]
            assert audit.all_hold()
            assert audit.within_a.scale == math.ldexp(1297.0, 4 * e)
            assert audit.ratio.scale == 1.0

    def test_random_configs_pass(self):
        rng = np.random.default_rng(2)
        for n in range(2, 6):
            for _ in range(20):
                pts = rng.normal(size=(n + 2, n))
                cfg = Configuration(pts, 4.0)
                cert = radon_partition(pts)
                audit = audit_chain(cfg, cert)
                assert audit.all_hold()
                assert audit.square_slack >= 0.0
                assert audit.ratio.rhs == cert.certificate

    @pytest.mark.parametrize("e", [30, 40, 51])
    def test_set_far_from_the_origin(self, e):
        # the stored common point carries an error of about ulp(offset); an
        # audit that took its moments about it saw 'within_a' violated
        pts = np.array([[-3.0, 0.0], [-2.0, -3.0], [4.0, 3.0], [-4.0, 5.0]]) + math.ldexp(1.0, e)
        cert = radon_partition(pts)
        audit = audit_chain(Configuration(pts, 4.0), cert)
        assert audit.all_hold()
        base = audit_chain(Configuration(pts - math.ldexp(1.0, e), 4.0), cert)
        assert audit.ratio.to_dict() == base.ratio.to_dict()

    def test_audit_does_not_read_the_common_point(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 4)) + 1e3
        cfg = Configuration(pts, 4.0)
        cert = radon_partition(pts)
        blank = dataclasses.replace(cert, common_point=[0.0] * 4)
        assert audit_chain(cfg, blank).to_dict() == audit_chain(cfg, cert).to_dict()

    def test_scaling_covariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 4))
        cert = radon_partition(pts)
        base = audit_chain(Configuration(pts, 4.0), cert)
        t = 3.5
        scaled_cert = radon_partition(t * pts)
        scaled = audit_chain(Configuration(t * pts, 4.0), scaled_cert)
        s4 = t ** 4
        for rec_b, rec_s in zip(base.records()[:3], scaled.records()[:3]):
            assert rec_s.lhs == pytest.approx(s4 * rec_b.lhs, rel=1e-9, abs=1e-12)
            assert rec_s.rhs == pytest.approx(s4 * rec_b.rhs, rel=1e-9, abs=1e-12)
        assert scaled.ratio.lhs == pytest.approx(base.ratio.lhs, rel=1e-9)
        assert scaled.ratio.rhs == pytest.approx(base.ratio.rhs, rel=1e-9)
        assert scaled.square_slack == pytest.approx(s4 * base.square_slack, rel=1e-9, abs=1e-12)

    def test_rejects_wrong_exponent(self):
        cfg = Configuration(UNIT_SQUARE, 2.0)
        cert = radon_partition(UNIT_SQUARE)
        with pytest.raises(ValueError, match="p = 4"):
            audit_chain(cfg, cert)

    def test_rejects_a_certificate_that_does_not_fit_the_configuration(self):
        cert = radon_partition(UNIT_SQUARE)
        five = np.vstack([UNIT_SQUARE, [[0.5, 0.25]]])
        with pytest.raises(ValueError, match="config must be n\\+2 points in R\\^n with p = 4, "
                                             "got 5 points in R\\^2 with p = 4.0"):
            audit_chain(Configuration(five, 4.0), cert)
        longer = dataclasses.replace(cert, weights=np.append(cert.weights, 0.0))
        with pytest.raises(ValueError, match="5 weights for 4 points"):
            audit_chain(Configuration(UNIT_SQUARE, 4.0), longer)

    def test_rejects_duplicates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        # partitioning collapses onto the coincident pair, so hand a
        # structurally valid certificate to the audit instead
        cert = RadonCertificate(
            weights=np.array([0.5, -0.5, 0.5, -0.5]),
            common_point=np.array([0.5, 0.5]),
            residual=0.0,
        )
        with pytest.raises(ValueError, match="duplicate"):
            audit_chain(Configuration(pts, 4.0), cert)

    def test_underflowing_min_distance_is_a_named_error(self):
        # distinct points whose fourth-power distance underflows even on
        # the rescaled coordinates: mu^4 would divide M^4 by zero
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1e-90, 1.0], [0.0, 1.0]])
        cert = radon_partition(UNIT_SQUARE)
        with pytest.raises(NumericalBreakdown, match="mu\\^4") as exc_info:
            audit_chain(Configuration(pts, 4.0), cert)
        assert exc_info.value.diagnostics["scale_exponent"] == 1

    @pytest.mark.parametrize("e", [0, 100, 400])
    def test_min_distance_below_the_underflow_floor_is_a_named_error(self, e):
        # the spread is about 1e-79 of the first coordinate, so every scaled
        # fourth-power sum is subnormal; an audit that went on lost digits of
        # mu^4 and returned ratio.lhs 3.9e-3 away from the exact ratio^4
        rows = np.array([[3, -5], [-4, -3], [-4, 3], [4, 1], [-5, -4]])
        pts = np.column_stack([np.full(5, 2.0 ** e), rows * (2.0 ** e * 1e-80)])
        cfg = Configuration(pts, 4.0)
        with pytest.raises(NumericalBreakdown, match="mu\\^4 may have lost digits") as exc_info:
            audit_chain(cfg, radon_partition(pts))
        diag = exc_info.value.diagnostics
        assert diag["scale_exponent"] == e + 1
        assert 0.0 < diag["scaled_value"] < 3 * sys.float_info.min
        # the ratio itself is repriced from distances and does not move
        assert ratio_report(cfg).ratio == 7.7421985432164435

    @pytest.mark.parametrize("e", range(250, 257))
    def test_audit_range_reaches_the_documented_smallest_distance(self, e):
        # a noisy unit square has a nearly zero square_slack, which maps to a
        # subnormal float long before mu^4 does: at 2^-250 its distances are
        # about 6e-76, and only at 2^-256 does mu^4 leave the normal range
        noise = 1e-6 * np.random.default_rng(0).normal(size=(4, 2))
        cfg = Configuration(np.ldexp(UNIT_SQUARE + noise, -e), 4.0)
        cert = radon_partition(cfg.points)
        if e == 256:
            with pytest.raises(NumericalBreakdown, match="mu\\^4 leaves the floating-point range"):
                audit_chain(cfg, cert)
            return
        audit = audit_chain(cfg, cert)
        assert audit.all_hold()
        assert 0.0 < audit.square_slack < sys.float_info.min
        reference = audit_chain(Configuration(UNIT_SQUARE + noise, 4.0), cert)
        assert audit.ratio == reference.ratio
        assert audit.cross.lhs == math.ldexp(reference.cross.lhs, -4 * e)

    def test_ratio_overflow_is_a_named_error(self):
        # ratio^4 is about 4.9e308: M^4 and mu^4 are in range, M^4/mu^4 is not
        pts = np.array([[-0.999, -0.999], [0.999, 0.999], [0.0, 0.0], [0.0, 1.6e-77]])
        with pytest.raises(NumericalBreakdown, match="ratio leaves the floating-point range") as exc_info:
            audit_chain(Configuration(pts, 4.0), radon_partition(pts))
        diag = exc_info.value.diagnostics
        assert diag["quantity"] == "ratio"
        assert diag["scale_exponent"] == _power_of_two_scaled(pts)[1]

    def test_violated_inequality_is_a_named_error(self):
        # a structurally valid certificate that is not a Radon partition of
        # the square: the lone point of side_a is not the common point
        cert = RadonCertificate(weights=[1.0, -1 / 3, -1 / 3, -1 / 3], common_point=[0.0, 0.0],
                                residual=0.0)
        with pytest.raises(NumericalBreakdown, match="audited inequality 'within_a' violated") as exc_info:
            audit_chain(Configuration(UNIT_SQUARE, 4.0), cert)
        diag = exc_info.value.diagnostics
        assert diag["name"] == "within_a"
        assert diag["margin"] < 0.0
        assert diag["tol"] == CHAIN_TOL == 1e-9
        assert diag["weight_residual"] == 0.0

    def test_duplicate_points_break_partition(self):
        # a coincident pair makes both sides singletons: sum of squared
        # weights hits 2 and the certificate denominator vanishes
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalBreakdown) as exc_info:
            radon_partition(pts)
        # the condition indicator of the solve rides along with the failure
        diag = exc_info.value.diagnostics
        assert diag["rank"] == 3
        assert 0.0 < diag["min_pivot"] <= 1.0
        assert diag["scale_exponent"] == 1


class TestNumericalBreakdown:
    def test_diagnostics_suffix_only_when_there_are_diagnostics(self):
        assert str(NumericalBreakdown("m")) == "m"
        assert str(NumericalBreakdown("m", {"k": 1})) == "m (diagnostics: {'k': 1})"


class TestCrossModuleSoundness:
    def test_fuzzed_certificate_sandwich(self):
        rng = np.random.default_rng(4)
        for n in range(2, 7):
            floor = schuette_bound(n, 4) ** 4
            for _ in range(60):
                pts = rng.uniform(-1, 1, size=(n + 2, n))
                cfg = Configuration(pts, 4.0)
                rep = ratio_report(cfg)
                cert = radon_partition(pts)
                bound = certificate_bound(cert)
                r4 = rep.ratio ** 4
                assert r4 >= bound - 1e-9 * max(1.0, r4)
                assert bound >= floor - 1e-9 * max(1.0, bound)
                assert rep.ratio >= schuette_bound(n, 4) - 1e-9
                # one formula: the field, the function and the audit agree bit for bit
                assert cert.certificate == bound == audit_chain(cfg, cert).ratio.rhs

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_integer_grid_partitions(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.integers(-5, 6, size=(n + 2, n)).astype(float)
        assume(len({tuple(row) for row in pts}) == n + 2)
        cert = radon_partition(pts)
        assert sorted(cert.side_a + cert.side_b) == list(range(n + 2))
        assert math.fsum(cert.alphas.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(cert.betas.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert cert.certificate > 1.0
        assert math.isfinite(cert.certificate)
        scale = max(1.0, float(np.max(np.abs(pts))))
        assert cert.residual <= 1e-10 * scale


def rank_one_null_vector(x):
    """The elimination before panels: one rank-1 update of the whole trailing
    block per pivot, kept as the bit-for-bit reference for one-panel systems."""
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
            continue
        if best != row:
            a[[row, best]] = a[[best, row]]
        a[row + 1:, col:] -= np.outer(a[row + 1:, col] / pivot, a[row, col:])
        pivot_cols.append(col)
        row += 1
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


def exact_null_vector(pts):
    """(lambda, rank) of the integer points ``pts`` in exact arithmetic.

    Fraction-free (Bareiss) elimination with the same column order and
    free-column rule as the float solve: the last non-pivot column is 1 and
    the other free columns 0.
    """
    m, n = pts.shape
    a = [[1] * m] + [[int(v) for v in pts[:, d]] for d in range(n)]
    pivots, prev, r = [], 1, 0
    for c in range(m):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            a[i] = [(a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev for j in range(m)]
        prev = a[r][c]
        pivots.append(c)
        r += 1
    free = max(set(range(m)) - set(pivots))
    lam = [Fraction(0)] * m
    lam[free] = Fraction(1)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        lam[c] = -sum(a[i][j] * lam[j] for j in range(c + 1, m)) / a[i][c]
    return np.array([float(v) for v in lam]), len(pivots)


def one_panel_inputs(m, seed):
    """A generic, an integer, a rank-deficient and a +-1 set of m points in R^(m-2).

    The +-1 set takes columns m-2..1 of the first m rows of the Sylvester
    Hadamard matrix of order 32: its pivot columns tie in most steps (25 of
    the 29 with more than one candidate row at m = 32), and the first of the
    tied rows is often below the pivot row (15 swaps at m = 32).
    """
    rng = np.random.default_rng(seed)
    flat = rng.integers(-4, 5, size=(m, m - 2)).astype(float)
    flat[:, -1] = flat[:, 0] - flat[:, 1] if m > 3 else 0.0
    hadamard = np.ones((1, 1))
    while hadamard.shape[0] < 32:
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    return {
        "uniform": rng.uniform(-1.0, 1.0, size=(m, m - 2)),
        "integer": rng.integers(-5, 6, size=(m, m - 2)).astype(float),
        "flat": flat,
        "signs": hadamard[:m, m - 2:0:-1],
    }


class TestBlockedElimination:
    def test_one_panel_keeps_the_rank_one_bits(self):
        for m in range(3, RADON_PANEL + 1):
            for kind, pts in one_panel_inputs(m, seed=m).items():
                x, _ = _power_of_two_scaled(pts)
                lam, cond = _null_vector(x)
                ref_lam, ref_cond = rank_one_null_vector(x)
                assert lam.tobytes() == ref_lam.tobytes(), (m, kind)
                assert cond["rank"] == ref_cond["rank"], (m, kind)
                assert cond["min_pivot"].hex() == ref_cond["min_pivot"].hex(), (m, kind)

    @pytest.mark.parametrize("m", [RADON_PANEL + 1, 2 * RADON_PANEL + 3, 100])
    def test_blocked_solve_matches_the_exact_null_vector(self, m):
        pts = np.random.default_rng(m).integers(-6, 7, size=(m, m - 2)).astype(float)
        lam, cond = _null_vector(_power_of_two_scaled(pts)[0])
        exact, rank = exact_null_vector(pts)
        assert cond["rank"] == rank == m - 1
        assert np.max(np.abs(lam - exact)) <= 1e-13 * np.max(np.abs(exact))
        # the smallest accepted pivot means what it means in one panel
        ref_cond = rank_one_null_vector(_power_of_two_scaled(pts)[0])[1]
        assert cond["min_pivot"] == pytest.approx(ref_cond["min_pivot"], rel=1e-9)

    def test_free_column_inside_a_panel_keeps_the_exact_rank(self):
        m = 2 * RADON_PANEL + 3
        pts = 2.0 * np.random.default_rng(1).integers(-3, 4, size=(m, m - 2))
        pts[10] = 0.5 * (pts[3] + pts[7])  # column 10 depends on columns 3 and 7
        pts[:, -1] = pts[:, 0] + pts[:, 1]  # the set spans one dimension less
        lam, cond = _null_vector(_power_of_two_scaled(pts)[0])
        exact, rank = exact_null_vector(pts)
        assert cond["rank"] == rank == m - 2
        assert np.max(np.abs(lam - exact)) <= 1e-13 * np.max(np.abs(exact))


class TestScaleAndThreads:
    @given(
        st.integers(2, 6),
        st.integers(0, 10_000),
        st.integers(-996, 996),
    )
    @settings(max_examples=80, deadline=None)
    def test_power_of_two_rescaling_changes_nothing(self, n, seed, e):
        # x -> s*x + s*t with s = 2^e spans 1e-300..1e300; a power of two
        # keeps every input coordinate exact, so any difference from the
        # s = 1 results is a scale fault of the code, not of the input
        rng = np.random.default_rng(seed)
        x = rng.integers(-5, 6, size=(n + 2, n)).astype(float)
        t = rng.integers(-20, 21, size=n).astype(float)
        assume(len({tuple(row) for row in x}) == n + 2)
        s = math.ldexp(1.0, e)
        base_pts = x + t
        pts = s * x + s * t
        base, cert = radon_partition(base_pts), radon_partition(pts)
        assert cert.side_a == base.side_a and cert.side_b == base.side_b
        np.testing.assert_allclose(cert.alphas, base.alphas, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cert.betas, base.betas, rtol=0, atol=1e-12)
        assert cert.certificate == pytest.approx(base.certificate, rel=1e-12)
        base_cfg, cfg = Configuration(base_pts, 4.0), Configuration(pts, 4.0)
        base_rep, rep = ratio_report(base_cfg), ratio_report(cfg)
        assert rep.ratio == base_rep.ratio
        assert rep.argmax_pair == base_rep.argmax_pair
        assert rep.argmin_pair == base_rep.argmin_pair
        assert is_equilateral(cfg)[0] == is_equilateral(base_cfg)[0]
        try:
            assert audit_chain(cfg, cert).all_hold()
        except NumericalBreakdown as exc:
            # only a fourth-power moment times 2^(4k) outside the float range
            assert abs(exc.diagnostics["scale_exponent"]) > 200

    @given(st.integers(2, 6), st.integers(0, 10_000), st.integers(0, 46))
    @settings(max_examples=60, deadline=None)
    def test_offset_far_beyond_the_spread_changes_nothing(self, n, seed, f):
        # the offset t reaches 2^51 while x spreads over at least 1; integer
        # coordinates below 2^53 keep every input exact, so the translated set
        # has the same affine dependence, distances and verdicts as x
        rng = np.random.default_rng(seed)
        x = rng.integers(-5, 6, size=(n + 2, n)).astype(float)
        t = np.ldexp(rng.integers(-20, 21, size=n).astype(float), f)
        assume(len({tuple(row) for row in x}) == n + 2)
        # full affine rank: the dependence, and so the certificate, is unique
        assume(np.linalg.matrix_rank(np.vstack([np.ones(n + 2), x.T])) == n + 1)
        base, cert = radon_partition(x), radon_partition(x + t)
        assert cert.certificate == pytest.approx(base.certificate, rel=1e-9)
        base_cfg, cfg = Configuration(x, 4.0), Configuration(x + t, 4.0)
        assert ratio_report(cfg).ratio == ratio_report(base_cfg).ratio
        assert is_equilateral(cfg)[0] == is_equilateral(base_cfg)[0]
        # the audit takes its moments about a centre formed after translation
        assert audit_chain(cfg, cert).all_hold()

    def test_certificate_bytes_do_not_depend_on_blas_threads(self):
        # every kernel OpenBLAS can be forced to on x86-64 rounds its gemv its
        # own way, so each reported value must be formed without BLAS
        tests = str(Path(__file__).resolve().parent)
        script = (
            "import hashlib, json, numpy as np\n"
            "from lp_extremal import Configuration, build_configuration, is_equilateral, ratio_report\n"
            "from lp_extremal.radon import audit_chain, radon_partition\n"
            "from test_radon import small_set_payloads\n"
            "rng = np.random.default_rng(7)\n"
            "pts = rng.uniform(-1.0, 1.0, size=(202, 200))\n"
            "print(json.dumps(radon_partition(pts).to_dict()))\n"
            "tie = build_configuration(200).config\n"
            "for cfg in (Configuration(pts, 4.0), tie):\n"
            "    print(json.dumps(ratio_report(cfg).to_dict()), is_equilateral(cfg))\n"
            "    cert = radon_partition(cfg.points)\n"
            "    print(json.dumps(audit_chain(cfg, cert).to_dict()))\n"
            "print(hashlib.sha256(small_set_payloads().encode()).hexdigest())\n"
        )
        src = str(Path(lp_extremal.__file__).resolve().parents[1])
        kernels = [None]
        if platform.machine().lower() in ("x86_64", "amd64"):
            kernels += ["Prescott", "Sandybridge", "Haswell"]
        outputs = {}
        for kernel in kernels:
            for threads in ("1", "2"):
                env = {
                    **os.environ,
                    "OPENBLAS_NUM_THREADS": threads,
                    "OMP_NUM_THREADS": threads,
                    "PYTHONPATH": os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")])),
                }
                env.pop("OPENBLAS_CORETYPE", None)
                if kernel:
                    env["OPENBLAS_CORETYPE"] = kernel
                proc = subprocess.run(
                    [sys.executable, "-c", script], capture_output=True, env=env, check=True
                )
                outputs[kernel, threads] = proc.stdout
        assert outputs[None, "1"]
        digests = {key: hashlib.sha256(out).hexdigest()[:12] for key, out in outputs.items()}
        assert len(set(digests.values())) == 1, digests


def _sum_entries(rng, shape, scales, zeros):
    """Numbers of either sign at scales 2^e, e drawn from ``scales``, so that
    products and partial sums round often; about a ``zeros`` share of them
    signed zeros."""
    x = np.ldexp(rng.uniform(-2.0, 2.0, shape), rng.integers(min(scales), max(scales) + 1, shape))
    return np.where(rng.random(shape) < zeros, rng.choice([0.0, -0.0], shape), x)


@given(st.integers(1, 40), st.integers(1, 17), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(-300, 300), min_size=2, max_size=2), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_weighted_sums_add_rows_in_index_order(m, n, seed, scales, zeros):
    # the common point, the audit's centre and its moment sums are each this
    # sum; a BLAS product or a pairwise reduction rounds in another order
    rng = np.random.default_rng(seed)
    weights = _sum_entries(rng, m, scales, zeros)
    rows = _sum_entries(rng, (m, n), scales, zeros)
    expect = [0.0] * n
    for w, row in zip(weights.tolist(), rows.tolist()):
        expect = [total + w * r for total, r in zip(expect, row)]
    assert _row_sum(weights, rows).tobytes() == np.array(expect).tobytes()


def small_set_payloads():
    """JSON text of the small-set path's ``to_dict`` payloads.

    Seventy sets of n + 2 points, n = 2..8, drawn in the four modes of
    acceptance criterion 6, each with its ratio report, equilateral verdict,
    Radon certificate and audit; the verdicts of the simplices of 2..8
    points, which take the full scan; and four searches of budget 200.
    """
    rng = np.random.default_rng(20261019)
    out = []
    for trial in range(70):
        n = 2 + trial % 7
        pts = rng.standard_normal((n + 2, n))
        mode = (trial // 7) % 4
        if mode == 1:
            pts *= 10.0 ** rng.uniform(-3, 3)
        elif mode == 2:
            pts[rng.integers(n + 2)] *= 1e-3
        elif mode == 3:
            pts += rng.standard_normal(n) * 5.0
        config = Configuration(pts, 4.0)
        cert = radon_partition(pts)
        out.append([ratio_report(config).to_dict(), list(is_equilateral(config)),
                    cert.to_dict(), audit_chain(config, cert).to_dict()])
    for k in range(2, 9):
        out.append(list(is_equilateral(Configuration(np.eye(k), 4.0))))
    for seed in (3, 29):
        for n in (8, 2):
            out.append(minimize_ratio(n, 200, "auto", seed).to_dict())
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def test_signed_weights_rebuild_the_certificate():
    # each certificate of the small-set path, rebuilt from one signed weight
    # per point (alpha on side a, -beta on side b), writes the same payload
    for cert in [entry[2] for entry in json.loads(small_set_payloads())[:70]]:
        weights = np.zeros(len(cert["side_a"]) + len(cert["side_b"]))
        weights[cert["side_a"]] = cert["alphas"]
        weights[cert["side_b"]] = np.negative(cert["betas"])
        rebuilt = RadonCertificate(weights, cert["common_point"], cert["residual"])
        assert rebuilt.to_dict() == cert
    # a zero weight of either sign sits on side b with beta +0.0
    for zero in (0.0, -0.0):
        cert = RadonCertificate([1.0, zero, -0.5, -0.5], [0.0], 0.0)
        assert cert.side_a == (0,) and cert.side_b == (1, 2, 3)
        assert cert.betas[0] == 0.0 and not np.signbit(cert.betas).any()


def test_small_set_payloads_keep_their_bytes():
    # every float is written in its shortest round-trip form, so the digest
    # pins every bit; it was taken with numpy 2.4 on x86-64
    digest = hashlib.sha256(small_set_payloads().encode()).hexdigest()
    assert digest == "f41450a241e1ff714c4810e88e412769d116699415a229396d0ec4bb61217c20"
