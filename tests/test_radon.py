import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lp_extremal
from lp_extremal.bounds import schuette_bound
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import Configuration, is_equilateral, ratio_report
from lp_extremal.radon import (
    ChainAudit,
    RadonCertificate,
    audit_chain,
    certificate_bound,
    radon_partition,
)

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
        assert cert.k + cert.l == 4
        assert math.fsum(cert.alphas.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(cert.betas.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(cert.alphas >= 0) and np.all(cert.betas >= 0)
        assert cert.residual <= 1e-10 * 3.0
        # the zero-coefficient point lands in side_b with weight exactly 0
        assert 2 in cert.side_b
        assert cert.betas[cert.side_b.index(2)] == 0.0
        assert not np.signbit(cert.betas).any()
        assert cert.certificate == pytest.approx(4.5, rel=1e-14)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="n\\+2"):
            radon_partition(np.zeros((4, 3)))

    def test_nonfinite_rejected(self):
        pts = UNIT_SQUARE.copy()
        pts[0, 0] = math.nan
        with pytest.raises(ValueError):
            radon_partition(pts)

    def test_tolerance_override_and_diagnostics(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 4))
        cert = radon_partition(pts)
        if cert.residual > 0:
            with pytest.raises(NumericalBreakdown) as exc_info:
                radon_partition(pts, tol=0.0)
            assert "residual" in exc_info.value.diagnostics
            assert exc_info.value.diagnostics["rank"] == 5

    def test_residual_verdict_does_not_change_with_scale(self):
        # tol is relative to the largest coordinate: a tol just below r/scale
        # fails at every power-of-two scale and one just above passes, where
        # an absolute floor of 1 let any residual below 1e-10 pass at 2^-60
        pts = np.random.default_rng(0).normal(size=(6, 4))
        r = radon_partition(pts).residual
        ratio = r / float(np.max(np.abs(pts)))
        assert r > 0.0
        for e in (-60, 0, 60):
            scaled = np.ldexp(pts, e)
            with pytest.raises(NumericalBreakdown, match="disagree"):
                radon_partition(scaled, tol=ratio * (1.0 - 1e-6))
            assert radon_partition(scaled, tol=ratio * (1.0 + 1e-6)).residual == math.ldexp(r, e)

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

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf, None, "x"])
    def test_invalid_tolerance_is_rejected_everywhere(self, tol):
        config = Configuration(UNIT_SQUARE, 4.0)
        cert = radon_partition(UNIT_SQUARE)
        for call in (lambda: radon_partition(UNIT_SQUARE, tol=tol),
                     lambda: audit_chain(config, cert, tol=tol),
                     lambda: is_equilateral(config, tol)):
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                call()


class TestCertificateBound:
    def test_recomputes_from_weights(self):
        cert = radon_partition(THREE_ONE)
        assert certificate_bound(cert) == cert.certificate

    def test_zero_weight_members_are_inert(self):
        a = RadonCertificate(
            side_a=(0, 3),
            side_b=(1, 2),
            alphas=np.array([2.0 / 3.0, 1.0 / 3.0]),
            betas=np.array([1.0, 0.0]),
            common_point=np.array([1.0]),
            certificate=4.5,
            residual=0.0,
        )
        b = RadonCertificate(
            side_a=(0, 3),
            side_b=(1,),
            alphas=np.array([2.0 / 3.0, 1.0 / 3.0]),
            betas=np.array([1.0]),
            common_point=np.array([1.0]),
            certificate=4.5,
            residual=0.0,
        )
        assert certificate_bound(a) == certificate_bound(b)

    def test_uniform_even_split_matches_even_case_bound(self):
        # K = L = (n+2)/2 uniform weights reproduce (1 + 2/n) = bound^4
        for n in range(2, 200, 2):
            half = (n + 2) // 2
            w = np.full(half, 1.0 / half)
            cert = RadonCertificate(
                side_a=tuple(range(half)),
                side_b=tuple(range(half, n + 2)),
                alphas=w,
                betas=w.copy(),
                common_point=np.zeros(n),
                certificate=1.0 + 2.0 / n,
                residual=0.0,
            )
            assert certificate_bound(cert) == pytest.approx(1.0 + 2.0 / n, rel=1e-14)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            RadonCertificate(
                side_a=(0,),
                side_b=(1,),
                alphas=np.array([0.9]),
                betas=np.array([1.0]),
                common_point=np.zeros(1),
                certificate=2.0,
                residual=0.0,
            )
        with pytest.raises(ValueError):
            RadonCertificate(
                side_a=(0, 1),
                side_b=(1,),
                alphas=np.array([0.5, 0.5]),
                betas=np.array([1.0]),
                common_point=np.zeros(1),
                certificate=2.0,
                residual=0.0,
            )

    def test_dict_round_trip(self):
        cert = radon_partition(THREE_ONE)
        again = RadonCertificate.from_dict(cert.to_dict())
        assert again.side_a == cert.side_a
        np.testing.assert_array_equal(again.alphas, cert.alphas)
        assert again.certificate == cert.certificate


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
        blank = RadonCertificate.from_dict({**cert.to_dict(), "common_point": [0.0] * 4})
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

    def test_rejects_duplicates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        # partitioning collapses onto the coincident pair, so hand a
        # structurally valid certificate to the audit instead
        cert = RadonCertificate(
            side_a=(0, 2),
            side_b=(1, 3),
            alphas=np.array([0.5, 0.5]),
            betas=np.array([0.5, 0.5]),
            common_point=np.array([0.5, 0.5]),
            certificate=2.0,
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
                audit_chain(cfg, cert)

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
        script = (
            "import json, numpy as np\n"
            "from lp_extremal import Configuration, build_configuration, is_equilateral, ratio_report\n"
            "from lp_extremal.radon import audit_chain, radon_partition\n"
            "rng = np.random.default_rng(7)\n"
            "pts = rng.uniform(-1.0, 1.0, size=(202, 200))\n"
            "print(json.dumps(radon_partition(pts).to_dict()))\n"
            "tie = build_configuration(200).config\n"
            "for cfg in (Configuration(pts, 4.0), tie):\n"
            "    print(json.dumps(ratio_report(cfg).to_dict()), is_equilateral(cfg))\n"
            "    cert = radon_partition(cfg.points)\n"
            "    print(json.dumps(audit_chain(cfg, cert).to_dict()))\n"
        )
        src = str(Path(lp_extremal.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, env=env, check=True
            )
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]
