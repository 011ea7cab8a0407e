import dataclasses
import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_extremal
from lp_extremal.bounds import schuette_bound
from lp_extremal.construct import (
    BISECT_WIDTH,
    BuiltConfiguration,
    ConstructionSolution,
    build_configuration,
    f_eval,
    solve_alpha,
    _bisect_newton,
)
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import Configuration, distance, is_equilateral, ratio_report

# frozen 20-digit evaluations (mpmath, 50 dps)
ALPHA_1 = -2.1892071150027210667  # -1 - 2^{1/4}
X_1 = -1.5946035575013605334  # -1 - 8^{-1/4}
Y_1 = 0.59460355750136053336  # 8^{-1/4}
F_M1_K2 = 0.84089641525371454303  # (1/2)^{1/4}
RATIO_N2 = 1.6817928305074290861  # 2^{3/4}

K_GRID = [1, 2, 3, 4, 5, 8, 13, 50, 211, 1024, 10_000]


def pairwise_distances(cfg):
    pts = cfg.points
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out.append(distance(pts[i], pts[j], cfg.p))
    return out


class TestFEval:
    def test_at_zero(self):
        for k in K_GRID:
            assert f_eval(0.0, k) == pytest.approx(k ** -0.25, rel=1e-15)

    def test_k1_collapses_to_abs(self):
        for t in [-3.0, -1.2, -1.0, -0.4, 0.0, 0.7, 5.0]:
            assert f_eval(t, 1) == pytest.approx(abs(1.0 + t), rel=1e-15, abs=1e-15)

    def test_frozen_value(self):
        assert f_eval(-1.0, 2) == pytest.approx(F_M1_K2, abs=1e-15)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            f_eval(0.0, 0)
        with pytest.raises(ValueError):
            f_eval(0.0, 2.5)

    @pytest.mark.parametrize("t", ["0.5", True, np.True_, math.nan, math.inf, -math.inf, None])
    def test_t_must_be_a_finite_number(self, t):
        with pytest.raises(ValueError, match="t must be a finite number, got"):
            f_eval(t, 2)

    def test_numpy_reals_are_accepted(self):
        assert f_eval(np.float64(-1.0), np.int64(2)) == f_eval(-1.0, 2)

    @pytest.mark.parametrize("t, k", [(1e100, 2), (-1e100, 2), (1e77, 2 ** 40), (-1e300, 5)])
    def test_overflowing_fourth_powers_match_mpmath(self, t, k):
        # the unscaled sum overflows; f itself, about |t|, is a float
        with mpmath.workdps(50):
            u = mpmath.mpf(t)
            expected = float((((1 + u) ** 4 + (k - 1) * u ** 4) / k) ** mpmath.mpf(0.25))
        assert f_eval(t, k) == pytest.approx(expected, rel=1e-15)

    def test_k_beyond_the_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="k is too large for a float"):
            f_eval(0.0, 10 ** 400)

    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.sampled_from(K_GRID),
    )
    @settings(max_examples=200)
    def test_convexity(self, s, t, k):
        mid = f_eval(0.5 * (s + t), k)
        chord = 0.5 * (f_eval(s, k) + f_eval(t, k))
        assert mid <= chord + 1e-12 * max(1.0, chord)

    @given(
        st.floats(-50, 50),
        st.floats(1e-6, 10.0),
        st.sampled_from([k for k in K_GRID if k >= 2]),
    )
    @settings(max_examples=200)
    def test_strict_lipschitz(self, t, h, k):
        # strict for k >= 2; at k = 1 the profile is |1+t| and the
        # bound is attained with equality on the linear branches
        assert abs(f_eval(t + h, k) - f_eval(t, k)) < h

    @given(st.floats(-50, 50), st.floats(1e-6, 10.0))
    @settings(max_examples=100)
    def test_k1_lipschitz_non_strict(self, t, h):
        # equality is attained on the linear branches, so allow rounding
        assert abs(f_eval(t + h, 1) - f_eval(t, 1)) <= h + 1e-12 * max(1.0, h)

    def test_monotone_frames_and_limits(self):
        grid = np.linspace(-8.0, 8.0, 200)
        for k in [2, 5, 40]:
            g = [f_eval(t, k) - t for t in grid]
            h = [f_eval(t, k) + t for t in grid]
            assert all(a > b for a, b in zip(g, g[1:]))
            assert all(a < b for a, b in zip(h, h[1:]))
        for k in [1, 2, 5, 40]:
            # k = 1 frames are monotone but only weakly (flat branches)
            g = [f_eval(t, k) - t for t in grid]
            h = [f_eval(t, k) + t for t in grid]
            assert all(a >= b for a, b in zip(g, g[1:]))
            assert all(a <= b for a, b in zip(h, h[1:]))
            assert f_eval(1e6, k) - 1e6 == pytest.approx(1.0 / k, abs=1e-4)
            assert f_eval(-1e6, k) + (-1e6) == pytest.approx(-1.0 / k, abs=1e-4)


class TestBisectNewton:
    def test_no_sign_change_after_60_widenings_is_a_named_error(self):
        with pytest.raises(NumericalBreakdown, match="no sign change found for w") as exc_info:
            _bisect_newton(lambda t: 1.0, lambda t: 0.0, 0.0, 1.0, "w", {"k": 7})
        diag = exc_info.value.diagnostics
        assert diag["k"] == 7 and diag["hi"] == 1.0
        assert diag["lo"] == 1.0 - 2.0 ** 60  # the width doubled 60 times
        assert diag["flo"] == diag["fhi"] == 1.0

    def test_root_on_an_endpoint_is_returned_as_is(self):
        def no_newton(t):
            raise AssertionError("an exact endpoint root needs no Newton step")

        assert _bisect_newton(lambda t: t, no_newton, 0.0, 1.0, "lo", {}) == 0.0
        assert _bisect_newton(lambda t: t - 1.0, no_newton, 0.0, 1.0, "hi", {}) == 1.0

    def test_bisection_stops_at_float_resolution(self):
        # near 12345 adjacent floats are 1.8e-12 apart, wider than BISECT_WIDTH;
        # the step function has no zero, and its zero derivative skips Newton
        c = 12345.678
        ulp = math.ulp(c)
        assert ulp > BISECT_WIDTH
        root = _bisect_newton(lambda t: -1.0 if t < c else 1.0, lambda t: 0.0,
                              0.0, 2.0 * c, "step", {})
        assert c - ulp <= root <= c

    def test_newton_keeps_the_bisection_root_on_a_zero_derivative(self):
        calls = []

        def dpoly(t):
            calls.append(t)
            return 0.0

        root = _bisect_newton(lambda t: t - 0.3, dpoly, 0.0, 1.0, "flat", {})
        assert len(calls) == 1 and calls[0] == root
        assert abs(root - 0.3) <= BISECT_WIDTH

    @pytest.mark.parametrize("slope", [1e-300, 1e-320])
    def test_newton_step_out_of_the_bracket_is_refused(self, slope):
        # a tiny derivative throws the step far outside [lo, hi], or to inf
        root = _bisect_newton(lambda t: t - 0.3, lambda t: slope, 0.0, 1.0, "wild", {})
        assert 0.0 <= root <= 1.0 and abs(root - 0.3) <= BISECT_WIDTH


class TestSolveAlpha:
    def test_k1_closed_form(self):
        assert solve_alpha(1) == pytest.approx(ALPHA_1, abs=1e-12)

    def test_root_outside_the_negative_branch_is_a_named_error(self, monkeypatch):
        # the bracket keeps the root below -k^(-1/4); a root on hi is planted
        monkeypatch.setattr(lp_extremal.construct, "_bisect_newton",
                            lambda poly, dpoly, lo, hi, label, diagnostics: hi)
        with pytest.raises(NumericalBreakdown, match="failed its bracket constraint") as exc_info:
            solve_alpha(16)
        assert exc_info.value.diagnostics == {"k": 16, "alpha": -0.5}

    def test_k3_exact_rational_point(self):
        # (1 + (-1))^4 + 2*(-1)^4 = 2 exactly
        assert solve_alpha(3) == pytest.approx(-1.0, abs=1e-13)

    def test_defining_equation(self):
        for k in K_GRID:
            alpha = solve_alpha(k)
            assert abs(f_eval(alpha, k) - (2.0 / k) ** 0.25) < 1e-12
            assert alpha < -float(k) ** -0.25


class TestSolveSystem:
    def test_k1_closed_form(self):
        sol = ConstructionSolution(1)
        assert sol.x == pytest.approx(X_1, abs=1e-12)
        assert sol.y == pytest.approx(Y_1, abs=1e-12)
        assert sol.alpha_root == pytest.approx(ALPHA_1, abs=1e-12)

    def test_k3_exact_rational_point(self):
        sol = ConstructionSolution(3)
        assert sol.x == pytest.approx(-0.5, abs=1e-13)
        assert sol.y == pytest.approx(0.5, abs=1e-13)

    def test_residuals_and_branch_across_k(self):
        for k in K_GRID:
            sol = ConstructionSolution(k)
            assert sol.x < 0.0 < sol.y
            assert sol.residual1 <= 1e-10
            assert sol.residual2 <= 1e-10
            assert sol.f_at_alpha_residual <= 1e-12
            assert abs(sol.x - sol.y - sol.alpha_root) <= 1e-12

    def test_asymptotic_gaps_bounded(self):
        worst = 0.0
        gaps_along_grid = []
        for k in [100, 1000, 10_000, 100_000]:
            gaps = ConstructionSolution(k).asymptotic_gaps()
            gaps_along_grid.append(max(gaps.values()))
            worst = max(worst, *gaps.values())
        assert worst <= 10.0
        # non-exploding: the last grid point is no worse than 2x the peak so far
        assert gaps_along_grid[-1] <= 2.0 * max(gaps_along_grid[:-1] + [1.0])

    def test_validation_rejects_wrong_branch(self, monkeypatch):
        sol = ConstructionSolution(2)
        construct = lp_extremal.construct
        monkeypatch.setattr(construct, "solve_alpha", lambda k: sol.alpha_root)
        # a planted x on the other branch, where y = x - alpha_root is -sol.y
        monkeypatch.setattr(construct, "_bisect_newton", lambda *args: sol.alpha_root - sol.y)
        with pytest.raises(NumericalBreakdown, match="branch must satisfy") as exc_info:
            ConstructionSolution(2)
        assert exc_info.value.diagnostics["y"] == pytest.approx(-sol.y)
        monkeypatch.setattr(construct, "_bisect_newton", lambda *args: sol.x + 1e-9)
        with pytest.raises(NumericalBreakdown, match="equation residuals exceed") as exc_info:
            ConstructionSolution(2)
        assert exc_info.value.diagnostics["residual1"] > 1e-10

    @pytest.mark.parametrize(
        "plant, message",
        [
            (lambda sol: sol.alpha_root + 1e-9, "equation residuals exceed"),
            # small enough that both equation residuals stay below 1e-10
            (lambda sol: sol.alpha_root + 2e-12, "misses \\(2/k\\)\\^\\(1/4\\) by more"),
        ],
    )
    def test_validation_rejects_inconsistent_fields(self, plant, message, monkeypatch):
        # x is solved against a planted alpha, so only alpha's own checks fail
        sol = ConstructionSolution(2)
        alpha = plant(sol)
        monkeypatch.setattr(lp_extremal.construct, "solve_alpha", lambda k: alpha)
        with pytest.raises(NumericalBreakdown, match=message) as exc_info:
            ConstructionSolution(2)
        diag = exc_info.value.diagnostics
        assert diag["alpha_root"] == alpha
        assert list(diag) == [f.name for f in dataclasses.fields(ConstructionSolution)]

    def test_y_is_computed_from_x_and_alpha_root(self):
        sol = ConstructionSolution(2)
        assert sol.y == sol.x - sol.alpha_root
        init = [f.name for f in dataclasses.fields(ConstructionSolution) if f.init]
        assert init == ["k"]
        with pytest.raises(TypeError, match="'y'"):
            ConstructionSolution(k=2, y=sol.y)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(sol, y=sol.y)

    def test_payloads_keep_their_bytes(self):
        # every float is written in its shortest round-trip form, so the digest
        # pins every bit; it was taken with glibc's libm on x86-64, and another
        # libm may round pow, and so the fourth powers and roots, differently
        payload = json.dumps([ConstructionSolution(k).to_dict() for k in range(1, 257)])
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == "cd0fe232d2bb8c0ac9452576a4c32de91e641d660abfb7cf14c0a83333e21925"

    def test_built_configuration_payloads_keep_their_bytes(self):
        # the points, the expected ratio and both block solutions of n = 2..65,
        # under the same libm caveat as the block solutions above
        payload = json.dumps([build_configuration(n).to_dict() for n in range(2, 66)])
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == "e47b03f7d5f1dbd0f2c3bc926f4520d1409fe6dc4e97ebda323fd86aa23033a8"


class TestBuildConfiguration:
    def test_n2_matches_hand_arithmetic(self):
        built = build_configuration(2)
        assert built.config.points.shape == (4, 2)
        assert built.expected_ratio == pytest.approx(RATIO_N2, abs=1e-12)
        pts = built.config.points
        assert pts.shape == (4, 2)
        np.testing.assert_allclose(
            sorted(pts[:, 0].tolist() + pts[:, 1].tolist()),
            sorted([-Y_1, Y_1, -Y_1, Y_1, 0, 0, 0, 0]),
            atol=1e-12,
        )
        rep = ratio_report(built.config)
        assert rep.ratio == pytest.approx(RATIO_N2, rel=1e-12)
        assert rep.max_dist == pytest.approx(2.0 ** 0.25, rel=1e-12)
        assert rep.min_dist == pytest.approx(2.0 ** -0.5, rel=1e-12)

    def test_even_shape_and_ratio(self):
        for n in [2, 4, 6, 8, 20, 128]:
            built = build_configuration(n)
            k = n // 2
            assert built.config.points.shape == (n + 2, n)
            assert built.solution_odd_part is None
            assert built.expected_ratio == pytest.approx(
                1.0 / (k ** 0.25 * built.solution_even_part.y), rel=1e-15
            )
            rep = ratio_report(built.config)
            assert rep.ratio == pytest.approx(built.expected_ratio, rel=1e-9)
            assert rep.ratio >= schuette_bound(n, 4) - 1e-9

    def test_odd_shape_and_ratio(self):
        for n in [3, 5, 7, 21]:
            built = build_configuration(n)
            k = (n - 1) // 2
            assert built.config.points.shape == (n + 2, n)
            assert built.solution_even_part.k == k
            assert built.solution_odd_part is not None
            assert built.solution_odd_part.k == k + 1
            rep = ratio_report(built.config)
            assert rep.ratio == pytest.approx(built.expected_ratio, rel=1e-9)
            assert rep.ratio >= schuette_bound(n, 4) - 1e-9

    def test_exactly_two_distinct_distances(self):
        for n in [2, 3, 4, 5, 10, 11]:
            built = build_configuration(n)
            dists = pairwise_distances(built.config)
            hi = max(dists)
            lo = min(dists)
            assert hi == pytest.approx(2.0 ** 0.25, rel=1e-9)
            assert lo < hi
            for d in dists:
                assert (
                    abs(d - hi) <= 1e-9 * hi or abs(d - lo) <= 1e-9 * hi
                ), f"third distance value {d} at n={n}"

    def test_within_block_is_equilateral(self):
        for k in [1, 2, 3, 10]:
            sol = ConstructionSolution(k)
            block = np.full((k + 1, k), sol.x)
            np.fill_diagonal(block[:k], 1.0 + sol.x)
            block[k] = sol.y
            flag, lam = is_equilateral(Configuration(block, 4.0), 1e-9)
            assert flag
            assert lam == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_envelope_moderate_sizes(self):
        for n in [4, 16, 64, 256, 5, 17, 65]:
            r = build_configuration(n).expected_ratio
            gap = abs(r - 1.0 - math.sqrt(2.0 / n)) * n ** 0.75
            assert gap <= 10.0, f"envelope {gap} at n={n}"

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_configuration(1)
        with pytest.raises(ValueError):
            build_configuration(2.5)

    def test_bool_is_not_an_integer(self):
        for call in (build_configuration, ConstructionSolution, solve_alpha, lambda k: f_eval(0.0, k)):
            with pytest.raises(ValueError, match="must be an integer, got True"):
                call(True)

    def test_numpy_integers_are_accepted(self):
        built = build_configuration(np.int64(5))
        assert built.config.points.shape == (7, 5)
        assert np.array_equal(built.config.points, build_configuration(5).config.points)
        assert ConstructionSolution(np.int32(3)) == ConstructionSolution(3)
