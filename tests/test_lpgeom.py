import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_extremal import build_configuration, lpgeom
from lp_extremal.lpgeom import (
    Configuration,
    distance,
    is_equilateral,
    p_norm,
    ratio_report,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]])
# rounds to a multiple of 2^14 near 1e20, where |difference|^30 underflows
FAR_TRIANGLE = TRIANGLE * 1e5 + 1e20
NEAR_FLOAT_MAX = [
    np.array([[1e308, 0.0], [-1e308, 0.0]]),
    np.array([[0.0, 1.7e308], [0.0, -1.7e308]]),
    np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.7e308], [0.0, -1.7e308]]),
]


def brute_force_pairs(points, p):
    """Independent oracle: all pairwise distances via plain arithmetic."""
    out = {}
    m = len(points)
    for i in range(m):
        for j in range(i + 1, m):
            out[(i, j)] = sum(abs(a - b) ** p for a, b in zip(points[i], points[j])) ** (1.0 / p)
    return out


class TestPNorm:
    def test_pythagorean_triple(self):
        assert p_norm([3.0, 4.0], 2) == 5.0

    def test_all_ones_fourth_root(self):
        for n in [1, 2, 7, 16, 100]:
            assert p_norm(np.ones(n), 4) == pytest.approx(n ** 0.25, rel=1e-15)

    def test_two_ones_p4(self):
        assert p_norm([1.0, 1.0], 4) == pytest.approx(2.0 ** 0.25, rel=1e-15)
        assert abs(p_norm([1.0, 1.0], 4) - 1.1892071150027210) < 1e-12

    def test_zero_vector(self):
        assert p_norm([0.0, 0.0, 0.0], 3.7) == 0.0

    def test_rejects_bad_exponent(self):
        # one named ValueError, never a TypeError or a conversion message
        for p in (0.5, math.inf, math.nan, None, "x", [4], np.array([4.0]), True, np.True_):
            for call in (lambda: p_norm([1.0], p),
                         lambda: Configuration(UNIT_SQUARE, p),
                         lambda: Configuration.from_dict({"points": UNIT_SQUARE, "p": p})):
                with pytest.raises(ValueError, match="norm exponent must be a finite real >= 1"):
                    call()

    def test_rejects_nonfinite_coords(self):
        with pytest.raises(ValueError):
            p_norm([1.0, math.nan], 2)
        with pytest.raises(ValueError):
            p_norm([1.0, math.inf], 4)

    def test_overflow_guard(self):
        # raw fourth powers of 1e100 overflow; the scaled path must not
        v = np.array([1e100, 1e100])
        assert p_norm(v, 4) == pytest.approx(1e100 * 2 ** 0.25, rel=1e-15)

    def test_matches_bruteforce_on_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            v = rng.normal(size=n) * 3
            p = float(rng.uniform(1, 9))
            ref = sum(abs(x) ** p for x in v) ** (1 / p)
            assert p_norm(v, p) == pytest.approx(ref, rel=1e-12)


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=8)
exponents = st.floats(min_value=1.0, max_value=16.0, allow_nan=False)


class TestNormProperties:
    @given(vectors, finite_floats, exponents)
    @settings(max_examples=200)
    def test_homogeneity(self, v, t, p):
        lhs = p_norm([t * x for x in v], p)
        rhs = abs(t) * p_norm(v, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(vectors, vectors, exponents)
    @settings(max_examples=200)
    def test_triangle_inequality(self, u, v, p):
        n = min(len(u), len(v))
        u, v = u[:n], v[:n]
        s = [a + b for a, b in zip(u, v)]
        rhs = p_norm(u, p) + p_norm(v, p)
        assert p_norm(s, p) <= rhs + 1e-12 * max(1.0, rhs)

    @given(vectors, exponents, exponents)
    @settings(max_examples=200)
    def test_monotone_in_exponent(self, v, p, q):
        lo, hi = min(p, q), max(p, q)
        scale = max(1.0, p_norm(v, lo))
        assert p_norm(v, hi) <= p_norm(v, lo) + 1e-12 * scale


class TestDistance:
    def test_p4_unit_diagonal(self):
        assert distance([0.0, 0.0], [1.0, 1.0], 4) == pytest.approx(2 ** 0.25, rel=1e-15)

    def test_identity(self):
        v = [0.3, -2.0, 5.5]
        assert distance(v, v, 3.0) == 0.0

    def test_permuted_spike_vectors(self):
        # two permutations of (1+x, x, ..., x) differ in exactly two slots by 1
        x = -0.37
        k = 5
        a1 = np.full(k, x)
        a1[0] = 1 + x
        a2 = np.full(k, x)
        a2[2] = 1 + x
        assert distance(a1, a2, 4) == pytest.approx(2 ** 0.25, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance([1.0], [1.0, 2.0], 2)


class TestRatioReport:
    def test_unit_square_p4(self):
        # oracle: 6 pairwise distances by hand; 4 sides of 1, 2 diagonals ||(1,1)||_4
        ref = brute_force_pairs(UNIT_SQUARE, 4.0)
        assert max(ref.values()) == pytest.approx(2 ** 0.25, rel=1e-15)
        assert min(ref.values()) == 1.0
        rep = ratio_report(Configuration(UNIT_SQUARE, 4.0))
        assert rep.max_dist == pytest.approx(2 ** 0.25, rel=1e-15)
        assert rep.min_dist == 1.0
        assert rep.ratio == pytest.approx(2 ** 0.25, rel=1e-15)
        assert rep.argmax_pair in {(0, 2), (1, 3)}

    def test_unit_square_p2(self):
        rep = ratio_report(Configuration(UNIT_SQUARE, 2.0))
        assert rep.ratio == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 3))
        base = ratio_report(Configuration(pts, 4.0)).ratio
        for t in [1e-8, 0.5, 3.0, 1e9]:
            scaled = ratio_report(Configuration(t * pts, 4.0)).ratio
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_duplicate_points_error_names_pair(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            ratio_report(Configuration(pts, 4.0))

    def test_large_exponents_do_not_underflow(self):
        # every |difference|^2000 underflows; the true ratio is 1 / 0.7
        rep = ratio_report(Configuration(TRIANGLE, 2000.0))
        assert rep.ratio == pytest.approx(1.4285714285714286, rel=1e-12)
        assert rep.argmax_pair == (0, 1)
        rep = ratio_report(Configuration(FAR_TRIANGLE, 30.0))
        x = Configuration(FAR_TRIANGLE, 30.0).points
        ds = [distance(x[i], x[j], 30.0) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert max(ds) / min(ds) == pytest.approx(1.499999999953434, rel=1e-12)
        assert rep.ratio == pytest.approx(max(ds) / min(ds), rel=1e-12)

    @pytest.mark.parametrize("pts", NEAR_FLOAT_MAX)
    def test_max_distance_beyond_float_range_is_named(self, pts):
        with pytest.raises(ValueError, match="the maximum distance exceeds the floating-point range"):
            ratio_report(Configuration(pts, 4.0))
        rep = ratio_report(Configuration(pts / 4.0, 4.0))
        assert math.isfinite(rep.max_dist) and rep.ratio >= 1.0

    def test_argmax_pair_reproduces_max(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pts = rng.uniform(-2, 2, size=(7, 4))
            cfg = Configuration(pts, 4.0)
            rep = ratio_report(cfg)
            i, j = rep.argmax_pair
            assert distance(pts[i], pts[j], 4.0) == pytest.approx(rep.max_dist, rel=1e-12)
            i, j = rep.argmin_pair
            assert distance(pts[i], pts[j], 4.0) == pytest.approx(rep.min_dist, rel=1e-12)
            assert rep.ratio == rep.max_dist / rep.min_dist
            assert rep.ratio >= 1.0

    def test_invariances(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(5, 3))
        p = 4.0
        base = ratio_report(Configuration(pts, p)).ratio
        perm = rng.permutation(5)
        assert ratio_report(Configuration(pts[perm], p)).ratio == pytest.approx(base, rel=1e-12)
        cols = rng.permutation(3)
        assert ratio_report(Configuration(pts[:, cols], p)).ratio == pytest.approx(base, rel=1e-12)
        assert ratio_report(Configuration(pts + np.array([5.0, -2.0, 0.25]), p)).ratio == pytest.approx(base, rel=1e-12)
        flip = pts * np.array([1.0, -1.0, 1.0])
        assert ratio_report(Configuration(flip, p)).ratio == pytest.approx(base, rel=1e-12)


class TestIsEquilateral:
    def test_standard_basis(self):
        for n in [2, 3, 6]:
            flag, lam = is_equilateral(Configuration(np.eye(n), 4.0), 1e-9)
            assert flag
            assert lam == pytest.approx(2 ** 0.25, rel=1e-12)

    def test_unit_square_not_equilateral(self):
        flag, lam = is_equilateral(Configuration(UNIT_SQUARE, 4.0), 1e-9)
        assert not flag
        assert lam is None

    def test_tolerance_is_relative(self):
        pts = np.array([[0.0], [1.0], [2.0000001]])
        cfg = Configuration(pts, 2.0)
        assert not is_equilateral(cfg, 1e-9)[0]
        # distances are 1, 1.0000001, 2.0000001 -- never equilateral
        assert not is_equilateral(cfg, 1e-3)[0]

    def test_common_distance_beyond_float_range_is_an_error(self):
        pts = np.array([[-1e308, 0.0], [1e308, 0.0]])
        flag, lam = is_equilateral(Configuration(pts / 4.0, 4.0))
        assert flag and lam == pytest.approx(5e307, rel=1e-15)
        with pytest.raises(ValueError, match="floating-point range"):
            is_equilateral(Configuration(pts, 4.0))

    def test_duplicate_error(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="duplicate"):
            is_equilateral(Configuration(pts, 2.0), 1e-9)

    def test_large_exponents_do_not_underflow(self):
        assert is_equilateral(Configuration(TRIANGLE, 2000.0)) == (False, None)
        assert is_equilateral(Configuration(FAR_TRIANGLE, 30.0)) == (False, None)
        flag, lam = is_equilateral(Configuration(np.eye(3), 2000.0))
        assert flag and lam == pytest.approx(2.0 ** (1 / 2000), rel=1e-12)


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(np.zeros((1, 3)), 2.0)
        with pytest.raises(ValueError):
            Configuration(np.zeros((3, 0)), 2.0)
        with pytest.raises(ValueError):
            Configuration(np.array([[1.0, math.nan]] * 2), 2.0)
        with pytest.raises(ValueError):
            Configuration(np.zeros((2, 2)), 0.5)

    def test_immutability(self):
        pts = np.zeros((2, 2))
        cfg = Configuration(pts, 2.0)
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 1.0
        pts[0, 0] = 99.0  # mutating the source must not leak in
        assert cfg.points[0, 0] == 0.0

    def test_dict_round_trip(self):
        cfg = Configuration(UNIT_SQUARE, 4.0)
        again = Configuration.from_dict(cfg.to_dict())
        assert np.array_equal(again.points, cfg.points)
        assert again.p == cfg.p

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            Configuration.from_dict({"points": [[0.0], [1.0]]})


def reference_row_scan(pts, p):
    """The row-at-a-time scan the pair kernel replaced, on 2^-k-scaled points."""
    k = int(np.frexp(np.max(np.abs(pts)))[1])
    x = np.ldexp(pts, -k)
    sums = []
    for i in range(x.shape[0] - 1):
        diff = x[i + 1:] - x[i]
        if p == 4.0:
            sq = diff * diff
            sums.append(np.sum(sq * sq, axis=1))
        else:
            sums.append(np.sum(diff * diff, axis=1))
    return np.concatenate(sums), k


def kernel_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    tie = build_configuration(n).config.points
    return {
        "exact": tie,
        "perturbed": tie + 1e-3 * rng.standard_normal(tie.shape),
        "random": rng.uniform(-1.0, 1.0, tie.shape),
    }


class TestPairKernel:
    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_sums_match_the_row_scan_bit_for_bit(self, p, n):
        for pts in kernel_inputs(n).values():
            ref, k = reference_row_scan(pts, p)
            sums, x, k_scan = lpgeom._pair_power_scan(pts, p)
            assert k_scan == k
            assert np.array_equal(x, np.ldexp(pts, -k))
            assert np.array_equal(sums, ref)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocking_does_not_change_the_sums(self, monkeypatch, p, offset):
        # budget just below, at and just above the gathered m(m-1)/2 x n
        # pair differences and one m x m x n block, then small enough that
        # the rows split into blocks of several sizes
        for kind, pts in kernel_inputs(12, seed=3).items():
            m, n = pts.shape
            ref, _ = reference_row_scan(pts, p)
            for budget in (m * (m - 1) // 2 * n + offset, (m - 1) * (m - 1) * n + offset,
                           3 * n * (m - 1) + offset, 50):
                monkeypatch.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", budget)
                sums = lpgeom._pair_power_scan(pts, p)[0]
                assert np.array_equal(sums, ref), (kind, budget)

    @pytest.mark.parametrize("p", [1.5, 3.0, 2000.0])
    def test_general_p_does_not_depend_on_the_path(self, monkeypatch, p):
        for kind, pts in kernel_inputs(12, seed=4).items():
            gathered = lpgeom._pair_sums(pts, p)
            monkeypatch.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", 50)
            assert np.array_equal(lpgeom._pair_sums(pts, p), gathered), kind
            monkeypatch.undo()

    def test_row_major_positions_decode(self):
        m = 7
        pairs = [lpgeom._pair_at(t, m) for t in range(m * (m - 1) // 2)]
        assert pairs == [(i, j) for i in range(m) for j in range(i + 1, m)]

    def test_ties_report_the_lowest_row_major_pair(self):
        rep = ratio_report(Configuration(UNIT_SQUARE, 4.0))
        assert rep.argmax_pair == (0, 2)
        assert rep.argmin_pair == (0, 1)
        pts = build_configuration(6).config.points
        ref = brute_force_pairs(pts, 4.0)
        rep = ratio_report(Configuration(pts, 4.0))
        sums = lpgeom._pair_power_scan(pts, 4.0)[0]
        order = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        assert rep.argmax_pair == order[int(np.flatnonzero(sums == sums.max())[0])]
        assert rep.argmin_pair == order[int(np.flatnonzero(sums == sums.min())[0])]
        assert np.count_nonzero(sums == sums.min()) > 1
        assert rep.max_dist == pytest.approx(max(ref.values()), rel=1e-12)

    def test_first_duplicate_in_row_major_order_is_named(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            ratio_report(Configuration(pts, 4.0))
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            is_equilateral(Configuration(pts, 3.0))

    def test_underflowed_sum_is_not_a_duplicate(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1e-100, 0.0]])
        sums, _, _ = lpgeom._pair_power_scan(pts, 4.0)
        assert sums[1] == 0.0
        rep = ratio_report(Configuration(pts, 4.0))
        assert rep.argmin_pair == (0, 2)
        assert rep.min_dist == 1e-100
        assert is_equilateral(Configuration(pts, 4.0)) == (False, None)

    def test_underflowed_pairs_are_ordered_by_distance(self):
        # the first set's pairs (0, 1) and (2, 3) both sum to 0 after scaling;
        # the true minimum is the second, at 1e-100
        rep = ratio_report(Configuration([[0, 0], [3e-100, 0], [1, 0], [1, 1e-100]], 4.0))
        assert (rep.min_dist, rep.argmin_pair) == (1e-100, (2, 3))
        assert (rep.max_dist, rep.argmax_pair) == (1.0, (0, 2))
        # every pair underflows, so the maximum is repriced too
        pts = [[1, 0], [1, 1e-100], [1, 3e-100]]
        rep = ratio_report(Configuration(pts, 4.0))
        assert (rep.max_dist, rep.argmax_pair) == (3e-100, (0, 2))
        assert (rep.min_dist, rep.argmin_pair) == (1e-100, (0, 1))
        assert rep.ratio == 3.0
        assert is_equilateral(Configuration(pts, 4.0)) == (False, None)

    def test_subnormal_sums_are_repriced(self):
        # pairs (0, 1) and (1, 2) both sum to 3 subnormal units (1.5e-323)
        # after scaling, though (1, 2) is the shorter
        pts = [[1, 0], [1, 4.04e-81], [1, 8.04e-81]]
        sums = lpgeom._pair_power_scan(np.array(pts), 4.0)[0]
        assert 0.0 < sums[0] == sums[2] < sys.float_info.min
        rep = ratio_report(Configuration(pts, 4.0))
        assert rep.argmin_pair == (1, 2)
        assert rep.min_dist == pytest.approx(4e-81, rel=1e-12)

    def test_underflowed_ties_report_the_lowest_row_major_pair(self):
        pts = [[1, 0, 0], [1, 1e-100, 0], [1, 0, 1e-100], [1, 1e-100, 1e-100]]
        rep = ratio_report(Configuration(pts, 4.0))
        assert rep.argmin_pair == (0, 1)
        assert rep.argmax_pair == (0, 3)

    def test_underflowed_equilateral_set_keeps_its_distance(self):
        side = 1e-100
        pts = [[1, 0, 0], [1, side, 0], [1, side / 2, side * 3 ** 0.5 / 2]]
        flag, lam = is_equilateral(Configuration(pts, 2.0))
        assert flag and lam == pytest.approx(side, rel=1e-12)
        flag, lam = is_equilateral(Configuration(pts, 4.0))
        assert not flag and lam is None

    def test_general_p_values_are_distances(self):
        pts = kernel_inputs(5)["random"]
        for p in (1.0, 3.0, 7.5):
            vals, _, k = lpgeom._pair_power_scan(pts, p)
            ref = brute_force_pairs(pts, p)
            assert np.allclose(np.ldexp(vals, k), list(ref.values()), rtol=1e-12, atol=0)
