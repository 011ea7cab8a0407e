import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lp_extremal import (
    NumericalBreakdown, SearchResult, audit_chain, build_configuration, lpgeom, radon_partition,
)
from lp_extremal.lpgeom import (
    Configuration,
    RatioReport,
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

RATIO_RANGE = "the distance ratio exceeds the floating-point range"
# distinct pairs too close for a finite ratio: min_dist 1e-310 under a unit
# diameter, and a difference of 1e-320 that vanishes when 1e300 is scaled to 1
RATIO_BEYOND_RANGE = [
    [[1.0, 0.0], [1.0, 1e-310], [0.0, 0.0], [0.0, 1.0]],
    [[1e300, 0.0], [1e300, 1e-320], [0.0, 0.0], [0.0, 1.0]],
]


@st.composite
def wide_point_sets(draw):
    """3 to 6 points in R^1 to R^3 with coordinates from 2^-1074 to 7 * 2^1000,
    where points 0 and 1 differ only by a subnormal amount in one coordinate."""
    m = draw(st.integers(3, 6))
    n = draw(st.integers(1, 3))
    coord = st.builds(lambda sign, mant, e: sign * math.ldexp(mant, e),
                      st.sampled_from([-1.0, 1.0]), st.integers(0, 7), st.integers(-1074, 1000))
    pts = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=m, max_size=m))
    c = draw(st.integers(0, n - 1))
    pts[0][c] = math.ldexp(draw(st.integers(0, 1 << 52)), -1074)
    pts[1] = list(pts[0])
    pts[1][c] += math.ldexp(draw(st.integers(1, (1 << 52) - 1)), -1074)
    return pts


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
        for p in (0.5, math.inf, math.nan, None, "x", "4", b"4", [4], np.array([4.0]), True,
                  np.True_):
            for call in (lambda: p_norm([1.0], p), lambda: Configuration(UNIT_SQUARE, p)):
                with pytest.raises(ValueError, match="norm exponent must be a finite number >= 1"):
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

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_norm_beyond_the_float_range_is_an_error(self, p):
        # finite coordinates whose norm 1.7e308 * 2^(1/p) is not a float
        with pytest.raises(ValueError, match="the norm exceeds the floating-point range"):
            p_norm([1.7e308, 1.7e308], p)
        assert p_norm([1e308, 1e308], p) == pytest.approx(1e308 * 2 ** (1 / p), rel=1e-15)

    @pytest.mark.parametrize("v", [[], [[1.0, 2.0]]])
    def test_rejects_empty_or_non_vector_input(self, v):
        with pytest.raises(ValueError, match="coordinates must be a non-empty 1-D array"):
            p_norm(v, 4)

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

    def test_overflowing_difference_is_a_distance_out_of_range(self):
        # both points are finite; their difference 2e308 is not a float, and
        # it bounds the distance from below
        with pytest.raises(ValueError, match="the norm exceeds the floating-point range"):
            distance([1e308], [-1e308], 4)
        with pytest.raises(ValueError, match="the norm exceeds the floating-point range"):
            distance([0.0, 1.7e308], [1.7e308, 0.0], 4)
        assert distance([1e308], [-5e307], 4) == 1.5e308


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
        with pytest.raises(ValueError, match="the norm exceeds the floating-point range"):
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

    @pytest.mark.parametrize("min_dist", [0.0, -1.0, math.nan, math.inf, 10**400])
    def test_min_dist_must_be_positive(self, min_dist):
        with pytest.raises(ValueError, match="min_dist must be > 0"):
            RatioReport(1.0, min_dist, (0, 1), (0, 2))

    @pytest.mark.parametrize("min_dist", [math.inf, 10**400])
    def test_min_dist_message_names_both_conditions(self, min_dist):
        with pytest.raises(ValueError, match=r"min_dist must be > 0 and finite, got (inf|1000)"):
            RatioReport(1.0, min_dist, (0, 1), (0, 2))

    @pytest.mark.parametrize("min_dist", [True, "1.0", np.complex128(1.0), np.array([1.0]), None])
    def test_min_dist_that_is_not_a_number_is_named(self, min_dist):
        with pytest.raises(ValueError, match="min_dist must be a finite number") as info:
            RatioReport(1.0, min_dist, (0, 1), (0, 2))
        assert "> 0" not in str(info.value)

    def test_max_dist_must_not_be_negative(self):
        with pytest.raises(ValueError, match="max_dist must be a finite number >= 0"):
            RatioReport(-1.0, 1.0, (0, 1), (0, 1))

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("pts", RATIO_BEYOND_RANGE)
    def test_ratio_beyond_float_range_is_named(self, pts, p):
        config = Configuration(pts, p)
        with pytest.raises(ValueError, match=RATIO_RANGE):
            ratio_report(config)
        assert is_equilateral(config) == (False, None)

    def test_hand_built_infinite_ratio_is_named(self):
        with pytest.raises(ValueError, match=RATIO_RANGE):
            RatioReport(1e300, 1e-10, (0, 1), (0, 2))

    @pytest.mark.parametrize("pts", RATIO_BEYOND_RANGE)
    def test_search_result_beyond_float_range_is_named(self, pts):
        with pytest.raises(ValueError, match=RATIO_RANGE):
            SearchResult(Configuration(pts, 4.0), 1, 1, 0)

    @given(pts=wide_point_sets(), p=st.sampled_from([1.0, 2.0, 3.0, 4.0]))
    @example(pts=RATIO_BEYOND_RANGE[0], p=4.0)
    @example(pts=RATIO_BEYOND_RANGE[1], p=4.0)
    @settings(max_examples=100, deadline=None)
    def test_answers_are_finite_or_named(self, pts, p):
        config = Configuration(pts, p)
        try:
            rep = ratio_report(config)
        except ValueError:
            pass
        else:
            assert math.isfinite(rep.ratio) and rep.ratio > 0.0
            assert rep.ratio == rep.max_dist / rep.min_dist
        try:
            flag, lam = is_equilateral(config)
        except ValueError:
            return
        assert type(flag) is bool
        assert math.isfinite(lam) if flag else lam is None

    @given(pts=wide_point_sets(), p=st.sampled_from([2.0, 3.0, 4.0]))
    @example(pts=[[1.0, 0.0], [1.0, 3e-308], [0.0, 0.0], [0.0, 1.0]], p=4.0)
    @example(pts=[[1.0, 0.0], [1.0, 4.4e-308], [0.0, 0.0], [0.0, 1.0]], p=4.0)
    @example(pts=[[1.0, 0.0], [1.0, 2.5e-308], [0.0, 0.0], [0.0, 1.0]], p=4.0)
    @example(pts=[[1.0, 0.0], [1.0, 1e-300], [0.0, 0.0], [0.0, 1.0]], p=4.0)
    @settings(max_examples=100, deadline=None)
    def test_reported_pairs_are_priced_as_distance_prices_them(self, pts, p):
        # which pair is nearest is still chosen in the scan's frame; only the
        # price of the pairs it reports is held to distance
        try:
            rep = ratio_report(Configuration(pts, p))
        except ValueError:
            return
        i, j = rep.argmax_pair
        assert rep.max_dist == distance(pts[i], pts[j], p)
        i, j = rep.argmin_pair
        assert rep.min_dist == distance(pts[i], pts[j], p)

    def test_to_dict_writes_pairs_as_lists(self):
        rep = ratio_report(Configuration(TRIANGLE, 4.0))
        body = rep.to_dict()
        assert body["argmax_pair"] == list(rep.argmax_pair)
        assert body["argmin_pair"] == list(rep.argmin_pair)
        assert all(type(body[k]) is list for k in ("argmax_pair", "argmin_pair"))
        assert (body["max_dist"], body["min_dist"], body["ratio"]) == (
            rep.max_dist, rep.min_dist, rep.ratio)

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

    @pytest.mark.parametrize(
        "points",
        [
            [["0", "0"], [True, 0], [0, 1], [1, 1]],
            [[0.0, 0.0], [1.0, "1"]],
            np.array([[b"0", b"1"], [b"1", b"0"]]),
            [[False, True], [True, False]],
            [[0, 2 ** 70], [1, "1"]],
        ],
    )
    def test_strings_and_bools_are_not_coordinates(self, points):
        calls = [
            lambda: Configuration(points, 4.0),
            lambda: p_norm([c for row in points for c in row], 4),
            lambda: distance(points[0], points[-1], 2),
        ]
        if len(points) == 4:
            calls.append(lambda: radon_partition(points))
        for call in calls:
            with pytest.raises(ValueError, match="coordinates must be numbers"):
                call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: p_norm([3 + 4j], 2), "coordinates must be numbers"),
            (lambda: Configuration([[{}, 1], [1, 2]], 4), "coordinates must be numbers"),
            (lambda: Configuration([[0, 10**400], [1, 2]], 4), "must be numbers.*too large"),
            (lambda: Configuration(UNIT_SQUARE, 10**400), "norm exponent is too large"),
            (lambda: is_equilateral(Configuration(UNIT_SQUARE, 4.0), 10**400), "tol is too large"),
        ],
        ids=["complex", "dict", "huge-coordinate", "huge-exponent", "huge-tol"],
    )
    def test_values_that_are_not_floats_are_value_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_immutability(self):
        pts = np.zeros((2, 2))
        cfg = Configuration(pts, 2.0)
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 1.0
        pts[0, 0] = 99.0  # mutating the source must not leak in
        assert cfg.points[0, 0] == 0.0


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


def row_ends(m, rows):
    """(i, first, last) row-major positions of row i's pairs, for up to
    ``rows`` rows from each end, found by running sums of the row lengths."""
    head = min(rows, m - 1)
    ends, start = [], 0
    for i in range(head):
        ends.append((i, start, start + m - 2 - i))
        start += m - 1 - i
    stop = m * (m - 1) // 2
    for i in range(m - 2, max(head, m - 1 - rows) - 1, -1):
        ends.append((i, stop - (m - 1 - i), stop - 1))
        stop -= m - 1 - i
    return ends


class TestPairKernel:
    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("n", [2, 7, 40, 64])
    def test_sums_match_the_row_scan_bit_for_bit(self, p, n):
        # n = 64 has 2,145 pairs x 64 > PAIR_BLOCK_ELEMENTS differences, so
        # the default budget already gathers it in several chunks
        for pts in kernel_inputs(n).values():
            ref, k = reference_row_scan(pts, p)
            sums, x, k_scan, _, _ = lpgeom._pair_power_scan(pts, p)
            assert k_scan == k
            assert np.array_equal(x, np.ldexp(pts, -k))
            assert np.array_equal(sums, ref)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocking_does_not_change_the_sums(self, monkeypatch, p, offset):
        # budgets for the 14 points' 91 pairs: just below, at and just above
        # all pair differences, and far above them; 3(m-1) pairs a chunk, or
        # one less; 4 or 5 pairs a chunk, which end mid-row and leave a last
        # chunk of 3 or 1 pairs; all pairs but one or two in the first
        # chunk; one pair a chunk
        for kind, pts in kernel_inputs(12, seed=3).items():
            m, n = pts.shape
            count = m * (m - 1) // 2
            ref, _ = reference_row_scan(pts, p)
            for budget in (count * n + offset, (m - 1) * (m - 1) * n + offset,
                           3 * n * (m - 1) + offset, 50, 5 * n + offset,
                           (count - 1) * n + offset, n + offset):
                monkeypatch.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", budget)
                sums = lpgeom._pair_power_scan(pts, p)[0]
                assert np.array_equal(sums, ref), (kind, budget)

    @pytest.mark.parametrize("p", [1.5, 3.0, 2000.0])
    def test_general_p_does_not_depend_on_the_path(self, monkeypatch, p):
        for kind, pts in kernel_inputs(12, seed=4).items():
            one_chunk = lpgeom._pair_sums(pts, p)
            monkeypatch.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", 50)
            assert np.array_equal(lpgeom._pair_sums(pts, p), one_chunk), kind
            monkeypatch.undo()

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_a_stack_of_sets_gets_each_sets_bits(self, monkeypatch, p):
        # the search prices its restarts' candidates as one (restarts, m, n) stack
        rng = np.random.default_rng(29)
        for n in (2, 5, 8, 24, 69):
            stack = rng.uniform(-1.0, 1.0, (4, n + 2, n))
            stack[1:, 3] += 1e4
            alone = np.stack([lpgeom._pair_sums(x, p) for x in stack])
            for budget in (lpgeom.PAIR_BLOCK_ELEMENTS, 50):
                monkeypatch.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", budget)
                assert lpgeom._pair_sums(stack, p).tobytes() == alone.tobytes(), (n, budget)
            monkeypatch.undo()

    def test_only_one_chunk_sets_cache_their_pair_indices(self):
        # several chunks: the construction at n = 64 (2,145 pairs) for the
        # ratio and the audit, and 66 basis vectors, which are equilateral,
        # so is_equilateral runs the full scan
        config = build_configuration(64).config
        assert config.size * (config.size - 1) // 2 > lpgeom.PAIR_BLOCK_ELEMENTS // 64
        cert = radon_partition(config.points)
        simplex = Configuration(np.eye(66), 4.0)
        lpgeom._pair_index.cache_clear()
        ratio_report(config)
        assert is_equilateral(simplex)[0]
        audit_chain(config, cert)
        assert lpgeom._pair_index.cache_info().currsize == 0
        ratio_report(Configuration(UNIT_SQUARE, 4.0))
        assert lpgeom._pair_index.cache_info().currsize == 1

    def test_row_major_positions_decode(self):
        for m in range(2, 81):
            i, j = np.triu_indices(m, 1)
            pairs = [lpgeom._pair_at(t, m) for t in range(i.size)]
            assert pairs == list(zip(i.tolist(), j.tolist())), m

    @pytest.mark.parametrize("m", [386, 1026, 2**16 + 1, 10**7 + 3, 2**27 + 3, 2**30 + 3])
    def test_row_ends_decode_exactly(self, m):
        # a float square root in place of math.isqrt misplaces rows from about
        # 2^27 points on, where the float root of 8u + 1 can round up to the
        # next odd integer
        for i, first, last in row_ends(m, 20_000):
            assert lpgeom._pair_at(first, m) == (i, i + 1), (m, i)
            assert lpgeom._pair_at(last, m) == (i, m - 1), (m, i)

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

    @pytest.mark.parametrize("kind", ["construction", "mirrored"])
    def test_ties_in_a_large_set_report_the_lowest_row_major_pair(self, monkeypatch, kind):
        # above one chunk: the construction at n = 64 has two distances, and a
        # set beside its mirror image in x_0 = 0 has every pair sum twice, bit
        # for bit, and its least, 1, once for each point and its image
        if kind == "construction":
            pts = build_configuration(64).config.points
        else:
            half = blocked_scan_set(5)[:30]
            half[:, 0] = 0.5
            pts = np.vstack([half, half * np.r_[-1.0, np.ones(39)]])
        m, n = pts.shape
        assert m * (m - 1) // 2 > lpgeom.PAIR_BLOCK_ELEMENTS // n
        sums = lpgeom._pair_power_scan(pts, 4.0)[0]
        assert np.count_nonzero(sums == sums.max()) > 1
        assert np.count_nonzero(sums == sums.min()) > 1
        rep = ratio_report(Configuration(pts, 4.0))
        assert rep.argmax_pair == lpgeom._pair_at(int(np.flatnonzero(sums == sums.max())[0]), m)
        assert rep.argmin_pair == lpgeom._pair_at(int(np.flatnonzero(sums == sums.min())[0]), m)
        # the Gram bound makes every tied pair a candidate and keeps both sums
        monkeypatch.setattr(lpgeom, "_pair_power_scan", None)  # the full scan must not run
        assert lpgeom._extreme_sums(pts)[:2] == (sums.max(), sums.min())

    def test_first_duplicate_in_row_major_order_is_named(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            ratio_report(Configuration(pts, 4.0))
        with pytest.raises(ValueError, match=r"\(0, 5\)"):
            is_equilateral(Configuration(pts, 3.0))

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_first_duplicate_in_a_large_set_is_named(self, p):
        pts = blocked_scan_set(6, m=62, n=60)  # n + 2 points, for the audit
        cert = radon_partition(pts)
        pts[40] = pts[3]
        pts[7] = pts[2]
        with pytest.raises(ValueError, match=r"duplicate points at indices \(2, 7\)"):
            ratio_report(Configuration(pts, p))
        with pytest.raises(ValueError, match=r"duplicate points at indices \(2, 7\)"):
            is_equilateral(Configuration(pts, p))
        # the Gram bound's lower ends reach 0 there, so the audit's full scan names the pair
        with pytest.raises(ValueError, match=r"duplicate points at indices \(2, 7\)"):
            audit_chain(Configuration(pts, 4.0), cert)

    def test_underflowed_sum_is_not_a_duplicate(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1e-100, 0.0]])
        sums, _, _, _, _ = lpgeom._pair_power_scan(pts, 4.0)
        assert sums[1] == 0.0
        rep = ratio_report(Configuration(pts, 4.0))
        assert rep.argmin_pair == (0, 2)
        assert rep.min_dist == 1e-100
        assert is_equilateral(Configuration(pts, 4.0)) == (False, None)

    def test_underflowed_pairs_are_ordered_by_distance(self):
        # the first set's pairs (0, 1) and (2, 3) both sum to 0 after scaling;
        # the scan prices them, and the true minimum is the second, at 1e-100
        pts = np.array([[0, 0], [3e-100, 0], [1, 0], [1, 1e-100]])
        _, x, _, low, dists = lpgeom._pair_power_scan(pts, 4.0)
        assert low.tolist() == [0, 5]
        assert dists.tolist() == [p_norm(x[1] - x[0], 4.0), p_norm(x[3] - x[2], 4.0)]
        rep = ratio_report(Configuration(pts, 4.0))
        assert (rep.min_dist, rep.argmin_pair) == (1e-100, (2, 3))
        assert (rep.max_dist, rep.argmax_pair) == (1.0, (0, 2))
        # every pair underflows, so the maximum is repriced too
        pts = [[1, 0], [1, 1e-100], [1, 3e-100]]
        rep = ratio_report(Configuration(pts, 4.0))
        assert (rep.max_dist, rep.argmax_pair) == (3e-100, (0, 2))
        assert (rep.min_dist, rep.argmin_pair) == (1e-100, (0, 1))
        assert rep.ratio == 3.0
        assert is_equilateral(Configuration(pts, 4.0)) == (False, None)

    def test_underflowed_pairs_in_a_large_set_are_ordered_by_distance(self):
        # pairs (4, 10) and (20, 30) sum to 0 after scaling; the second is the nearest
        pts = blocked_scan_set(7, m=62, n=60)  # n + 2 points, for the audit
        cert = radon_partition(pts)
        pts[4, 0] = pts[20, 1] = 0.0
        pts[10], pts[30] = pts[4], pts[20]
        pts[10, 0], pts[30, 1] = 3e-100, 1e-100
        m = pts.shape[0]
        sums, x, _, low, dists = lpgeom._pair_power_scan(pts, 4.0)
        assert [lpgeom._pair_at(t, m) for t in low.tolist()] == [(4, 10), (20, 30)]
        rep = ratio_report(Configuration(pts, 4.0))
        assert (rep.min_dist, rep.argmin_pair) == (1e-100, (20, 30))
        assert rep.argmax_pair == lpgeom._pair_at(int(sums.argmax()), m)
        # the Gram bound's lower ends fall below the floor, so the audit's full
        # scan finds the underflow
        with pytest.raises(NumericalBreakdown, match="mu\\^4 may have lost digits"):
            audit_chain(Configuration(pts, 4.0), cert)
        # every pair underflows, so the maximum is repriced too
        pts = np.hstack([np.ones((m, 1)), 1e-100 * blocked_scan_set(8, m, 60)[:, 1:]])
        rep = ratio_report(Configuration(pts, 4.0))
        ref = {(i, j): distance(pts[i], pts[j], 4.0) for i in range(m) for j in range(i + 1, m)}
        assert (rep.max_dist, rep.argmax_pair) == (max(ref.values()), max(ref, key=ref.get))
        assert (rep.min_dist, rep.argmin_pair) == (min(ref.values()), min(ref, key=ref.get))

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
            vals, _, k, _, _ = lpgeom._pair_power_scan(pts, p)
            ref = brute_force_pairs(pts, p)
            assert np.allclose(np.ldexp(vals, k), list(ref.values()), rtol=1e-12, atol=0)


def full_scan_is_equilateral(config, tol):
    """is_equilateral before the point-0 exit: the verdict of the full scan."""
    sums, x, k, low, repriced = lpgeom._pair_power_scan(config.points, config.p)
    if config.p == 4.0:
        dists = np.sqrt(np.sqrt(sums))
    elif config.p == 2.0:
        dists = np.sqrt(sums)
    else:
        dists = sums
    dists[low] = repriced
    dmax = float(np.max(dists))
    dmin = float(np.min(dists))
    if dmax - dmin <= tol * dmax:
        return True, math.ldexp(math.fsum(dists.tolist()) / len(dists), k)
    return False, None


def outcome(call, *args):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def blocked_scan_set(seed, m=60, n=40):
    """m random points in R^n, enough pairs for several chunks of the pair scan."""
    assert m * (m - 1) // 2 > lpgeom.PAIR_BLOCK_ELEMENTS // n
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(m, n))


class TestPointZeroExit:
    def test_spread_from_point_zero_skips_the_full_scan(self, monkeypatch):
        rng = np.random.default_rng(0)
        sets = [blocked_scan_set(0), rng.uniform(-1.0, 1.0, size=(4, 2)),
                rng.uniform(-1.0, 1.0, size=(10, 8))]

        def full_scan(*args):
            raise AssertionError("the full pair scan ran")

        monkeypatch.setattr(lpgeom, "_pair_power_scan", full_scan)
        for pts in sets:
            for p in (2.0, 3.0, 4.0):
                assert is_equilateral(Configuration(pts, p)) == (False, None), pts.shape

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_duplicate_away_from_point_zero_is_still_named(self, p, zero):
        pts = blocked_scan_set(1)
        pts[2, 5] = 0.0
        pts[4] = pts[2]
        pts[4, 5] = zero  # -0.0 == 0.0, as np.array_equal has it
        with pytest.raises(ValueError, match=r"duplicate points at indices \(2, 4\)"):
            is_equilateral(Configuration(pts, p))

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_row_sums_are_the_full_scans_bits(self, monkeypatch, p):
        for pts in (blocked_scan_set(2), kernel_inputs(7)["perturbed"]):
            x, _ = lpgeom._power_of_two_scaled(pts)
            row = lpgeom._powered_sums(x[1:] - x[0], p)
            for budget in (lpgeom.PAIR_BLOCK_ELEMENTS, 0):
                monkeypatch.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", budget)
                assert row.tobytes() == lpgeom._pair_sums(x, p)[: len(row)].tobytes()
            monkeypatch.undo()

    @given(
        kind=st.sampled_from(["simplex", "random", "underflow", "tiny", "integer"]),
        p=st.sampled_from([2.0, 3.0, 4.0]),
        tol=st.sampled_from([0.0, 1e-9, 0.3, 1.0, 2.0]),
        m=st.integers(2, 12),
        shake=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 2.1, 4.0]),
        seed=st.integers(0, 10_000),
        offset=st.integers(0, 51),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdict_matches_the_full_scan(self, kind, p, tol, m, shake, seed, offset):
        # every set takes the exit's path; the full scan gathers it in one
        # chunk at the default budget and one pair per chunk at a zero one
        rng = np.random.default_rng(seed)
        if kind == "simplex":
            # the basis vectors are equilateral for every p; shake them by
            # about tol times the side, around the exit's margin
            noise = rng.uniform(-1.0, 1.0, size=(m, m))
            pts = np.eye(m) + shake * max(tol, 1e-9) * noise
        elif kind == "tiny":
            # the same next to a unit coordinate, so small that every power
            # sum is subnormal and only the repriced distances are accurate
            noise = rng.uniform(-1.0, 1.0, size=(m, m))
            side = 2.5e-81 if p == 4.0 else 3e-162  # about one subnormal unit
            tiny = side * (np.eye(m) + shake * max(tol, 1e-9) * noise)
            pts = np.hstack([np.ones((m, 1)), tiny])
        elif kind == "random":
            pts = rng.uniform(-1.0, 1.0, size=(m, 3))
        elif kind == "underflow":
            pts = rng.uniform(-1.0, 1.0, size=(m, 3))
            pts[0, 0] = 0.0
            pts[1] = pts[0]
            pts[1, 0] = 1e-100  # the sum from point 0 to point 1 underflows
        else:
            pts = rng.integers(-3, 4, size=(m, 2)) + np.ldexp(1.0, offset)
        config = Configuration(pts, p)
        expected = outcome(full_scan_is_equilateral, config, tol)
        assert outcome(is_equilateral, config, tol) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", 0)
            assert outcome(is_equilateral, config, tol) == expected
            assert outcome(full_scan_is_equilateral, config, tol) == expected


def extremes_and_audit(pts, cert):
    """_extreme_sums's two sums and audit_chain's JSON on ``pts``, or their error messages."""
    def attempt(call):
        try:
            return call()
        except (ValueError, NumericalBreakdown) as exc:
            return str(exc)

    config = Configuration(pts, 4.0)
    return (attempt(lambda: lpgeom._extreme_sums(pts)[:2]),
            attempt(lambda: json.dumps(audit_chain(config, cert).to_dict())))


class TestGramExtremes:
    @given(
        kind=st.sampled_from(["uniform", "ties", "perturbed", "integer"]),
        n=st.integers(2, 8),
        shake=st.integers(3, 12),
        offset=st.one_of(st.none(), st.integers(0, 40)),
        scale=st.sampled_from([-500, 0, 500]),
        plant=st.sampled_from([None, "duplicate", "underflow"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_extremes_keep_the_full_scans_bytes(self, kind, n, shake, offset, scale, plant, seed):
        # a zero budget sends every set of 3 or more points through the Gram
        # bound; at the default budget these sets take the one-chunk full scan.
        # The audit reads only the certificate's sides and weights, so any
        # certificate of n + 2 points will do
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            pts = rng.uniform(-1.0, 1.0, size=(n + 2, n))
        elif kind == "integer":
            pts = rng.integers(-3, 4, size=(n + 2, n)).astype(float)
        else:
            pts = build_configuration(n).config.points.copy()
            if kind == "perturbed":
                pts += 10.0 ** -shake * rng.standard_normal(pts.shape)
        if offset is not None:
            pts += 2.0 ** offset
        pts = np.ldexp(pts, scale)
        if plant:
            a, b = rng.choice(n + 2, size=2, replace=False)
            c = int(rng.integers(n))
            pts[a, c] = 0.0
            pts[b] = pts[a]
            if plant == "underflow":  # scaled, the pair's sum is below the floor
                pts[b, c] = np.abs(pts).max() * 2.0 ** -300
        cert = radon_partition(rng.uniform(-1.0, 1.0, size=(n + 2, n)))
        expected = extremes_and_audit(pts, cert)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lpgeom, "PAIR_BLOCK_ELEMENTS", 0)
            assert extremes_and_audit(pts, cert) == expected
        x, _ = lpgeom._power_of_two_scaled(pts)
        s, w = lpgeom._gram_bounds(x)
        e = np.add.outer(w, w)
        iu = np.triu_indices(n + 2, 1)
        assert (np.abs(s[iu] - lpgeom._pair_sums(x, 4.0)) <= e[iu]).all()
        if plant is None and kind != "integer":  # distinct points: no fallback
            assert (s - e)[iu].min() >= lpgeom._sum_floor(n)

    @pytest.mark.parametrize("kind", ["perturbed", "random"])
    def test_sets_without_ties_price_few_pairs(self, monkeypatch, kind):
        pts = kernel_inputs(64, seed=11)[kind]
        config = Configuration(pts, 4.0)
        cert = radon_partition(pts)
        expected = audit_chain(config, cert).to_dict()
        priced = []
        sums_at = lpgeom._sums_at

        def counted(x, i, j, p):
            priced.append(i.size)
            return sums_at(x, i, j, p)

        monkeypatch.setattr(lpgeom, "_sums_at", counted)
        monkeypatch.setattr(lpgeom, "_pair_power_scan", None)  # the full scan must not run
        assert audit_chain(config, cert).to_dict() == expected
        assert len(priced) == 1 and priced[0] <= 2, priced
