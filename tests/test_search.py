import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import lp_extremal
from lp_extremal.bounds import schuette_bound
from lp_extremal.construct import build_configuration
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import Configuration, ratio_report
from lp_extremal.radon import audit_chain, radon_partition
from lp_extremal.search import MAX_BUDGET, SearchResult, minimize_ratio

FOURTH_ROOT_2 = 2.0 ** 0.25


class TestDeterminism:
    def test_identical_inputs_identical_results(self):
        a = minimize_ratio(2, 3000, "auto", 42)
        b = minimize_ratio(2, 3000, "auto", 42)
        assert a.best_ratio == b.best_ratio
        assert np.array_equal(a.best_config.points, b.best_config.points)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize(
        "n, budget, seed, ratio",
        [
            (2, 200, 1, 1.6597881829410315),
            (8, 200, 7, 1.4817865617300854),
            (32, 1000, 3, 1.2262884817725388),
            (64, 300, 5, 1.1501798606664433),
        ],
    )
    def test_pinned_results(self, n, budget, seed, ratio):
        res = minimize_ratio(n, budget, "auto", seed)
        assert res.best_ratio == ratio
        assert res.evaluations == budget

    def test_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"minimize_ratio started a thread: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        minimize_ratio(3, 400, "auto", 5)

    def test_cli_import_leaves_out_concurrent_futures(self):
        src = str(Path(lp_extremal.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        # the concurrent package holds only the futures module and its pools
        script = (
            "import sys, lp_extremal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "[]"


class TestSearchQuality:
    def test_n2_approaches_square(self):
        res = minimize_ratio(2, 10_000, "auto", 0)
        assert res.best_ratio <= FOURTH_ROOT_2 + 1e-3
        assert res.best_ratio >= FOURTH_ROOT_2 - 1e-9

    def test_monotone_in_budget(self):
        for seed in (3, 11):
            ratios = [
                minimize_ratio(2, budget, "auto", seed).best_ratio
                for budget in (500, 2000, 6000)
            ]
            assert ratios[0] >= ratios[1] >= ratios[2]

    def test_monotone_across_cycle_reheats(self):
        # one restart of CYCLE_LEN + 1 and 2 * CYCLE_LEN + 1 evaluations
        # reheats from its best configuration once and twice
        seed = [build_configuration(3).config]
        results = [minimize_ratio(3, budget, seed, 9) for budget in (2500, 2501, 5001)]
        assert results[-1].to_dict() == minimize_ratio(3, 5001, seed, 9).to_dict()
        ratios = [res.best_ratio for res in results]
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_never_below_bound(self):
        for n in range(2, 7):
            res = minimize_ratio(n, 800, "auto", n)
            assert res.best_ratio >= schuette_bound(n, 4) - 1e-9
            assert res.bound == schuette_bound(n, 4)

    def test_result_below_the_bound_is_a_named_error(self, monkeypatch):
        # the evaluator is sound, so an inflated bound is planted
        monkeypatch.setattr(lp_extremal.search, "schuette_bound", lambda n, p: 10.0)
        with pytest.raises(NumericalBreakdown, match="fell below the proven bound") as exc_info:
            minimize_ratio(2, 20, "auto", 0)
        diag = exc_info.value.diagnostics
        assert diag["bound"] == 10.0 and diag["n"] == 2 and diag["best_ratio"] < 10.0

    def test_hand_built_result_below_the_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(lp_extremal.search, "schuette_bound", lambda n, p: 10.0)
        square = Configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], 4.0)
        with pytest.raises(NumericalBreakdown, match="fell below the proven bound") as exc_info:
            SearchResult(square, restarts=1, evaluations=1, rng_seed=0)
        diag = exc_info.value.diagnostics
        assert diag == {"best_ratio": FOURTH_ROOT_2, "bound": 10.0, "n": 2}

    def test_coincident_candidates_are_never_accepted(self, monkeypatch):
        # a kick landing exactly on another point is planted as a zero pair sum
        seed = Configuration(build_configuration(3).config.points, 4.0)
        walked = minimize_ratio(3, 500, [seed], 0)
        monkeypatch.setattr(lp_extremal.search, "_pair_sums", lambda x, p: np.array([0.0, 1.0]))
        start = minimize_ratio(3, 1, [seed], 0)
        res = minimize_ratio(3, 500, [seed], 0)
        assert res.best_ratio == start.best_ratio > walked.best_ratio
        assert np.array_equal(res.best_config.points, start.best_config.points)

    def test_n4_sandwich(self):
        built = build_configuration(4)
        res = minimize_ratio(4, 2000, "auto", 1)
        # the construction seeds one restart, so it caps the result
        assert res.best_ratio <= built.expected_ratio * (1 + 1e-12)
        assert res.best_ratio >= schuette_bound(4, 4) - 1e-9


class TestResultContract:
    def test_best_ratio_reproducible(self):
        res = minimize_ratio(3, 1500, "auto", 9)
        again = ratio_report(res.best_config).ratio
        assert again == res.best_ratio

    def test_fields_consistent(self):
        res = minimize_ratio(2, 1001, "auto", 13)
        assert res.evaluations == 1001
        assert res.restarts == 4
        assert res.rng_seed == 13
        assert res.gap == res.best_ratio - res.bound

    def test_best_config_passes_audit(self):
        for n, seed in [(2, 0), (3, 2)]:
            res = minimize_ratio(n, 1200, "auto", seed)
            cert = radon_partition(res.best_config.points)
            audit = audit_chain(res.best_config, cert)
            assert audit.all_hold()

    def test_tiny_budget(self):
        res = minimize_ratio(2, 2, "auto", 0)
        assert res.evaluations == 2
        assert res.restarts == 2
        assert res.best_ratio >= schuette_bound(2, 4) - 1e-9


class TestSeeds:
    def test_explicit_seed_list(self):
        built = build_configuration(2)
        res = minimize_ratio(2, 600, [built.config], 4)
        assert res.restarts == 1
        assert res.best_ratio <= built.expected_ratio * (1 + 1e-12)

    @pytest.mark.parametrize("e", [-300, -200, 300, 530])
    def test_power_of_two_scaled_seed_walks_the_same(self, e):
        pts = build_configuration(3).config.points
        base = minimize_ratio(3, 200, [Configuration(pts, 4.0)], 0)
        res = minimize_ratio(3, 200, [Configuration(np.ldexp(pts, e), 4.0)], 0)
        assert res.best_ratio == base.best_ratio
        assert np.array_equal(res.best_config.points, base.best_config.points)

    def test_seed_validation(self):
        square = Configuration(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), 4.0
        )
        with pytest.raises(ValueError, match="p = 4"):
            minimize_ratio(2, 10, [Configuration(square.points, 2.0)], 0)
        with pytest.raises(ValueError, match="each seed must be 5 points in R\\^3 with p = 4, "
                                             "got 4 points in R\\^2 with p = 4.0"):
            minimize_ratio(3, 10, [square], 0)
        with pytest.raises(ValueError, match="empty"):
            minimize_ratio(2, 10, [], 0)
        for seeds in ("car", 5, None):
            with pytest.raises(ValueError, match="seeds must be 'auto' or a list of Configurations"):
                minimize_ratio(2, 10, seeds, 0)
        with pytest.raises(ValueError, match="each seed must be 4 points in R\\^2 with p = 4, "
                                             "got ndarray"):
            minimize_ratio(2, 10, [np.zeros((4, 2))], 0)

    def test_seed_with_an_underflowing_pair_is_not_a_duplicate(self):
        # distinct points whose scaled fourth-power distance underflows to 0,
        # and a normal smallest sum whose ratio to the largest overflows
        for pts in ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1e-100]],
                    [[-0.99, -0.99], [0.99, 0.99], [0.0, 0.0], [0.0, 1.8e-77]]):
            with pytest.raises(ValueError, match="too large to search"):
                minimize_ratio(2, 10, [Configuration(np.array(pts), 4.0)], 0)

    def test_seed_with_equal_points_names_them(self):
        seed = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), 4.0)
        with pytest.raises(ValueError, match=r"duplicate points at indices \(2, 3\)"):
            minimize_ratio(2, 10, [seed], 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            minimize_ratio(1, 10, "auto", 0)
        with pytest.raises(ValueError):
            minimize_ratio(2, 0, "auto", 0)

    def test_budget_above_the_cap_is_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a refused budget starts no search")

        monkeypatch.setattr(lp_extremal.search, "build_configuration", no_work)
        monkeypatch.setattr(lp_extremal.search, "_run_restart", no_work)
        for budget, message in ((MAX_BUDGET + 1, f"budget must be <= {MAX_BUDGET}"),
                                (10 ** 400, "budget is too large for a float")):
            with pytest.raises(ValueError, match=message):
                minimize_ratio(2, budget, "auto", 0)

    def test_integer_arguments_follow_one_rule(self):
        base = minimize_ratio(3, 50, "auto", 0)
        res = minimize_ratio(np.int64(3), np.int64(50), "auto", 0)
        assert res.best_ratio == base.best_ratio and res.evaluations == 50
        assert np.array_equal(res.best_config.points, base.best_config.points)
        assert minimize_ratio(3, 50, "auto", np.int64(0)).best_ratio == base.best_ratio
        for n, budget, seed in ((True, 50, 0), (3, True, 0), (3, 50.0, 0), ("3", 50, 0),
                                (3, 50, True), (3, 50, 2.7)):
            with pytest.raises(ValueError, match="must be an integer"):
                minimize_ratio(n, budget, "auto", seed)
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            minimize_ratio(3, 50, "auto", -1)
