import collections
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lp_extremal
from lp_extremal.bounds import schuette_bound
from lp_extremal.construct import build_configuration
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import Configuration, _pair_sums, ratio_report
from lp_extremal.radon import audit_chain, radon_partition
from lp_extremal.search import MAX_BUDGET, SearchResult, _normalize, minimize_ratio

FOURTH_ROOT_2 = 2.0 ** 0.25

#: sha256 of json.dumps(minimize_ratio(n, budget, seeds, rng_seed).to_dict(), sort_keys=True)
#: as first pinned; "one" and "five" are explicit seed lists (see seed_list).  Budget 3
#: leaves a restart without a step, 201 and 503 split unevenly, 2501 crosses a cycle reheat,
#: and n = 16, 24 and 32 put 4, 2 and 1 restarts in each stacked kernel call.
SEARCH_BYTES = [
    (2, 200, "auto", 0,
     "f538a31e1aa7d51fcfb1e5f43403f2cde371cd8045b61c0cf96097ddc7d1de9a"),
    (2, 200, "auto", 1,
     "8d79adc95ecb111518c1bb0d5b7e8b9dace985c25930e58088f6af906224a681"),
    (2, 200, "auto", 2,
     "2caf9da46c1a212c87710d6f6253d07b4d55a9f06a1040636bea3d04d05b6657"),
    (3, 200, "auto", 0,
     "cd5542e451984d95ab6b7be5be52e35b8df1a6c824856270164089d3e454d2ea"),
    (3, 200, "auto", 1,
     "67ab44c9e8467925aaefb05f08631c20c172e69442fa82ea37ae1f6aff8d3c60"),
    (3, 200, "auto", 2,
     "7cff9080a210634322c4700b655ebca5312a63f4f614e43ac642900463e760d6"),
    (8, 200, "auto", 0,
     "a42ef0e02e68fedf39b8e2d3a2c114b948549c57a7156d75e83b798ec30ef327"),
    (8, 200, "auto", 1,
     "2b4aeeed91ed025798ecf67e0999e784bffc0075849ec8216ec556ecd4fd5e61"),
    (8, 200, "auto", 2,
     "7932a5a6e113172b97f4f145d74a34380b0f3ecd63e9967f506b2be59d025a1f"),
    (16, 100, "auto", 0,
     "2d1dac36e4be30acabbd943c042911e7272dddd36772fab51c0b02a0ae3c9e93"),
    (16, 100, "auto", 1,
     "3f2ea8f578cbc47a7b48c5164b529f7a571171bed215c0d3a7b205bf99c0953e"),
    (16, 100, "auto", 2,
     "1d9e6ac958c0f2c79d42f124946c53089c30bfc3f36af9a12d1d8d3732f7f94d"),
    (24, 80, "auto", 0,
     "9a47ebbd7e7c2d07ad1fa0a903a7b8185c7b8d69642705887d496cea5d3a07b3"),
    (24, 80, "auto", 1,
     "9d31b521384cc6e81f655c353c7473d0eacc4f7d2eb4d5c81a6f742c7a1e86b1"),
    (24, 80, "auto", 2,
     "c540d627d396cf63543b137bffe4f05005bc61164167fae276acbe8e8650393d"),
    (32, 40, "auto", 0,
     "fea97c7509cd53835f62b2d4fd8d7012a45265b6c3c84a45397ee3e569905087"),
    (32, 40, "auto", 1,
     "8a22851c73dfb56957608c2969fe212e04cbc0d1f3f977f438754fb76fe55edb"),
    (32, 40, "auto", 2,
     "c2e7517db05283db98192e7101f7f12fe023247c8fb35054edd2bd9ebfda3612"),
    (64, 40, "auto", 0,
     "584b6d2c12e85161ece68097deb8114e291d4a8562df9b825f6b9cfd6bf6d430"),
    (64, 40, "auto", 1,
     "fe691c625fbdfa7dd52783eced1bcfa3d064bbc37690a6df7b6b23e5771dbb6d"),
    (64, 40, "auto", 2,
     "39c1ab30b5b7eba9987fea53a702fd680b105a7d2a942cb9f391155509311c72"),
    (2, 3, "auto", 0,
     "52d98295dc9013469e23a3d7cb7424d87d14e3e790557370ce50aea27e23e3b0"),
    (8, 3, "auto", 1,
     "870f1d60ed38f4c7b4781d1817a552f08f09103ac4a7830c25905c8a7e7ad758"),
    (3, 201, "auto", 4,
     "3aa174fb5ec74fa8dca78e93cd4fbb878d5d2be7ad45ea7380a2da5c17611558"),
    (16, 201, "auto", 2,
     "06f1aa340b83aca7dc58c3b4702b0f7443da454f91615243b2e36d1a22419880"),
    (2, 2501, "one", 0,
     "977a1a5f8565932506796bd253fa553fa9a681324927492ffc1803b620e0b931"),
    (8, 2501, "one", 1,
     "fa79450413ed21ca0df598e60c7133c994876f6a442d4eaf12330d816a1c8e77"),
    (3, 10, "one", 2,
     "667bd759eef2cf0623e6a5bb87b4d3652f05f99c1a74fb0eb89b83fadc0b3719"),
    (4, 503, "five", 3,
     "bfdc0e447ddc6118ceab826ea9dca9647c216628eb8579bc98a57b886d33a2d0"),
    (24, 37, "five", 1,
     "42e92d97d9f58b84cbaab1a2d705aa3d2cb44a7687f10838ef43af0d41f6a649"),
]


def seed_list(kind, n):
    """"auto", or the construction followed by uniform random sets: 1 seed or 5."""
    if kind == "auto":
        return kind
    rng = np.random.default_rng(n)
    return [build_configuration(n).config] + [
        Configuration(rng.uniform(-1.0, 1.0, (n + 2, n)), 4.0) for _ in range(4 if kind == "five" else 0)
    ]


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

    @pytest.mark.parametrize("n, budget, kind, seed, digest", SEARCH_BYTES)
    def test_result_bytes_are_pinned(self, n, budget, kind, seed, digest):
        res = minimize_ratio(n, budget, seed_list(kind, n), seed)
        payload = json.dumps(res.to_dict(), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_one_kernel_call_per_step_and_one_pricing_per_restart(self, monkeypatch):
        calls = collections.Counter()

        def counted(name):
            fn = getattr(lp_extremal.search, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(lp_extremal.search, name, wrapper)

        counted("_pair_sums")
        counted("ratio_report")
        res = minimize_ratio(8, 200, "auto", 7)
        # 4 restarts of 50 steps share one kernel call a step.  This search keeps no
        # near tie, so each restart prices one low, in the SearchResult built for it
        assert res.restarts == 4
        assert calls == {"_pair_sums": 50, "ratio_report": res.restarts}

    @pytest.mark.parametrize("n, budget, seed", [(2, 200, 9), (3, 400, 2)])
    def test_each_kept_low_is_priced_once(self, n, budget, seed, monkeypatch):
        # both searches keep a near tie, so some restart hands back two lows
        walk, pricing, kept, priced = lp_extremal.search._walk, lp_extremal.search.ratio_report, [], []

        def walked(*args):
            kept.extend(walk(*args))
            return kept

        def counted(config):
            priced.append(config)
            return pricing(config)

        monkeypatch.setattr(lp_extremal.search, "_walk", walked)
        monkeypatch.setattr(lp_extremal.search, "ratio_report", counted)
        res = minimize_ratio(n, budget, "auto", seed)
        assert len(kept) > res.restarts
        assert len(priced) == len(kept)

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
        monkeypatch.setattr(lp_extremal.search, "_pair_sums",
                            lambda x, p: np.tile([0.0, 1.0], (len(x), 1)))
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


class TestLazyPricing:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(-20, 20),
           offset=st.floats(-1e4, 1e4), gap=st.one_of(st.none(), st.floats(-7.0, -1.0)))
    @example(n=8, seed=1, scale=0, offset=0.0, gap=-6.0)
    @example(n=64, seed=2, scale=3, offset=1e4, gap=-5.0)
    def test_public_ratio_is_within_the_margin_of_the_fast_one(self, n, seed, scale, offset, gap):
        rng = np.random.default_rng(seed)
        cand = np.ldexp(rng.uniform(-1.0, 1.0, (n + 2, n)), scale)
        if gap is not None:
            # a near-duplicate pair, 10^gap of the coordinate scale apart
            cand[1] = cand[0] + np.ldexp(10.0 ** gap * rng.normal(size=n), scale)
        cand += offset
        s4 = _pair_sums(cand, 4.0)
        cmx, cmn = float(s4.max()), float(s4.min())
        assume(cmn > 0.0)  # an offset's rounding can merge the near-duplicate pair
        fast = (cmx / cmn) ** 0.25
        public = ratio_report(Configuration(_normalize(cand, cmn ** 0.25), 4.0)).ratio
        bound = (n + 16 + 8 * fast * n ** 0.25) * 2.0 ** -53
        assert abs(public / fast - 1.0) <= bound, (fast, public / fast - 1.0, bound)


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
        monkeypatch.setattr(lp_extremal.search, "_walk", no_work)
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
