"""Derivative-free search for (n+2)-point sets with small 4-norm ratio.

Probes how close the explicit construction sits to the proven lower
bound.  The objective (max over min pairwise distance) is non-smooth
at active-pair switches, so the walk is a restarted, annealing-style
single-point Gaussian perturbation: within each fixed-length cycle an
exploration phase (Metropolis acceptance, slowly shrinking step) hands
over to a greedy polish phase (fast-shrinking step), and the next
cycle reheats from the best configuration seen.  All schedule state is
keyed to the absolute evaluation index, so a longer budget replays the
same walk prefix and the result can only improve.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from lp_extremal.bounds import schuette_bound
from lp_extremal.construct import build_configuration
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import (
    Configuration, _check_int, _pair_power_scan, _pair_sums, ratio_report
)

__all__ = ["SearchResult", "minimize_ratio"]

CYCLE_LEN = 2500
EXPLORE_LEN = 1500
EXPLORE_DECAY_PERIOD = 30
POLISH_DECAY_PERIOD = 8
STEP_DECAY = 0.95
STEP_FLOOR = 1e-8
TEMPERATURE_FACTOR = 0.2
AUTO_RANDOM_RESTARTS = 3


@dataclass(frozen=True)
class SearchResult:
    """Best configuration found, with the proven bound for context.

    best_ratio is ratio_report(best_config).ratio verbatim, so
    re-evaluating reproduces it exactly; gap = best_ratio - bound
    can approach 0 but a negative value beyond rounding would mean an
    evaluation bug, not a disproof.
    """

    best_config: Configuration
    best_ratio: float
    bound: float
    gap: float
    restarts: int
    evaluations: int
    rng_seed: int

    def to_dict(self) -> dict:
        return {
            "best_config": self.best_config.to_dict(),
            "best_ratio": self.best_ratio,
            "bound": self.bound,
            "gap": self.gap,
            "restarts": self.restarts,
            "evaluations": self.evaluations,
            "rng_seed": self.rng_seed,
        }


def _normalize(pts: np.ndarray, min_dist: float) -> np.ndarray:
    """Translate the centroid to the origin and scale min distance to 1."""
    return (pts - pts.mean(axis=0)) / min_dist


def _step_size(step0: float, index_in_cycle: int) -> float:
    if index_in_cycle < EXPLORE_LEN:
        decays = index_in_cycle // EXPLORE_DECAY_PERIOD
    else:
        decays = (index_in_cycle - EXPLORE_LEN) // POLISH_DECAY_PERIOD
    return max(step0 * STEP_DECAY ** decays, STEP_FLOOR)


def _run_restart(seed_pts: np.ndarray, evals: int, rng: np.random.Generator):
    """Walk one restart; returns (best_public_ratio, best_points).

    Tracking is two-tier: the fast fourth-power scan drives acceptance,
    and whenever it records a new low the compensated public evaluator
    prices the candidate.  The reported minimum therefore ranges over a
    set that only grows with the budget, which makes the result
    monotone in the budget by construction.
    """
    m, n = seed_pts.shape
    # the ratio is scale-free; the scan's power of two keeps the seed exact
    # and its fourth powers inside the float range, and it names duplicates
    s4, seed_pts, _ = _pair_power_scan(seed_pts, 4.0)
    mx, mn = float(s4.max()), float(s4.min())
    if mn < n * sys.float_info.min or not math.isfinite(mx / mn):
        raise ValueError("seed configuration's distance ratio is too large to search")
    current = _normalize(seed_pts, mn ** 0.25)
    current_obj = (mx / mn) ** 0.25
    fast_best_obj = current_obj
    fast_best_pts = current
    public_best_pts = current
    public_best = ratio_report(Configuration(current, 4.0)).ratio
    # max pairwise distance of the normalized seed is its diameter
    step0 = 0.1 * current_obj

    for j in range(evals):
        jc = j % CYCLE_LEN
        if jc == 0 and j > 0:
            current = fast_best_pts
            current_obj = fast_best_obj
        step = _step_size(step0, jc)
        idx = int(rng.integers(m))
        kick = rng.normal(size=n)
        coin = rng.random()
        cand = current.copy()
        cand[idx] += step * kick
        s4 = _pair_sums(cand, 4.0)
        cmx, cmn = float(s4.max()), float(s4.min())
        if cmn <= 0.0:
            continue  # coincident points: infinite ratio, never accepted
        cand_obj = (cmx / cmn) ** 0.25
        cand = _normalize(cand, cmn ** 0.25)
        delta = cand_obj - current_obj
        exploring = jc < EXPLORE_LEN
        accept = delta <= 0.0 or (
            exploring and coin < math.exp(-delta / (TEMPERATURE_FACTOR * step))
        )
        if not accept:
            continue
        current = cand
        current_obj = cand_obj
        if cand_obj < fast_best_obj:
            fast_best_obj = cand_obj
            fast_best_pts = cand
            public = ratio_report(Configuration(cand, 4.0)).ratio
            if public < public_best:
                public_best = public
                public_best_pts = cand
    return public_best, public_best_pts


def minimize_ratio(n, budget, seeds="auto", rng_seed=0) -> SearchResult:
    """Minimize the 4-norm distance ratio over n+2 points in R^n.

    seeds="auto" starts one restart from the explicit construction and
    three from uniform random configurations in [-1, 1]^n; an explicit
    list of Configurations overrides the restart set.  The budget is
    split evenly across restarts (remainder to the earlier ones) and
    counts candidate evaluations.  Deterministic for fixed inputs: each
    restart owns a child generator spawned from rng_seed, the restarts
    run in index order, and they combine by (ratio, restart index).
    """
    n = _check_int(n, "n", 2)
    budget = _check_int(budget, "budget", 1)
    rng_seed = _check_int(rng_seed, "rng_seed", 0)

    ss = np.random.SeedSequence(rng_seed)
    if isinstance(seeds, str):
        if seeds != "auto":
            raise ValueError(f"seeds must be 'auto' or a list of Configurations, got {seeds!r}")
        children = ss.spawn(1 + AUTO_RANDOM_RESTARTS + 1)
        seeder = np.random.default_rng(children[0])
        seed_arrays = [build_configuration(n).config.points]
        seed_arrays += [
            seeder.uniform(-1.0, 1.0, size=(n + 2, n)) for _ in range(AUTO_RANDOM_RESTARTS)
        ]
        walk_keys = children[1:]
    else:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("explicit seed list is empty")
        for cfg in seeds:
            if not isinstance(cfg, Configuration):
                raise ValueError("explicit seeds must be Configuration objects")
            if cfg.p != 4.0:
                raise ValueError(f"search is specific to p = 4, got p = {cfg.p}")
            if cfg.points.shape != (n + 2, n):
                raise ValueError(
                    f"seed shape {cfg.points.shape} does not match (n+2, n) = {(n + 2, n)}"
                )
        children = ss.spawn(1 + len(seeds))
        seed_arrays = [cfg.points for cfg in seeds]
        walk_keys = children[1:]

    restarts = len(seed_arrays)
    base, extra = divmod(budget, restarts)
    allocs = [base + (1 if r < extra else 0) for r in range(restarts)]
    outcomes = [
        _run_restart(seed_arrays[r], allocs[r], np.random.default_rng(walk_keys[r]))
        for r in range(restarts)
        if allocs[r] > 0
    ]
    # min keeps the first of equal ratios: ties go to the lowest restart index
    best_ratio, best_pts = min(outcomes, key=lambda o: o[0])
    bound = schuette_bound(n, 4)
    if best_ratio < bound - 1e-9:
        raise NumericalBreakdown(
            "search best ratio fell below the proven bound; the evaluator is buggy",
            diagnostics={"best_ratio": best_ratio, "bound": bound, "n": n},
        )
    return SearchResult(
        best_config=Configuration(best_pts, 4.0),
        best_ratio=best_ratio,
        bound=bound,
        gap=best_ratio - bound,
        restarts=restarts,
        evaluations=sum(allocs),
        rng_seed=rng_seed,
    )
