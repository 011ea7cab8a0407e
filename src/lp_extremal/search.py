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
from dataclasses import dataclass, field

import numpy as np

from lp_extremal.bounds import schuette_bound
from lp_extremal.construct import build_configuration
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import (
    Configuration, _assign, _check_instance, _check_int, _pair_power_scan, _pair_sums, ratio_report
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

#: Largest evaluation budget one search takes.
MAX_BUDGET = 1_000_000


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best configuration found, with the proven bound for context.

    best_config holds n+2 points in R^n under the 4-norm.  Computed from
    it: best_ratio = ratio_report(best_config).ratio, bound =
    schuette_bound(n, 4), and gap = best_ratio - bound, which can approach
    0; a best_ratio below bound - 1e-9 is an evaluation bug, not a disproof,
    and raises NumericalBreakdown.  restarts counts the restarts the budget gave an evaluation.
    """

    best_config: Configuration
    best_ratio: float = field(init=False)
    bound: float = field(init=False)
    gap: float = field(init=False)
    restarts: int
    evaluations: int
    rng_seed: int

    def __post_init__(self):
        _assign(self, restarts=_check_int(self.restarts, "restarts", 1),
                evaluations=_check_int(self.evaluations, "evaluations", 1),
                rng_seed=_check_int(self.rng_seed, "rng_seed", 0))
        n = _check_instance(self.best_config, "best_config")
        best_ratio = ratio_report(self.best_config).ratio
        bound = schuette_bound(n, 4)
        if best_ratio < bound - 1e-9:
            raise NumericalBreakdown(
                "search best ratio fell below the proven bound; the evaluator is buggy",
                diagnostics={"best_ratio": best_ratio, "bound": bound, "n": n},
            )
        _assign(self, best_ratio=best_ratio, bound=bound, gap=best_ratio - bound)

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
    return (pts - np.add.reduce(pts, axis=0) / pts.shape[0]) / min_dist


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
    s4, seed_pts, _, low, _ = _pair_power_scan(seed_pts, 4.0)
    mx, mn = float(s4.max()), float(s4.min())
    if low.size or not math.isfinite(mx / mn):
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
        delta = cand_obj - current_obj
        exploring = jc < EXPLORE_LEN
        accept = delta <= 0.0 or (
            exploring and coin < math.exp(-delta / (TEMPERATURE_FACTOR * step))
        )
        if not accept:
            continue
        current = _normalize(cand, cmn ** 0.25)
        current_obj = cand_obj
        if cand_obj < fast_best_obj:
            fast_best_obj = cand_obj
            fast_best_pts = current
            public = ratio_report(Configuration(current, 4.0)).ratio
            if public < public_best:
                public_best = public
                public_best_pts = current
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
    if budget > MAX_BUDGET:
        raise ValueError(f"budget must be <= {MAX_BUDGET}")
    rng_seed = _check_int(rng_seed, "rng_seed", 0)

    ss = np.random.SeedSequence(rng_seed)
    seeder = np.random.default_rng(ss.spawn(1)[0])
    if isinstance(seeds, str) and seeds == "auto":
        seed_arrays = [build_configuration(n).config.points]
        seed_arrays += [
            seeder.uniform(-1.0, 1.0, size=(n + 2, n)) for _ in range(AUTO_RANDOM_RESTARTS)
        ]
    elif isinstance(seeds, str) or not hasattr(seeds, "__iter__"):
        raise ValueError(f"seeds must be 'auto' or a list of Configurations, got {seeds!r}")
    else:
        seeds = list(seeds)
        if not seeds:
            raise ValueError("explicit seed list is empty")
        for cfg in seeds:
            _check_instance(cfg, "each seed", n)
        seed_arrays = [cfg.points for cfg in seeds]
    walk_keys = ss.spawn(len(seed_arrays))

    restarts = len(seed_arrays)
    base, extra = divmod(budget, restarts)
    allocs = [base + (1 if r < extra else 0) for r in range(restarts)]
    outcomes = [
        _run_restart(seed_arrays[r], allocs[r], np.random.default_rng(walk_keys[r]))
        for r in range(restarts)
        if allocs[r] > 0
    ]
    # min keeps the first of equal ratios: ties go to the lowest restart index
    best_pts = min(outcomes, key=lambda o: o[0])[1]
    return SearchResult(
        best_config=Configuration(best_pts, 4.0),
        restarts=len(outcomes),
        evaluations=sum(allocs),
        rng_seed=rng_seed,
    )
