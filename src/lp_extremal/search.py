"""Derivative-free search for (n+2)-point sets with small 4-norm ratio.

Probes how close the explicit construction sits to the proven lower
bound.  The objective (max over min pairwise distance) is non-smooth
at active-pair switches, so the walk is a restarted, annealing-style
single-point Gaussian perturbation: within each fixed-length cycle an
exploration phase (Metropolis acceptance, slowly shrinking step) hands
over to a greedy polish phase (fast-shrinking step), and the next
cycle reheats from the best configuration seen.  All schedule state is
keyed to the absolute evaluation index, so a longer budget replays the
same walk prefix and the result can only improve.  The restarts walk in
lockstep on their own streams, one pair-kernel call pricing a step of
several, and each fast low they keep is priced once, by its own result.
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

#: Largest number of pair differences (128 KiB) in one stacked kernel call of the walk:
#: 2^13 was 8-11 % slower at n = 16 and 24, 2^15 50 % at n = 24, and 2^16 2x at n = 32.
STACK_ELEMENTS = 1 << 14

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
    out = pts - np.add.reduce(pts, axis=0) / pts.shape[0]
    out /= min_dist
    return out


def _step_size(step0: float, index_in_cycle: int) -> float:
    if index_in_cycle < EXPLORE_LEN:
        decays = index_in_cycle // EXPLORE_DECAY_PERIOD
    else:
        decays = (index_in_cycle - EXPLORE_LEN) // POLISH_DECAY_PERIOD
    return max(step0 * STEP_DECAY ** decays, STEP_FLOOR)


def _walk(seed_arrays: list, evals: list, keys: list) -> list:
    """Walk the restarts in lockstep; returns their kept lows' points, by restart, oldest first.

    Restart r takes evals[r] >= 1 steps and draws from its own generator,
    spawned from keys[r], in the order a walk of its own would.  Each step
    stacks the candidates, and one :func:`_pair_sums` call prices a group of
    up to STACK_ELEMENTS pair differences, or one restart with more.

    Tracking is two-tier: the fast fourth-power scan drives acceptance and
    records lows, and the caller prices them with ratio_report after the
    walk.  A low is dropped only when its public ratio P provably exceeds
    a later low's.  With u = 2^-53, P is within e(F) = (n + 16 + 8 F n^(1/4)) u
    of the fast objective F, relatively and to first order: each fast sum
    rounds by about (n + 6) u, and F and P each take the fourth root of a
    ratio of two sums; _normalize rounds each coordinate twice, by up to
    2u F as each lies within the diameter F of the centroid, which moves
    the unit min distance by 4u F n^(1/4) and the max by as much; and
    ratio_report's pricing adds about 7u.  A low goes once a later low's
    F'(1 + 4e(F')) is below its F(1 - 4e(F)), so a restart keeps only the
    near ties of its fast best, which never rises (at most 3 in 311 searches tried).
    """
    m, n = seed_arrays[0].shape
    rngs = [np.random.default_rng(key) for key in keys]
    current = np.empty((len(seed_arrays), m, n))
    lows = []
    for r, seed in enumerate(seed_arrays):
        # the ratio is scale-free; the scan's power of two keeps the seed exact
        # and its fourth powers inside the float range, and it names duplicates
        s4, x, _, low, _ = _pair_power_scan(seed, 4.0)
        mx, mn = float(s4.max()), float(s4.min())
        if low.size or not math.isfinite(mx / mn):
            raise ValueError("seed configuration's distance ratio is too large to search")
        current[r] = pts = _normalize(x, mn ** 0.25)
        lows.append([((mx / mn) ** 0.25, pts)])
    objs = [kept[0][0] for kept in lows]
    best_objs, best_pts = objs.copy(), [kept[0][1] for kept in lows]
    # max pairwise distance of the normalized seed is its diameter
    step0s = [0.1 * obj for obj in objs]
    e0, e1 = 4.0 * (n + 16) * 2.0 ** -53, 32.0 * n ** 0.25 * 2.0 ** -53
    group = max(1, STACK_ELEMENTS // (m * (m - 1) // 2 * n))

    for j in range(evals[0]):
        live = sum(e > j for e in evals)
        jc = j % CYCLE_LEN
        if jc == 0 and j > 0:
            current[:live] = best_pts[:live]
            objs[:live] = best_objs[:live]
        exploring = jc < EXPLORE_LEN
        cand = current[:live].copy()
        steps = [_step_size(step0, jc) for step0 in step0s[:live]]
        coins = []
        for r, rng in enumerate(rngs[:live]):
            idx = int(rng.integers(m))
            cand[r, idx] += steps[r] * rng.normal(size=n)
            coins.append(rng.random())
        for g in range(0, live, group):
            s4 = _pair_sums(cand[g:g + group], 4.0)
            for r, cmx, cmn in zip(range(g, live), s4.max(-1).tolist(), s4.min(-1).tolist()):
                if cmn <= 0.0:
                    continue  # coincident points: infinite ratio, never accepted
                cand_obj = (cmx / cmn) ** 0.25
                delta = cand_obj - objs[r]
                if not (delta <= 0.0 or exploring and coins[r] < math.exp(
                        -delta / (TEMPERATURE_FACTOR * steps[r]))):
                    continue
                current[r] = pts = _normalize(cand[r], cmn ** 0.25)
                objs[r] = cand_obj
                if cand_obj < best_objs[r]:
                    best_objs[r], best_pts[r] = cand_obj, pts
                    top = cand_obj * (1.0 + e0 + e1 * cand_obj)
                    lows[r] = [low for low in lows[r] if low[0] * (1.0 - e0 - e1 * low[0]) <= top]
                    lows[r].append((cand_obj, pts))
    return [pts for kept in lows for _, pts in kept]


def minimize_ratio(n, budget, seeds="auto", rng_seed=0) -> SearchResult:
    """Minimize the 4-norm distance ratio over n+2 points in R^n.

    seeds="auto" starts one restart from the explicit construction and
    three from uniform random configurations in [-1, 1]^n; an explicit
    list of Configurations overrides the restart set.  The budget is
    split evenly across restarts (remainder to the earlier ones) and
    counts candidate evaluations.  Deterministic for fixed inputs: each
    restart owns a child generator spawned from rng_seed, the restarts
    run in lockstep, and they combine by (ratio, restart index).
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
    # allocations never grow with r, so the restarts with a step are a prefix
    walked = min(restarts, budget)
    lows = _walk(seed_arrays[:walked], allocs[:walked], walk_keys[:walked])
    # each low is priced once, by the SearchResult built for it; min keeps the first of equal
    # ratios, so ties go to the lowest restart index, then to the earliest low
    return min((SearchResult(Configuration(pts, 4.0), walked, budget, rng_seed) for pts in lows),
               key=lambda res: res.best_ratio)
