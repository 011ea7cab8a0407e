"""
Probing sharpness by direct search
==================================

Is the lower bound for n+2 points attainable?  At n = 2 the unit
square shows it is.  This script lets a seeded annealing search try
to push the ratio down for several n and compares what it finds with
the bound and with the explicit construction.
"""

from lp_extremal import (
    build_configuration,
    minimize_ratio,
    ratio_report,
    schuette_bound,
)

# n = 2: the search should land essentially on the square's ratio
res = minimize_ratio(2, budget=10_000, rng_seed=0)
print(f"n=2: best ratio {res.best_ratio!r}")
print(f"     bound      {res.bound!r}")
print(f"     gap        {res.gap:.3e}")
print(f"     ({res.restarts} restarts, {res.evaluations} evaluations)")

print()

# the best four points, normalized to minimum distance 1
for row in res.best_config.points:
    print("    " + "  ".join(f"{c: .6f}" for c in row))

print()

# larger n: no set at the bound is known here for n = 3, 4, 5 (at n = 6 a
# 0/1 Hadamard set attains it; see the README), so the search gap is the
# interesting number
print("n    bound            search best      construction     search gap")
for n in (3, 4, 5):
    res = minimize_ratio(n, budget=6000, rng_seed=1)
    built = ratio_report(build_configuration(n).config).ratio
    print(
        f"{n:<4d} {res.bound:.12f}   {res.best_ratio:.12f}   {built:.12f}"
        f"   {res.gap:.3e}"
    )

print()

# more budget never hurts: the reported minimum is monotone
print("n=3, seed 2:")
for budget in (1000, 4000, 16_000):
    res = minimize_ratio(3, budget=budget, rng_seed=2)
    print(f"  budget {budget:<6d} best {res.best_ratio!r}")
