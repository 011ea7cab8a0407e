"""
The explicit n+2 point configuration with small ratio
=====================================================

Two orthogonal blocks of permuted vectors give n+2 points in the
p = 4 space whose ratio is 1 + sqrt(2/n) + O(n^(-3/4)), matching the
lower bound to first order.  The block parameters (x, y) solve a
two-equation system whose roots this script inspects before building
the configurations themselves.
"""

import math

import numpy as np

from lp_extremal import (
    ConstructionSolution,
    build_configuration,
    ratio_report,
    schuette_bound,
    solve_alpha,
)

# k = 1 has a closed form: x = -1 - 8^(-1/4), y = 8^(-1/4)
sol = ConstructionSolution(1)
print(f"k=1: x = {sol.x!r} (closed form {-1.0 - 8.0 ** -0.25!r})")
print(f"     y = {sol.y!r} (closed form {8.0 ** -0.25!r})")

print()

# the auxiliary root alpha < 0 of f(t) = (2/k)^(1/4) feeds the construction
for k in (1, 2, 5, 20):
    print(f"k={k:<3d} alpha = {solve_alpha(k): .12f}")

print()

# roots approach simple power laws; the scaled gaps stay bounded
print("k        |x+k^-1/2-k^-3/4|*k   |y-k^-1/4+k^-3/4|*k   |alpha+...|*k")
for k in (10, 100, 1000, 10_000):
    g = ConstructionSolution(k).asymptotic_gaps()
    print(f"{k:<8d} {g['x']:<21.6f} {g['y']:<21.6f} {g['alpha']:.6f}")

print()

# built configurations: exactly two distances, ratio close to the bound
print("n    points  ratio            bound            excess")
for n in (2, 3, 8, 9, 32, 33, 128):
    built = build_configuration(n)
    rep = ratio_report(built.config)
    bound = schuette_bound(n, 4)
    assert abs(rep.ratio - built.expected_ratio) <= 1e-9 * built.expected_ratio
    print(f"{n:<4d} {built.config.size:<7d} {rep.ratio:.12f}   {bound:.12f}   {rep.ratio - bound:.3e}")

print()

# the engineered coincidence: within-block and cross-block distances
built = build_configuration(6)
pts = built.config.points
diffs = pts[:, None, :] - pts[None, :, :]
d4 = ((diffs * diffs) ** 2).sum(axis=-1)
dists = np.unique(np.round(d4[np.triu_indices(8, 1)] ** 0.25, 9))
print(f"n=6 distinct distances: {dists}")
print(f"larger one is 2^(1/4) = {2.0 ** 0.25:.9f}")

# first-order sharpness: ratio - 1 - sqrt(2/n) shrinks like n^(-3/4)
print()
for n in (16, 64, 256, 1024):
    excess = build_configuration(n).expected_ratio - 1.0 - math.sqrt(2.0 / n)
    print(f"n={n:<5d} (ratio - 1 - sqrt(2/n)) * n^(3/4) = {excess * n ** 0.75:.6f}")
