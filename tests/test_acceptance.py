"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each check prints exactly one `criterion N [PASS|FAIL]` summary line
(shown with pytest -s, or in captured output on failure) and then
asserts, so a red line always corresponds to a red test.  Tolerances
and runtime limits are fixed here on purpose; loosening them is a
behavior change, not a test fix.
"""

import math
import time
from fractions import Fraction

import numpy as np

from lp_extremal import (
    Configuration,
    ConstructionSolution,
    audit_chain,
    build_configuration,
    certificate_bound,
    epsilon_threshold,
    minimize_ratio,
    norm_equivalence_factor,
    p_norm,
    radon_partition,
    ratio_report,
    schuette_bound,
)

FOURTH_ROOT_2 = 2.0 ** 0.25


def report(num, failures, detail, elapsed):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:2d} [{status}] {detail} ({elapsed:.2f} s)"
    print(line, flush=True)
    assert not failures, line + " :: " + "; ".join(failures[:5])


def bounded_and_non_exploding(series, cap):
    """Bounded by cap everywhere; the tail does not grow past the head."""
    return max(series) <= cap and series[-1] <= max(series[0], 1.0) + 1.0


def test_criterion_01_closed_form_bounds():
    t0 = time.perf_counter()
    failures = []
    cases = [
        ("schuette(2,4)", schuette_bound(2, 4), FOURTH_ROOT_2),
        ("schuette(3,4)", schuette_bound(3, 4), (12.0 / 7.0) ** 0.25),
        ("schuette(2,2)", schuette_bound(2, 2), math.sqrt(2.0)),
        ("epsilon(2,4)", epsilon_threshold(2, 4), 2.0),
        ("epsilon(2,2)", epsilon_threshold(2, 2), 1.0),
    ]
    for name, got, want in cases:
        if abs(got - want) > 1e-12:
            failures.append(f"{name} = {got!r}, want {want!r}")
    elapsed = time.perf_counter() - t0
    report(1, failures, "closed-form bounds and thresholds at 1e-12", elapsed)


def test_criterion_02_unit_square_sharpness():
    t0 = time.perf_counter()
    failures = []
    square = Configuration(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), 4.0
    )
    rep = ratio_report(square)
    if abs(rep.ratio - FOURTH_ROOT_2) > 1e-12:
        failures.append(f"ratio {rep.ratio!r} != 2^(1/4)")
    if abs(rep.ratio - schuette_bound(2, 4)) > 1e-12:
        failures.append("ratio does not meet the n=2 bound")
    cert = radon_partition(square.points)
    if abs(cert.certificate - 2.0) > 1e-12:
        failures.append(f"certificate {cert.certificate!r} != 2")
    audit = audit_chain(square, cert)
    for rec in audit.records():
        if abs(rec.margin) > 1e-12:
            failures.append(f"{rec.name} slack {rec.margin!r} != 0")
    if abs(audit.square_slack) > 1e-12:
        failures.append(f"square slack {audit.square_slack!r} != 0")
    if not audit.all_hold():
        failures.append("chain audit failed")
    elapsed = time.perf_counter() - t0
    report(2, failures, "unit square: tight ratio, certificate 2, zero slack", elapsed)


def test_criterion_03_construction_correctness():
    t0 = time.perf_counter()
    failures = []
    for k in range(1, 65):
        sol = ConstructionSolution(k)
        if max(sol.residual1, sol.residual2) > 1e-10:
            failures.append(f"k={k}: residuals {sol.residual1:.2e}/{sol.residual2:.2e}")
        built = build_configuration(2 * k)
        pts = built.config.points
        diffs = pts[:, None, :] - pts[None, :, :]
        sq = diffs * diffs
        d4 = (sq * sq).sum(axis=-1)
        iu = np.triu_indices(pts.shape[0], 1)
        dists = d4[iu] ** 0.25
        lo, hi = float(dists.min()), float(dists.max())
        if hi - lo <= 1e-9 * hi:
            failures.append(f"k={k}: distances collapse to one value")
        split = math.sqrt(lo * hi)
        near_lo = dists[dists <= split]
        near_hi = dists[dists > split]
        two_values = np.all(np.abs(near_lo - lo) <= 1e-9 * lo) and np.all(
            np.abs(near_hi - hi) <= 1e-9 * hi
        )
        if not two_values:
            failures.append(f"k={k}: more than two distinct distances")
        if abs(hi - FOURTH_ROOT_2) > 1e-9 * FOURTH_ROOT_2:
            failures.append(f"k={k}: larger distance {hi!r} != 2^(1/4)")
        expected = 1.0 / (k ** 0.25 * sol.y)
        if abs(hi / lo - expected) > 1e-9 * expected:
            failures.append(f"k={k}: ratio {hi / lo!r} != {expected!r}")
    sol1 = ConstructionSolution(1)
    x_closed = -1.0 - 8.0 ** -0.25
    y_closed = 8.0 ** -0.25
    if abs(sol1.x - x_closed) > 1e-12 or abs(sol1.y - y_closed) > 1e-12:
        failures.append(f"k=1 closed form: ({sol1.x!r}, {sol1.y!r})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    report(3, failures, "k=1..64 systems, two-distance configurations, ratios", elapsed)


def test_criterion_04_root_asymptotics():
    t0 = time.perf_counter()
    failures = []
    grid = (100, 1000, 10_000, 100_000)
    gaps = {"x": [], "y": [], "alpha": []}
    for k in grid:
        for name, value in ConstructionSolution(k).asymptotic_gaps().items():
            gaps[name].append(value)
    for name, series in gaps.items():
        if not bounded_and_non_exploding(series, 10.0):
            failures.append(f"{name} gaps {series}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    report(4, failures, "scaled root asymptotics bounded by 10 over k=1e2..1e5", elapsed)


def test_criterion_05_ratio_envelope():
    t0 = time.perf_counter()
    failures = []
    for grid in ((4, 16, 64, 256, 1024, 4096), (5, 17, 65, 257)):
        series = []
        for n in grid:
            ratio = build_configuration(n).expected_ratio
            series.append(abs(ratio - 1.0 - math.sqrt(2.0 / n)) * n ** 0.75)
        if not bounded_and_non_exploding(series, 10.0):
            failures.append(f"envelope over {grid}: {series}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s >= 5 s")
    report(5, failures, "ratio envelope |r - 1 - sqrt(2/n)|*n^(3/4) <= 10", elapsed)


def test_criterion_06_certificate_soundness():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260814)
    checked = 0
    for n in range(2, 7):
        bound4 = schuette_bound(n, 4) ** 4
        for trial in range(1000):
            pts = rng.standard_normal((n + 2, n))
            mode = trial % 4
            if mode == 1:
                pts *= 10.0 ** rng.uniform(-3, 3)
            elif mode == 2:
                pts[rng.integers(n + 2)] *= 1e-3
            elif mode == 3:
                pts += rng.standard_normal(n) * 5.0
            config = Configuration(pts, 4.0)
            cert = radon_partition(pts)
            cb = certificate_bound(cert)
            ratio4 = ratio_report(config).ratio ** 4
            audit = audit_chain(config, cert)
            checked += 1
            if ratio4 < cb * (1.0 - 1e-9):
                failures.append(f"n={n} trial={trial}: ratio^4 {ratio4!r} < cert {cb!r}")
            if cb < bound4 * (1.0 - 1e-9):
                failures.append(f"n={n} trial={trial}: cert {cb!r} < bound^4 {bound4!r}")
            if not audit.all_hold():
                failures.append(f"n={n} trial={trial}: chain inequality violated")
            if failures:
                break
        if failures:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f} s >= 30 s")
    report(6, failures, f"certificate sandwich + chain on {checked} fuzzed configs", elapsed)


def test_criterion_07_split_minimum_identity():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for n in range(2, 10_001):
        K = np.arange(1.0, n + 2)
        vals = 2.0 / (2.0 - 1.0 / K - 1.0 / (n + 2 - K))
        target = schuette_bound(n, 4) ** 4
        rel = abs(float(vals.min()) - target) / target
        worst = max(worst, rel)
        if rel > 1e-12:
            failures.append(f"n={n}: min split {vals.min()!r} vs {target!r}")
            break
    for n in range(2, 257):
        best = min(
            Fraction(2, 1) / (2 - Fraction(1, K) - Fraction(1, n + 2 - K))
            for K in range(1, n + 2)
        )
        case = 1 + Fraction(2, n) if n % 2 == 0 else 1 + 2 / (n - Fraction(1, n + 2))
        if best != case:
            failures.append(f"n={n}: exact split minimum {best} != {case}")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s >= 1 s")
    report(7, failures, f"split minimum identity to n=1e4 (worst rel {worst:.1e})", elapsed)


def test_criterion_08_threshold_asymptote():
    t0 = time.perf_counter()
    failures = []
    n = 10 ** 6
    value = epsilon_threshold(n, 4) * n * math.log(n)
    if abs(value - 8.0) > 0.08:
        failures.append(f"epsilon(1e6,4)*n*ln(n) = {value!r}, want 8 within 1%")
    elapsed = time.perf_counter() - t0
    report(8, failures, f"threshold asymptote 8/(n ln n) (got {value:.4f})", elapsed)


def test_criterion_09_search_sanity():
    t0 = time.perf_counter()
    failures = []
    res1 = minimize_ratio(2, 10_000, rng_seed=0)
    res2 = minimize_ratio(2, 10_000, rng_seed=0)
    if res1.best_ratio > FOURTH_ROOT_2 + 1e-3:
        failures.append(f"best {res1.best_ratio!r} misses 2^(1/4) by > 1e-3")
    if res1.best_ratio < FOURTH_ROOT_2 - 1e-9:
        failures.append(f"best {res1.best_ratio!r} dips below the proven bound")
    if res1.to_dict() != res2.to_dict():
        failures.append("identical seeds produced different results")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f} s >= 10 s")
    report(9, failures, f"search reaches {res1.best_ratio:.9f}, reproducibly", elapsed)


def test_criterion_10_norm_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    for trial in range(100_000):
        n = int(rng.integers(1, 9))
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
        if rng.random() < 0.8:
            p = float(rng.uniform(1.0, 8.0))
        else:
            p = float(rng.choice([1.0, 2.0, 4.0, 6.0]))
        n4 = p_norm(v, 4.0)
        np_ = p_norm(v, p)
        factor = norm_equivalence_factor(n, p)
        lo, hi = (n4, np_) if p <= 4.0 else (np_, n4)
        if lo > hi * (1.0 + 1e-12):
            failures.append(f"trial={trial}: monotone side violated (p={p}, n={n})")
            break
        if hi > factor * lo * (1.0 + 1e-12):
            failures.append(f"trial={trial}: equivalence factor violated (p={p}, n={n})")
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s >= 5 s")
    report(10, failures, "two-sided 4-norm vs p-norm equivalence, 1e5 pairs", elapsed)
