"""The benchmark's workloads: seeded inputs, timed items and correctness checks.

A workload turns a seed into a fixed batch of items (`prepare`, untimed),
runs one item against the lp_extremal package (`run`, timed) and checks the
item's outputs (`check`, untimed).  The package is passed in as `pkg`, so
a test can hand in a fake.  Every check failure is a string; an item with
any failure counts as failed.  `check` also returns the item's
deterministic payload, whose sha256 is the workload's payload digest.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

BOUND_SLACK = 1e-9        # ratio >= schuette_bound(n, 4) - BOUND_SLACK
CERT_REL_TOL = 1e-9       # certificate <= ratio^4 * (1 + CERT_REL_TOL)
RESIDUAL_TOL = 1e-10      # Radon weight residual <= RESIDUAL_TOL * max(1, scale)
REFERENCE_REL_TOL = 1e-9  # program ratios agree with the benchmark's own reference
PNORM_REL_TOL = 1e-12     # acceptance criterion 10's tolerance
PERTURBATION = 1e-3       # standard deviation of pipeline-large's perturbed input


class Record:
    """Outcome of one item: latency plus what the checks found."""

    __slots__ = ("latency", "failures", "payload", "evals", "gap", "bytes_written", "bytes_read")

    def __init__(self, failures=None, payload="", evals=0, gap=None,
                 bytes_written=0, bytes_read=0):
        self.latency = 0.0
        self.failures = list(failures or [])
        self.payload = payload
        self.evals = evals
        self.gap = gap
        self.bytes_written = bytes_written
        self.bytes_read = bytes_read


def canonical(obj) -> str:
    """Deterministic text of a JSON-like payload (floats keep all 17 digits)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_ratio4(points) -> float:
    """(max / min pairwise 4-norm distance)^4, computed without lp_extremal."""
    pts = np.asarray(points, dtype=float)
    hi, lo = 0.0, math.inf
    for i in range(pts.shape[0] - 1):
        d = pts[i + 1:] - pts[i]
        d *= d
        s = np.einsum("ij,ij->i", d, d)
        hi = max(hi, float(s.max()))
        lo = min(lo, float(s.min()))
    return hi / lo


def reference_p_norm(v, p) -> float:
    vmax = max(abs(x) for x in v)
    return vmax * math.fsum((abs(x) / vmax) ** p for x in v) ** (1.0 / p)


def run_cli(pkg, argv, tracer):
    """cli.main in-process with its stdout captured; returns (exit code, output)."""
    buf = io.StringIO()
    with tracer.span("cli." + argv[0]) as sp, contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(buf):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        sp.error = code != 0
    return code, buf.getvalue()


def check_search(pkg, res, n, budget, bound) -> Record:
    """Gate shared by both workloads that call minimize_ratio."""
    failures = []
    if res.best_ratio < bound - BOUND_SLACK:
        failures.append(f"search n={n}: best ratio {res.best_ratio!r} below bound {bound!r}")
    repriced = pkg.ratio_report(res.best_config).ratio
    if repriced != res.best_ratio:
        failures.append(f"search n={n}: ratio_report(best_config) {repriced!r} != {res.best_ratio!r}")
    if res.gap != res.best_ratio - bound:
        failures.append(f"search n={n}: gap {res.gap!r} != best_ratio - bound")
    if res.evaluations != budget:
        failures.append(f"search n={n}: {res.evaluations} evaluations for budget {budget}")
    if res.best_config.points.shape != (n + 2, n):
        failures.append(f"search n={n}: best_config shape {res.best_config.points.shape}")
    return Record(failures, canonical(res.to_dict()), evals=res.evaluations, gap=res.gap)


class PipelineLarge:
    """CLI certify, audit and check-equilateral on n = 384 configurations.

    The exact-tie item also runs construct, which writes its input.  Loads
    cli (argparse, JSON format/write/parse), lpgeom's pair scan and radon's
    elimination; bypasses search.  Inputs are the exact-tie construction, a
    seeded perturbation of it and a seeded uniform random set, so the Radon
    solve sees both structured and generic matrices.
    """

    name = "pipeline-large"
    setup_reps = 5

    def __init__(self, n=384):
        self.n = n

    def prepare(self, pkg, seed):
        rng = np.random.default_rng(seed)
        base = pkg.build_configuration(self.n).config.points
        inputs = {
            "exact": base,
            "perturbed": base + PERTURBATION * rng.standard_normal(base.shape),
            "random": rng.uniform(-1.0, 1.0, base.shape),
        }
        items = []
        for kind, pts in inputs.items():
            path = "construct.json" if kind == "exact" else f"{kind}.json"
            if kind != "exact":
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"p": 4.0, "points": pts.tolist()}, fh)
            items.append({"kind": kind, "file": path, "ratio4": reference_ratio4(pts),
                          "scale": float(np.max(np.abs(pts)))})
        self.bound = pkg.schuette_bound(self.n, 4)
        return items

    def warmup_item(self, items):
        return items[0]  # the exact tie: every CLI command, construct included

    def run(self, pkg, item, tracer):
        src = item["file"]
        commands = [
            ["certify", src, "--out", "certify.json"],
            ["audit", src, "--out", "audit.json"],
            ["check-equilateral", src, "--out", "check-equilateral.json"],
        ]
        if item["kind"] == "exact":  # the construction is written, then read back
            commands.insert(0, ["construct", "--n", str(self.n), "--out", src])
        return {argv[0]: run_cli(pkg, argv, tracer) for argv in commands}

    def check(self, pkg, item, codes):
        failures = [
            f"{cmd} exited {code}: {text.strip()[:300]}"
            for cmd, (code, text) in codes.items() if code != 0
        ]
        if failures:
            return Record(failures)
        docs = {}
        for cmd in codes:
            with open(f"{cmd}.json", encoding="utf-8") as fh:
                docs[cmd] = json.load(fh)
        written = sum(os.path.getsize(f"{cmd}.json") for cmd in codes)
        read = 3 * os.path.getsize(item["file"])  # certify, audit, check-equilateral
        n, ratio4 = self.n, item["ratio4"]
        cert = docs["certify"]["result"]["certificate"]
        audit = docs["audit"]["result"]
        equi = docs["check-equilateral"]["result"]
        lhs = audit["audit"]["ratio"]["lhs"]
        ratio = lhs ** 0.25
        checks = {
            "certificate <= ratio^4 (1 + 1e-9)": cert["certificate"] <= ratio4 * (1 + CERT_REL_TOL),
            "residual <= 1e-10 scale": cert["residual"] <= RESIDUAL_TOL * max(1.0, item["scale"]),
            "audit all_hold": audit["all_hold"] is True,
            "audit and certify agree": audit["certificate"] == cert,
            "audit ratio^4 matches reference": abs(lhs - ratio4) <= REFERENCE_REL_TOL * ratio4,
            "ratio >= bound - 1e-9": ratio >= self.bound - BOUND_SLACK,
            "check-equilateral says no": equi["equilateral"] is False,
            "check-equilateral reports the n+1 cap": equi["cardinality_cap"] == n + 1,
        }
        if "construct" in docs:
            built = docs["construct"]["result"]
            achieved4 = built["diagnostics"]["achieved_ratio"] ** 4
            checks["construct has n+2 points"] = len(built["points"]) == n + 2
            checks["construct achieved ratio matches reference"] = (
                abs(achieved4 - ratio4) <= REFERENCE_REL_TOL * ratio4)
        failures = [f"{item['kind']}: {name}" for name, ok in checks.items() if not ok]
        for doc in docs.values():
            doc["manifest"].pop("timestamp", None)
        return Record(failures, canonical(docs), evals=len(codes) - 1, gap=ratio - self.bound,
                      bytes_written=written, bytes_read=read)


class SearchAnneal:
    """minimize_ratio(32, budget, "auto", seed) for several seeds.

    Loads search's annealer (its m x m x n pair tensor per evaluation) and
    its thread pool under the default thread policy; bypasses cli and radon.
    """

    name = "search-anneal"
    setup_reps = 5

    def __init__(self, n=32, budget=1000, searches=4):
        self.n = n
        self.budget = budget
        self.searches = searches

    def prepare(self, pkg, seed):
        self.bound = pkg.schuette_bound(self.n, 4)
        states = np.random.SeedSequence(seed).generate_state(self.searches)
        return [{"seed": int(s)} for s in states]

    def warmup_item(self, items):
        return items[0]

    def run(self, pkg, item, tracer):
        return pkg.minimize_ratio(self.n, self.budget, "auto", item["seed"])

    def check(self, pkg, item, res):
        return check_search(pkg, res, self.n, self.budget, self.bound)


class GateSmall:
    """Thousands of small instances modelled on acceptance criteria 3, 6, 9 and 10.

    Loads the same lpgeom, radon, construct, bounds and search layers as the
    large workloads, but at m <= 10 points, where per-call Python overhead
    dominates the O(n^3) work.
    """

    name = "gate-small"
    setup_reps = 40  # one set-up is mostly a ~35 ms import; many keep the median steady

    def __init__(self, configs=400, vectors=200, build_max=130,
                 searches=((8, 8), (2, 4)), budget=200):
        self.configs = configs
        self.vectors = vectors
        self.build_max = build_max
        self.searches = searches
        self.budget = budget

    def prepare(self, pkg, seed):
        rng = np.random.default_rng(seed)
        self.bounds = {n: pkg.schuette_bound(n, 4) for n in range(2, max(self.build_max, 8) + 1)}
        items = [{"kind": "bounds"}]
        items += [{"kind": "build", "n": n} for n in range(2, self.build_max + 1)]
        for i in range(self.configs):
            n = 2 + i % 7
            pts = rng.standard_normal((n + 2, n))
            mode = (i // 7) % 4
            if mode == 1:
                pts *= 10.0 ** rng.uniform(-3, 3)
            elif mode == 2:
                pts[rng.integers(n + 2)] *= 1e-3
            elif mode == 3:
                pts += rng.standard_normal(n) * 5.0
            items.append({"kind": "config", "n": n, "points": pts,
                          "ratio4": reference_ratio4(pts), "scale": float(np.max(np.abs(pts)))})
        for _ in range(self.vectors):
            k = int(rng.integers(1, 9))
            v = rng.standard_normal(k) * 10.0 ** rng.uniform(-2.0, 2.0)
            p = float(rng.uniform(1.0, 8.0)) if rng.random() < 0.8 else float(
                rng.choice([1.0, 2.0, 4.0, 6.0]))
            items.append({"kind": "p_norm", "v": v, "p": p,
                          "ref4": reference_p_norm(v, 4.0), "refp": reference_p_norm(v, p),
                          "factor": pkg.norm_equivalence_factor(k, p)})
        for n, count in self.searches:
            items += [{"kind": "search", "n": n, "seed": int(s)}
                      for s in rng.integers(0, 2 ** 31, size=count)]
        return items

    def warmup_item(self, items):
        # a fuzzed configuration goes through lpgeom, radon and the audit
        return next(item for item in items if item["kind"] == "config")

    def run(self, pkg, item, tracer):
        kind = item["kind"]
        if kind == "bounds":
            return pkg.bound_sweep(2, self.build_max, 4.0)
        if kind == "build":
            return pkg.build_configuration(item["n"])
        if kind == "config":
            config = pkg.Configuration(item["points"], 4.0)
            report = pkg.ratio_report(config)
            equilateral = pkg.is_equilateral(config)
            cert = pkg.radon_partition(item["points"])
            return report, equilateral, cert, pkg.audit_chain(config, cert)
        if kind == "p_norm":
            return pkg.p_norm(item["v"], 4.0), pkg.p_norm(item["v"], item["p"])
        return pkg.minimize_ratio(item["n"], self.budget, "auto", item["seed"])

    def check(self, pkg, item, out):
        return getattr(self, "_check_" + item["kind"])(pkg, item, out)

    def _check_bounds(self, pkg, item, table):
        failures = []
        rows = table.rows
        if [r.n for r in rows] != list(range(2, self.build_max + 1)):
            failures.append("bound_sweep rows do not cover 2..n_max")
        for r in rows:
            if r.n % 2 == 0 and abs(r.bound - math.exp(math.log1p(2.0 / r.n) / 4)) > 1e-12:
                failures.append(f"bound_sweep n={r.n}: {r.bound!r} misses (1+2/n)^(1/4)")
        if any(a.bound <= b.bound for a, b in zip(rows, rows[1:])):
            failures.append("bound_sweep bounds are not strictly decreasing")
        return Record(failures, canonical(table.to_dict()))

    def _check_build(self, pkg, item, built):
        n = item["n"]
        pts = built.config.points
        sols = [s for s in (built.solution_even_part, built.solution_odd_part) if s is not None]
        within4 = float(np.sum((pts[0] - pts[1]) ** 4))
        cross_ratio = (within4 / float(np.sum((pts[0] - pts[-1]) ** 4))) ** 0.25
        checks = {
            "shape (n+2, n)": pts.shape == (n + 2, n),
            "residuals <= 1e-10": all(max(s.residual1, s.residual2) <= 1e-10 for s in sols),
            "within-block distance^4 == 2": abs(within4 - 2.0) <= 1e-9,
            "within/cross ratio matches expected": abs(
                cross_ratio - built.expected_ratio) <= REFERENCE_REL_TOL * built.expected_ratio,
            "expected ratio >= bound - 1e-9": built.expected_ratio >= self.bounds[n] - BOUND_SLACK,
        }
        failures = [f"build n={n}: {name}" for name, ok in checks.items() if not ok]
        payload = canonical([hashlib.sha256(pts.tobytes()).hexdigest(), built.expected_ratio])
        return Record(failures, payload)

    def _check_config(self, pkg, item, out):
        report, (flag, lam), cert, audit = out
        n, ratio4 = item["n"], item["ratio4"]
        bound = self.bounds[n]
        checks = {
            "ratio matches reference": abs(report.ratio ** 4 - ratio4) <= REFERENCE_REL_TOL * ratio4,
            "ratio >= bound - 1e-9": report.ratio >= bound - BOUND_SLACK,
            "certificate <= ratio^4 (1 + 1e-9)":
                cert.certificate <= report.ratio ** 4 * (1 + CERT_REL_TOL),
            "certificate >= bound^4 (1 - 1e-9)":
                pkg.certificate_bound(cert) >= bound ** 4 * (1 - CERT_REL_TOL),
            "residual <= 1e-10 scale": cert.residual <= RESIDUAL_TOL * max(1.0, item["scale"]),
            "audit all_hold": audit.all_hold(),
            "n+2 points are not equilateral": flag is False,
        }
        failures = [f"config n={n}: {name}" for name, ok in checks.items() if not ok]
        payload = canonical([report.to_dict(), flag, lam, cert.to_dict(), audit.to_dict()])
        return Record(failures, payload, evals=3)

    def _check_p_norm(self, pkg, item, out):
        n4, np_ = out
        p = item["p"]
        lo, hi = (n4, np_) if p <= 4.0 else (np_, n4)
        checks = {
            "4-norm matches reference": abs(n4 - item["ref4"]) <= PNORM_REL_TOL * item["ref4"],
            "p-norm matches reference": abs(np_ - item["refp"]) <= 1e-10 * item["refp"],
            "monotone side": lo <= hi * (1.0 + PNORM_REL_TOL),
            "equivalence factor": hi <= item["factor"] * lo * (1.0 + PNORM_REL_TOL),
        }
        failures = [f"p_norm p={p!r}: {name}" for name, ok in checks.items() if not ok]
        return Record(failures, canonical([n4, np_]))

    def _check_search(self, pkg, item, res):
        return check_search(pkg, res, item["n"], self.budget, self.bounds[item["n"]])


WORKLOADS = {wl.name: wl for wl in (PipelineLarge, SearchAnneal, GateSmall)}
