"""Benchmark for lp_extremal: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload pipeline-large --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports lp_extremal from its
src/ directory, in this one process.  Set-up (import lp_extremal with a
cold module cache, then one untimed warm-up item) is repeated between
batches and its median reported.  The timed phase repeats the workload's
fixed batch of items until --seconds have passed; every item is checked for
mathematical correctness and every batch must reproduce the first
batch's payloads.  With --trace 1 untraced and traced batches alternate;
the per-layer metrics (per batch) come from the traced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a report
with sample counts, the payload digest, failures and the environment.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import Tracer, summarize
from workloads import WORKLOADS, Record, digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("LP_EXTREMAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def import_package():
    """Import lp_extremal from SRC with a cold module cache."""
    for key in [k for k in sys.modules if k == "lp_extremal" or k.startswith("lp_extremal.")]:
        del sys.modules[key]
    pkg = importlib.import_module("lp_extremal")
    importlib.import_module("lp_extremal.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"lp_extremal was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def run_item(wl, pkg, item, tracer) -> Record:
    t0 = time.perf_counter()
    try:
        out = wl.run(pkg, item, tracer)
    except Exception as exc:  # a raising item is a failed item; the run goes on
        latency = time.perf_counter() - t0
        rec = Record([f"{item.get('kind', wl.name)} raised {type(exc).__name__}: {exc}"])
    else:
        latency = time.perf_counter() - t0
        with tracer.paused():
            try:
                rec = wl.check(pkg, item, out)
            except Exception as exc:  # malformed output the checks could not read
                rec = Record([f"checking {item.get('kind', wl.name)} raised "
                              f"{type(exc).__name__}: {exc}"])
    rec.latency = latency
    return rec


def run_batch(wl, pkg, items, tracer, reference):
    """One batch, payloads compared with `reference`; returns (records, wall time).

    The wall time includes the checks.
    """
    t0 = time.perf_counter()
    batch = [run_item(wl, pkg, item, tracer) for item in items]
    if not reference:
        reference.extend(rec.payload for rec in batch)
    for rec, expected in zip(batch, reference):
        if rec.payload != expected and not rec.failures:
            rec.failures.append("payload differs from the first batch")
        rec.payload = None  # kept payloads would grow peak_rss_mb with the batch count
    return batch, time.perf_counter() - t0


def set_up(wl, seed, items=None):
    """Import lp_extremal cold, then run one warm-up item.

    Returns (package, items, set-up time, warm-up record).  Items are made
    from the seed on the first set-up only, and that is not set-up work.
    """
    t0 = time.perf_counter()
    pkg = import_package()
    t1 = time.perf_counter()
    if items is None:
        items = wl.prepare(pkg, seed)
    t2 = time.perf_counter()
    warmup = run_item(wl, pkg, wl.warmup_item(items), Tracer(recording=False))
    return pkg, items, (t1 - t0) + (time.perf_counter() - t2), warmup


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(batches, walls, setup_times):
    records = [rec for batch in batches for rec in batch]
    latencies = [rec.latency for rec in records]

    def per_second(count):  # median over batches of count(batch) / summed item latency
        return statistics.median(sum(map(count, b)) / sum(r.latency for r in b) for b in batches)

    gaps = [rec.gap for rec in records if rec.gap is not None]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (per_second(lambda rec: 1), "1/s"),
        "item_p50_ms": (quantile(latencies, 50) * 1e3, "ms"),
        "item_p99_ms": (quantile(latencies, 99) * 1e3, "ms"),
        "evals_per_s": (per_second(lambda rec: rec.evals), "1/s"),
        "search_gap": (statistics.fmean(gaps), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"items": len(records), "batches": len(batches),
               "items_beyond_p99": sum(1 for x in latencies if x > metrics["item_p99_ms"][0] / 1e3),
               "setup_reps": len(setup_times), "gap_items": len(gaps)}
    return metrics, samples


def per_layer(tracer, untraced, traced):
    records = [rec for batch in traced for rec in batch]
    metrics = summarize(tracer.spans, len(traced), tracer.absent)
    metrics["cli.bytes_written"] = (sum(r.bytes_written for r in records) / len(traced), "bytes")
    metrics["cli.bytes_read"] = (sum(r.bytes_read for r in records) / len(traced), "bytes")

    def mean_wall(batches):
        return sum(r.latency for b in batches for r in b) / len(batches)

    overhead = 100.0 * (mean_wall(traced) / mean_wall(untraced) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    samples = {"untraced_batches": len(untraced), "traced_batches": len(traced),
               "untraced_batch_s": mean_wall(untraced), "traced_batch_s": mean_wall(traced),
               "spans": len(tracer.spans), "absent_boundaries": tracer.absent}
    return metrics, samples


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return rev, bool(status.strip())


def environment():
    rev, dirty = git_state()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        blas = None
    return {
        "git_revision": rev,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(wl, seed, seconds, trace):
    """One benchmark run in the current directory; returns (result, report)."""
    pkg, items, setup_time, warmup = set_up(wl, seed)
    setup_times, warmups, reference = [setup_time], [warmup], []
    start = time.perf_counter()
    if not trace:
        # set-up is repeated at even intervals between batches, so its median
        # spans the same machine load as the batches do
        batches, walls = [], []
        while not batches or time.perf_counter() - start < seconds:
            batch, wall = run_batch(wl, pkg, items, Tracer(recording=False), reference)
            batches.append(batch)
            walls.append(wall)
            if time.perf_counter() - start >= seconds * len(setup_times) / wl.setup_reps:
                pkg, _, setup_time, warmup = set_up(wl, seed, items)
                setup_times.append(setup_time)
                warmups.append(warmup)
        metrics, samples = end_to_end(batches, walls, setup_times)
    else:
        # untraced and traced batches alternate, so both see the same machine load
        untraced, traced, tracer = [], [], Tracer()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(run_batch(wl, pkg, items, Tracer(recording=False), reference)[0])
            tracer.install(pkg)
            try:
                traced.append(run_batch(wl, pkg, items, tracer, reference)[0])
            finally:
                tracer.uninstall()
        batches = untraced + traced
        metrics, samples = per_layer(tracer, untraced, traced)
    records = warmups + [rec for batch in batches for rec in batch]
    failed = [rec for rec in records if rec.failures]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "samples": samples,
        "failed_frac": len(failed) / len(records),
        "payload_sha256": digest("\n".join(reference)),
        "failures": [f for rec in failed for f in rec.failures][:10],
        "environment": environment(),
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lp_extremal" / "__init__.py").is_file():
        print(f"bench: no lp_extremal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    cwd = os.getcwd()
    os.chdir(workdir)  # CLI file arguments are bare names, so manifests do not vary
    try:
        result, report = measure(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
