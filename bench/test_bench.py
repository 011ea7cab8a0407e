"""Tests of the benchmark itself: smoke runs, planted wrong answers, self-time arithmetic."""

import json
import shutil
import subprocess
import sys
import textwrap
import types
from dataclasses import replace
from pathlib import Path

import pytest

import run
from tracer import BOUNDARIES, SPAN_NAMES, Span, Tracer, self_times, summarize, union_length
from workloads import GateSmall, PipelineLarge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

TINY = {
    "pipeline-large": "PipelineLarge(n=6)",
    "search-anneal": "SearchAnneal(n=4, budget=200, searches=2)",
    "gate-small": "GateSmall(configs=14, vectors=5, build_max=10, searches=((2, 1), (8, 1)), budget=100)",
}

SMOKE = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [{bench!r}, {src!r}]
    import run
    from workloads import *
    for trace in (0, 1):
        result, report = run.measure({ctor}, seed=3, seconds=0.01, trace=trace)
        print(json.dumps([result, report]))
""")


def contract_names(section):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_smoke_run(workload, tmp_path):
    code = SMOKE.format(bench=str(BENCH), src=str(ROOT / "src"), ctor=TINY[workload])
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    (plain, plain_report), (traced, traced_report) = map(json.loads, out.stdout.splitlines())
    for result, report in ((plain, plain_report), (traced, traced_report)):
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert result["attempted"] >= 2
    assert set(plain["metrics"]) == contract_names("end_to_end")
    assert set(traced["metrics"]) == contract_names("per_layer")
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    assert all(v["value"] >= 0 for k, v in traced["metrics"].items()
               if k.endswith(".self_s")), "negative self time"
    assert plain_report["payload_sha256"] == traced_report["payload_sha256"]


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "gate-small", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.fixture
def lp_extremal():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lp_extremal
        yield lp_extremal
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_certificate_above_ratio_fourth_is_counted_failed(lp_extremal):
    wl = GateSmall(configs=7, vectors=0, build_max=2, searches=())
    items = [it for it in wl.prepare(lp_extremal, seed=5) if it["kind"] == "config"]

    def inflated(points, *args, **kwargs):
        cert = lp_extremal.radon_partition(points, *args, **kwargs)
        return replace(cert, certificate=cert.certificate * 1e3)

    planted = types.SimpleNamespace(**{name: getattr(lp_extremal, name) for name in lp_extremal.__all__})
    planted.radon_partition = inflated
    tracer = Tracer(recording=False)
    honest = [run.run_item(wl, lp_extremal, it, tracer) for it in items]
    wrong = [run.run_item(wl, planted, it, tracer) for it in items]
    assert not any(rec.failures for rec in honest)
    assert all(any("certificate <= ratio^4" in f for f in rec.failures) for rec in wrong)


def test_nonzero_cli_exit_is_counted_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = PipelineLarge(n=6)
    item = {"kind": "exact", "file": "construct.json", "ratio4": 1.0, "scale": 1.0}
    fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=lambda argv: 1))
    rec = run.run_item(wl, fake, item, Tracer(recording=False))
    assert len(rec.failures) == 4 and all("exited 1" in f for f in rec.failures)


def test_raising_item_is_counted_failed():
    wl = GateSmall()
    fake = types.SimpleNamespace(bound_sweep=lambda *a: 1 / 0)
    rec = run.run_item(wl, fake, {"kind": "bounds"}, Tracer(recording=False))
    assert rec.failures == ["bounds raised ZeroDivisionError: division by zero"]


def span(sid, parent, name, thread, start, end):
    sp = Span(sid, parent, name, "bench", thread)
    sp.start, sp.end = start, end
    return sp


def test_self_time_subtracts_union_of_children_across_threads():
    spans = [
        span(1, None, "search.minimize_ratio", 1, 0.0, 10.0),
        span(2, 1, "lpgeom.ratio_report", 2, 1.0, 4.0),    # pool thread A
        span(3, 1, "lpgeom.ratio_report", 3, 3.0, 6.0),    # pool thread B overlaps A
        span(4, 2, "lpgeom.p_norm", 2, 2.0, 3.0),          # grandchild inside A
        span(5, 1, "construct.build_configuration", 1, 9.5, 11.0),  # clipped at parent end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 0.5))
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert union_length([(1.0, 4.0), (3.0, 6.0), (7.0, 8.0)]) == pytest.approx(6.0)
    metrics = summarize(spans, batches=1)
    assert metrics["lpgeom.ratio_report.busy_s"][0] == pytest.approx(5.0)
    assert metrics["lpgeom.ratio_report.self_s"][0] == pytest.approx(5.0)


def test_pool_thread_spans_attach_to_enclosing_search(lp_extremal):
    import threading

    tracer = Tracer()
    tracer.install(lp_extremal)
    try:
        with tracer.span("search.minimize_ratio") as outer:
            worker = threading.Thread(target=lp_extremal.search.ratio_report,
                                      args=(lp_extremal.build_configuration(2).config,))
            worker.start()
            worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert lp_extremal.search.ratio_report is lp_extremal.lpgeom.ratio_report
    priced = [sp for sp in tracer.spans if sp.name == "lpgeom.ratio_report" and sp.site == "search"]
    assert len(priced) == 1 and priced[0].parent == outer.sid
    assert priced[0].thread != outer.thread


def test_removed_boundary_is_reported_absent():
    pkg = types.ModuleType("fakepkg")
    lpgeom = types.ModuleType("fakepkg.lpgeom")
    lpgeom.p_norm = lambda v, p: 1.0
    sys.modules.update({"fakepkg": pkg, "fakepkg.lpgeom": lpgeom})
    try:
        tracer = Tracer()
        for _ in range(2):  # installed once per traced batch, as in a run
            tracer.install(pkg)
            lpgeom.p_norm([1.0], 4)
            tracer.uninstall()
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.lpgeom"]
    assert "lpgeom.ratio_report" in tracer.absent and "lpgeom.p_norm" not in tracer.absent
    assert len(tracer.absent) == len(BOUNDARIES) - 1
    metrics = summarize(tracer.spans, batches=2, absent=tracer.absent)
    assert metrics["trace.absent_boundaries"][0] == len(BOUNDARIES) - 1
    assert metrics["lpgeom.p_norm.calls"][0] == 1
    assert metrics["search.minimize_ratio.calls"][0] == 0
    assert set(f"{name}.calls" for name in SPAN_NAMES) <= set(metrics)
