"""In-memory span tracer that wraps lp_extremal's module boundaries from outside.

Nothing under src/ is changed: `Tracer.install` replaces every binding of a
boundary function in the loaded lp_extremal modules (including names other
modules imported with ``from ... import``) with a recording wrapper, and
`Tracer.uninstall` puts the originals back.  Spans stay in memory until
`summarize` turns them into per-layer metrics at the end of a run.

Self time is a span's duration minus the union of its children's intervals.
The search module runs restarts on a thread pool; a span opened on a thread
with no open span of its own is parented to the innermost open
``search.minimize_ratio`` span, so pricing calls made on pool threads count
as children of the search that spawned them.
"""

import contextlib
import functools
import itertools
import statistics
import sys
import threading
import time

#: (module, function) boundaries wrapped inside the package.
BOUNDARIES = (
    ("lpgeom", "p_norm"),
    ("lpgeom", "ratio_report"),
    ("lpgeom", "is_equilateral"),
    ("radon", "radon_partition"),
    ("radon", "audit_chain"),
    ("construct", "build_configuration"),
    ("bounds", "bound_sweep"),
    ("search", "minimize_ratio"),
)
#: CLI subcommands; their spans are opened by the benchmark around cli.main.
CLI_COMMANDS = ("construct", "certify", "audit", "check-equilateral")
#: Spans opened on otherwise idle threads are attributed to this boundary.
ADOPTING = "search.minimize_ratio"

SPAN_NAMES = tuple(f"cli.{c}" for c in CLI_COMMANDS) + tuple(f"{m}.{f}" for m, f in BOUNDARIES)


def _pairs_times_dim(points) -> int:
    m, n = points.shape
    return m * (m - 1) // 2 * n


def _work_pair_scan(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return _pairs_times_dim(config.points)


def _work_radon(args, kwargs, result):
    m, n = (args[0] if args else kwargs["points"]).shape
    return (n + 1) ** 2 * (n + 2)


def _work_search(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return result.evaluations, result.evaluations * (n + 2) * (n + 1) // 2 * n


#: Per-span work counts, computed from arguments and results (not measured).
#: A search records (evaluations, pair terms).
WORK = {
    "lpgeom.ratio_report": _work_pair_scan,
    "lpgeom.is_equilateral": _work_pair_scan,
    "radon.radon_partition": _work_radon,
    "search.minimize_ratio": _work_search,
}


class Span:
    __slots__ = ("sid", "parent", "name", "site", "thread", "start", "end", "error", "work")

    def __init__(self, sid, parent, name, site, thread):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.site = site
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.error = False
        self.work = 0


class Tracer:
    """Collects spans while recording; a non-recording tracer is a no-op."""

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters = []
        self._patches = []
        self._paused = False

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, site: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            adopters = self._adopters
            parent = adopters[-1].sid if adopters else None
        sp = Span(next(self._ids), parent, name, site, threading.get_ident())
        stack.append(sp)
        if name == ADOPTING:
            self._adopters.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()
        if sp.name == ADOPTING:
            self._adopters.remove(sp)
        self.spans.append(sp)

    @contextlib.contextmanager
    def span(self, name: str, site: str = "bench"):
        """Record a span around a block; yields the span so callers can mark errors."""
        if not self.recording or self._paused:
            yield Span(0, None, name, site, 0)
            return
        sp = self._open(name, site)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            self._close(sp)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- patching ---------------------------------------------------------
    def _wrap(self, name: str, fn, site: str):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            sp = tracer._open(name, site)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                sp.error = True
                raise
            finally:
                tracer._close(sp)
            if work is not None:
                sp.work = work(args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every binding of each boundary function in the loaded package."""
        prefix = package.__name__
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for layer, fn in BOUNDARIES:
            name = f"{layer}.{fn}"
            home = sys.modules.get(f"{prefix}.{layer}")
            orig = getattr(home, fn, None)
            if orig is None:  # removed by a later change: reported once, not fatal
                if name not in self.absent:
                    self.absent.append(name)
                continue
            for mod in modules:
                site = "bench" if mod is package else mod.__name__.rsplit(".", 1)[-1]
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, self._wrap(name, orig, site))
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its direct children's intervals."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        kids = [
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.sid, ())
            if c.end > sp.start and c.start < sp.end
        ]
        out[sp.sid] = (sp.end - sp.start) - union_length(kids)
    return out


def summarize(spans, batches: int, absent=()) -> dict:
    """Per-layer metrics (per batch of the workload) from the recorded spans."""
    selfs = self_times(spans)
    by_name = {name: [] for name in SPAN_NAMES}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    metrics = {}
    busy = {}
    for name in SPAN_NAMES:
        group = by_name[name]
        busy[name] = union_length((sp.start, sp.end) for sp in group)
        durations = [sp.end - sp.start for sp in group]
        metrics[f"{name}.calls"] = (len(group) / batches, "count")
        metrics[f"{name}.busy_s"] = (busy[name] / batches, "s")
        metrics[f"{name}.self_s"] = (sum(selfs[sp.sid] for sp in group) / batches, "s")
        metrics[f"{name}.p50_us"] = (statistics.median(durations) * 1e6 if durations else 0.0, "us")
        metrics[f"{name}.errors"] = (sum(sp.error for sp in group) / batches, "count")

    searches = by_name["search.minimize_ratio"]
    evaluations = sum(sp.work[0] for sp in searches if sp.work)  # 0 if the search raised
    search_terms = sum(sp.work[1] for sp in searches if sp.work)
    pricing = sum(1 for sp in by_name["lpgeom.ratio_report"] if sp.site == "search")
    lp_terms = sum(sp.work for sp in by_name["lpgeom.ratio_report"] + by_name["lpgeom.is_equilateral"])
    lp_busy = busy["lpgeom.ratio_report"] + busy["lpgeom.is_equilateral"]
    flops = sum(sp.work for sp in by_name["radon.radon_partition"])

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    metrics["search.evaluations"] = (evaluations / batches, "count")
    metrics["search.pricing_calls"] = (pricing / batches, "count")
    metrics["search.pricing_ratio"] = (pricing / evaluations if evaluations else 0.0, "ratio")
    metrics["lpgeom.pair_terms"] = (lp_terms / batches, "computed-terms")
    metrics["lpgeom.pair_terms_per_s"] = (rate(lp_terms, lp_busy), "computed-terms/s")
    metrics["radon.elim_flops"] = (flops / batches, "computed-flops")
    metrics["radon.elim_flops_per_s"] = (
        rate(flops, busy["radon.radon_partition"]), "computed-flops/s")
    metrics["search.pair_terms"] = (search_terms / batches, "computed-terms")
    metrics["search.pair_terms_per_s"] = (
        rate(search_terms, busy["search.minimize_ratio"]), "computed-terms/s")
    metrics["trace.absent_boundaries"] = (float(len(absent)), "count")
    return metrics
