"""Span recorder for the traced run.

The library is not edited.  While a ``Tracer`` is installed, the public
functions of each trine layer are replaced, at the module attributes
they are looked up under, by wrappers that record a span (name, start,
end, parent span, operation id) and a few counts.  ``uninstall`` puts
the originals back, so untraced passes in the same process run the
plain library.

A layer's self time is the length of its spans minus the part covered
by their child spans.  Spans live in flat arrays in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import resource
import statistics
import time
from array import array
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

from trine import ac23, cli, dynamics, ipf, rt

# (module, attribute, span name).  Attributes a later version of the
# library no longer has are skipped.
SITES = [
    (ac23, "verdict_grid", "ac23.verdict_grid"),
    (cli, "verdict_grid", "ac23.verdict_grid"),
    (ac23, "classify_mask", "ac23.classify_mask"),
    (ac23, "build_graph", "graph.build"),
    (rt, "build_graph", "graph.build"),
    (cli, "build_graph", "graph.build"),
    (ac23, "weak_computable", "graph.weak_computable"),
    (ac23, "run_to_mirror", "dynamics.run"),
    (rt, "run_to_mirror", "dynamics.run"),
    (cli, "run_to_mirror", "dynamics.run"),
    (ac23, "check_ipf", "ipf.check"),
    (rt, "check_ipf", "ipf.check"),
    (cli, "check_ipf", "ipf.check"),
    (ipf, "build_slots", "ipf.build_slots"),
    (rt, "build_slots", "ipf.build_slots"),
    (rt, "extract_rows", "rt.extract"),
    (rt, "save_table", "rt.io"),
    (rt, "format_table", "rt.io"),
    (cli, "build_bundle", "cli.build_bundle"),
] + [
    (rt, name, "rt.algebra")
    for name in (
        "intersect", "union", "includes", "equals", "coincidence_matrix",
        "classify", "kind", "s_counts", "scounts_csv_row",
    )
]
# Generator functions: each ``next`` is one span.
GENERATOR_SITES = [(rt, "extraction_run_pairs", "rt.pairs")]
# Lazy RunRecord views.
VIEW_PROPERTIES = ("states", "histories", "color_counts")

# Per-layer self time: metric name -> span names whose self time it sums.
SELF_TIMES = {
    "graph.build_s": ("graph.build", "graph.weak_computable"),
    "ac23.self_s": ("ac23.verdict_grid", "ac23.classify_mask"),
    "dynamics.run_s": ("dynamics.run",),
    "dynamics.materialize_s": ("dynamics.materialize",),
    "ipf.check_s": ("ipf.check",),
    "ipf.build_slots_s": ("ipf.build_slots",),
    "rt.extract_s": ("rt.extract", "rt.pairs"),
    "rt.algebra_s": ("rt.algebra",),
    "rt.io_s": ("rt.io",),
    "cli.self_s": ("cli.build_bundle",),
}


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._saved: list = []
        self.op_id = 0
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.check_keys: set = set()
        self.verdicts: list = []

    # -- recording -----------------------------------------------------

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, span: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                idx = self.enter(span)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.exit(idx)
                self.counts["rt.pairs_extracted"] += 1
                yield item

        return wrapper

    # -- counts taken from results ---------------------------------------

    def _after_run(self, args, kwargs, run) -> None:
        self.counts["dynamics.steps"] += run.period
        if run.period > self.counts["dynamics.max_period"]:
            self.counts["dynamics.max_period"] = run.period

    def _after_ac23_run(self, args, kwargs, run) -> None:
        self.counts["ac23.runs"] += 1
        self._after_run(args, kwargs, run)

    def _after_check(self, args, kwargs, report) -> None:
        level = kwargs.get("level", args[2] if len(args) > 2 else "full")
        ok = report.light_ok if level == "light" else report.full_ok
        self.counts["ipf.passed"] += bool(ok)
        run = args[0]
        self.check_keys.add((run.graph.out_masks, run.start_ab, level))

    def _after_classify(self, args, kwargs, verdict) -> None:
        self.verdicts.append(verdict)

    def _after_extract(self, args, kwargs, table) -> None:
        self.counts["rt.rows"] += table.row_count

    # -- install / uninstall ---------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        hooks = {
            "dynamics.run": self._after_run,
            "ipf.check": self._after_check,
            "ac23.classify_mask": self._after_classify,
            "rt.extract": self._after_extract,
        }
        for module, attr, span in SITES:
            if attr in module.__dict__:
                after = hooks.get(span)
                if module is ac23 and span == "dynamics.run":
                    after = self._after_ac23_run
                self._replace(module, attr, self._wrap(getattr(module, attr), span, after))
        for module, attr, span in GENERATOR_SITES:
            if attr in module.__dict__:
                self._replace(module, attr, self._wrap_generator(getattr(module, attr), span))
        record = dynamics.RunRecord
        for attr in VIEW_PROPERTIES:
            view = record.__dict__.get(attr)
            if isinstance(view, property):
                self._replace(record, attr,
                              property(self._wrap(view.fget, "dynamics.materialize")))
        if "ProcessPoolExecutor" in ac23.__dict__:
            self._replace(ac23, "ProcessPoolExecutor", _counting_pool(self))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-pass summary --------------------------------------------------

    def summary(self) -> dict:
        """Counts and self times of the spans recorded since ``reset``."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        verdict_ms = []
        classify_id = self._name_ids.get("ac23.classify_mask")
        for i in range(n):
            name = self._names[self.name[i]]
            length = self.end[i] - self.start[i]
            self_time[name] += length - covered[i]
            calls[name] += 1
            if self.name[i] == classify_id:
                verdict_ms.append(length * 1000.0)

        c = self.counts
        out = {name: sum(self_time[s] for s in spans) for name, spans in SELF_TIMES.items()}
        envelope = Counter()
        for verdict in self.verdicts:
            for block in verdict.tested:
                if "skipped" not in block:
                    envelope["planned"] += block["planned"]
                    for key in ("tested", "degenerate_skips", "unresolved"):
                        envelope[key] += block[key]
        starts = envelope["planned"]
        checks = calls["ipf.check"]
        pool_workers = c["ac23.pool.worker_s"]
        out.update({
            "graph.builds": calls["graph.build"],
            "ac23.verdicts": calls["ac23.classify_mask"],
            "ac23.starts_covered": starts,
            "ac23.pairs_tested": envelope["tested"],
            "ac23.degenerate_skips": envelope["degenerate_skips"],
            "ac23.unresolved": envelope["unresolved"],
            "ac23.runs_per_start": c["ac23.runs"] / starts if starts else 0.0,
            "ac23.pool.tasks": c["ac23.pool.tasks"],
            "ac23.pool.map_calls": c["ac23.pool.map_calls"],
            "ac23.pool.child_cpu_s": c["ac23.pool.child_cpu_s"],
            "ac23.pool.parent_cpu_s": c["ac23.pool.parent_cpu_s"],
            "ac23.pool.util": (
                c["ac23.pool.child_cpu_s"] / pool_workers if pool_workers else 0.0
            ),
            "dynamics.runs": calls["dynamics.run"],
            "dynamics.steps": c["dynamics.steps"],
            "dynamics.max_period": c["dynamics.max_period"],
            "ipf.checks": checks,
            "ipf.pass_ratio": c["ipf.passed"] / checks if checks else 0.0,
            "ipf.checks_per_pair": checks / len(self.check_keys) if self.check_keys else 0.0,
            "rt.pairs_extracted": c["rt.pairs_extracted"],
            "rt.rows": c["rt.rows"],
        })
        run_s = out["dynamics.run_s"]
        out["dynamics.steps_per_s"] = c["dynamics.steps"] / run_s if run_s else 0.0
        out["_verdict_ms"] = verdict_ms
        return out

    def write(self, path) -> None:
        """The recorded spans as gzipped JSON lines:
        [name, start_s, end_s, parent_index, op_id]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self._names[self.name[i]], self.start[i],
                                     self.end[i], self.parent[i], self.op[i]]))
                fh.write("\n")


def _counting_pool(tracer: Tracer):
    """A ProcessPoolExecutor that counts ``map`` calls and tasks, and
    charges the CPU its workers used (read when they are reaped at
    shutdown) to the tracer."""

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._opened = (time.perf_counter(), cpu_seconds(resource.RUSAGE_SELF),
                            cpu_seconds(resource.RUSAGE_CHILDREN))

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            tracer.counts["ac23.pool.map_calls"] += 1
            tracer.counts["ac23.pool.tasks"] += len(iterables[0]) if iterables else 0
            return super().map(fn, *iterables, **kwargs)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait=wait, **kwargs)
            if self._opened is None or not wait:
                return
            wall0, self0, children0 = self._opened
            self._opened = None
            c = tracer.counts
            c["ac23.pool.child_cpu_s"] += cpu_seconds(resource.RUSAGE_CHILDREN) - children0
            c["ac23.pool.parent_cpu_s"] += cpu_seconds(resource.RUSAGE_SELF) - self0
            c["ac23.pool.worker_s"] += self._max_workers * (time.perf_counter() - wall0)

    return CountingPool


def percentile(values: list, q: int) -> float:
    """The q-th percentile (1..99) of values, 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
