"""In-memory spans for the traced benchmark run, and the layer wrappers.

A :class:`Tracer` records one :class:`Span` per call into a layer: its name,
start, end, parent span, thread and campaign cell.  Parent stacks are kept per
thread, because campaign cells run on ``JobSupervisor`` worker threads; a
span opened on a fresh thread can name its parent explicitly (the cell span's
parent is the campaign span on the thread that created the job).

:func:`install` times SOFT's layers from outside: it replaces the public
functions that ``repro.core.campaign`` (and the vendor artifact path) call
with wrappers that open a span and count the work in the returned value.
Nothing in ``src/`` is modified.

Self time is a span's duration minus the part of its interval that its
children cover, so a parent waiting on children running on other threads is
not double-counted.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "install", "union_length", "intersection_length",
           "STRUCTURAL_SPANS"]

#: Spans that group work but are not a layer of their own: what lies under
#: them and under no layer span is ``jobs.unattributed_s``.
STRUCTURAL_SPANS = ("campaign", "jobs.cell")

Interval = Tuple[float, float]


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "thread", "cell")

    def __init__(self, index: int, name: str, start: float, parent: Optional[int],
                 thread: int, cell: Optional[str]) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.cell = cell

    def to_obj(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "cell": self.cell}


def _merged(intervals: Iterable[Interval]) -> List[Interval]:
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""

    return sum(end - start for start, end in _merged(intervals))


def intersection_length(first: Iterable[Interval], second: Iterable[Interval]) -> float:
    """Length covered by both the union of *first* and the union of *second*."""

    a, b = _merged(first), _merged(second)
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


class Tracer:
    """Span and counter recorder; spans stay in memory until :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Last engine counter snapshot per test (Phase-2b engines are shared
        #: by every pair of a test, so their counters are cumulative).
        self.engines: Dict[str, Dict[str, float]] = {}
        #: CampaignJobs of the running campaign (for its retry count).
        self.jobs: List[object] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str, start: float, parent: Optional[Span],
              cell: Optional[str]) -> Span:
        if cell is None and parent is not None:
            cell = parent.cell
        with self._lock:
            span = Span(len(self.spans), name, start,
                        parent.index if parent is not None else None,
                        threading.get_ident(), cell)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None,
             parent: Optional[Span] = None) -> Iterator[Span]:
        """Time the body as span *name*; the parent defaults to this thread's."""

        stack = self._stack()
        span = self._open(name, self.clock(), parent or (stack[-1] if stack else None), cell)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    def record(self, name: str, start: float, end: float) -> Span:
        """Add a finished top-level span measured elsewhere (e.g. set-up)."""

        span = self._open(name, start, None, None)
        span.end = end
        return span

    def add(self, counter: str, value: float = 1) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[["Tracer", Span, tuple, dict, object], None]] = None,
             ) -> Callable:
        """*fn* inside span *name*; *on_result* counts the work it returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, span, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""

        children: Dict[int, List[Interval]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            inside = [(max(start, span.start), min(end, span.end))
                      for start, end in children.get(span.index, ())]
            totals[span.name] += (span.end - span.start) - union_length(inside)
        return dict(totals)

    def intervals(self, names: Optional[Sequence[str]] = None,
                  exclude: Sequence[str] = ()) -> List[Interval]:
        return [(span.start, span.end) for span in self.spans
                if (names is None or span.name in names) and span.name not in exclude]

    def layer_covered(self) -> float:
        """Seconds under at least one named layer span."""

        return union_length(self.intervals(exclude=STRUCTURAL_SPANS))

    def unattributed(self) -> float:
        """Seconds inside campaign/cell spans that no layer span covers."""

        structural = self.intervals(names=STRUCTURAL_SPANS)
        return union_length(structural) - intersection_length(
            structural, self.intervals(exclude=STRUCTURAL_SPANS))

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""

        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_obj()))
                handle.write("\n")


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------

def _on_explore(tracer: Tracer, span: Span, args, kwargs, report) -> None:
    tracer.add("explorer.calls")
    tracer.add("explorer.paths", report.path_count)
    tracer.add("explorer.solver_queries",
               float((report.engine_stats or {}).get("solver_queries") or 0))


def _on_group(tracer: Tracer, span: Span, args, kwargs, grouped) -> None:
    tracer.add("grouping.groups", len(grouped.groups))


def _on_crosscheck(tracer: Tracer, span: Span, args, kwargs, report) -> None:
    tracer.add("crosscheck.s.%s" % report.test_key, span.end - span.start)
    tracer.add("crosscheck.queries", report.queries)
    tracer.add("crosscheck.inconsistencies", report.inconsistency_count)
    tracer.add("crosscheck.unknown", report.unknown_pairs)
    stats = report.solver_stats or {}
    tracer.add("crosscheck.assumption_solves", float(stats.get("assumption_solves") or 0))
    tracer.add("crosscheck.interval_decides", float(stats.get("interval_decides") or 0))
    engine = stats.get("engine")
    if isinstance(engine, dict):
        tracer.engines[report.test_key] = dict(engine)


def _on_build(tracer: Tracer, span: Span, args, kwargs, testcase) -> None:
    tracer.add("testcase.build.calls")
    tracer.add("testcase.build.unbound_vars", len(testcase.unbound_variables))


def _on_replay(tracer: Tracer, span: Span, args, kwargs, outcome) -> None:
    tracer.add("testcase.replay.calls")
    tracer.add("testcase.replay.diverged", 1 if outcome.diverged else 0)


def _on_minimize(tracer: Tracer, span: Span, args, kwargs, witness) -> None:
    stats = witness.minimization
    if stats is not None:
        tracer.add("witness.minimize.minimized")
        tracer.add("witness.minimize.replays", stats.replays)
        tracer.add("witness.minimize.shrink_sum", stats.shrink_ratio)


def _on_triage_report(tracer: Tracer, span: Span, args, kwargs, report) -> None:
    tracer.add("witness.cluster.clusters", report.cluster_count)


def _on_save(tracer: Tracer, span: Span, args, kwargs, data) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("artifacts.bytes", os.path.getsize(path))


def _on_campaign(tracer: Tracer, span: Span, args, kwargs, report) -> None:
    tracer.add("jobs.cells", sum(report.job_states.values()))
    tracer.add("jobs.failed", len(report.job_failures))
    with tracer._lock:
        jobs, tracer.jobs = tracer.jobs, []
    # Dropping the jobs also drops the campaign their closures hold, so the
    # traced process frees its results when the untraced one does.
    tracer.add("jobs.retried", sum(max(0, job.attempts - 1) for job in jobs))


def install(tracer: Tracer) -> None:
    """Route SOFT's layer entry points through *tracer* for this process."""

    from repro.core import artifacts, campaign, explorer, witness

    for module in (campaign, explorer):
        module.explore_agent = tracer.wrap(explorer.explore_agent, "explorer", _on_explore)
    campaign.group_paths = tracer.wrap(campaign.group_paths, "grouping", _on_group)
    campaign.find_inconsistencies = tracer.wrap(
        campaign.find_inconsistencies, "crosscheck", _on_crosscheck)
    build = tracer.wrap(campaign.build_testcase, "testcase.build", _on_build)
    campaign.build_testcase = witness.build_testcase = build
    campaign.replay_testcase = tracer.wrap(
        campaign.replay_testcase, "testcase.replay", _on_replay)
    campaign.minimize_witness = tracer.wrap(
        campaign.minimize_witness, "witness.minimize", _on_minimize)
    witness.TriageIndex.add_all = tracer.wrap(witness.TriageIndex.add_all, "witness.cluster")
    witness.TriageIndex.report = tracer.wrap(
        witness.TriageIndex.report, "witness.cluster", _on_triage_report)
    artifacts.save_exploration_artifact = tracer.wrap(
        artifacts.save_exploration_artifact, "artifacts.save", _on_save)
    load = tracer.wrap(artifacts.load_exploration_artifact, "artifacts.load")
    campaign.load_exploration_artifact = artifacts.load_exploration_artifact = load
    campaign.Campaign.run = tracer.wrap(campaign.Campaign.run, "campaign", _on_campaign)

    real_job = campaign.CampaignJob

    def traced_job(*args, **kwargs):
        job = real_job(*args, **kwargs)
        creator, body, cell = tracer.current(), job.thread_fn, job.cell

        def thread_fn():  # must not capture the job: a cycle outlives the run
            with tracer.span("jobs.cell", cell=cell, parent=creator):
                return body()

        job.thread_fn = thread_fn
        with tracer._lock:
            tracer.jobs.append(job)
        return job

    campaign.CampaignJob = traced_job
