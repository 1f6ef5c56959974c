"""One benchmark iteration in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand.  The process imports
SOFT, optionally installs the tracer, runs one workload in the order it is
given, checks the outputs and writes a JSON result.  Every process-wide cache
(intern table, simplify memo, compiled terms) starts empty, as it does for
each ``soft campaign`` a user runs.

Time spent checking outputs and writing results is measured and reported as
``overhead_s`` / ``overhead_cpu_s``, so the runner can subtract it from the
process's wall and CPU time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional


class Overhead:
    """Accumulates the wall and CPU time of the benchmark's own work."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    @contextmanager
    def measure(self):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu


# ----------------------------------------------------------------------
# Campaign workloads (catalog, flowmods)
# ----------------------------------------------------------------------

def run_campaign(workload, order: List[str], first_call) -> object:
    from repro.core.campaign import Campaign

    campaign = Campaign(workers=1).with_tests(*order).with_agents(*workload.agents)
    first_call()
    return campaign.run()


def check_campaign(report) -> Dict[str, object]:
    """Output summary and the problems found in a campaign report.

    Every inconsistency must pair different traces, and its example must
    satisfy both agents' group conditions, evaluated with the compiled
    evaluator rather than the solver that produced it.
    """

    from repro.symbex.compile import evaluate_compiled_bool
    from results import output_digest

    errors: List[str] = []
    entries = []
    for pair in report.reports:
        for inconsistency in pair.inconsistencies:
            where = "%s %s/%s" % (pair.test_key, pair.agent_a, pair.agent_b)
            if inconsistency.trace_a == inconsistency.trace_b:
                errors.append("%s: inconsistency with identical traces" % where)
            for grouped, trace in ((pair.grouped_a, inconsistency.trace_a),
                                   (pair.grouped_b, inconsistency.trace_b)):
                group = grouped.group_for(trace)
                if group is None:
                    errors.append("%s: no %s group has the reported trace"
                                  % (where, grouped.agent_name))
                elif not evaluate_compiled_bool(group.condition, inconsistency.example,
                                                default=0):
                    errors.append("%s: example violates the %s group condition"
                                  % (where, grouped.agent_name))
            entries.append((pair.test_key, pair.agent_a, pair.agent_b,
                            inconsistency.trace_a.to_obj(),
                            inconsistency.trace_b.to_obj()))
    reported = len(entries)
    confirmed = report.total_replay_verified
    return {
        "summary": {
            "digest": output_digest(entries),
            "inconsistencies": reported,
            "confirmed": confirmed,
            "clusters": report.triage.cluster_count if report.triage is not None else 0,
            "paths": sum(int(row["paths"]) for row in report.exploration_stats),
        },
        "confirmed_share": confirmed / reported if reported else 0.0,
        "cells": sum(report.job_states.values()),
        "failed_cells": len(report.job_failures),
        "errors": errors,
    }


# ----------------------------------------------------------------------
# Vendor workload (explore-paper)
# ----------------------------------------------------------------------

def _unit_outputs(report) -> Dict[str, object]:
    from results import output_digest

    traces = {outcome.trace for outcome in report.outcomes}
    return {"paths": report.path_count,
            "traces": output_digest((trace.to_obj(),) for trace in traces)}


def run_vendor(workload, order: List[List[str]], first_call, tracer,
               overhead: Overhead, scratch: str) -> Dict[str, object]:
    """Explore, save and reload each (agent, test) unit at the given scale."""

    from repro.core import artifacts, explorer
    from repro.core.campaign import Campaign
    from repro.core.tests_catalog import get_test
    from results import output_digest

    errors: List[str] = []
    entries = []
    confirmed = failed = 0
    first_call()
    for agent, test in order:
        cell = "%s/%s" % (agent, test)
        span = tracer.span("jobs.cell", cell=cell) if tracer is not None else nullcontext()
        try:
            with span:
                spec = get_test(test, scale=workload.scale)
                report = explorer.explore_agent(agent, spec)
                path = os.path.join(scratch, "%s-%s.json" % (agent, test))
                artifacts.save_exploration_artifact(report, path)
                session = Campaign().load_artifact(path)
        except Exception:  # one unit's failure is counted, the others still run
            traceback.print_exc()
            errors.append("%s: unit raised" % cell)
            failed += 1
            continue
        with overhead.measure():
            saved = _unit_outputs(report)
            loaded = _unit_outputs(session.cache.peek(agent, spec).report)
            if saved == loaded:
                confirmed += 1
            else:
                errors.append("%s: artifact round trip changed the outputs "
                              "(saved %r, loaded %r)" % (cell, saved, loaded))
            entries.append((agent, test, saved["paths"], saved["traces"]))
            os.remove(path)
        del report, session
    if tracer is not None:
        tracer.add("jobs.cells", len(order))
        tracer.add("jobs.failed", failed)
    return {
        "summary": {
            "digest": output_digest(entries),
            "inconsistencies": 0,
            "confirmed": confirmed,
            "clusters": 0,
            "paths": sum(entry[2] for entry in entries),
            "unit_paths": {"%s/%s" % (agent, test): paths
                           for agent, test, paths, _ in entries},
        },
        "confirmed_share": confirmed / len(order),
        "cells": len(order),
        "failed_cells": failed,
        "errors": errors,
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(tracer) -> Dict[str, float]:
    from repro.symbex.compile import compiled_cache_stats
    from repro.symbex.expr import intern_table
    from repro.symbex.simplify import simplify_cache_stats
    from workloads import TABLE1_TESTS

    own = tracer.self_times()
    count = tracer.counters

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    table = intern_table()
    engines = list(tracer.engines.values())
    explorer_s = own.get("explorer", 0.0)
    metrics = {
        "setup.s": own.get("setup", 0.0),
        "explorer.s": explorer_s,
        "explorer.calls": count["explorer.calls"],
        "explorer.paths": count["explorer.paths"],
        "explorer.paths_per_s": ratio(count["explorer.paths"], explorer_s),
        "explorer.solver_queries": count["explorer.solver_queries"],
        "grouping.s": own.get("grouping", 0.0),
        "grouping.groups": count["grouping.groups"],
        "crosscheck.s": own.get("crosscheck", 0.0),
        "crosscheck.queries": count["crosscheck.queries"],
        "crosscheck.inconsistencies": count["crosscheck.inconsistencies"],
        "crosscheck.sat_share": ratio(count["crosscheck.inconsistencies"],
                                      count["crosscheck.queries"]),
        "crosscheck.assumption_solves": count["crosscheck.assumption_solves"],
        "crosscheck.interval_decides": count["crosscheck.interval_decides"],
        "crosscheck.unknown": count["crosscheck.unknown"],
        "crosscheck.encode_s": sum(float(e.get("encode_time", 0.0)) for e in engines),
        "crosscheck.solve_s": sum(float(e.get("solve_time", 0.0)) for e in engines),
        "testcase.build.s": own.get("testcase.build", 0.0),
        "testcase.build.calls": count["testcase.build.calls"],
        "testcase.build.unbound_vars": count["testcase.build.unbound_vars"],
        "testcase.replay.s": own.get("testcase.replay", 0.0),
        "testcase.replay.calls": count["testcase.replay.calls"],
        "testcase.replay.diverged_share": ratio(count["testcase.replay.diverged"],
                                                count["testcase.replay.calls"]),
        "witness.minimize.s": own.get("witness.minimize", 0.0),
        "witness.minimize.replays": count["witness.minimize.replays"],
        "witness.minimize.shrink_ratio": ratio(count["witness.minimize.shrink_sum"],
                                               count["witness.minimize.minimized"]),
        "witness.cluster.s": own.get("witness.cluster", 0.0),
        "witness.cluster.clusters": count["witness.cluster.clusters"],
        "artifacts.save_s": own.get("artifacts.save", 0.0),
        "artifacts.load_s": own.get("artifacts.load", 0.0),
        "artifacts.mb": count["artifacts.bytes"] / 1e6,
        "jobs.cells": count["jobs.cells"],
        "jobs.failed": count["jobs.failed"],
        "jobs.retried": count["jobs.retried"],
        "jobs.unattributed_s": tracer.unattributed(),
        "expr.intern_hit_rate": table.hit_rate,
        "expr.distinct_terms": table.distinct_terms,
        "simplify.hit_rate": float(simplify_cache_stats()["hit_rate"]),
        "compile.hit_rate": float(compiled_cache_stats()["hit_rate"]),
    }
    for test in TABLE1_TESTS:
        metrics["crosscheck.s.%s" % test] = count["crosscheck.s.%s" % test]
    return {name: float(value) for name, value in metrics.items()}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--order", required=True, help="JSON list: tests or [agent, test] units")
    parser.add_argument("--launched", type=float, required=True,
                        help="time.time() just before the runner started this process")
    parser.add_argument("--result", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro.core.campaign  # noqa: F401  (the import every user pays)
    import repro.core.artifacts  # noqa: F401
    from spans import Tracer, install
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    order = json.loads(args.order)
    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        install(tracer)

    stamp: Dict[str, float] = {}

    def first_call() -> None:
        now, now_pc = time.time(), time.perf_counter()
        stamp["setup_s"] = now - args.launched
        if tracer is not None:
            tracer.record("setup", now_pc - stamp["setup_s"], now_pc)

    overhead = Overhead()
    layers: Optional[Dict[str, float]] = None
    if args.setup_only:
        first_call()
        outcome: Dict[str, object] = {}
    elif workload.kind == "campaign":
        report = run_campaign(workload, order, first_call)
        with overhead.measure():
            # Cache hit rates are read before the checks compile anything.
            layers = layer_metrics(tracer) if tracer is not None else None
            outcome = check_campaign(report)
    else:
        outcome = run_vendor(workload, order, first_call, tracer, overhead, args.scratch)

    with overhead.measure():
        outcome["setup_s"] = stamp["setup_s"]
        if tracer is not None and not args.setup_only:
            outcome["layers"] = layers or layer_metrics(tracer)
            outcome["covered_s"] = tracer.layer_covered()
            tracer.dump(args.result + ".spans.jsonl")
        outcome["overhead_s"] = overhead.wall
        outcome["overhead_cpu_s"] = overhead.cpu
        with open(args.result, "w") as handle:
            json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
