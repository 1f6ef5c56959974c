"""Solver-core microbenchmark: SAT throughput and intern hit rate.

Two measurements, one ``BENCH_solver.json`` trajectory point:

* **SAT core** — deterministic random 3-SAT instances (fixed seed) driven
  straight through :class:`SATSolver`, reporting decisions/sec and
  propagations/sec of the heap-VSIDS + binary-fast-path search loop, plus
  learned-DB reduction activity.
* **Interning** — a full Phase-1 exploration, reporting the hash-consing hit
  rate (constructions answered by the intern table) and the simplify-memo
  hit rate that interning enables.

``benchmarks/compare_bench.py`` guards these numbers (and the other
``BENCH_*.json`` ones) against >20% regressions in CI.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_table, write_bench
from repro.core.explorer import explore_agent
from repro.symbex.expr import intern_table
from repro.symbex.simplify import simplify_cache_stats
from repro.symbex.solver import SATSolver, SATStatus

EXPLORE_TEST = "packet_out"


def _random_3sat(solver: SATSolver, num_vars: int, num_clauses: int,
                 seed: int) -> None:
    rng = random.Random(seed)
    variables = [solver.new_var() for _ in range(num_vars)]
    for _ in range(num_clauses):
        picked = rng.sample(variables, 3)
        solver.add_clause([var if rng.random() < 0.5 else -var
                           for var in picked])


def _bench_sat_core():
    decisions = propagations = conflicts = reductions = 0
    statuses = []
    wall = 0.0
    for seed in range(6):
        solver = SATSolver(learned_db_base=200)
        # Near the 3-SAT phase transition (ratio ~4.2): hard enough to force
        # real search, small enough for a smoke job.
        _random_3sat(solver, 130, 546, seed=seed)
        started = time.perf_counter()
        status = solver.solve(max_conflicts=200_000)
        wall += time.perf_counter() - started
        statuses.append(status)
        if status == SATStatus.SAT:
            model = solver.model()
            assert model, "SAT with empty model"
        decisions += solver.decisions
        propagations += solver.propagations
        conflicts += solver.conflicts
        reductions += solver.db_reductions
    assert SATStatus.UNKNOWN not in statuses
    return {
        "instances": len(statuses),
        "sat": statuses.count(SATStatus.SAT),
        "unsat": statuses.count(SATStatus.UNSAT),
        "decisions": decisions,
        "propagations": propagations,
        "conflicts": conflicts,
        "db_reductions": reductions,
        "wall_clock": wall,
        "decisions_per_sec": decisions / wall if wall else 0.0,
        "propagations_per_sec": propagations / wall if wall else 0.0,
    }


def _bench_interning():
    table = intern_table()
    before = table.stats_dict()
    simplify_before = simplify_cache_stats()
    report = explore_agent("reference", EXPLORE_TEST)
    after = table.stats_dict()
    simplify_after = simplify_cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    total = hits + misses
    simplify_hits = simplify_after["hits"] - simplify_before["hits"]
    simplify_misses = simplify_after["misses"] - simplify_before["misses"]
    simplify_total = simplify_hits + simplify_misses
    return {
        "explored_paths": report.path_count,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else None,
        "distinct_terms": after["distinct_terms"],
        "memory_bytes": after["memory_bytes"],
        "simplify_cache_hit_rate": (simplify_hits / simplify_total
                                    if simplify_total else None),
    }


def test_solver_core_benchmark(run_once):
    sat = run_once(_bench_sat_core)
    interning = _bench_interning()

    assert sat["decisions_per_sec"] > 0 and sat["propagations_per_sec"] > 0
    assert interning["hit_rate"] is not None and interning["hit_rate"] > 0.5

    print_table(
        "Solver core: SAT throughput and interning (%s)" % EXPLORE_TEST,
        ("Metric", "Value"),
        [
            ("SAT decisions/sec", "%.0f" % sat["decisions_per_sec"]),
            ("SAT propagations/sec", "%.0f" % sat["propagations_per_sec"]),
            ("SAT DB reductions", sat["db_reductions"]),
            ("Intern hit rate", "%.1f%%" % (100 * interning["hit_rate"])),
            ("Distinct terms", interning["distinct_terms"]),
        ])

    write_bench("BENCH_solver.json", {
        "benchmark": "solver_core",
        "sat_core": sat,
        "intern": interning,
    })
