"""Reference implementations kept only as equivalence oracles.

:func:`pairwise_crosscheck` is Phase 2b as the paper states it (§3.4): one
satisfiability query per pair of *different* output groups, each answered
by :class:`~repro.symbex.solver.Solver` from scratch (simplify, interval
pre-check, bit-blast into a fresh CDCL instance, solve).  It shares no encoding
state with :class:`~repro.symbex.solver.GroupEncoding`, so the row scan in
:func:`repro.core.crosscheck.find_inconsistencies` is tested against it.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.crosscheck import CrosscheckReport, Inconsistency
from repro.core.grouping import GroupedResults
from repro.symbex.expr import bool_and
from repro.symbex.solver import Solver, SolverConfig


def pairwise_crosscheck(grouped_a: GroupedResults, grouped_b: GroupedResults,
                        config: Optional[SolverConfig] = None) -> CrosscheckReport:
    """Crosscheck with one ``Solver.check([C_a, C_b])`` per candidate pair."""

    solver = Solver(config)
    started = time.perf_counter()
    inconsistencies = []
    queries = unsat = unknown = identical = 0
    for group_a in grouped_a.groups:
        for group_b in grouped_b.groups:
            if group_a.trace == group_b.trace:
                identical += 1
                continue
            result = solver.check([group_a.condition, group_b.condition])
            queries += 1
            if result.is_sat:
                inconsistencies.append(Inconsistency(
                    agent_a=grouped_a.agent_name,
                    agent_b=grouped_b.agent_name,
                    trace_a=group_a.trace,
                    trace_b=group_b.trace,
                    condition=bool_and(group_a.condition, group_b.condition),
                    example=dict(result.model),
                    solver_time=result.time,
                ))
            elif result.is_unsat:
                unsat += 1
            else:
                unknown += 1
    return CrosscheckReport(
        agent_a=grouped_a.agent_name,
        agent_b=grouped_b.agent_name,
        test_key=grouped_a.test_key,
        inconsistencies=inconsistencies,
        queries=queries,
        unsat_pairs=unsat,
        unknown_pairs=unknown,
        checking_time=time.perf_counter() - started,
        identical_output_pairs=identical,
        solver_stats=solver.stats_dict(),
    )
