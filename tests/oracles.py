"""Reference implementations kept only as equivalence oracles.

:class:`ReferenceEngine` is Phase 1 without the prefix oracle: every fresh
branch asks :class:`~repro.symbex.solver.Solver` about each side's whole
path condition from scratch (simplify, interval pre-check, bit-blast into a
fresh CDCL instance, solve).  The oracle-driven :class:`Engine` must explore
exactly its path set, in the same order under DFS.

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

from repro.agents import make_agent
from repro.core.crosscheck import CrosscheckReport, Inconsistency
from repro.core.grouping import GroupedResults
from repro.core.tests_catalog import get_test
from repro.errors import SolverError
from repro.harness.driver import TestDriver
from repro.symbex.engine import Engine
from repro.symbex.expr import BoolExpr, bool_and, bool_not, bool_or
from repro.symbex.solver import Solver, SolverConfig
from repro.symbex.state import PathState


class ReferenceEngine(Engine):
    """:class:`Engine` deciding each fresh branch with two ``Solver.check`` calls.

    The prefix trie is still mirrored (the base engine's bookkeeping), but
    no check reaches the oracle, so ``solver_queries`` counts the one-shot
    queries only.
    """

    def _decide(self, state: PathState, condition: BoolExpr) -> bool:
        base = state.condition.constraints()
        if self._query(base + [condition]).is_unsat:
            self._stats.forced_decisions += 1
            return False
        if self._query(base + [bool_not(condition)]).is_unsat:
            self._stats.forced_decisions += 1
            return True
        # Both sides feasible: take True now, schedule False for later.
        self._stats.forks += 1
        self._frontier.push(tuple(state.decisions) + (False,))
        return True

    def _query(self, constraints):
        result = self.solver.check(constraints)
        if result.is_unknown:
            raise SolverError("solver gave up while checking branch feasibility")
        return result


def explore_with_driver(agent: str, test: str, engine: Optional[Engine] = None,
                        scale: str = "small"):
    """*engine* (default: a fresh :class:`Engine`) run on one (agent, test) unit.

    Returns ``(engine, driver, result)``; the driver holds the input builds
    it recorded during the exploration.
    """

    spec = get_test(test, scale=scale)
    driver = TestDriver(agent_factory=lambda: make_agent(agent), inputs=spec.inputs)
    engine = engine if engine is not None else Engine()
    return engine, driver, engine.explore(driver.program)


def uncovered_inputs(driver, result):
    """One ``Solver.check`` of ``A ∧ ¬⋁ C_path`` for an exhaustive exploration.

    ``A`` is what the harness assumes about its inputs: the constraints the
    driver's recorded (decision-free) input builds added, never a branch
    decision, so a wrongly forced branch cannot hide behind it.  ``C_path``
    is each explored path's condition.  UNSAT means the paths cover every
    admissible input: Phase 1 lost no feasible branch side.
    """

    assumed = [constraint for build in driver._recorded.values() if build is not None
               for constraint in build.constraints]
    covered = bool_or(*(bool_and(*path.condition.constraints())
                        for path in result.paths))
    return Solver().check(assumed + [bool_not(covered)])


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
