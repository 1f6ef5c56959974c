"""Phase 2b: the inconsistency finder.

For two agents A and B, and for every pair of *different* grouped outputs
``(i, j)``, SOFT asks whether ``C_A(i) AND C_B(j)`` is satisfiable.  A model
is a concrete input on which the two agents diverge — an inconsistency — and
is reported together with both output traces so a human can judge which (if
either) implementation violates the specification.

The paper bounds this stage by ``|RES_A| * |RES_B|`` solver queries (§3.4).
Nearly all of them are UNSAT, so the crosscheck does not ask them one by
one.  It scans the pair matrix a row at a time on a shared
:class:`~repro.symbex.solver.incremental.GroupEncoding`: every group
condition is bit-blasted once behind an activation literal, and
:meth:`~repro.symbex.solver.incremental.GroupEncoding.check_row` decides all
candidate B-groups of one A-group with one disjunctive SAT query per hit
round, falling back to pair-by-pair solves only where that would not save a
call.  The scan always decides every pair of the matrix.  Pass ``engine=``
to share the encoding across several pair reports of the same test (what
:class:`~repro.core.campaign.Campaign` does); the engine's pair cache
answers every pair an earlier scan decided.

``CrosscheckReport.queries`` counts *pairs decided*, whatever decided them,
so it keeps the meaning of the paper's query count; the SAT calls actually
made are ``solver_stats["assumption_solves"]``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.grouping import GroupedResults, OutputGroup
from repro.core.trace import OutputTrace
from repro.errors import CrosscheckError
from repro.symbex.expr import BoolExpr, bool_and
from repro.symbex.solver import GroupEncoding, SatResult

__all__ = ["Inconsistency", "CrosscheckReport", "find_inconsistencies"]


@dataclass
class Inconsistency:
    """A pair of divergent behaviours reachable by a common input."""

    agent_a: str
    agent_b: str
    trace_a: OutputTrace
    trace_b: OutputTrace
    #: The conjunction that the solver satisfied.
    condition: BoolExpr
    #: A concrete example input assignment (variable name -> value).
    example: Dict[str, int] = field(default_factory=dict)
    solver_time: float = 0.0

    def diff(self):
        """First divergence between the two *symbolic* output traces.

        This is the pre-replay view of the divergence; the witness pipeline
        recomputes the signature from the concrete replay traces, which is
        what actually happened rather than what the solver predicted.
        """

        return self.trace_a.diff(self.trace_b)

    def describe(self) -> str:
        lines = [
            "inconsistency between %s and %s" % (self.agent_a, self.agent_b),
            "  %s output:" % self.agent_a,
            "  " + self.trace_a.short(limit=5),
            "  %s output:" % self.agent_b,
            "  " + self.trace_b.short(limit=5),
            "  " + self.diff().describe(),
            "  example input: %s" % _render_example(self.example),
        ]
        return "\n".join(lines)


def _render_example(example: Dict[str, int]) -> str:
    parts = ["%s=0x%x" % (name, value) for name, value in sorted(example.items())]
    return "{" + ", ".join(parts) + "}"


@dataclass
class CrosscheckReport:
    """Result of crosschecking two grouped intermediate results."""

    agent_a: str
    agent_b: str
    test_key: str
    inconsistencies: List[Inconsistency]
    queries: int
    unsat_pairs: int
    unknown_pairs: int
    checking_time: float
    identical_output_pairs: int
    #: How this report's pairs were decided (per-filter and SAT-call
    #: counters) plus an ``engine`` snapshot, cumulative when the engine is
    #: shared.
    solver_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def inconsistency_count(self) -> int:
        return len(self.inconsistencies)


def find_inconsistencies(grouped_a: GroupedResults, grouped_b: GroupedResults,
                         engine: Optional[GroupEncoding] = None) -> CrosscheckReport:
    """Crosscheck two agents' grouped results for one test specification.

    *engine* is the (possibly shared) encoding to scan on; by default a
    fresh one is created for this report.
    """

    if grouped_a.test_key != grouped_b.test_key:
        raise CrosscheckError(
            "cannot crosscheck different tests: %r vs %r"
            % (grouped_a.test_key, grouped_b.test_key)
        )
    if engine is None:
        engine = GroupEncoding()
    engine.bind_test(grouped_a.test_key)

    started = time.perf_counter()
    tally = _Tally(grouped_a.agent_name, grouped_b.agent_name)
    solver_stats = _scan_rows(grouped_a, grouped_b, engine, tally)

    return CrosscheckReport(
        agent_a=grouped_a.agent_name,
        agent_b=grouped_b.agent_name,
        test_key=grouped_a.test_key,
        inconsistencies=tally.inconsistencies,
        queries=tally.queries,
        unsat_pairs=tally.unsat_pairs,
        unknown_pairs=tally.unknown_pairs,
        checking_time=time.perf_counter() - started,
        identical_output_pairs=tally.identical,
        solver_stats=solver_stats,
    )


@dataclass
class _Tally:
    """Running counts of one crosscheck report."""

    agent_a: str
    agent_b: str
    inconsistencies: List[Inconsistency] = field(default_factory=list)
    queries: int = 0
    unsat_pairs: int = 0
    unknown_pairs: int = 0
    identical: int = 0

    def record(self, group_a: OutputGroup, group_b: OutputGroup,
               result: SatResult, elapsed: float) -> None:
        """Count one decided pair; a SAT pair becomes an inconsistency."""

        self.queries += 1
        if result.is_sat:
            self.inconsistencies.append(Inconsistency(
                agent_a=self.agent_a,
                agent_b=self.agent_b,
                trace_a=group_a.trace,
                trace_b=group_b.trace,
                condition=bool_and(group_a.condition, group_b.condition),
                example=dict(result.model),
                solver_time=elapsed,
            ))
        elif result.is_unsat:
            self.unsat_pairs += 1
        else:
            self.unknown_pairs += 1


def _scan_rows(grouped_a: GroupedResults, grouped_b: GroupedResults,
               engine: GroupEncoding, tally: _Tally) -> Dict[str, object]:
    """One :meth:`GroupEncoding.check_row` per A-group."""

    via_counts: Counter = Counter()
    calls: Counter = Counter()
    for group_a in grouped_a.groups:
        candidates: List[OutputGroup] = []
        for group_b in grouped_b.groups:
            if group_a.trace == group_b.trace:
                tally.identical += 1
            else:
                candidates.append(group_b)
        scan = engine.check_row(group_a.condition,
                                [group_b.condition for group_b in candidates])
        row_vias = Counter(outcome.via for outcome in scan.outcomes)
        via_counts.update(row_vias)
        # A row finishes pair by pair with one "assumption" solve per pair.
        calls.update(row_solves=scan.row_solves, hit_rounds=scan.hit_rounds,
                     pairwise_fallbacks=int(row_vias["assumption"] > 0))
        for group_b, outcome in zip(candidates, scan.outcomes):
            tally.record(group_a, group_b, outcome.result, outcome.result.time)
    return {
        "trivial": via_counts["trivial"],
        "pair_cache_hits": via_counts["pair-cache"],
        "assumption_solves": calls["row_solves"] + via_counts["assumption"],
        "row_solves": calls["row_solves"],
        "hit_rounds": calls["hit_rounds"],
        "pairwise_fallbacks": calls["pairwise_fallbacks"],
        "engine": engine.stats_dict(),
    }
