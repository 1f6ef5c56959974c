"""Phase 2a: group path conditions by identical output result.

This is the paper's *group* tool (§4.2): it reads the per-path records of one
agent, identifies the distinct normalized output traces, and builds — for each
distinct trace ``r`` — the disjunction ``C(r)`` of all path conditions that
produced it.  To keep the later solver queries shallow, the disjunction is
assembled as a balanced binary tree of ``or`` nodes, the same optimization the
original tool applies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.explorer import AgentExplorationReport, PathOutcome
from repro.core.trace import OutputTrace
from repro.errors import PipelineError
from repro.symbex.expr import BoolExpr, bool_and, bool_or

__all__ = ["OutputGroup", "GroupedResults", "group_paths", "balanced_or"]


def balanced_or(terms: Sequence[BoolExpr]) -> BoolExpr:
    """Combine *terms* with ``or`` as a balanced tree (minimizes nesting depth)."""

    terms = list(terms)
    if not terms:
        raise PipelineError("cannot build a disjunction over zero terms")
    while len(terms) > 1:
        paired: List[BoolExpr] = []
        for index in range(0, len(terms) - 1, 2):
            paired.append(bool_or(terms[index], terms[index + 1]))
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


@dataclass
class OutputGroup:
    """All paths of one agent that produced the same normalized output."""

    trace: OutputTrace
    condition: BoolExpr
    path_ids: List[int] = field(default_factory=list)
    path_count: int = 0

    def describe(self) -> str:
        return "%d path(s) -> %s" % (self.path_count, self.trace.short())


@dataclass
class GroupedResults:
    """The grouped intermediate result of one (agent, test) exploration."""

    agent_name: str
    test_key: str
    groups: List[OutputGroup]
    grouping_time: float
    total_paths: int

    @property
    def distinct_output_count(self) -> int:
        return len(self.groups)

    def group_for(self, trace: OutputTrace) -> Optional[OutputGroup]:
        for group in self.groups:
            if group.trace == trace:
                return group
        return None

    def traces(self) -> List[OutputTrace]:
        return [group.trace for group in self.groups]


def group_paths(report: AgentExplorationReport,
                include_failed_paths: bool = False) -> GroupedResults:
    """Group an exploration report's paths by their normalized output trace."""

    started = time.perf_counter()
    buckets: Dict[OutputTrace, List[PathOutcome]] = {}
    for outcome in report.outcomes:
        if not include_failed_paths and not outcome.ok:
            continue
        buckets.setdefault(outcome.trace, []).append(outcome)

    groups: List[OutputGroup] = []
    for trace, outcomes in buckets.items():
        conjunctions = [bool_and(True, *outcome.constraints) for outcome in outcomes]
        condition = balanced_or(conjunctions)
        groups.append(OutputGroup(
            trace=trace,
            condition=condition,
            path_ids=[o.path_id for o in outcomes],
            path_count=len(outcomes),
        ))

    # Deterministic ordering: largest groups first, ties broken by trace text.
    groups.sort(key=lambda g: (-g.path_count, str(g.trace.items)))
    elapsed = time.perf_counter() - started
    return GroupedResults(
        agent_name=report.agent_name,
        test_key=report.test_key,
        groups=groups,
        grouping_time=elapsed,
        total_paths=sum(g.path_count for g in groups),
    )
