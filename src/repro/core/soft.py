"""The result of the SOFT pipeline on one test and one pair of agents.

:class:`~repro.core.campaign.Campaign` runs the pipeline: Phase 1
(per-agent symbolic exploration), Phase 2a (grouping by output), Phase 2b
(crosschecking with the constraint solver), and concrete replay and triage
of every inconsistency.  It returns one :class:`SoftReport` per (test,
pair); a single pair is ``Campaign(tests=[test], pairs=[(a, b)])``.

A pair that replays keeps one :class:`~repro.core.witness.Witness` per
inconsistency: the concrete input, both replay traces and whether they
diverged.  That is the pair's whole Phase-2 record beyond the crosscheck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.crosscheck import CrosscheckReport, Inconsistency
from repro.core.explorer import AgentExplorationReport
from repro.core.grouping import GroupedResults
from repro.core.witness import Witness

__all__ = ["SoftReport"]


@dataclass
class SoftReport:
    """Complete result of one SOFT run over one test and two agents."""

    test_key: str
    agent_a: str
    agent_b: str
    exploration_a: AgentExplorationReport
    exploration_b: AgentExplorationReport
    grouped_a: GroupedResults
    grouped_b: GroupedResults
    crosscheck: CrosscheckReport
    #: One witness per inconsistency, in inconsistency order, when the pair
    #: replays (both agents registered and replay on); empty otherwise.
    witnesses: List[Witness] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def inconsistencies(self) -> List[Inconsistency]:
        return self.crosscheck.inconsistencies

    @property
    def inconsistency_count(self) -> int:
        return self.crosscheck.inconsistency_count

    def verified_inconsistency_count(self) -> int:
        """Inconsistencies whose concrete replay reproduced the divergence."""

        return sum(1 for witness in self.witnesses if witness.confirmed)

    def summary_row(self) -> Dict[str, object]:
        """One flat row of counts shared by :meth:`describe`, the CLI table and JSON.

        Solver-query and replay-verified counts come from here everywhere, so
        the human-readable and machine-readable outputs can never disagree.
        """

        return {
            "test": self.test_key,
            "agent_a": self.agent_a,
            "agent_b": self.agent_b,
            "paths_a": self.exploration_a.path_count,
            "paths_b": self.exploration_b.path_count,
            "outputs_a": self.grouped_a.distinct_output_count,
            "outputs_b": self.grouped_b.distinct_output_count,
            "solver_queries": self.crosscheck.queries,
            "inconsistencies": self.inconsistency_count,
            "replay_verified": self.verified_inconsistency_count(),
            "total_time": self.total_time,
        }

    def describe(self) -> str:
        row = self.summary_row()
        lines = [
            "SOFT report: test=%s agents=%s vs %s" % (self.test_key, self.agent_a, self.agent_b),
            "  %s: %d paths, %d distinct outputs" % (
                self.agent_a, row["paths_a"], row["outputs_a"]),
            "  %s: %d paths, %d distinct outputs" % (
                self.agent_b, row["paths_b"], row["outputs_b"]),
            "  solver queries: %d, inconsistencies: %d (%d replay-verified)" % (
                row["solver_queries"], row["inconsistencies"], row["replay_verified"]),
            "  total time: %.2fs" % row["total_time"],
        ]
        for index, inconsistency in enumerate(self.inconsistencies):
            lines.append("  --- inconsistency %d ---" % (index + 1))
            lines.append("  " + inconsistency.describe().replace("\n", "\n  "))
        return "\n".join(lines)
