"""The end-to-end SOFT pipeline.

:class:`SOFT` wires Phase 1 (per-agent symbolic exploration), Phase 2a
(grouping by output) and Phase 2b (crosschecking with the constraint solver)
behind one object, and optionally materializes and replays a concrete test
case per inconsistency.  This is the API the examples and the CLI use; the
individual stages remain available for users who want the paper's
"vendors run Phase 1 independently" workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.crosscheck import CrosscheckReport, Inconsistency, find_inconsistencies
from repro.core.explorer import AgentExplorationReport, explore_agent
from repro.core.grouping import GroupedResults, group_paths
from repro.core.testcase import ConcreteTestCase, ReplayOutcome
from repro.core.tests_catalog import TestSpec
from repro.core.witness import Witness
from repro.symbex.engine import EngineConfig
from repro.symbex.solver import GroupEncoding

__all__ = ["SOFT", "SoftReport"]


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
    testcases: List[ConcreteTestCase] = field(default_factory=list)
    replays: List[ReplayOutcome] = field(default_factory=list)
    #: Structured (replay-confirmed, possibly minimized) witnesses — one per
    #: inconsistency when the pair went through triage, empty otherwise.
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

        return sum(1 for replay in self.replays if replay.diverged)

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


class SOFT:
    """Systematic OpenFlow Testing: the paper's tool, end to end."""

    def __init__(self, engine_config: Optional[EngineConfig] = None,
                 with_coverage: bool = False,
                 replay_testcases: bool = True,
                 triage: bool = True) -> None:
        self.engine_config = engine_config
        self.with_coverage = with_coverage
        self.replay_testcases = replay_testcases
        self.triage = triage

    # ------------------------------------------------------------------
    # Individual phases
    # ------------------------------------------------------------------

    def explore(self, agent: str, test: Union[str, TestSpec]) -> AgentExplorationReport:
        """Phase 1 for one agent (what a vendor runs in-house)."""

        return explore_agent(agent, test, engine_config=self.engine_config,
                             with_coverage=self.with_coverage)

    def group(self, report: AgentExplorationReport) -> GroupedResults:
        """Phase 2a: group one agent's paths by output."""

        return group_paths(report)

    def crosscheck(self, grouped_a: GroupedResults,
                   grouped_b: GroupedResults) -> CrosscheckReport:
        """Phase 2b: find inconsistencies between two grouped results."""

        return find_inconsistencies(grouped_a, grouped_b, engine=GroupEncoding())

    # ------------------------------------------------------------------
    # End-to-end convenience
    # ------------------------------------------------------------------

    def _campaign(self, tests: Sequence[Union[str, TestSpec]], agent_a: str,
                  agent_b: str):
        """A single-pair campaign mirroring this SOFT instance's configuration."""

        from repro.core.campaign import Campaign

        return Campaign(
            tests=list(tests),
            pairs=[(agent_a, agent_b)],
            engine_config=self.engine_config,
            with_coverage=self.with_coverage,
            replay_testcases=self.replay_testcases,
            triage=self.triage,
        )

    def run(self, test: Union[str, TestSpec], agent_a: str, agent_b: str) -> SoftReport:
        """Run the full pipeline for one test and one pair of agents.

        Thin wrapper over a single-pair :class:`~repro.core.campaign.Campaign`.
        """

        return self._campaign([test], agent_a, agent_b).run().reports[0]

    def run_many(self, tests: Sequence[Union[str, TestSpec]], agent_a: str,
                 agent_b: str) -> Dict[str, SoftReport]:
        """Run the full pipeline for several tests against the same agent pair."""

        campaign_report = self._campaign(tests, agent_a, agent_b).run()
        return {report.test_key: report for report in campaign_report.reports}
