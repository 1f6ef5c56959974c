"""Phase 1: symbolically execute one agent with one test specification.

``explore_agent`` wires together the test harness, the exploration engine and
(optionally) the coverage tracker, and produces an
:class:`AgentExplorationReport` — the per-agent intermediate result that a
vendor would hand to the crosschecking party in the paper's usage model
(§2.4): path conditions plus normalized output traces, but no source code.
The engine explores every feasible path depth-first, so the report's paths
come in one fixed order; only the :class:`EngineConfig` budgets can cut the
set short.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.agents import make_agent
from repro.agents.common.base import OpenFlowAgent
from repro.core.tests_catalog import TestSpec, get_test
from repro.core.trace import OutputTrace, normalize_events
from repro.coverage.tracker import CoverageReport, CoverageTracker
from repro.harness.driver import TestDriver
from repro.symbex.engine import Engine, EngineConfig, PathRecord
from repro.symbex.expr import BoolExpr
from repro.testing.faults import fault_point

__all__ = ["PathOutcome", "AgentExplorationReport", "explore_agent"]

AgentSpec = Union[str, Callable[[], OpenFlowAgent]]


@dataclass
class PathOutcome:
    """One explored path: its input constraints and its observable result."""

    path_id: int
    constraints: List[BoolExpr]
    trace: OutputTrace
    constraint_size: int
    decisions: int
    symbols: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class AgentExplorationReport:
    """Everything Phase 2 needs to know about one (agent, test) exploration."""

    agent_name: str
    test_key: str
    outcomes: List[PathOutcome]
    cpu_time: float
    path_count: int
    message_count: int
    solver_stats: Dict[str, float] = field(default_factory=dict)
    engine_stats: Dict[str, float] = field(default_factory=dict)
    coverage: Optional[CoverageReport] = None
    truncated: bool = False
    #: Scale profile of the explored test spec ("small"/"paper", §Table 1).
    scale: str = "small"

    def average_constraint_size(self) -> float:
        sizes = [o.constraint_size for o in self.outcomes]
        return sum(sizes) / len(sizes) if sizes else 0.0

    def max_constraint_size(self) -> int:
        sizes = [o.constraint_size for o in self.outcomes]
        return max(sizes) if sizes else 0

    def distinct_traces(self) -> List[OutputTrace]:
        seen: Dict[OutputTrace, None] = {}
        for outcome in self.outcomes:
            seen.setdefault(outcome.trace, None)
        return list(seen.keys())

    def summary_row(self) -> Dict[str, object]:
        """One row of the paper's Table 2 for this (agent, test) pair."""

        return {
            "agent": self.agent_name,
            "test": self.test_key,
            "message_count": self.message_count,
            "cpu_time": self.cpu_time,
            "path_count": self.path_count,
            "avg_constraint_size": self.average_constraint_size(),
            "max_constraint_size": self.max_constraint_size(),
        }

    #: Format tag stamped into serialized artifacts.
    ARTIFACT_FORMAT = "soft/exploration-artifact/v2"

    def to_dict(self) -> Dict[str, object]:
        """Serialize the whole Phase-1 result as a JSON-safe dict.

        This is the paper's vendor artifact: path conditions plus normalized
        output traces, but no agent source code.  ``terms`` holds each
        distinct term once (see :class:`~repro.symbex.serialize.TermTableWriter`)
        and ``traces`` each distinct trace once; every outcome refers to
        them by index.  Round-trips through :meth:`from_dict` to a report
        whose grouping and crosschecking results are identical to the
        original's.
        """

        from repro.symbex.serialize import TermTableWriter

        terms = TermTableWriter()
        traces: Dict[OutputTrace, int] = {}
        outcomes = [
            {
                "path_id": outcome.path_id,
                "constraints": [terms.add(c) for c in outcome.constraints],
                "trace": traces.setdefault(outcome.trace, len(traces)),
                "constraint_size": outcome.constraint_size,
                "decisions": outcome.decisions,
                "symbols": dict(outcome.symbols),
                "error": outcome.error,
            }
            for outcome in self.outcomes
        ]
        return {
            "format": self.ARTIFACT_FORMAT,
            "agent": self.agent_name,
            "test": self.test_key,
            "scale": self.scale,
            "cpu_time": self.cpu_time,
            "path_count": self.path_count,
            "message_count": self.message_count,
            "solver_stats": dict(self.solver_stats),
            "engine_stats": dict(self.engine_stats),
            "coverage": self.coverage.as_dict() if self.coverage is not None else None,
            "truncated": self.truncated,
            "terms": terms.rows,
            "traces": [trace.to_obj() for trace in traces],
            "outcomes": outcomes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AgentExplorationReport":
        """Rebuild a Phase-1 artifact serialized with :meth:`to_dict`."""

        from repro.errors import ArtifactError, ExpressionError
        from repro.symbex.serialize import terms_from_table

        if not isinstance(data, dict):
            raise ArtifactError("exploration artifact must be a JSON object, got %r"
                                % (type(data).__name__,))
        tag = data.get("format")
        if tag != cls.ARTIFACT_FORMAT:
            raise ArtifactError(
                "unsupported artifact format %r (this version reads %r; explore "
                "and save again to convert an older artifact)"
                % (tag, cls.ARTIFACT_FORMAT))
        try:
            terms = terms_from_table(data["terms"])
            # Only boolean rows can be path constraints.
            conditions = {row: term for row, term in enumerate(terms)
                          if isinstance(term, BoolExpr)}
            traces = [OutputTrace.from_obj(obj) for obj in data["traces"]]
            outcomes = [_outcome_from_obj(obj, conditions, traces)
                        for obj in data["outcomes"]]
            coverage_data = data.get("coverage")
            return cls(
                agent_name=str(data["agent"]),
                test_key=str(data["test"]),
                scale=str(data.get("scale", "small")),
                outcomes=outcomes,
                cpu_time=float(data.get("cpu_time", 0.0)),
                path_count=int(data.get("path_count", len(outcomes))),
                message_count=int(data.get("message_count", 0)),
                solver_stats=dict(data.get("solver_stats", {})),
                engine_stats=dict(data.get("engine_stats", {})),
                coverage=(CoverageReport.from_dict(coverage_data)
                          if coverage_data is not None else None),
                truncated=bool(data.get("truncated", False)),
            )
        except (KeyError, TypeError, ValueError, ExpressionError) as exc:
            raise ArtifactError("malformed exploration artifact: %s" % (exc,))


def _outcome_from_obj(obj: Dict[str, object], conditions: Dict[int, BoolExpr],
                      traces: List[OutputTrace]) -> PathOutcome:
    """One serialized outcome, its indices resolved against the shared tables."""

    constraints = []
    for row in obj["constraints"]:
        # ``type(...) is int`` rejects JSON true/false and floats as indices.
        term = conditions.get(row) if type(row) is int else None
        if term is None:
            raise ValueError("path %r: constraint %r is not a boolean term row"
                             % (obj.get("path_id"), row))
        constraints.append(term)
    trace = obj["trace"]
    if type(trace) is not int or not 0 <= trace < len(traces):
        raise ValueError("path %r: trace %r is not a trace row"
                         % (obj.get("path_id"), trace))
    return PathOutcome(
        path_id=int(obj["path_id"]),
        constraints=constraints,
        trace=traces[trace],
        constraint_size=int(obj.get("constraint_size", 0)),
        decisions=int(obj.get("decisions", 0)),
        symbols={str(k): int(v) for k, v in dict(obj.get("symbols", {})).items()},
        error=obj.get("error"),
    )


def _resolve_agent_factory(agent: AgentSpec) -> (str, Callable[[], OpenFlowAgent]):
    if isinstance(agent, str):
        name = agent
        return name, lambda: make_agent(name)
    if callable(agent):
        probe = agent()
        return probe.NAME, agent
    raise TypeError("agent must be a registered name or a zero-argument factory")


def explore_agent(agent: AgentSpec,
                  test: Union[str, TestSpec],
                  engine_config: Optional[EngineConfig] = None,
                  with_coverage: bool = False) -> AgentExplorationReport:
    """Run Phase 1 for one agent and one test specification.

    The engine explores every feasible path depth-first; *engine_config*
    bounds it (a truncated exploration sets ``truncated``), and
    *with_coverage* traces the agent's packages for a coverage report.
    """

    agent_name, factory = _resolve_agent_factory(agent)
    spec = get_test(test) if isinstance(test, str) else test
    fault_point("phase1", "%s:%s" % (agent_name, spec.key))

    tracker = CoverageTracker(packages=[
        "repro.agents.common", "repro.agents.%s" % agent_name,
    ]) if with_coverage else None
    driver = TestDriver(agent_factory=factory, inputs=spec.inputs,
                        coverage_tracker=tracker)
    started = time.process_time()
    wall_started = time.perf_counter()
    # A temporary engine: its prefix trie and SAT instance are freed before
    # the report is built, which keeps them out of the peak.
    result = Engine(config=engine_config).explore(driver.program)
    cpu_time = time.process_time() - started
    wall_time = time.perf_counter() - wall_started

    outcomes = [_outcome_from_record(record) for record in result.paths]
    engine_stats = asdict(result.stats)
    engine_stats["wall_time"] = wall_time

    report = AgentExplorationReport(
        agent_name=agent_name,
        test_key=spec.key,
        scale=spec.scale,
        outcomes=outcomes,
        cpu_time=cpu_time,
        path_count=len(outcomes),
        message_count=spec.message_count,
        solver_stats=result.solver_stats,
        engine_stats=engine_stats,
        coverage=tracker.report() if tracker is not None else None,
        truncated=result.stats.truncated,
    )
    return report


def _outcome_from_record(record: PathRecord) -> PathOutcome:
    trace = OutputTrace(items=normalize_events(record.events))
    return PathOutcome(
        path_id=record.path_id,
        constraints=record.condition.constraints(),
        trace=trace,
        constraint_size=record.constraint_size(),
        decisions=len(record.decisions),
        symbols=dict(record.symbols),
        error=record.error,
    )
