"""Campaign sessions: N tests x M agents, explored once, crosschecked all-pairs.

The paper's workflow is two-phase: every vendor runs Phase 1 (symbolic
exploration) exactly once per test, and only the intermediate results are
pairwise crosschecked in Phase 2.  :class:`Campaign` is the one entry point
to that pipeline (a single pair on a single test is a one-pair campaign,
``Campaign(tests=[test], pairs=[(a, b)])``):

* Phase 1 runs **once per (agent, test, scale)** with the default
  :class:`~repro.symbex.engine.EngineConfig` through an
  :class:`ExplorationCache` — an all-pairs campaign over M agents performs M
  explorations per test, not ``2 * C(M, 2)``.
* Cache entries can be **seeded from saved artifacts**
  (:mod:`repro.core.artifacts`), enabling the vendor exchange of §2.4:
  explore in-house, save to JSON, crosscheck later without source code or
  re-exploration.
* Pairs fan out across a worker pool (``workers=N``).  Threads are the
  default executor; ``executor="process"`` runs Phase 1 in separate
  processes for true CPU parallelism (specs that do not pickle — e.g. with
  closure-built inputs — transparently fall back to the thread pool).
* Phase 2b runs on one shared incremental SAT engine per test and run (a
  :class:`~repro.symbex.solver.GroupEncoding`), so each agent's group
  conditions are bit-blasted **once per test** no matter how many pairs
  reference them, and every pair query is an assumption-based re-solve of
  the shared instance.
* Each inconsistency of a pair whose agents are both registered is turned
  into a concrete test case, replayed on both agents and kept as one
  :class:`~repro.core.witness.Witness` (delta-minimized when it diverged).
  A campaign-wide :class:`~repro.core.witness.TriageIndex` clusters the
  witnesses by divergence signature.
* The result is a :class:`CampaignReport` aggregating one
  :class:`~repro.core.soft.SoftReport` per (test, pair), with totals, timing
  and machine-readable JSON output.

Quickstart::

    from repro import Campaign

    report = (Campaign()
              .with_tests("stats_request", "set_config")
              .with_agents("reference", "ovs", "modified")
              .with_workers(4)
              .run())
    print(report.describe())
    print(report.to_json())
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.agents.registry import AGENT_REGISTRY
from repro.core.artifacts import load_exploration_artifact
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.crosscheck import find_inconsistencies
from repro.core.explorer import AgentExplorationReport, explore_agent
from repro.core.jobs import CampaignJob, JobFailure, JobResult, JobSupervisor
from repro.core.grouping import GroupedResults, group_paths
from repro.core.corpus import WitnessCorpus
from repro.core.soft import SoftReport
from repro.core.testcase import ConcreteTestCase, ReplayOutcome, build_testcase, replay_testcase
from repro.core.tests_catalog import TABLE1_TESTS, TestSpec, get_test
from repro.core.witness import (
    TriageIndex,
    TriageReport,
    Witness,
    build_witness,
    minimize_witness,
)
from repro.errors import CampaignError
from repro.symbex.expr import intern_table
from repro.symbex.solver import GroupEncoding

__all__ = ["Campaign", "CampaignReport", "ExplorationCache"]

# Process exit codes `soft campaign` maps campaign outcomes onto; see
# :attr:`CampaignReport.exit_code`.
EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_CRASHED = 3

TestLike = Union[str, TestSpec]
Pair = Tuple[str, str]


@dataclass
class _CacheEntry:
    report: AgentExplorationReport
    grouped: GroupedResults
    loaded: bool = False
    #: Wall-clock seconds Phase 1 took for this entry (0.0 when loaded).
    wall_time: float = 0.0
    #: Number of times this entry has been retrieved.
    uses: int = 0


class ExplorationCache:
    """Thread-safe store of Phase-1 results, keyed by (agent, test, scale)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, str, str], _CacheEntry] = {}
        #: Retrievals beyond the first per entry — i.e. explorations *saved*.
        self.hits = 0

    @staticmethod
    def _key(agent: str, spec: TestSpec) -> Tuple[str, str, str]:
        return (agent, spec.key, spec.scale)

    def seed(self, report: AgentExplorationReport, spec: TestSpec,
             grouped: Optional[GroupedResults] = None, loaded: bool = False,
             wall_time: float = 0.0) -> None:
        """Install a Phase-1 result (freshly explored or loaded from disk)."""

        entry = _CacheEntry(report=report, grouped=grouped or group_paths(report),
                            loaded=loaded, wall_time=wall_time)
        with self._lock:
            self._entries[self._key(report.agent_name, spec)] = entry

    def contains(self, agent: str, spec: TestSpec) -> bool:
        with self._lock:
            return self._key(agent, spec) in self._entries

    def peek(self, agent: str, spec: TestSpec) -> Optional[_CacheEntry]:
        """The cached entry, without touching the hit/use accounting."""

        with self._lock:
            return self._entries.get(self._key(agent, spec))

    def get(self, agent: str, spec: TestSpec) -> _CacheEntry:
        with self._lock:
            try:
                entry = self._entries[self._key(agent, spec)]
            except KeyError:
                raise CampaignError("no cached exploration for agent %r on test %r"
                                    % (agent, spec.key))
            if entry.uses:
                self.hits += 1
            entry.uses += 1
            return entry

    def scales_for(self, agent: str, test_key: str) -> List[str]:
        """Scales this (agent, test) is cached at (for mismatch diagnostics)."""

        with self._lock:
            return sorted(scale for (name, key, scale) in self._entries
                          if name == agent and key == test_key)

    def loaded_agent_names(self) -> List[str]:
        """Agents with at least one artifact-seeded entry."""

        with self._lock:
            return sorted({name for (name, _, _), entry in self._entries.items()
                           if entry.loaded})

    @property
    def loaded_count(self) -> int:
        with self._lock:
            return sum(1 for entry in self._entries.values() if entry.loaded)


def _explore_spec_unit(agent: str, spec: TestSpec) -> Tuple[AgentExplorationReport, float]:
    """Phase 1 for one unit; module-level so process pools can run it.

    ``explore_agent`` is looked up as this module's global on purpose:
    tests and the span tracer replace it to instrument Phase 1.
    """

    started = time.perf_counter()
    report = explore_agent(agent, spec)
    return report, time.perf_counter() - started


def _picklable(spec: TestSpec) -> bool:
    """Whether *spec* can be shipped to a worker process as-is."""

    import pickle

    try:
        pickle.dumps(spec)
        return True
    except (pickle.PicklingError, TypeError, AttributeError):
        return False


@dataclass
class CampaignReport:
    """Aggregated result of one campaign: every (test, pair) crosscheck."""

    tests: List[str]
    agents: List[str]
    pairs: List[Pair]
    #: One SoftReport per (test, pair), test-major order.
    reports: List[SoftReport]
    #: Phase-1 explorations actually executed during this run.
    explorations_run: int
    #: Cache entries seeded from saved artifacts (never re-explored).
    explorations_loaded: int
    #: Cache retrievals beyond the first per (agent, test) during this run —
    #: explorations saved relative to the per-pair re-exploration of the old API.
    cache_hits: int
    workers: int
    #: Witness triage: the replayed, minimized and clustered inconsistencies,
    #: plus the pairs whose inconsistencies could not be replayed.
    triage: TriageReport
    total_time: float = 0.0
    #: Agents whose loaded artifacts were never consumed (excluded by the
    #: pair list); non-empty means a supplied artifact contributed nothing.
    unused_loaded_agents: List[str] = dataclass_field(default_factory=list)
    #: Phase-2b solver counters of this run: the per-test engines'
    #: counters summed, the pair reports' scan counts summed, and
    #: ``engines``.
    solver_stats: Dict[str, object] = dataclass_field(default_factory=dict)
    #: One row per (agent, test) Phase-1 exploration this campaign consumed:
    #: paths, solver queries, truncation.
    exploration_stats: List[Dict[str, object]] = dataclass_field(default_factory=list)
    #: Hash-consing activity during this run (hit/miss deltas) plus the
    #: absolute size of the shared intern table.
    intern_stats: Dict[str, object] = dataclass_field(default_factory=dict)
    #: Where cluster representatives were persisted, and how many bundles the
    #: run actually wrote (0 = the corpus already contained them all).
    corpus_dir: Optional[str] = None
    corpus_saved: int = 0
    #: Coverage aggregate over the explorations that carry coverage (seeded
    #: artifacts saved by ``soft explore --coverage``): static decision-map
    #: sites, the dynamic branch points reached, and their ratio (the true
    #: ``coverage_fraction``).
    coverage: Optional[Dict[str, object]] = None
    #: Structured records of every cell that terminalized non-``ok``
    #: (failed / timed_out / crashed / skipped); empty on a clean run.
    job_failures: List[JobFailure] = dataclass_field(default_factory=list)
    #: Executor degradations the supervisor recorded (broken process pools
    #: demoted to threads, unpicklable specs); non-empty means the campaign
    #: did not run on the executor it was asked for.
    executor_degraded: List[Dict[str, object]] = dataclass_field(default_factory=list)
    #: Terminal-state histogram of this run's cells (``{"ok": 7, ...}``).
    job_states: Dict[str, int] = dataclass_field(default_factory=dict)
    #: Checkpoint directory this run journaled into, if any.
    checkpoint_dir: Optional[str] = None
    #: Cells restored from the checkpoint instead of being re-run.
    resumed_cells: int = 0

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 completed-with-failures, 3 crashed.

        A cell that kept *crashing* (dead workers) is a different severity
        than one that failed or timed out in its own code — callers scripting
        around ``soft campaign`` can tell them apart.
        """

        if any(failure.state == "crashed" for failure in self.job_failures):
            return EXIT_CRASHED
        if self.job_failures:
            return EXIT_FAILURES
        return EXIT_OK

    @property
    def coverage_fraction(self) -> Optional[float]:
        """Dynamic branch points / static decision-map sites, campaign-wide.

        ``None`` when no exploration of the campaign carried coverage.
        """

        if self.coverage is None:
            return None
        return float(self.coverage.get("coverage_fraction", 0.0))

    def report_for(self, test: str, agent_a: str, agent_b: str) -> Optional[SoftReport]:
        """The pair report for (*test*, *agent_a*, *agent_b*), order-insensitive."""

        for report in self.reports:
            if report.test_key != test:
                continue
            if {report.agent_a, report.agent_b} == {agent_a, agent_b}:
                return report
        return None

    @property
    def pair_count(self) -> int:
        return len(self.reports)

    @property
    def total_inconsistencies(self) -> int:
        return sum(report.inconsistency_count for report in self.reports)

    @property
    def total_queries(self) -> int:
        return sum(report.crosscheck.queries for report in self.reports)

    @property
    def total_replay_verified(self) -> int:
        return sum(report.verified_inconsistency_count() for report in self.reports)

    def summary_rows(self) -> List[Dict[str, object]]:
        """One :meth:`SoftReport.summary_row` per pair (CLI table = JSON rows)."""

        return [report.summary_row() for report in self.reports]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendering: totals plus per-pair rows with inconsistencies."""

        pair_objs: List[Dict[str, object]] = []
        for report in self.reports:
            row = report.summary_row()
            row["inconsistencies_detail"] = [
                {
                    "trace_a": inconsistency.trace_a.to_obj(),
                    "trace_b": inconsistency.trace_b.to_obj(),
                    "example": {str(k): int(v) for k, v in inconsistency.example.items()},
                    "solver_time": inconsistency.solver_time,
                }
                for inconsistency in report.inconsistencies
            ]
            row["replays_diverged"] = [witness.confirmed for witness in report.witnesses]
            pair_objs.append(row)
        return {
            "format": "soft/campaign-report/v1",
            "tests": list(self.tests),
            "agents": list(self.agents),
            "pairs": [list(pair) for pair in self.pairs],
            "workers": self.workers,
            "explorations_run": self.explorations_run,
            "explorations_loaded": self.explorations_loaded,
            "cache_hits": self.cache_hits,
            "unused_loaded_agents": list(self.unused_loaded_agents),
            "solver_stats": dict(self.solver_stats),
            "intern_stats": dict(self.intern_stats),
            "triage": self.triage.to_dict(),
            "corpus": ({"dir": self.corpus_dir, "saved": self.corpus_saved}
                       if self.corpus_dir else None),
            "explorations": [dict(row) for row in self.exploration_stats],
            "coverage": dict(self.coverage) if self.coverage is not None else None,
            "job_failures": [failure.to_dict() for failure in self.job_failures],
            "job_states": dict(self.job_states),
            "executor_degraded": [dict(event) for event in self.executor_degraded],
            "checkpoint": ({"dir": self.checkpoint_dir,
                            "resumed_cells": self.resumed_cells}
                           if self.checkpoint_dir else None),
            "exit_code": self.exit_code,
            "totals": {
                "pair_reports": self.pair_count,
                "solver_queries": self.total_queries,
                "inconsistencies": self.total_inconsistencies,
                "replay_verified": self.total_replay_verified,
                "total_time": self.total_time,
            },
            "pair_reports": pair_objs,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Machine-readable report (``soft campaign --json``)."""

        return json.dumps(self.to_dict(), indent=indent)

    def describe(self) -> str:
        """Human-readable table over the same counts as :meth:`to_dict`."""

        lines = [
            "campaign: %d test(s) x %d agent(s), %d pair report(s), workers=%d"
            % (len(self.tests), len(self.agents), self.pair_count, self.workers),
            "  phase 1: %d exploration(s) run, %d loaded from artifacts, "
            "%d exploration(s) saved by the cache"
            % (self.explorations_run, self.explorations_loaded, self.cache_hits),
        ]
        if self.checkpoint_dir:
            lines.append("  checkpoint: %s (%d cell(s) restored on resume)"
                         % (self.checkpoint_dir, self.resumed_cells))
        for event in self.executor_degraded:
            lines.append("  warning: executor degraded: %s"
                         % event.get("reason", event.get("kind", "unknown")))
        for failure in self.job_failures:
            lines.append("  cell %s" % failure.describe())
        explored = [row for row in self.exploration_stats if not row.get("loaded")]
        if explored:
            lines.append(
                "  phase 1 engine: %d path(s), %d solver query(ies)"
                % (sum(int(row.get("paths") or 0) for row in explored),
                   sum(int(row.get("solver_queries") or 0) for row in explored)))
        stats = self.solver_stats or {}
        if "engines" in stats:
            lines.append(
                "  phase 2b: incremental: %d engine(s), %d group(s) encoded "
                "(%d reused), %d pair(s) decided by %d SAT call(s) "
                "(%d row solve(s), %d hit round(s), %d pairwise fallback(s))"
                % (stats["engines"], stats.get("groups_encoded", 0),
                   stats.get("encoding_reuses", 0), self.total_queries,
                   stats.get("assumption_solves", 0),
                   stats.get("row_solves", 0), stats.get("hit_rounds", 0),
                   stats.get("pairwise_fallbacks", 0)))
        if self.coverage is not None:
            lines.append(
                "  coverage: %d of %d static decision site(s) reached "
                "(coverage_fraction=%.3f)"
                % (self.coverage.get("executed_branch_points", 0),
                   self.coverage.get("decision_sites", 0),
                   float(self.coverage.get("coverage_fraction", 0.0))))
        if self.intern_stats:
            lines.append(
                "  terms: %d distinct interned (%.0f%% construction hit rate)"
                % (self.intern_stats.get("distinct_terms", 0),
                   100.0 * float(self.intern_stats.get("hit_rate") or 0.0)))
        if self.unused_loaded_agents:
            lines.append(
                "  warning: loaded artifact(s) for %s matched no pair and were unused"
                % ", ".join(self.unused_loaded_agents))
        lines.append(
            "  %-14s %-24s %9s %9s %8s %7s %9s %8s"
            % ("TEST", "PAIR", "PATHS", "OUTPUTS", "QUERIES", "INCONS", "VERIFIED", "TIME"))
        for row in self.summary_rows():
            lines.append(
                "  %-14s %-24s %9s %9s %8d %7d %9d %7.2fs"
                % (
                    row["test"],
                    "%s vs %s" % (row["agent_a"], row["agent_b"]),
                    "%d/%d" % (row["paths_a"], row["paths_b"]),
                    "%d/%d" % (row["outputs_a"], row["outputs_b"]),
                    row["solver_queries"],
                    row["inconsistencies"],
                    row["replay_verified"],
                    row["total_time"],
                ))
        lines.append(
            "  totals: %d solver queries, %d inconsistencies (%d replay-verified), %.2fs"
            % (self.total_queries, self.total_inconsistencies,
               self.total_replay_verified, self.total_time))
        lines.append("  " + self.triage.describe().replace("\n", "\n  "))
        if self.corpus_dir:
            lines.append("  corpus: %d new bundle(s) saved to %s"
                         % (self.corpus_saved, self.corpus_dir))
        return "\n".join(lines)


class Campaign:
    """A configurable N-test x M-agent crosschecking session.

    Configure through constructor keywords or the fluent ``with_*`` methods,
    then call :meth:`run`.  ``tests="all"`` expands to the full Table-1
    catalogue; pairs default to all unordered agent combinations.
    """

    def __init__(self,
                 tests: Optional[Union[str, Sequence[TestLike]]] = None,
                 agents: Optional[Sequence[str]] = None,
                 pairs: Optional[Sequence[Pair]] = None,
                 workers: int = 1,
                 executor: str = "thread",
                 replay_testcases: bool = True,
                 minimize: bool = True,
                 minimize_budget: int = 96,
                 corpus_dir: Optional[str] = None,
                 cell_timeout: Optional[float] = None,
                 retries: int = 1,
                 checkpoint_dir: Optional[str] = None,
                 resume: bool = False,
                 fault_plan=None) -> None:
        self._tests: List[TestLike] = []
        self._agents: List[str] = []
        self._pairs: Optional[List[Pair]] = None
        self.workers = max(1, int(workers))
        self.executor = executor
        #: Replay every inconsistency concretely and keep it as a witness.
        #: Pairs with an artifact-only agent cannot replay; the triage report
        #: records them as skipped.
        self.replay_testcases = replay_testcases
        self.minimize = minimize
        self.minimize_budget = max(0, int(minimize_budget))
        #: When set, confirmed cluster representatives are persisted as
        #: witness bundles into this directory at the end of each run.
        self.corpus_dir = corpus_dir
        #: Per-cell wall-clock deadline in seconds (None = unlimited).  A
        #: cell that exceeds it is abandoned by the job supervisor and, once
        #: its retries are spent, lands as terminal state ``timed_out``.
        self.cell_timeout = cell_timeout
        #: Extra attempts per cell after the first; a failed or timed-out
        #: attempt is re-queued at once, with no backoff.
        self.retries = max(0, int(retries))
        #: Journal terminal cells (and their payloads) into this directory;
        #: with ``resume=True`` cells whose last recorded state is ``ok`` are
        #: restored instead of re-run.  Failed/timed-out/crashed cells get a
        #: fresh retry budget on resume.
        self.checkpoint_dir = checkpoint_dir
        self.resume = bool(resume)
        if self.resume and not self.checkpoint_dir:
            raise CampaignError("resume=True requires checkpoint_dir "
                                "(soft campaign --resume requires --checkpoint)")
        #: Deterministic :class:`repro.testing.faults.FaultPlan` installed for
        #: the duration of each run (and shipped to worker processes).
        self.fault_plan = fault_plan
        self.cache = ExplorationCache()
        self._ran = False
        if executor not in ("thread", "process"):
            raise CampaignError("executor must be 'thread' or 'process', got %r" % (executor,))
        if tests is not None:
            if isinstance(tests, str):
                self.with_tests(tests)
            else:
                self.with_tests(*tests)
        if agents is not None:
            self.with_agents(*agents)
        if pairs is not None:
            self.with_pairs(*pairs)

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------

    def with_tests(self, *tests: TestLike) -> "Campaign":
        """Add tests; the single string ``"all"`` expands to the catalogue."""

        for test in tests:
            if isinstance(test, str) and test == "all":
                self._add_tests(TABLE1_TESTS)
            else:
                self._add_tests([test])
        return self

    def _add_tests(self, tests: Sequence[TestLike]) -> None:
        for test in tests:
            key = test if isinstance(test, str) else test.key
            for index, existing in enumerate(self._tests):
                existing_key = existing if isinstance(existing, str) else existing.key
                if existing_key == key:
                    # A concrete spec (e.g. from an artifact, carrying its
                    # scale) wins over a bare key string added earlier.
                    if isinstance(existing, str) and not isinstance(test, str):
                        self._tests[index] = test
                    break
            else:
                self._tests.append(test)

    def with_agents(self, *agents: str) -> "Campaign":
        """Add agents under test (deduplicated, order preserved)."""

        for agent in agents:
            if agent not in self._agents:
                self._agents.append(agent)
        return self

    def with_pairs(self, *pairs: Pair) -> "Campaign":
        """Replace the default all-pairs matrix with explicit (a, b) pairs."""

        checked: List[Pair] = []
        for pair in pairs:
            if len(pair) != 2:
                raise CampaignError("a pair must name exactly two agents, got %r" % (pair,))
            checked.append((pair[0], pair[1]))
            self.with_agents(*pair)
        self._pairs = (self._pairs or []) + checked
        return self

    def with_workers(self, workers: int, executor: Optional[str] = None) -> "Campaign":
        """Set the worker-pool width (and optionally the executor kind)."""

        self.workers = max(1, int(workers))
        if executor is not None:
            if executor not in ("thread", "process"):
                raise CampaignError("executor must be 'thread' or 'process', got %r"
                                    % (executor,))
            self.executor = executor
        return self

    # ------------------------------------------------------------------
    # Artifact seeding (the vendor workflow)
    # ------------------------------------------------------------------

    def add_artifact(self, artifact: Union[AgentExplorationReport, Dict[str, object]],
                     scale: Optional[str] = None) -> "Campaign":
        """Seed the cache with a Phase-1 result (report object or its dict form).

        The artifact's agent joins the campaign automatically, so
        ``Campaign().with_agents("reference").add_artifact(ovs_artifact)``
        crosschecks reference against the shipped OVS results without ever
        exploring OVS locally.  The artifact records the scale it was explored
        at; *scale* overrides it (for artifacts predating the scale tag).
        """

        if isinstance(artifact, dict):
            artifact = AgentExplorationReport.from_dict(artifact)
        try:
            spec = get_test(artifact.test_key, scale=scale or artifact.scale)
        except KeyError as exc:
            raise CampaignError(exc.args[0] if exc.args else str(exc))
        self.cache.seed(artifact, spec, loaded=True)
        self.with_agents(artifact.agent_name)
        # Register the resolved spec itself so the run crosschecks at the
        # artifact's scale rather than re-resolving the key at session scale.
        self._add_tests([spec])
        return self

    def load_artifact(self, path: str, scale: Optional[str] = None) -> "Campaign":
        """Load a JSON artifact saved by ``soft explore --save`` and seed it."""

        return self.add_artifact(load_exploration_artifact(path), scale=scale)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _resolve_tests(self) -> List[TestSpec]:
        if not self._tests:
            raise CampaignError("campaign has no tests; call with_tests(...) first")
        resolved: List[TestSpec] = []
        for test in self._tests:
            if isinstance(test, str):
                try:
                    resolved.append(get_test(test))
                except KeyError as exc:
                    raise CampaignError(exc.args[0] if exc.args else str(exc))
            else:
                resolved.append(test)
        return resolved

    def _resolve_pairs(self) -> List[Pair]:
        if self._pairs is not None:
            if not self._pairs:
                raise CampaignError("campaign has an empty explicit pair list")
            return list(self._pairs)
        if len(self._agents) < 2:
            raise CampaignError(
                "campaign needs at least two agents for all-pairs crosschecking; "
                "got %r" % (self._agents,))
        return list(itertools.combinations(self._agents, 2))

    def _validate_agents(self, specs: Sequence[TestSpec],
                         agents: Sequence[str]) -> None:
        for agent in agents:
            for spec in specs:
                if self.cache.contains(agent, spec):
                    continue
                # A cached entry at a different scale would be silently
                # bypassed (and a registered agent re-explored) — refuse.
                other_scales = self.cache.scales_for(agent, spec.key)
                if other_scales:
                    raise CampaignError(
                        "artifact for agent %r on test %r was explored at scale "
                        "%s but this campaign resolves the test at scale %r"
                        % (agent, spec.key, "/".join(map(repr, other_scales)),
                           spec.scale))
                if agent not in AGENT_REGISTRY:
                    raise CampaignError(
                        "agent %r is not registered and has no loaded artifact "
                        "for test %r" % (agent, spec.key))

    def _journal_record(self, result: JobResult) -> Dict[str, object]:
        return {
            "cell": list(result.job.key),
            "state": result.state,
            "attempts": result.job.attempts,
            "wall_time": result.wall_time,
            "error": (result.failure.to_dict()
                      if result.failure is not None else None),
        }

    def _run_phase1(self, specs: Sequence[TestSpec], agents: Sequence[str],
                    supervisor: JobSupervisor,
                    checkpoint: Optional[CampaignCheckpoint],
                    completed: Dict[Tuple[str, ...], Dict[str, object]],
                    job_failures: List[JobFailure],
                    job_states: Dict[str, int]) -> Tuple[int, int]:
        """Explore every un-cached (agent, test) unit under the supervisor.

        Returns ``(explorations_run, cells_restored_from_checkpoint)``.  A
        unit whose checkpointed state is ``ok`` is seeded from the saved
        artifact instead of re-explored; a unit that exhausts its retries
        lands in *job_failures* and its dependent pairs are later skipped.
        """

        units = [(agent, spec) for spec in specs for agent in agents
                 if not self.cache.contains(agent, spec)]
        restored = 0
        if checkpoint is not None and completed:
            remaining: List[Tuple[str, TestSpec]] = []
            for agent, spec in units:
                cell = CampaignCheckpoint.phase1_cell(agent, spec)
                if cell in completed and checkpoint.has_phase1(agent, spec):
                    self.cache.seed(checkpoint.load_phase1(agent, spec), spec,
                                    loaded=True)
                    restored += 1
                else:
                    remaining.append((agent, spec))
            units = remaining
        if not units:
            return 0, restored

        # Ship the actual spec to worker processes — never a re-resolved
        # catalog lookalike.  Specs that do not pickle (closure-built inputs)
        # run on threads instead; that demotion is recorded, not silent.
        process_ids: set = set()
        if self.executor == "process" and self.workers > 1:
            process_ids = {id(unit) for unit in units if _picklable(unit[1])}
            unpicklable = sorted({unit[1].key for unit in units
                                  if id(unit) not in process_ids})
            if unpicklable:
                supervisor.record_degradation(
                    "spec(s) %s do not pickle; their Phase-1 cells run on "
                    "the thread executor" % ", ".join(unpicklable),
                    kind="unpicklable-spec", tests=unpicklable)

        unit_by_cell: Dict[Tuple[str, ...], Tuple[str, TestSpec]] = {}
        jobs: List[CampaignJob] = []
        for unit in units:
            agent, spec = unit
            cell = CampaignCheckpoint.phase1_cell(agent, spec)
            unit_by_cell[cell] = unit

            args = (agent, spec)
            jobs.append(CampaignJob(
                kind="phase1", key=cell,
                thread_fn=functools.partial(_explore_spec_unit, *args),
                process_task=((_explore_spec_unit, args)
                              if id(unit) in process_ids else None)))

        ran = [0]

        def on_result(result: JobResult) -> None:
            job_states[result.state] = job_states.get(result.state, 0) + 1
            agent, spec = unit_by_cell[result.job.key]
            if result.ok:
                report, wall = result.value
                self.cache.seed(report, spec, wall_time=wall)
                ran[0] += 1
                if checkpoint is not None:
                    checkpoint.save_phase1(report, spec)
            else:
                job_failures.append(result.failure)
            if checkpoint is not None:
                checkpoint.append(self._journal_record(result))

        supervisor.run(jobs, on_result=on_result)
        return ran[0], restored

    def _run_pair(self, spec: TestSpec, agent_a: str, agent_b: str,
                  engine: GroupEncoding,
                  exploration_shares: Optional[Dict[Tuple[str, str], int]] = None,
                  ) -> SoftReport:
        """Phase 2 for one (test, pair): crosscheck, then one witness per inconsistency.

        *engine* is the test's shared encoding.  *exploration_shares* maps
        (agent, test key) to the number of pairs consuming that cached
        exploration; its wall time is split between them so that summing
        per-pair ``total_time`` does not multiply the shared Phase-1 cost.

        When the pair replays, each inconsistency's test case is built,
        replayed on both agents and kept as a
        :class:`~repro.core.witness.Witness`, delta-minimized with replay as
        the oracle when it diverged.  Witnesses ride back on the report; the
        campaign merges them into its shared triage index on the supervisor
        thread — pair cells run under per-cell deadlines, and an attempt
        abandoned at its deadline must not have mutated shared state.
        """

        started = time.perf_counter()
        entry_a = self.cache.get(agent_a, spec)
        entry_b = self.cache.get(agent_b, spec)
        shares_a = (exploration_shares or {}).get((agent_a, spec.key), 1)
        shares_b = (exploration_shares or {}).get((agent_b, spec.key), 1)
        crosscheck = find_inconsistencies(
            entry_a.grouped, entry_b.grouped, engine=engine)

        witnesses: List[Witness] = []
        if (self.replay_testcases
                and agent_a in AGENT_REGISTRY and agent_b in AGENT_REGISTRY):
            def replayer(candidate: ConcreteTestCase) -> ReplayOutcome:
                return replay_testcase(candidate, agent_a, agent_b)

            for inconsistency in crosscheck.inconsistencies:
                testcase = build_testcase(spec, inconsistency.example, inconsistency)
                witness = build_witness(spec, inconsistency, testcase,
                                        replayer(testcase))
                if self.minimize and witness.confirmed:
                    witness = minimize_witness(
                        witness, spec, replayer,
                        max_replays=self.minimize_budget)
                witnesses.append(witness)

        return SoftReport(
            test_key=spec.key,
            agent_a=agent_a,
            agent_b=agent_b,
            exploration_a=entry_a.report,
            exploration_b=entry_b.report,
            grouped_a=entry_a.grouped,
            grouped_b=entry_b.grouped,
            crosscheck=crosscheck,
            witnesses=witnesses,
            total_time=(time.perf_counter() - started
                        + entry_a.wall_time / shares_a
                        + entry_b.wall_time / shares_b),
        )

    def _make_supervisor(self) -> JobSupervisor:
        return JobSupervisor(
            workers=self.workers,
            cell_timeout=self.cell_timeout,
            retries=self.retries,
            fault_plan=self.fault_plan,
        )

    def _open_checkpoint(self, specs: Sequence[TestSpec], pairs: Sequence[Pair],
                         paired_agents: Sequence[str]):
        if not self.checkpoint_dir:
            return None, {}
        checkpoint = CampaignCheckpoint(self.checkpoint_dir)
        checkpoint.open(CampaignCheckpoint.fingerprint_for(
            specs, paired_agents, pairs, self.replay_testcases, self.minimize,
            self.minimize_budget), resume=self.resume)
        completed = checkpoint.completed_cells() if self.resume else {}
        return checkpoint, completed

    def run(self) -> CampaignReport:
        """Execute the whole campaign and return the aggregated report.

        A campaign runs once: its report counts that run's work, so a
        second call raises :class:`~repro.errors.CampaignError`.
        """

        if self._ran:
            raise CampaignError("a campaign runs once; build a new Campaign "
                                "to run again")
        self._ran = True
        if self.fault_plan is not None:
            from repro.testing.faults import installed_fault_plan

            with installed_fault_plan(self.fault_plan):
                return self._run()
        return self._run()

    def _run(self) -> CampaignReport:
        started = time.perf_counter()
        if self.corpus_dir and not self.replay_testcases:
            raise CampaignError(
                "corpus_dir=%r requires replay: the corpus stores replayed "
                "witnesses (enable replay_testcases or drop corpus_dir)"
                % (self.corpus_dir,))
        table = intern_table()
        intern_hits_before = table.hits
        intern_misses_before = table.misses
        specs = self._resolve_tests()
        pairs = self._resolve_pairs()
        # Only agents that appear in a pair are explored/validated; an agent
        # configured but excluded by an explicit pair list costs nothing.
        paired_agents = [agent for agent in self._agents
                         if any(agent in pair for pair in pairs)]
        self._validate_agents(specs, paired_agents)

        supervisor = self._make_supervisor()
        checkpoint, completed = self._open_checkpoint(specs, pairs, paired_agents)
        job_failures: List[JobFailure] = []
        job_states: Dict[str, int] = {}

        # Read before Phase 1: checkpoint restores also seed the cache as loaded.
        explorations_loaded = self.cache.loaded_count
        explorations_run, resumed = self._run_phase1(
            specs, paired_agents, supervisor, checkpoint, completed,
            job_failures, job_states)

        cells = [(spec, agent_a, agent_b) for spec in specs
                 for agent_a, agent_b in pairs]
        shares: Dict[Tuple[str, str], int] = {}
        for spec, agent_a, agent_b in cells:
            for agent in (agent_a, agent_b):
                key = (agent, spec.key)
                shares[key] = shares.get(key, 0) + 1

        triage_index = TriageIndex()
        skipped_triage: List[Tuple[str, str, str, str]] = []

        def merge_triage(spec: TestSpec, agent_a: str, agent_b: str,
                         report: SoftReport) -> None:
            if report.witnesses:
                triage_index.add_all(report.witnesses)
            elif report.inconsistencies:
                if not self.replay_testcases:
                    reason = "replay disabled"
                else:
                    reason = "agent(s) not replayable"
                skipped_triage.append((spec.key, agent_a, agent_b, reason))

        reports_by_cell: Dict[Tuple[str, ...], SoftReport] = {}
        # One shared encoding per test, built here on the supervisor thread
        # when the test's first pair job is.
        engines: Dict[str, GroupEncoding] = {}
        crosschecked: List[SoftReport] = []
        ordered_cells: List[Tuple[str, ...]] = []
        job_meta: Dict[Tuple[str, ...], Tuple[TestSpec, str, str]] = {}
        pair_jobs: List[CampaignJob] = []
        for spec, agent_a, agent_b in cells:
            cell = CampaignCheckpoint.pair_cell(spec, agent_a, agent_b)
            ordered_cells.append(cell)
            job_meta[cell] = (spec, agent_a, agent_b)
            if (checkpoint is not None and cell in completed
                    and self.cache.contains(agent_a, spec)
                    and self.cache.contains(agent_b, spec)):
                report = checkpoint.load_pair(
                    spec, agent_a, agent_b,
                    self.cache.peek(agent_a, spec),
                    self.cache.peek(agent_b, spec))
                reports_by_cell[cell] = report
                resumed += 1
                merge_triage(spec, agent_a, agent_b, report)
                continue
            missing = [agent for agent in (agent_a, agent_b)
                       if not self.cache.contains(agent, spec)]
            if missing:
                # The dependency cell(s) already terminalized non-ok: this
                # pair cannot run, and says so instead of raising mid-flight.
                failure = JobFailure(
                    kind="pair", cell="/".join(cell), state="skipped",
                    attempts=0, error_type="DependencySkipped",
                    message="phase-1 exploration failed for %s"
                            % ", ".join(missing))
                job_failures.append(failure)
                job_states["skipped"] = job_states.get("skipped", 0) + 1
                if checkpoint is not None:
                    checkpoint.append({"cell": list(cell), "state": "skipped",
                                       "attempts": 0, "wall_time": 0.0,
                                       "error": failure.to_dict()})
                continue

            engine = engines.get(spec.key)
            if engine is None:
                engine = engines[spec.key] = GroupEncoding()

            def thread_fn(spec: TestSpec = spec, agent_a: str = agent_a,
                          agent_b: str = agent_b,
                          engine: GroupEncoding = engine) -> SoftReport:
                return self._run_pair(spec, agent_a, agent_b, engine,
                                      exploration_shares=shares)

            pair_jobs.append(CampaignJob(kind="pair", key=cell,
                                         thread_fn=thread_fn))

        def on_pair_result(result: JobResult) -> None:
            job_states[result.state] = job_states.get(result.state, 0) + 1
            spec, agent_a, agent_b = job_meta[result.job.key]
            if result.ok:
                report = result.value
                reports_by_cell[result.job.key] = report
                crosschecked.append(report)
                merge_triage(spec, agent_a, agent_b, report)
                if checkpoint is not None:
                    checkpoint.save_pair(spec, report)
            else:
                job_failures.append(result.failure)
            if checkpoint is not None:
                checkpoint.append(self._journal_record(result))

        if pair_jobs:
            supervisor.run(pair_jobs, on_result=on_pair_result)

        reports = [reports_by_cell[cell] for cell in ordered_cells
                   if cell in reports_by_cell]

        triage_time = sum(
            witness.minimization.wall_time
            for report in reports for witness in report.witnesses
            if witness.minimization is not None)
        triage_report = triage_index.report(triage_time=triage_time,
                                            skipped_pairs=skipped_triage)
        corpus_saved = 0
        if self.corpus_dir:
            corpus_saved = WitnessCorpus(self.corpus_dir).add_clusters(
                triage_report.clusters)

        solver_stats: Dict[str, object] = {"engines": len(engines)}
        for counters in itertools.chain(
                (engine.stats_dict() for engine in engines.values()),
                (report.crosscheck.solver_stats for report in crosschecked)):
            for name, value in counters.items():
                if isinstance(value, (int, float)):
                    solver_stats[name] = solver_stats.get(name, 0) + value

        exploration_stats: List[Dict[str, object]] = []
        coverage_sites = 0
        coverage_executed = 0
        coverage_seen = False
        for spec in specs:
            for agent in paired_agents:
                entry = self.cache.peek(agent, spec)
                if entry is None:
                    continue
                engine_stats = entry.report.engine_stats or {}
                row: Dict[str, object] = {
                    "agent": agent,
                    "test": spec.key,
                    "scale": spec.scale,
                    "loaded": entry.loaded,
                    "paths": entry.report.path_count,
                    "solver_queries": engine_stats.get("solver_queries"),
                    "discarded_replays": engine_stats.get("discarded_replays", 0),
                    "truncated": entry.report.truncated,
                    "wall_time": entry.wall_time,
                }
                entry_coverage = entry.report.coverage
                if entry_coverage is not None:
                    coverage_seen = True
                    coverage_sites += entry_coverage.branch_point_count
                    coverage_executed += entry_coverage.executed_branch_point_count
                    row["coverage_fraction"] = entry_coverage.coverage_fraction
                exploration_stats.append(row)

        coverage_summary: Optional[Dict[str, object]] = None
        if coverage_seen:
            coverage_summary = {
                "decision_sites": coverage_sites,
                "executed_branch_points": coverage_executed,
                "coverage_fraction": (coverage_executed / coverage_sites
                                      if coverage_sites else 0.0),
            }

        intern_stats: Dict[str, object] = {
            "hits": table.hits - intern_hits_before,
            "misses": table.misses - intern_misses_before,
            "distinct_terms": table.distinct_terms,
            "memory_bytes": table.memory_bytes(),
        }
        run_total = intern_stats["hits"] + intern_stats["misses"]
        intern_stats["hit_rate"] = (intern_stats["hits"] / run_total
                                    if run_total else None)

        return CampaignReport(
            tests=[spec.key for spec in specs],
            agents=list(self._agents),
            pairs=pairs,
            reports=reports,
            explorations_run=explorations_run,
            explorations_loaded=explorations_loaded,
            cache_hits=self.cache.hits,
            workers=self.workers,
            triage=triage_report,
            total_time=time.perf_counter() - started,
            unused_loaded_agents=[agent for agent in self.cache.loaded_agent_names()
                                  if agent not in paired_agents],
            solver_stats=solver_stats,
            exploration_stats=exploration_stats,
            intern_stats=intern_stats,
            corpus_dir=self.corpus_dir,
            corpus_saved=corpus_saved,
            coverage=coverage_summary,
            job_failures=job_failures,
            executor_degraded=list(supervisor.degradation_events),
            job_states=job_states,
            checkpoint_dir=self.checkpoint_dir,
            resumed_cells=resumed,
        )
