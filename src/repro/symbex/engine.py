"""The path-exploration engine: a depth-first scheduler + feasibility oracle.

The engine explores every feasible execution path of a deterministic Python
program that computes on symbolic bit-vectors.  The mechanism is the classic
*decision-schedule re-execution* used by lightweight model checkers: a path is
identified by the sequence of boolean outcomes taken at symbolic branches; the
engine re-runs the program from scratch once per path, replaying a recorded
prefix of decisions and scheduling the unexplored sibling of every new branch
for a later run.

Compared to state-forking engines (KLEE/Cloud9) this trades CPU time
(re-execution) for implementation simplicity and for the ability to execute
completely ordinary Python code — which is exactly the trade-off a pure-Python
reproduction wants.  The artefacts it produces per path are identical to what
SOFT consumes: a path condition and an output event log.

The engine is layered:

* the **scheduler** (:meth:`Engine.explore`) pops prefixes from a LIFO
  stack, re-executes the program and enforces budgets; a truncated
  exploration hands its leftover stack back.  Exploration is exhaustive, so
  the order decides only which paths a budget keeps; depth-first keeps the
  stack small and consecutive paths sharing the longest common prefix;
* the **feasibility oracle** (:mod:`repro.symbex.solver.oracle`) answers
  "is this branch side feasible?" by assumption-based re-solving of one
  shared incremental SAT instance; :meth:`Engine._decide` is the one place
  a fresh branch asks it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    DecisionLimitExceeded,
    EngineError,
    SolverError,
)
from repro.symbex.expr import (
    BoolConst,
    BoolExpr,
    bool_not,
    set_branch_hook,
)
from repro.symbex.simplify import simplify_bool
from repro.symbex.solver.oracle import PrefixNode, PrefixOracle
from repro.symbex.solver.sat import SATStatus
from repro.symbex.state import PathCondition, PathState

__all__ = [
    "EngineConfig",
    "Engine",
    "PathRecord",
    "ExplorationStats",
    "ExplorationResult",
    "active_engine",
]

_thread_local = threading.local()

#: A path prefix: the branch outcomes to replay before exploring freely.
Prefix = Tuple[bool, ...]


def active_engine() -> Optional["Engine"]:
    """Return the engine currently exploring on this thread, if any."""

    return getattr(_thread_local, "engine", None)


class _PathAbort(Exception):
    """Internal: unwinds the program when the current path must be abandoned."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class EngineConfig:
    """Exploration limits and policies."""

    #: Hard cap on the number of path attempts — completed plus discarded
    #: replays (None = unlimited).
    max_paths: Optional[int] = 200_000
    #: Hard cap on symbolic branch decisions along a single path.
    max_decisions_per_path: int = 4_096
    #: Abort the whole exploration after this many seconds (None = unlimited).
    time_budget: Optional[float] = None


@dataclass
class PathRecord:
    """Everything SOFT needs to know about one explored path."""

    path_id: int
    condition: PathCondition
    decisions: Tuple[bool, ...]
    events: List[Any] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)
    result: Any = None
    #: Exception info if the program raised (engine-level failure, not an
    #: agent crash — agent crashes are normal events recorded by the harness).
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def constraint_size(self) -> int:
        return self.condition.size()


@dataclass
class ExplorationStats:
    """Aggregate statistics of one exploration."""

    paths: int = 0
    failed_paths: int = 0
    decisions: int = 0
    forced_decisions: int = 0
    forks: int = 0
    #: Replays abandoned via abort_current_path(); they produce no record
    #: but still count against the max_paths attempt budget.
    discarded_replays: int = 0
    #: Branch-feasibility checks that reached the SAT backend.
    solver_queries: int = 0
    wall_time: float = 0.0
    truncated: bool = False
    truncation_reason: Optional[str] = None


@dataclass
class ExplorationResult:
    """All paths of one exploration plus bookkeeping."""

    paths: List[PathRecord]
    stats: ExplorationStats
    solver_stats: Dict[str, float]
    #: Prefixes left unexplored when a budget truncated the exploration,
    #: in the order they would have been popped; empty when exhaustive.
    frontier: List[Prefix] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        """True when nothing is left to explore (empty frontier)."""

        return not self.frontier

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def average_constraint_size(self) -> float:
        sizes = [p.constraint_size() for p in self.paths]
        return sum(sizes) / len(sizes) if sizes else 0.0

    def max_constraint_size(self) -> int:
        sizes = [p.constraint_size() for p in self.paths]
        return max(sizes) if sizes else 0


class Engine:
    """Exhaustive depth-first exploration of a symbolic program."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        #: The prefix-feasibility oracle of the current (or last)
        #: exploration; each :meth:`explore` call builds its own.
        self.oracle: Optional[PrefixOracle] = None
        self._current_state: Optional[PathState] = None
        self._current_prefix: Prefix = ()
        # Pending prefixes, a LIFO stack: the last fork is explored next.
        self._frontier: List[Prefix] = []
        self._stats = ExplorationStats()
        # Prefix-trie node mirroring the current path condition: each
        # decision extends the node by one literal delta.
        self._path_node: Optional[PrefixNode] = None
        # The deepest node of the current path that holds a witness: the
        # base every feasibility check on this path starts from.
        self._base_node: Optional[PrefixNode] = None
        self._synced_constraints = 0
        # A fault of the engine's own machinery (oracle, solver) raised
        # during the current path; _run_one re-raises it even when the
        # explored program caught it.
        self._fault: Optional[Exception] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def explore(self, program: Callable[[PathState], Any]) -> ExplorationResult:
        """Run *program* once per feasible path and collect all path records.

        *program* receives a fresh :class:`PathState` per path.  It must be
        deterministic: for the same sequence of branch outcomes it must make
        the same branch queries in the same order.  A replay that branches
        on a condition its prefix never forked on raises
        :class:`~repro.errors.EngineError`.
        """

        started = time.perf_counter()
        self._stats = ExplorationStats()
        frontier: List[Prefix] = [()]
        self._frontier = frontier
        deadline = (started + self.config.time_budget
                    if self.config.time_budget else None)

        oracle = self.oracle = PrefixOracle()

        records: List[PathRecord] = []
        path_id = 0

        previous_engine = getattr(_thread_local, "engine", None)
        _thread_local.engine = self
        previous_hook = set_branch_hook(self._branch_hook)
        try:
            while frontier:
                if deadline is not None and time.perf_counter() > deadline:
                    self._note_truncation("time_budget")
                    break
                if (self.config.max_paths is not None
                        and path_id + self._stats.discarded_replays >= self.config.max_paths):
                    self._note_truncation("max_paths")
                    break
                prefix = frontier.pop()
                record = self._run_one(program, path_id, prefix)
                if record is None:
                    # Aborted replay: no record, but the attempt still counts
                    # against the path budget so infeasible prefixes cannot
                    # spin the scheduler past its limits.
                    self._stats.discarded_replays += 1
                    continue
                records.append(record)
                path_id += 1
        finally:
            set_branch_hook(previous_hook)
            _thread_local.engine = previous_engine
            self._current_state = None

        self._stats.paths = len(records)
        self._stats.failed_paths = sum(1 for r in records if not r.ok)
        self._stats.wall_time = time.perf_counter() - started
        self._stats.solver_queries = oracle.stats.assumption_solves
        return ExplorationResult(
            paths=records,
            stats=self._stats,
            solver_stats=oracle.stats_dict(),
            frontier=frontier[::-1],
        )

    # ------------------------------------------------------------------
    # Single-path execution
    # ------------------------------------------------------------------

    def _run_one(self, program: Callable[[PathState], Any], path_id: int,
                 prefix: Prefix) -> Optional[PathRecord]:
        state = PathState(path_id=path_id)
        self._current_state = state
        self._current_prefix = prefix
        self._path_node = self._base_node = self.oracle.root()
        self._synced_constraints = 0
        self._fault = None
        aborted = False
        error: Optional[str] = None
        result: Any = None
        try:
            result = program(state)
        except _PathAbort:
            # Infeasible replay or deliberate abandonment: not a real path.
            aborted = True
        except DecisionLimitExceeded as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
            self._note_truncation("max_decisions_per_path")
        # soft-lint: disable=broad-except -- the explored program is arbitrary agent code; any crash is this path's error output
        except Exception as exc:  # noqa: BLE001 - program bugs become path errors
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            # The path ends here: its base witness has no later use.
            self.oracle.release(self._base_node)
            self._base_node = self._path_node = None
        if self._fault is not None:
            # Recording it as a path error would silently drop a branch side.
            fault, self._fault = self._fault, None
            raise fault
        if aborted:
            return None
        return PathRecord(
            path_id=path_id,
            condition=state.condition,
            decisions=tuple(state.decisions),
            events=list(state.events),
            symbols=dict(state.symbols),
            result=result,
            error=error,
        )

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def _branch_hook(self, condition: BoolExpr) -> bool:
        state = self._current_state
        if state is None:
            raise EngineError("branch taken with no active path state")
        condition = simplify_bool(condition)
        if isinstance(condition, BoolConst):
            return condition.value

        if len(state.decisions) >= self.config.max_decisions_per_path:
            raise DecisionLimitExceeded(
                "path exceeded %d symbolic decisions" % self.config.max_decisions_per_path
            )

        index = len(state.decisions)
        replay = index < len(self._current_prefix)
        try:
            if replay:
                # Replaying a previously scheduled prefix: its feasibility was
                # established when it was scheduled; the trie checks that the
                # program branched on the same condition as then.
                outcome = self._current_prefix[index]
            else:
                outcome = self._decide(state, condition)
            self._commit_decision(state, condition, outcome, replay)
        # soft-lint: disable=broad-except -- an oracle fault, recorded so _run_one re-raises it even if the program catches it
        except Exception as exc:  # noqa: BLE001 - re-raised
            self._fault = exc
            raise
        return outcome

    def _commit_decision(self, state: PathState, condition: BoolExpr,
                         outcome: bool, replay: bool) -> None:
        # Mirror the branch in the prefix trie.  The branch literal is a
        # full equivalence, so the False side is its negation — no second
        # encoding of the negated constraint; extending the node is a
        # one-literal delta on the parent prefix.  A replayed decision must
        # land on a node the original run created.
        self._sync_path_node(state)
        lit = self.oracle.literal(condition)
        self._advance(self.oracle.extend(
            self._path_node, lit if outcome else -lit, replay=replay))
        state.decisions.append(outcome)
        state.condition.add(condition if outcome else bool_not(condition))
        self._synced_constraints = len(state.condition)
        self._stats.decisions += 1

    def _sync_path_node(self, state: PathState) -> None:
        """Encode constraints added outside branching (``assume``)."""

        for constraint in state.condition.since(self._synced_constraints):
            self._advance(self.oracle.extend(
                self._path_node, self.oracle.literal(constraint)))
        self._synced_constraints = len(state.condition)

    def _advance(self, node: PrefixNode) -> None:
        """Move the path to *node*; a witnessed node becomes the new base.

        The old base is then behind the path — both sides of its branch are
        decided — and no check starts from it again, so its witness goes.
        Nodes without a witness (assumed constraints, cached or forced
        decisions) leave the base where it is; the next check
        evaluates every literal added since.
        """

        self._path_node = node
        if node.witness is not None and node is not self._base_node:
            self.oracle.release(self._base_node)
            self._base_node = node

    def _decide(self, state: PathState, condition: BoolExpr) -> bool:
        """The outcome of a fresh branch on *condition*; schedules a fork.

        A side the oracle proves infeasible forces the other one; when both
        are feasible the path takes True now and the False side is pushed
        onto the frontier stack for a later run.
        """

        self._sync_path_node(state)
        lit = self.oracle.literal(condition)
        node = self._path_node
        if self._check(self.oracle.extend(node, lit)) == SATStatus.UNSAT:
            self._stats.forced_decisions += 1
            return False
        if self._check(self.oracle.extend(node, -lit)) == SATStatus.UNSAT:
            self._stats.forced_decisions += 1
            return True
        self._stats.forks += 1
        self._frontier.append(tuple(state.decisions) + (False,))
        return True

    def _check(self, node: PrefixNode) -> str:
        status = self.oracle.check_node(node, base=self._base_node)
        if status == SATStatus.UNKNOWN:
            raise SolverError(
                "solver gave up while checking branch feasibility; raise "
                "MAX_CONFLICTS in repro.symbex.solver.backend"
            )
        return status

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _note_truncation(self, reason: str) -> None:
        self._stats.truncated = True
        if self._stats.truncation_reason is None:
            self._stats.truncation_reason = reason

    def abort_current_path(self, reason: str = "aborted by program") -> None:
        """Abandon the path currently being executed (it produces no record)."""

        raise _PathAbort(reason)

