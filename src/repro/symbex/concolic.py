"""Concolic mode: concrete-input replay that recovers the path condition.

The exploration engine (:mod:`repro.symbex.engine`) answers "which paths
exist?" by solver-guided search.  Concolic execution answers the inverse
question: *given one concrete input, which path does it take — and which
nearby paths does it almost take?*  This module replays a concrete assignment
of the symbolic input variables through the same instrumented program the
engine runs, but decides every symbolic branch by **evaluating the branch
condition under the assignment** instead of asking a solver.  One replay, no
search, and the result is the full path condition of that input: the ordered
list of branch conditions with their concrete outcomes.

From the recovered trace, :class:`ConcolicExecutor.solve_flip` generates
*directed* new inputs Driller-style: take the constraints up to branch *i*,
negate branch *i*'s condition, and ask the solver for a model.  The
feasibility pre-check reuses the :class:`~repro.symbex.solver.oracle.
PrefixOracle`'s incremental SAT machinery — every distinct condition is
bit-blasted once into the shared instance and a flip candidacy is a single
assumption re-solve — so scanning a deep trace for feasible flips costs far
less than one full solver query per branch.  Only feasible flips pay for a
model-extracting :class:`~repro.symbex.solver.solver.Solver` query (the
oracle never extracts models, by design).

The executor deduplicates flips across seeds by decision prefix: once branch
``decisions[:i] + (not outcome,)`` has been solved (or proven infeasible), no
later seed re-solves it, which is what makes repeated concolic slices over a
growing seed pool converge instead of thrash.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.symbex.expr import (
    BoolConst,
    BoolExpr,
    BVConst,
    BVExpr,
    bool_not,
    reset_branch_hook,
    set_branch_hook,
)
from repro.symbex.compile import evaluate_compiled, evaluate_compiled_bool
from repro.symbex.simplify import simplify_bool
from repro.symbex.solver import Solver, SolverConfig
from repro.symbex.solver.oracle import PrefixOracle
from repro.symbex.solver.sat import SATStatus
from repro.symbex.state import PathState

__all__ = ["ConcolicBranch", "ConcolicTrace", "ConcolicStats", "ConcolicExecutor"]


@dataclass
class ConcolicBranch:
    """One symbolic branch crossed during a concolic replay."""

    #: Position in the decision sequence (0-based).
    index: int
    #: The branch condition exactly as the program queried it.
    condition: BoolExpr
    #: The side the concrete assignment took.
    outcome: bool
    #: Number of path-condition constraints accumulated *before* this branch
    #: (assumes + earlier branches) — the prefix a flip must preserve.
    pc_prefix_len: int

    def flip_key(self, decisions: Tuple[bool, ...]) -> Tuple[bool, ...]:
        """Identity of the flipped sibling: the decision prefix + negated side."""

        return tuple(decisions[: self.index]) + (not self.outcome,)


@dataclass
class ConcolicTrace:
    """The full path one concrete assignment takes through the program."""

    assignment: Dict[str, int]
    decisions: Tuple[bool, ...]
    branches: List[ConcolicBranch]
    events: List[Any]
    symbols: Dict[str, int]
    #: Ordered path-condition constraints (assumes + branch constraints).
    constraints: List[BoolExpr]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class ConcolicStats:
    """Counters of one :class:`ConcolicExecutor` (cumulative across seeds)."""

    traces: int = 0
    branches_seen: int = 0
    flips_attempted: int = 0
    #: Flip candidates the oracle pre-check proved infeasible (no model query).
    flips_infeasible: int = 0
    #: Flip candidates skipped because their sibling was already solved.
    flips_deduped: int = 0
    flips_solved: int = 0
    flips_failed: int = 0
    trace_time: float = 0.0
    solve_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "traces": self.traces,
            "branches_seen": self.branches_seen,
            "flips_attempted": self.flips_attempted,
            "flips_infeasible": self.flips_infeasible,
            "flips_deduped": self.flips_deduped,
            "flips_solved": self.flips_solved,
            "flips_failed": self.flips_failed,
            "trace_time": self.trace_time,
            "solve_time": self.solve_time,
        }


class _ConcolicEngineShim:
    """Minimal engine stand-in so ``state.concretize`` works concolically.

    Under a concrete assignment there is nothing to solve: the concretized
    value *is* the expression evaluated under the assignment (unbound
    variables zero-fill, matching test-case materialization).
    """

    def __init__(self, assignment: Dict[str, int]) -> None:
        self._assignment = assignment

    def concretize_in_state(self, state: PathState, value: BVExpr,
                            hint: Optional[int] = None) -> int:
        if isinstance(value, BVConst):
            return value.value
        if isinstance(value, int):
            return value
        concrete = evaluate_compiled(value, self._assignment, default=0)
        state.condition.add(value == concrete)
        return concrete


class ConcolicExecutor:
    """Replays concrete assignments symbolically and solves branch flips.

    One executor is meant to live as long as a hunt: the prefix oracle, the
    model solver (and its query cache) and the flip-dedup set all accumulate
    across :meth:`trace`/:meth:`solve_flip` calls, so the marginal cost of
    each additional seed drops as the condition vocabulary saturates.
    """

    def __init__(self, solver: Optional[Solver] = None,
                 oracle: Optional[PrefixOracle] = None,
                 max_decisions: int = 4096) -> None:
        self.solver = solver if solver is not None else Solver(SolverConfig())
        self.oracle = oracle if oracle is not None else PrefixOracle(self.solver.config)
        self.max_decisions = max_decisions
        self.stats = ConcolicStats()
        #: Decision-prefix identities of every flip already attempted.
        self._flipped: Set[Tuple[bool, ...]] = set()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def trace(self, program: Callable[[PathState], Any],
              assignment: Dict[str, int]) -> ConcolicTrace:
        """Run *program* once, deciding every branch under *assignment*.

        *program* is the same instrumented callable the engine explores
        (e.g. ``TestDriver(...).program``).  Branch conditions evaluate with
        unbound variables zero-filled — the same convention test-case
        materialization uses, so tracing a materialized test case follows
        exactly the path that test case takes concretely.
        """

        started = time.perf_counter()
        state = PathState(path_id=-1)
        state._engine = _ConcolicEngineShim(assignment)
        branches: List[ConcolicBranch] = []
        error: Optional[str] = None

        def concrete_hook(condition: BoolExpr) -> bool:
            reduced = simplify_bool(condition)
            if isinstance(reduced, BoolConst):
                return reduced.value
            if len(state.decisions) >= self.max_decisions:
                raise RuntimeError(
                    "concolic replay exceeded %d decisions" % self.max_decisions)
            outcome = evaluate_compiled_bool(reduced, assignment, default=0)
            branches.append(ConcolicBranch(
                index=len(state.decisions),
                condition=reduced,
                outcome=outcome,
                pc_prefix_len=len(state.condition),
            ))
            state.decisions.append(outcome)
            state.condition.add(reduced if outcome else bool_not(reduced))
            return outcome

        previous = set_branch_hook(concrete_hook)
        try:
            program(state)
        # soft-lint: disable=broad-except -- the traced program is arbitrary agent code; any crash is this trace's error output
        except Exception as exc:  # noqa: BLE001 - program bugs become trace errors
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            reset_branch_hook(previous)

        self.stats.traces += 1
        self.stats.branches_seen += len(branches)
        self.stats.trace_time += time.perf_counter() - started
        return ConcolicTrace(
            assignment=dict(assignment),
            decisions=tuple(state.decisions),
            branches=branches,
            events=list(state.events),
            symbols=dict(state.symbols),
            constraints=state.condition.constraints(),
            error=error,
        )

    # ------------------------------------------------------------------
    # Flipping
    # ------------------------------------------------------------------

    def flip_candidates(self, trace: ConcolicTrace) -> List[ConcolicBranch]:
        """Branches of *trace* whose sibling has not been attempted yet."""

        return [branch for branch in trace.branches
                if branch.flip_key(trace.decisions) not in self._flipped]

    def solve_flip(self, trace: ConcolicTrace,
                   branch: ConcolicBranch) -> Optional[Dict[str, int]]:
        """Solve for an input taking the other side of *branch*.

        Returns a full assignment — the solver model layered over the seed
        assignment, so variables the flip does not constrain keep their seed
        values and the new input stays maximally close to the seed — or
        ``None`` when the sibling is infeasible (or already attempted).
        """

        key = branch.flip_key(trace.decisions)
        if key in self._flipped:
            self.stats.flips_deduped += 1
            return None
        self._flipped.add(key)
        self.stats.flips_attempted += 1
        started = time.perf_counter()
        try:
            prefix = trace.constraints[: branch.pc_prefix_len]
            negated = bool_not(branch.condition) if branch.outcome else branch.condition

            # Cheap feasibility first: assumption re-solve on the shared
            # incremental instance.  The branch literal is an equivalence, so
            # the flipped side is just the negated literal — no re-encoding.
            literals = [self.oracle.literal(constraint) for constraint in prefix]
            lit = self.oracle.literal(branch.condition)
            literals.append(-lit if branch.outcome else lit)
            if self.oracle.check_prefix(literals) == SATStatus.UNSAT:
                self.stats.flips_infeasible += 1
                return None

            # Feasible (or unknown): pay for one model-extracting query.
            result = self.solver.check(prefix + [negated])
            if not result.is_sat:
                if result.is_unsat:
                    self.stats.flips_infeasible += 1
                else:
                    self.stats.flips_failed += 1
                return None
            merged = dict(trace.assignment)
            merged.update(result.model)
            self.stats.flips_solved += 1
            return merged
        finally:
            self.stats.solve_time += time.perf_counter() - started

    def flip_all(self, trace: ConcolicTrace,
                 limit: Optional[int] = None,
                 deadline: Optional[float] = None) -> List[Dict[str, int]]:
        """Solve up to *limit* un-attempted flips of *trace* (deepest last).

        *deadline* is an absolute ``time.perf_counter()`` cutoff; the scan
        stops between flips once it passes.
        """

        solved: List[Dict[str, int]] = []
        for branch in self.flip_candidates(trace):
            if limit is not None and len(solved) >= limit:
                break
            if deadline is not None and time.perf_counter() > deadline:
                break
            model = self.solve_flip(trace, branch)
            if model is not None:
                solved.append(model)
        return solved
