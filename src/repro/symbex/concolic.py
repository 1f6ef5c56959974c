"""Concolic mode: concrete-input replay that recovers the path condition.

The exploration engine (:mod:`repro.symbex.engine`) answers "which paths
exist?" by solver-guided search.  Concolic execution answers the inverse
question: *given one concrete input, which path does it take?*  This module
replays a concrete assignment of the symbolic input variables through the
same instrumented program the engine runs, but decides every symbolic branch
by **evaluating the branch condition under the assignment** instead of asking
a solver.  One replay, no search, and the result is the full path condition
of that input: the ordered list of branch conditions with their concrete
outcomes.  Its decisions can be compared with a predicted path's to find the
first branch where the two diverge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    #: (assumes + earlier branches): the condition it was decided under.
    pc_prefix_len: int


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
    """Counters of one :class:`ConcolicExecutor` (cumulative across traces)."""

    traces: int = 0
    branches_seen: int = 0
    trace_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "traces": self.traces,
            "branches_seen": self.branches_seen,
            "trace_time": self.trace_time,
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
    """Replays concrete assignments symbolically, one path per assignment."""

    def __init__(self, max_decisions: int = 4096) -> None:
        self.max_decisions = max_decisions
        self.stats = ConcolicStats()

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
