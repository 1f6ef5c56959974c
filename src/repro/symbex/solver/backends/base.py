"""The ``SolverBackend`` protocol: one query surface, N interchangeable engines.

Every consumer of satisfiability (the one-shot :class:`~repro.symbex.solver.
solver.Solver`, the Phase-1 :class:`~repro.symbex.solver.oracle.PrefixOracle`
and the Phase-2b :class:`~repro.symbex.solver.incremental.GroupEncoding`)
talks to a backend through the same five verbs, mirroring the ezSMT /
smt_switch surface: ``declare`` a condition as an assumption literal,
``assert_formula`` a permanent constraint, ``check_sat`` under assumptions,
``get_value`` the model, ``cancel`` a running query.  Capability flags
describe what a backend can do:

* ``incremental`` — the instance may be re-queried any number of times with
  new formulas/assumptions in between (CDCL engines).  Non-incremental
  backends answer one query per instance.
* ``complete`` — the backend decides every query given enough budget.  A
  semi-decision backend (the word-level interval engine) answers SAT/UNSAT
  only when its analysis is conclusive and UNKNOWN otherwise.
* ``cheap`` — a query costs roughly as much as reading the formula; the
  portfolio runs such backends inline instead of spending a racer thread.

Backends answering SAT must produce a model that satisfies the asserted
formulas under concrete evaluation — the front-ends re-verify every model, so
a buggy backend fails loudly instead of corrupting a crosscheck.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Sequence

from repro.errors import SolverError
from repro.symbex.expr import BoolExpr

__all__ = ["BackendCapabilityError", "CancellationToken", "SolverBackend"]


class BackendCapabilityError(SolverError):
    """An operation was requested that the backend's flags do not support."""


class CancellationToken:
    """Cooperative cancellation shared between a racer and its observers.

    Thread-safe: the flag is a :class:`threading.Event`, so any number of
    worker threads may poll ``is_cancelled`` while another thread calls
    :meth:`cancel`.  The SAT core's search loop polls the token at every
    conflict and decision, which bounds the cancellation latency to one
    propagation burst.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; idempotent."""

        self._event.set()

    @property
    def is_cancelled(self) -> bool:
        return self._event.is_set()


class SolverBackend:
    """Abstract satisfiability engine behind one declare/assert/check surface."""

    #: Stable identifier (the registry key and the win-rate label).
    name: str = "abstract"
    #: Whether the instance supports repeated queries with incremental state.
    incremental: bool = False
    #: Whether the backend decides every query (given budget); semi-decision
    #: backends may answer UNKNOWN on queries outside their theory fragment.
    complete: bool = True
    #: Whether a query is cheap enough to run inline rather than race.
    cheap: bool = False

    # -- query construction -------------------------------------------------

    def assert_formula(self, constraint: BoolExpr) -> None:
        """Permanently conjoin *constraint* onto the backend's formula."""

        raise NotImplementedError

    def declare(self, condition: BoolExpr) -> int:
        """Encode *condition* once, returning an assumption literal for it.

        Only meaningful on incremental backends: the literal scopes the
        condition into individual :meth:`check_sat` calls without touching
        the permanent formula.
        """

        raise BackendCapabilityError(
            "backend %r does not support declared assumption literals" % (self.name,))

    # -- solving -------------------------------------------------------------

    def check_sat(self, assumptions: Sequence[int] = (),
                  max_conflicts: Optional[int] = None,
                  cancel: Optional[CancellationToken] = None,
                  prefer: Sequence[int] = ()) -> str:
        """Decide the current formula; returns a ``SATStatus`` constant.

        ``UNKNOWN`` means the budget ran out, the query was cancelled, or a
        semi-decision backend could not conclude — never a property of the
        formula itself.  *prefer* is a decision hint (literals to try first,
        one at a time); it never changes the answer, and backends without
        decision control ignore it.
        """

        raise NotImplementedError

    def get_value(self) -> Dict[str, int]:
        """The raw model of the last SAT answer (``{variable: int}``).

        Callers complete/verify it against their constraint set; the backend
        only guarantees the bound variables satisfy the asserted formula.
        """

        raise NotImplementedError

    def cancel(self) -> None:
        """Best-effort cancellation of a query running on another thread."""

    # -- CNF-level surface (incremental backends only) -----------------------

    @property
    def true_lit(self) -> int:
        raise BackendCapabilityError(
            "backend %r has no CNF-level surface" % (self.name,))

    @property
    def false_lit(self) -> int:
        raise BackendCapabilityError(
            "backend %r has no CNF-level surface" % (self.name,))

    def const_lit(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    def new_var(self, decision: bool = True) -> int:
        """A fresh CNF variable (activation literals, selector gadgets).

        A ``decision=False`` variable is never branched on: the SAT core
        assigns it by propagation only and may answer SAT with it still
        unassigned, so the caller's clauses must keep every such answer
        completable (see :mod:`repro.symbex.solver.sat`).
        """

        raise BackendCapabilityError(
            "backend %r has no CNF-level surface" % (self.name,))

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a raw CNF clause (incremental backends only)."""

        raise BackendCapabilityError(
            "backend %r has no CNF-level surface" % (self.name,))

    # -- introspection --------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return 0

    @property
    def num_clauses(self) -> int:
        return 0

    @property
    def solves(self) -> int:
        return 0

    def stats_dict(self) -> Dict[str, float]:
        return {"backend": self.name}
