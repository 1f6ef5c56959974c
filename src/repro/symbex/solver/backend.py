"""The CDCL engine behind every satisfiability query.

:class:`CDCLBackend` owns one ``SATSolver`` + ``CNFBuilder`` + ``BitBlaster``
triple for its whole lifetime, so it is fully incremental: conditions
declared once are solved under assumptions any number of times, and learned
clauses persist across calls.  Its two users are the Phase-1
:class:`~repro.symbex.solver.oracle.PrefixOracle` (branch feasibility) and
the Phase-2b :class:`~repro.symbex.solver.incremental.GroupEncoding`
(group-pair overlap); each keeps one instance for its lifetime.  The surface
mirrors the ezSMT / smt_switch verbs: ``declare`` a condition as an
assumption literal, ``assert_formula`` a permanent constraint, ``check_sat``
under assumptions, ``get_value`` the model.

Every ``check_sat`` runs under the one conflict budget
:data:`MAX_CONFLICTS`, read when the query runs.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence

from repro.symbex.expr import BoolExpr
from repro.symbex.solver.bitblast import BitBlaster
from repro.symbex.solver.cnf import CNFBuilder
from repro.symbex.solver.model import extract_model
from repro.symbex.solver.sat import SATSolver

__all__ = ["CDCLBackend", "CancellationToken", "MAX_CONFLICTS"]

#: CDCL conflicts one query may spend before it answers ``UNKNOWN``.
MAX_CONFLICTS = 200_000


class CancellationToken:
    """Cooperative cancellation of a running :meth:`CDCLBackend.check_sat`.

    Thread-safe: the flag is a :class:`threading.Event`, so the query thread
    may poll ``is_cancelled`` while another thread calls :meth:`cancel`.
    The SAT core's search loop polls the token at every conflict and
    decision, which bounds the cancellation latency to one propagation burst.
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


class CDCLBackend:
    """Bit-blasting CDCL engine (complete, incremental)."""

    def __init__(self) -> None:
        self._sat = SATSolver()
        self._cnf = CNFBuilder(self._sat)
        self._blaster = BitBlaster(self._cnf)

    # -- query construction -------------------------------------------------

    def assert_formula(self, constraint: BoolExpr) -> None:
        """Permanently conjoin *constraint* onto the formula."""

        self._blaster.assert_bool(constraint)

    def declare(self, condition: BoolExpr) -> int:
        """Encode *condition* once, returning an assumption literal for it."""

        return self._blaster.bool_lit(condition)

    # -- solving -------------------------------------------------------------

    def check_sat(self, assumptions: Sequence[int] = (),
                  cancel: Optional[CancellationToken] = None,
                  prefer: Sequence[int] = ()) -> str:
        """Decide the current formula; returns a ``SATStatus`` constant.

        ``UNKNOWN`` means :data:`MAX_CONFLICTS` ran out or the query was
        cancelled — never a property of the formula itself.  *prefer* is a
        decision hint (literals to try first, one at a time); it never
        changes the answer.
        """

        return self._sat.solve(assumptions=list(assumptions),
                               max_conflicts=MAX_CONFLICTS, cancel=cancel,
                               prefer=prefer)

    def get_value(self) -> Dict[str, int]:
        """The raw model of the last SAT answer (``{variable: int}``)."""

        return extract_model(self._blaster, self._sat)

    @property
    def core(self) -> List[int]:
        """The assumptions the last UNSAT answer rests on (empty otherwise)."""

        return self._sat.core

    # -- CNF-level surface ----------------------------------------------------

    @property
    def true_lit(self) -> int:
        return self._cnf.true_lit

    @property
    def false_lit(self) -> int:
        return self._cnf.false_lit

    def const_lit(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    def new_var(self, decision: bool = True) -> int:
        """A fresh CNF variable (activation literals, selector gadgets).

        A ``decision=False`` variable is never branched on: the SAT core
        assigns it by propagation only and may answer SAT with it still
        unassigned, so the caller's clauses must keep every such answer
        completable (see :mod:`repro.symbex.solver.sat`).
        """

        return self._cnf.new_var(decision=decision)

    def add_clause(self, literals: Iterable[int]) -> None:
        self._cnf.add_clause(literals)

    # -- introspection --------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._sat.num_vars

    @property
    def num_clauses(self) -> int:
        return self._sat.num_clauses

    @property
    def sat_solver(self) -> SATSolver:
        """The underlying SAT core (regression tests poke at its trail)."""

        return self._sat

    def stats_dict(self) -> Dict[str, float]:
        return dict(self._sat.stats_dict())
