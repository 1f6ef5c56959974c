"""CDCL backends: the homegrown SAT core behind the backend protocol.

Two registered configurations share this class:

* ``cdcl`` — the reference configuration, identical knobs to the historical
  :meth:`SolverConfig.make_sat_solver` path (phase saving, slow geometric
  restarts, large learned DB).  Every other backend is differentially checked
  against it.
* ``cdcl-alt`` — a diversity configuration for portfolio racing: aggressive
  restarts, no phase saving, a small frequently-reduced learned DB.  On
  queries where the reference search stalls in one part of the space, the
  alternative's different trajectory often answers first; losers are stopped
  by the cooperative cancellation token.

The backend owns one ``SATSolver`` + ``CNFBuilder`` + ``BitBlaster`` triple
for its whole lifetime, so it is fully incremental: conditions declared once
are solved under assumptions any number of times, and learned clauses
persist across calls (the PrefixOracle / GroupEncoding usage pattern).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.symbex.expr import BoolExpr
from repro.symbex.solver.backends.base import CancellationToken, SolverBackend
from repro.symbex.solver.bitblast import BitBlaster
from repro.symbex.solver.cnf import CNFBuilder
from repro.symbex.solver.model import extract_model
from repro.symbex.solver.sat import SATSolver

__all__ = ["CDCLBackend", "ALT_CDCL_KNOBS"]

#: The ``cdcl-alt`` diversity knobs (vs the reference 100 / 1.5 / 4000 / 1.2
#: with phase saving on).
ALT_CDCL_KNOBS = {
    "phase_saving": False,
    "restart_first": 16,
    "restart_growth": 1.3,
    "learned_db_base": 2000,
    "learned_db_growth": 1.1,
}


class CDCLBackend(SolverBackend):
    """Bit-blasting CDCL engine (complete, incremental)."""

    incremental = True
    complete = True
    cheap = False

    def __init__(self, name: str = "cdcl", **sat_knobs) -> None:
        self.name = name
        self._sat = SATSolver(**sat_knobs)
        self._cnf = CNFBuilder(self._sat)
        self._blaster = BitBlaster(self._cnf)
        self._cancel: Optional[CancellationToken] = None

    # -- query construction -------------------------------------------------

    def assert_formula(self, constraint: BoolExpr) -> None:
        self._blaster.assert_bool(constraint)

    def declare(self, condition: BoolExpr) -> int:
        return self._blaster.bool_lit(condition)

    # -- solving -------------------------------------------------------------

    def check_sat(self, assumptions: Sequence[int] = (),
                  max_conflicts: Optional[int] = None,
                  cancel: Optional[CancellationToken] = None,
                  prefer: Sequence[int] = ()) -> str:
        self._cancel = cancel
        try:
            return self._sat.solve(assumptions=list(assumptions),
                                   max_conflicts=max_conflicts, cancel=cancel,
                                   prefer=prefer)
        finally:
            self._cancel = None

    def get_value(self) -> Dict[str, int]:
        return extract_model(self._blaster, self._sat)

    def cancel(self) -> None:
        token = self._cancel
        if token is not None:
            token.cancel()

    # -- CNF-level surface ----------------------------------------------------

    @property
    def true_lit(self) -> int:
        return self._cnf.true_lit

    @property
    def false_lit(self) -> int:
        return self._cnf.false_lit

    def new_var(self, decision: bool = True) -> int:
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
    def solves(self) -> int:
        return self._sat.solves

    @property
    def sat_solver(self) -> SATSolver:
        """The underlying SAT core (regression tests poke at its trail)."""

        return self._sat

    def stats_dict(self) -> Dict[str, float]:
        snapshot = dict(self._sat.stats_dict())
        snapshot["backend"] = self.name
        return snapshot
