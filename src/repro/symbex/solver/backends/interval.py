"""The interval engine promoted to a word-level semi-decision backend.

Historically the unsigned-interval domain (:mod:`repro.symbex.interval`) was
an inline pre-check buried inside the solver pipeline.  As a first-class
backend it competes on equal terms: the portfolio's routing heuristic sends
interval-friendly queries (conjunctions of ``field <cmp> constant`` atoms —
the overwhelming majority of what the OpenFlow agents generate) straight
here, skipping bit-blasting and the CDCL search entirely.

Soundness contract: the backend answers

* ``UNSAT`` only when some variable's feasible set is provably empty,
* ``SAT`` only with a candidate model *verified by concrete evaluation* of
  every asserted constraint (the model is a genuine witness), and
* ``UNKNOWN`` for everything else — never a wrong verdict, so portfolio
  results are bit-identical to a CDCL-only run.

One instance answers one query (``incremental=False``); construction is a
few attribute writes, so per-query instantiation is in the noise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import SolverError
from repro.symbex.expr import BoolExpr
from repro.symbex.interval import analyze_conjunction
from repro.symbex.solver.backends.base import (
    BackendCapabilityError,
    CancellationToken,
    SolverBackend,
)
from repro.symbex.solver.sat import SATStatus

__all__ = ["IntervalBackend"]


class IntervalBackend(SolverBackend):
    """Word-level semi-decision engine over the unsigned-interval domain."""

    name = "interval"
    incremental = False
    complete = False
    cheap = True

    def __init__(self) -> None:
        self._atoms: List[BoolExpr] = []
        self._model: Optional[Dict[str, int]] = None
        self._checks = 0

    def assert_formula(self, constraint: BoolExpr) -> None:
        self._atoms.append(constraint)

    def check_sat(self, assumptions: Sequence[int] = (),
                  max_conflicts: Optional[int] = None,
                  cancel: Optional[CancellationToken] = None,
                  prefer: Sequence[int] = ()) -> str:
        if assumptions:
            raise BackendCapabilityError(
                "the interval backend has no literal namespace; scope queries "
                "by asserting conditions instead of assuming literals")
        self._checks += 1
        self._model = None
        if not self._atoms:
            self._model = {}
            return SATStatus.SAT
        outcome = analyze_conjunction(self._atoms)
        if outcome.is_unsat:
            return SATStatus.UNSAT
        if outcome.verified:
            self._model = dict(outcome.candidate)
            return SATStatus.SAT
        return SATStatus.UNKNOWN

    def get_value(self) -> Dict[str, int]:
        if self._model is None:
            raise SolverError("interval backend has no model: last answer was "
                              "not SAT")
        return dict(self._model)

    @property
    def solves(self) -> int:
        return self._checks

    def stats_dict(self) -> Dict[str, float]:
        return {"backend": self.name, "atoms": len(self._atoms),
                "solves": self._checks}
