"""Solver front-end: the STP replacement used by the rest of the library.

The :class:`Solver` answers satisfiability queries over lists of boolean
constraints (implicitly conjoined).  The pipeline is:

1. simplify every constraint (constant folding may already decide the query),
2. bit-blast the remaining constraints and run the CDCL SAT solver,
3. extract the model, verify it by concrete evaluation and return it.

Queries are cached on the identities of the (sorted) simplified constraints
— hash-consing makes identity structural, so the cache key is a tuple of
small ints instead of nested structural keys; each cached entry keeps the
constraint list alive so ids cannot be recycled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SolverError
from repro.symbex.expr import (
    BoolAnd,
    BoolConst,
    BoolExpr,
    FALSE,
    TRUE,
)
from repro.symbex.simplify import simplify_bool
from repro.symbex.solver.backend import CDCLBackend
from repro.symbex.solver.model import require_verified
from repro.symbex.solver.sat import SATStatus
from repro.testing.faults import fault_point

__all__ = ["Solver", "SolverConfig", "SolverStats", "SatResult"]


@dataclass
class SolverConfig:
    """Tunable knobs of the decision procedure."""

    #: Maximum number of CDCL conflicts per query before giving up (None = unlimited).
    max_conflicts: Optional[int] = 200_000


@dataclass
class SolverStats:
    """Aggregate statistics across all queries issued to one :class:`Solver`."""

    queries: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    cache_hits: int = 0
    #: UNKNOWN results deliberately not installed in the query cache (a retry
    #: with a raised conflict budget must reach the backend again).
    unknown_cache_skips: int = 0
    sat_backend_runs: int = 0
    total_time: float = 0.0
    sat_backend_time: float = 0.0
    max_query_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "sat": self.sat,
            "unsat": self.unsat,
            "unknown": self.unknown,
            "cache_hits": self.cache_hits,
            "unknown_cache_skips": self.unknown_cache_skips,
            "sat_backend_runs": self.sat_backend_runs,
            "total_time": self.total_time,
            "sat_backend_time": self.sat_backend_time,
            "max_query_time": self.max_query_time,
        }


@dataclass
class SatResult:
    """Outcome of a satisfiability query."""

    status: str
    model: Dict[str, int] = field(default_factory=dict)
    time: float = 0.0

    @property
    def is_sat(self) -> bool:
        return self.status == SATStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == SATStatus.UNSAT

    @property
    def is_unknown(self) -> bool:
        return self.status == SATStatus.UNKNOWN

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "SatResult(%s, model=%r)" % (self.status, self.model)


class Solver:
    """The one-shot decision procedure.

    Phase-1 concretization queries through it; Phase-1 branch feasibility
    goes through the prefix oracle.
    """

    def __init__(self, config: SolverConfig = None) -> None:
        self.config = config if config is not None else SolverConfig()
        self.stats = SolverStats()
        # Values carry the constraint list to pin the interned terms the
        # key's ids refer to.
        self._cache: Dict[Tuple[int, ...],
                          Tuple[List[BoolExpr], SatResult]] = {}

    def stats_dict(self) -> Dict[str, float]:
        """Aggregate counters."""

        return self.stats.as_dict()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def check(self, constraints: Iterable[BoolExpr]) -> SatResult:
        """Decide satisfiability of the conjunction of *constraints*."""

        fault_point("solver.check")
        started = time.perf_counter()
        constraints = [self._coerce(c) for c in constraints]
        result = self._check_inner(constraints)
        elapsed = time.perf_counter() - started
        result.time = elapsed
        self.stats.queries += 1
        self.stats.total_time += elapsed
        self.stats.max_query_time = max(self.stats.max_query_time, elapsed)
        if result.is_sat:
            self.stats.sat += 1
        elif result.is_unsat:
            self.stats.unsat += 1
        else:
            self.stats.unknown += 1
        return result

    def get_model(self, constraints: Iterable[BoolExpr]) -> Optional[Dict[str, int]]:
        """Return a satisfying assignment or None when unsatisfiable."""

        result = self.check(constraints)
        if result.is_unknown:
            raise SolverError("solver gave up on the query (conflict budget exhausted)")
        return dict(result.model) if result.is_sat else None

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(constraint: object) -> BoolExpr:
        if isinstance(constraint, BoolExpr):
            return constraint
        if isinstance(constraint, bool):
            return TRUE if constraint else FALSE
        raise SolverError("constraints must be BoolExpr instances, got %r" % (constraint,))

    def _check_inner(self, constraints: List[BoolExpr]) -> SatResult:
        simplified: List[BoolExpr] = []
        for constraint in constraints:
            reduced = simplify_bool(constraint)
            if isinstance(reduced, BoolConst):
                if not reduced.value:
                    return SatResult(SATStatus.UNSAT)
                continue
            # Split conjunctions so the cache key is the set of conjuncts.
            if isinstance(reduced, BoolAnd):
                simplified.extend(reduced.operands)
            else:
                simplified.append(reduced)

        if not simplified:
            return SatResult(SATStatus.SAT, model={})

        cache_key = tuple(sorted(id(c) for c in simplified))
        cached = self._cache.get(cache_key)
        if cached is not None:
            self.stats.cache_hits += 1
            return SatResult(cached[1].status, dict(cached[1].model))

        result = self._decide(simplified)

        if result.is_unknown:
            # A budget-exhausted answer is not a property of the query;
            # caching it would make a retry with a raised max_conflicts
            # return the stale UNKNOWN forever.
            self.stats.unknown_cache_skips += 1
        else:
            self._cache[cache_key] = (
                simplified, SatResult(result.status, dict(result.model)))
        return result

    def _decide(self, constraints: List[BoolExpr]) -> SatResult:
        """One-shot query through a fresh CDCL instance."""

        started = time.perf_counter()
        self.stats.sat_backend_runs += 1
        backend = CDCLBackend()
        for constraint in constraints:
            backend.assert_formula(constraint)
        status = backend.check_sat(max_conflicts=self.config.max_conflicts)
        self.stats.sat_backend_time += time.perf_counter() - started

        if status != SATStatus.SAT:
            return SatResult(status)
        model = backend.get_value()
        return SatResult(SATStatus.SAT, model=require_verified(model, constraints))
