"""Model extraction and verification, and the query result they fill in.

After the SAT backend reports SAT, the bit-level assignment is folded back
into per-variable integers.  Because the whole pipeline (simplification,
bit-blasting, CDCL) is home-grown, every model is re-verified by concrete
evaluation of the original constraints before it is returned to callers — a
cheap, independent soundness check that turns silent solver bugs into loud
errors.  A :class:`SatResult` carries a verdict and its verified model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.errors import SolverError
from repro.symbex.compile import compile_term
from repro.symbex.expr import BoolExpr
from repro.symbex.solver.bitblast import BitBlaster
from repro.symbex.solver.sat import SATSolver, SATStatus

__all__ = ["SatResult", "extract_model", "verify_model", "complete_model",
           "require_verified"]


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


def extract_model(blaster: BitBlaster, sat: SATSolver) -> Dict[str, int]:
    """Read back per-variable integer values from the SAT assignment."""

    model: Dict[str, int] = {}
    for name, bits in blaster.variable_bits().items():
        value = 0
        for index, lit in enumerate(bits):
            var = abs(lit)
            bit_value = sat.model_value(var)
            if lit < 0:
                bit_value = not bit_value
            if bit_value:
                value |= 1 << index
        model[name] = value
    return model


def complete_model(model: Mapping[str, int], constraints: Iterable[BoolExpr],
                   default: int = 0) -> Dict[str, int]:
    """Extend *model* with a default value for variables it does not bind.

    Constraints that only mention variables eliminated by simplification can
    otherwise leave holes in the assignment, which would make concrete replay
    of generated test cases impossible.
    """

    completed = dict(model)
    for constraint in constraints:
        # The compiled program's variable list is precomputed once per
        # distinct term (hash-consing makes the cache hit free), so this
        # avoids a full tree walk per constraint per model.
        for name in compile_term(constraint).variables:
            completed.setdefault(name, default)
    return completed


def verify_model(model: Mapping[str, int], constraints: Iterable[BoolExpr]) -> bool:
    """True when *model* satisfies every constraint under concrete evaluation."""

    constraints = list(constraints)
    completed = complete_model(model, constraints)
    return all(compile_term(constraint).run_bool(completed)
               for constraint in constraints)


def require_verified(model: Mapping[str, int], constraints: Iterable[BoolExpr]) -> Dict[str, int]:
    """Return a completed model or raise :class:`SolverError` if it fails verification."""

    constraints = list(constraints)
    completed = complete_model(model, constraints)
    for constraint in constraints:
        if not compile_term(constraint).run_bool(completed):
            raise SolverError(
                "solver returned a model that does not satisfy %r — this is a bug "
                "in the decision procedure" % (constraint,)
            )
    return completed
