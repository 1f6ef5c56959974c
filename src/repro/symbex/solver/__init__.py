"""Complete decision procedure for quantifier-free bit-vector constraints.

The pipeline mirrors what STP provides to the original SOFT prototype:

1. algebraic simplification (:mod:`repro.symbex.simplify`),
2. bit-blasting of the remaining formula to CNF
   (:mod:`repro.symbex.solver.bitblast`),
3. a CDCL SAT solver (:mod:`repro.symbex.solver.sat`),
4. model extraction and independent verification
   (:mod:`repro.symbex.solver.model`).

Every query runs on that one engine, :class:`CDCLBackend`
(:mod:`repro.symbex.solver.backend`), under its one conflict budget
:data:`~repro.symbex.solver.backend.MAX_CONFLICTS`.  It has two front ends,
both incremental: the Phase-1 :class:`PrefixOracle` (branch feasibility) and
the Phase-2b :class:`GroupEncoding` (group-pair overlap).
"""

from repro.symbex.solver.sat import SATSolver, SATStatus
from repro.symbex.solver.cnf import CNFBuilder
from repro.symbex.solver.bitblast import BitBlaster
from repro.symbex.solver.model import SatResult, extract_model, verify_model
from repro.symbex.solver.backend import CancellationToken, CDCLBackend
from repro.symbex.solver.incremental import GroupEncoding, IncrementalStats, PairOutcome, RowScan
from repro.symbex.solver.oracle import PrefixOracle, PrefixOracleStats

__all__ = [
    "SATSolver",
    "SATStatus",
    "CNFBuilder",
    "BitBlaster",
    "CancellationToken",
    "CDCLBackend",
    "extract_model",
    "verify_model",
    "SatResult",
    "GroupEncoding",
    "IncrementalStats",
    "PairOutcome",
    "RowScan",
    "PrefixOracle",
    "PrefixOracleStats",
]
