"""Pure-Python symbolic execution engine.

This package is the substrate that replaces Cloud9/KLEE + STP in the original
SOFT prototype.  It provides:

* :mod:`repro.symbex.expr` — bit-vector and boolean expression ASTs with
  operator overloading, so agent code can compute on symbolic values using
  ordinary Python operators.
* :mod:`repro.symbex.simplify` — algebraic simplification and constant
  propagation over expressions.
* :mod:`repro.symbex.solver` — a complete decision procedure for the
  quantifier-free bit-vector fragment used by path conditions: bit-blasting to
  CNF plus a CDCL SAT solver, with model extraction.
* :mod:`repro.symbex.state` / :mod:`repro.symbex.engine` — the path
  exploration engine.  A program under test is re-executed once per path with
  a prescribed schedule of branch decisions; branching on a symbolic boolean
  forks the schedule.

The public names re-exported here form the stable API used by the rest of the
library and by downstream users.
"""

from repro.symbex.expr import (
    BitVec,
    Bool,
    BoolConst,
    BoolExpr,
    BVConst,
    BVExpr,
    BVVar,
    FALSE,
    TRUE,
    bv,
    bvvar,
    bool_and,
    bool_not,
    bool_or,
    concat,
    extract,
    intern_table,
    InternTable,
    is_concrete,
    ite,
    sign_extend,
    zero_extend,
)
from repro.symbex.engine import (
    Engine,
    EngineConfig,
    ExplorationResult,
    ExplorationStats,
    PathRecord,
    active_engine,
)
from repro.symbex.simplify import simplify, simplify_bool, simplify_cache_stats
from repro.symbex.solver import PrefixOracle, SatResult
from repro.symbex.state import PathCondition, PathState

__all__ = [
    "BitVec",
    "Bool",
    "BoolConst",
    "BoolExpr",
    "BVConst",
    "BVExpr",
    "BVVar",
    "FALSE",
    "TRUE",
    "bv",
    "bvvar",
    "bool_and",
    "bool_not",
    "bool_or",
    "concat",
    "extract",
    "intern_table",
    "InternTable",
    "is_concrete",
    "ite",
    "sign_extend",
    "zero_extend",
    "Engine",
    "EngineConfig",
    "ExplorationResult",
    "ExplorationStats",
    "PathRecord",
    "active_engine",
    "simplify",
    "simplify_bool",
    "simplify_cache_stats",
    "PrefixOracle",
    "SatResult",
    "PathCondition",
    "PathState",
]
