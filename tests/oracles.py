"""Reference implementations kept only as equivalence oracles.

:func:`solve` is the one-shot decision procedure: simplify, bit-blast into a
fresh :class:`~repro.symbex.solver.CDCLBackend`, solve, verify the model.  It
keeps no cache and no statistics, so every answer comes from scratch.  The
oracles below, and the differential sweep in ``test_solver_backends.py``,
ask it for their verdicts.

:class:`ReferenceEngine` is Phase 1 without the prefix oracle: every fresh
branch asks :func:`solve` about each side's whole path condition.  The
oracle-driven :class:`Engine` must explore exactly its path set, in the same
depth-first order.

:func:`check_prefix` asks a :class:`~repro.symbex.solver.PrefixOracle`
about a bare literal sequence, the way the oracle unit tests probe it.

:func:`pairwise_crosscheck` is Phase 2b as the paper states it (§3.4): one
:func:`solve` per pair of *different* output groups.  It shares no encoding
state with :class:`~repro.symbex.solver.GroupEncoding`, so the row scan in
:func:`repro.core.crosscheck.find_inconsistencies` is tested against it.

:func:`evaluate_bv` / :func:`evaluate_bool` are the tree-walking big-int
interpreter: the denominator of the compiled evaluator's differential tests
and of ``BENCH_eval.json``'s ``compiled_speedup``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.agents import make_agent
from repro.core.crosscheck import CrosscheckReport, Inconsistency
from repro.core.grouping import GroupedResults
from repro.core.tests_catalog import get_test
from repro.errors import ExpressionError, SolverError
from repro.harness.driver import TestDriver
from repro.symbex.engine import Engine
from repro.symbex.expr import (
    BoolAnd,
    BoolConst,
    BoolExpr,
    BoolNot,
    BoolOr,
    BVBinOp,
    BVCmp,
    BVConcat,
    BVConst,
    BVExpr,
    BVExtract,
    BVIte,
    BVSignExt,
    BVUnOp,
    BVVar,
    BVZeroExt,
    Expr,
    bool_and,
    bool_not,
    bool_or,
)
from repro.symbex.simplify import simplify_bool
from repro.symbex.solver import CDCLBackend, PrefixOracle, SATStatus, SatResult
from repro.symbex.solver.model import require_verified
from repro.symbex.state import PathState


def solve(constraints: Iterable[BoolExpr]) -> SatResult:
    """Satisfiability of the conjunction of *constraints*, from scratch."""

    started = time.perf_counter()
    simplified = []
    for constraint in constraints:
        reduced = simplify_bool(constraint)
        if isinstance(reduced, BoolConst):
            if not reduced.value:
                return SatResult(SATStatus.UNSAT, time=time.perf_counter() - started)
            continue
        simplified.append(reduced)
    backend = CDCLBackend()
    for constraint in simplified:
        backend.assert_formula(constraint)
    status = backend.check_sat()
    model = (require_verified(backend.get_value(), simplified)
             if status == SATStatus.SAT else {})
    return SatResult(status, model=model, time=time.perf_counter() - started)


class ReferenceEngine(Engine):
    """:class:`Engine` deciding each fresh branch with two :func:`solve` calls.

    The prefix trie is still mirrored (the base engine's bookkeeping, which
    also checks every replayed decision against it), but no check reaches
    the oracle, so ``solver_queries`` counts the :func:`solve` calls.
    """

    def explore(self, program):
        self._queries = 0
        result = super().explore(program)
        result.stats.solver_queries = self._queries
        return result

    def _decide(self, state: PathState, condition: BoolExpr) -> bool:
        base = state.condition.constraints()
        if self._query(base + [condition]).is_unsat:
            self._stats.forced_decisions += 1
            return False
        if self._query(base + [bool_not(condition)]).is_unsat:
            self._stats.forced_decisions += 1
            return True
        # Both sides feasible: take True now, schedule False for later.  The
        # trie gets the False child now, as Engine._decide's check creates
        # it, so the scheduled replay finds it.
        self._stats.forks += 1
        self._sync_path_node(state)
        self.oracle.extend(self._path_node, -self.oracle.literal(condition))
        self._frontier.append(tuple(state.decisions) + (False,))
        return True

    def _query(self, constraints):
        self._queries += 1
        result = solve(constraints)
        if result.is_unknown:
            raise SolverError("solver gave up while checking branch feasibility")
        return result


def check_prefix(oracle: PrefixOracle, literals: Sequence[int]) -> str:
    """Satisfiability (a ``SATStatus`` value) of a literal sequence.

    Walks the oracle's trie from the root (every step after the first visit
    is a delta hit) and checks the final node against the root's witness.
    The answer is all a caller gets, so the node's witness is released
    again.
    """

    node = oracle.root()
    for lit in literals:
        node = oracle.extend(node, lit)
    status = oracle.check_node(node, base=oracle.root())
    oracle.release(node)
    return status


def explore_with_driver(agent: str, test: str, engine: Optional[Engine] = None,
                        scale: str = "small"):
    """*engine* (default: a fresh :class:`Engine`) run on one (agent, test) unit.

    Returns ``(engine, driver, result)``; the driver holds the input builds
    it recorded during the exploration.
    """

    spec = get_test(test, scale=scale)
    driver = TestDriver(agent_factory=lambda: make_agent(agent), inputs=spec.inputs)
    engine = engine if engine is not None else Engine()
    return engine, driver, engine.explore(driver.program)


def uncovered_inputs(driver, result):
    """One :func:`solve` of ``A ∧ ¬⋁ C_path`` for an exhaustive exploration.

    ``A`` is what the harness assumes about its inputs: the constraints the
    driver's recorded (decision-free) input builds added, never a branch
    decision, so a wrongly forced branch cannot hide behind it.  ``C_path``
    is each explored path's condition.  UNSAT means the paths cover every
    admissible input: Phase 1 lost no feasible branch side.
    """

    assumed = [constraint for build in driver._recorded.values() if build is not None
               for constraint in build.constraints]
    covered = bool_or(*(bool_and(*path.condition.constraints())
                        for path in result.paths))
    return solve(assumed + [bool_not(covered)])


def pairwise_crosscheck(grouped_a: GroupedResults,
                        grouped_b: GroupedResults) -> CrosscheckReport:
    """Crosscheck with one ``solve([C_a, C_b])`` per candidate pair."""

    started = time.perf_counter()
    inconsistencies = []
    queries = unsat = unknown = identical = 0
    for group_a in grouped_a.groups:
        for group_b in grouped_b.groups:
            if group_a.trace == group_b.trace:
                identical += 1
                continue
            result = solve([group_a.condition, group_b.condition])
            queries += 1
            if result.is_sat:
                inconsistencies.append(Inconsistency(
                    agent_a=grouped_a.agent_name,
                    agent_b=grouped_b.agent_name,
                    trace_a=group_a.trace,
                    trace_b=group_b.trace,
                    condition=bool_and(group_a.condition, group_b.condition),
                    example=dict(result.model),
                    solver_time=result.time,
                ))
            elif result.is_unsat:
                unsat += 1
            else:
                unknown += 1
    return CrosscheckReport(
        agent_a=grouped_a.agent_name,
        agent_b=grouped_b.agent_name,
        test_key=grouped_a.test_key,
        inconsistencies=inconsistencies,
        queries=queries,
        unsat_pairs=unsat,
        unknown_pairs=unknown,
        checking_time=time.perf_counter() - started,
        identical_output_pairs=identical,
    )


# ---------------------------------------------------------------------------
# Tree-walking concrete evaluation
# ---------------------------------------------------------------------------

Assignment = Mapping[str, int]


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _signed(value: int, width: int) -> int:
    value = _mask(value, width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def evaluate_bv(expr: BVExpr, assignment: Assignment,
                default: int = None) -> int:
    """Evaluate *expr* to a Python int under *assignment* (name -> int).

    Unbound variables take *default* when given, otherwise evaluation fails.
    Lazy where the compiled tape is eager: an ``ite`` evaluates only the
    taken arm.  The only per-call state is the ``id``-keyed memo dict
    threaded through the recursion (the tree under *expr* stays alive for
    the duration of the evaluation).
    """

    return _eval(expr, assignment, default, {})


def _eval(node: Expr, assignment: Assignment, default, cache: Dict[int, int]) -> int:
    key = id(node)
    value = cache.get(key)
    if value is None:
        handler = _EVAL_HANDLERS.get(type(node))
        if handler is None:
            raise ExpressionError("cannot evaluate unknown node %r" % (node,))
        value = handler(node, assignment, default, cache)
        cache[key] = value
    return value


def _eval_const(node, assignment, default, cache):
    return node.value


def _eval_bool_const(node, assignment, default, cache):
    return int(node.value)


def _eval_var(node, assignment, default, cache):
    if node.name in assignment:
        return _mask(assignment[node.name], node.width)
    if default is not None:
        return _mask(default, node.width)
    raise ExpressionError("no binding for variable %r during evaluation" % (node.name,))


def _eval_binop_node(node, assignment, default, cache):
    return _eval_binop(node.op, _eval(node.lhs, assignment, default, cache),
                       _eval(node.rhs, assignment, default, cache), node.width)


def _eval_unop_node(node, assignment, default, cache):
    operand = _eval(node.operand, assignment, default, cache)
    return _mask(~operand if node.op == "not" else -operand, node.width)


def _eval_extract(node, assignment, default, cache):
    return _mask(_eval(node.operand, assignment, default, cache) >> node.low,
                 node.width)


def _eval_concat(node, assignment, default, cache):
    value = 0
    for part in node.parts:
        value = (value << part.width) | _eval(part, assignment, default, cache)
    return value


def _eval_zero_ext(node, assignment, default, cache):
    return _eval(node.operand, assignment, default, cache)


def _eval_sign_ext(node, assignment, default, cache):
    return _mask(_signed(_eval(node.operand, assignment, default, cache),
                         node.operand.width), node.width)


def _eval_ite(node, assignment, default, cache):
    if _eval(node.cond, assignment, default, cache):
        return _eval(node.then, assignment, default, cache)
    return _eval(node.otherwise, assignment, default, cache)


def _eval_cmp_node(node, assignment, default, cache):
    return int(_eval_cmp(node.op, _eval(node.lhs, assignment, default, cache),
                         _eval(node.rhs, assignment, default, cache),
                         node.lhs.width))


def _eval_bool_not(node, assignment, default, cache):
    return 0 if _eval(node.operand, assignment, default, cache) else 1


def _eval_bool_and(node, assignment, default, cache):
    for operand in node.operands:
        if not _eval(operand, assignment, default, cache):
            return 0
    return 1


def _eval_bool_or(node, assignment, default, cache):
    for operand in node.operands:
        if _eval(operand, assignment, default, cache):
            return 1
    return 0


#: Per-type handlers, resolved once at import: one dict lookup per node.
_EVAL_HANDLERS = {
    BVConst: _eval_const,
    BVVar: _eval_var,
    BVBinOp: _eval_binop_node,
    BVUnOp: _eval_unop_node,
    BVExtract: _eval_extract,
    BVConcat: _eval_concat,
    BVZeroExt: _eval_zero_ext,
    BVSignExt: _eval_sign_ext,
    BVIte: _eval_ite,
    BVCmp: _eval_cmp_node,
    BoolConst: _eval_bool_const,
    BoolNot: _eval_bool_not,
    BoolAnd: _eval_bool_and,
    BoolOr: _eval_bool_or,
}


def _eval_binop(op: str, lhs: int, rhs: int, width: int) -> int:
    if op == "add":
        return _mask(lhs + rhs, width)
    if op == "sub":
        return _mask(lhs - rhs, width)
    if op == "mul":
        return _mask(lhs * rhs, width)
    if op == "udiv":
        return _mask(lhs // rhs, width) if rhs else _mask(-1, width)
    if op == "urem":
        return _mask(lhs % rhs, width) if rhs else lhs
    if op == "and":
        return lhs & rhs
    if op == "or":
        return lhs | rhs
    if op == "xor":
        return lhs ^ rhs
    if op == "shl":
        return _mask(lhs << rhs, width) if rhs < width else 0
    if op == "lshr":
        return lhs >> rhs if rhs < width else 0
    if op == "ashr":
        return _mask(_signed(lhs, width) >> min(rhs, width - 1), width)
    raise ExpressionError("unknown operator %r" % (op,))


def _eval_cmp(op: str, lhs: int, rhs: int, width: int) -> bool:
    if op == "eq":
        return lhs == rhs
    if op == "ne":
        return lhs != rhs
    if op == "ult":
        return lhs < rhs
    if op == "ule":
        return lhs <= rhs
    if op == "slt":
        return _signed(lhs, width) < _signed(rhs, width)
    if op == "sle":
        return _signed(lhs, width) <= _signed(rhs, width)
    raise ExpressionError("unknown comparison %r" % (op,))


def evaluate_bool(expr: BoolExpr, assignment: Assignment,
                  default: int = None) -> bool:
    """Evaluate a boolean expression to a Python bool under *assignment*."""

    if isinstance(expr, BoolConst):
        return expr.value
    return bool(evaluate_bv(expr, assignment, default=default))  # type: ignore[arg-type]
