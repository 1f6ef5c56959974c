"""Expression simplification and substitution.

The smart constructors in :mod:`repro.symbex.expr` already perform constant
folding at construction time.  This module adds:

* :func:`simplify` / :func:`simplify_bool` — a bottom-up rewriting pass that
  re-applies the smart constructors over an existing term, which folds terms
  whose operands *became* constant after substitution and applies a handful of
  deeper algebraic identities.
* :func:`substitute` — replace free variables by expressions (typically
  constants from a solver model).

Because expressions are hash-consed (see :mod:`repro.symbex.expr`),
simplification is a pure function of the interned node, so its result is
kept on the node itself (the ``_simplified`` slot, filled on first use for
the term and each of its subterms): the engine's per-branch
re-simplification of recurring conditions is an attribute read after the
first path that builds them.  :func:`simplify_cache_stats` counts the hits
and misses.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Union

from repro.errors import ExpressionError
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
    MemoStats,
    bool_and,
    bool_not,
    bool_or,
    concat,
    extract,
    ite,
    sign_extend,
    zero_extend,
    _make_binop,
    _make_cmp,
    _make_unop,
)

__all__ = [
    "simplify",
    "simplify_bool",
    "substitute",
    "simplify_cache_stats",
]

_SIMPLIFY_STATS = MemoStats()
_EMPTY_SUBSTITUTION: Dict[str, BVExpr] = {}


def simplify_cache_stats() -> Dict[str, float]:
    """Hits, misses and hit rate of the per-node simplification memo."""

    return _SIMPLIFY_STATS.stats_dict()


def _simplified(expr: Expr) -> Expr:
    """*expr* simplified, memoized on the node (and on every subterm)."""

    result = getattr(expr, "_simplified", None)
    if result is not None:
        _SIMPLIFY_STATS.hits += 1
        return result
    _SIMPLIFY_STATS.misses += 1
    result = _rebuild_node(expr, _simplified, _EMPTY_SUBSTITUTION)
    expr._simplified = result
    return result


def _rebuild_node(expr: Expr, rebuild: Callable[[Expr], Expr],
                  substitution: Mapping[str, BVExpr]) -> Expr:
    """One node re-applied through its smart constructor over *rebuild* children."""

    if isinstance(expr, BVConst) or isinstance(expr, BoolConst):
        return expr
    if isinstance(expr, BVVar):
        replacement = substitution.get(expr.name)
        if replacement is None:
            return expr
        if replacement.width != expr.width:
            raise ExpressionError(
                "substitution for %r has width %d, expected %d"
                % (expr.name, replacement.width, expr.width)
            )
        return replacement
    if isinstance(expr, BVBinOp):
        lhs = rebuild(expr.lhs)
        rhs = rebuild(expr.rhs)
        return _make_binop(expr.op, lhs, rhs)  # type: ignore[arg-type]
    if isinstance(expr, BVUnOp):
        return _make_unop(expr.op, rebuild(expr.operand))  # type: ignore[arg-type]
    if isinstance(expr, BVExtract):
        return extract(rebuild(expr.operand), expr.high, expr.low)  # type: ignore[arg-type]
    if isinstance(expr, BVConcat):
        return concat(*[rebuild(p) for p in expr.parts])  # type: ignore[misc]
    if isinstance(expr, BVZeroExt):
        return zero_extend(rebuild(expr.operand), expr.width)  # type: ignore[arg-type]
    if isinstance(expr, BVSignExt):
        return sign_extend(rebuild(expr.operand), expr.width)  # type: ignore[arg-type]
    if isinstance(expr, BVIte):
        cond = rebuild(expr.cond)
        then = rebuild(expr.then)
        otherwise = rebuild(expr.otherwise)
        return ite(cond, then, otherwise)  # type: ignore[arg-type]
    if isinstance(expr, BVCmp):
        lhs = rebuild(expr.lhs)
        rhs = rebuild(expr.rhs)
        return _make_cmp(expr.op, lhs, rhs)  # type: ignore[arg-type]
    if isinstance(expr, BoolNot):
        return bool_not(rebuild(expr.operand))  # type: ignore[arg-type]
    if isinstance(expr, BoolAnd):
        return bool_and(*[rebuild(o) for o in expr.operands])  # type: ignore[misc]
    if isinstance(expr, BoolOr):
        return bool_or(*[rebuild(o) for o in expr.operands])  # type: ignore[misc]
    raise ExpressionError("cannot simplify unknown expression node %r" % (expr,))


def simplify(expr: BVExpr) -> BVExpr:
    """Return an equivalent, usually smaller bit-vector expression."""

    result = _simplified(expr)
    assert isinstance(result, BVExpr)
    return result


def simplify_bool(expr: BoolExpr) -> BoolExpr:
    """Return an equivalent, usually smaller boolean expression."""

    result = _simplified(expr)
    assert isinstance(result, BoolExpr)
    return result


def substitute(expr: Expr, bindings: Mapping[str, Union[int, BVExpr]],
               widths: Mapping[str, int] = None) -> Expr:
    """Replace free variables of *expr* according to *bindings*.

    Integer bindings need the variable's width; it is taken from *widths* when
    provided, otherwise from the first occurrence of the variable inside
    *expr* (which requires the variable to actually occur).
    """

    substitution: Dict[str, BVExpr] = {}
    pending_ints: Dict[str, int] = {}
    for name, value in bindings.items():
        if isinstance(value, BVExpr):
            substitution[name] = value
        elif isinstance(value, bool):
            raise ExpressionError("refusing to substitute a Python bool for %r" % (name,))
        elif isinstance(value, int):
            if widths is not None and name in widths:
                substitution[name] = BVConst(value, widths[name])
            else:
                pending_ints[name] = value
        else:
            raise ExpressionError("unsupported substitution value %r for %r" % (value, name))
    if pending_ints:
        from repro.symbex.expr import collect_variables

        found = collect_variables(expr)
        for name, value in pending_ints.items():
            if name in found:
                substitution[name] = BVConst(value, found[name])
            # Variables not present in the expression are silently ignored;
            # models routinely bind more variables than any single constraint uses.
    # Per-call memo: the result depends on *substitution*, not on the node
    # alone.  id() keys are safe while *expr* pins the whole tree.
    memo: Dict[int, Expr] = {}

    def rebuild(node: Expr) -> Expr:
        result = memo.get(id(node))
        if result is None:
            result = memo[id(node)] = _rebuild_node(node, rebuild, substitution)
        return result

    return rebuild(expr)
