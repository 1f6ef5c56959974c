"""JSON-safe (de)serialization of expression terms.

Phase-1 artifacts (the per-agent intermediate results a vendor ships to the
crosschecking party, §2.4 of the paper) carry path conditions, i.e. boolean
expressions over bit-vector atoms.  Every node renders as ``[tag, ...]``,
where the tag matches the node kind and the scalars (widths, operators,
values, names) follow the structural keys of the AST.  Children are written
in one of two ways:

* **nested** (:func:`expr_to_obj` / :func:`expr_from_obj`): each child is its
  own ``[tag, ...]`` list.  Witness bundles and checkpoint pair cells use it
  for their single condition each.
* **term table** (:class:`TermTableWriter` / :func:`terms_from_table`): one
  row per distinct interned node, in post-order, with each child given as
  the index of an earlier row (``["cmp", "eq", 3, 7]``).  Exploration
  artifacts use it: thousands of path conditions share a few hundred
  terms, and each term is written once, however often it occurs.

Both readers rebuild terms through the interned constructors of
:mod:`repro.symbex.expr`, so a round-tripped term is pointer-identical to the
original (within one intern generation) and every ``id``-keyed cache in the
solver stack treats it as the same term.  Both readers raise
:class:`~repro.errors.ExpressionError` on malformed input.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Type, Union

from repro.errors import ExpressionError
from repro.symbex.expr import (
    FALSE,
    TRUE,
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
)

__all__ = ["expr_to_obj", "expr_from_obj", "bool_expr_from_obj", "bv_expr_from_obj",
           "TermTableWriter", "terms_from_table", "model_to_obj", "model_from_obj"]

#: The JSON-safe rendering of an expression: nested lists of str/int.
ExprObj = List[Any]


def _node_obj(expr: Expr, child: Callable[[Expr], Any]) -> ExprObj:
    """The ``[tag, ...]`` row of *expr*, each child rendered by *child*."""

    if isinstance(expr, BVConst):
        return ["const", expr.width, expr.value]
    if isinstance(expr, BVVar):
        return ["var", expr.width, expr.name]
    if isinstance(expr, BVBinOp):
        return ["binop", expr.op, child(expr.lhs), child(expr.rhs)]
    if isinstance(expr, BVUnOp):
        return ["unop", expr.op, child(expr.operand)]
    if isinstance(expr, BVExtract):
        return ["extract", expr.high, expr.low, child(expr.operand)]
    if isinstance(expr, BVConcat):
        return ["concat"] + [child(part) for part in expr.parts]
    if isinstance(expr, BVZeroExt):
        return ["zext", expr.width, child(expr.operand)]
    if isinstance(expr, BVSignExt):
        return ["sext", expr.width, child(expr.operand)]
    if isinstance(expr, BVIte):
        return ["ite", child(expr.cond), child(expr.then), child(expr.otherwise)]
    if isinstance(expr, BoolConst):
        return ["bool", 1 if expr.value else 0]
    if isinstance(expr, BoolNot):
        return ["not", child(expr.operand)]
    if isinstance(expr, BoolAnd):
        return ["and"] + [child(op) for op in expr.operands]
    if isinstance(expr, BoolOr):
        return ["or"] + [child(op) for op in expr.operands]
    if isinstance(expr, BVCmp):
        return ["cmp", expr.op, child(expr.lhs), child(expr.rhs)]
    raise ExpressionError("cannot serialize expression node %r" % (expr,))


#: Resolves one child slot of a row to a term of the given kind.
_ChildResolver = Callable[[Any, Type[Expr]], Expr]


def _node_from_obj(obj: Any, child: _ChildResolver) -> Expr:
    """Rebuild the node of one ``[tag, ...]`` row, resolving children by *child*."""

    if not isinstance(obj, (list, tuple)) or not obj:
        raise ExpressionError("malformed serialized expression: %r" % (obj,))
    tag = obj[0]
    try:
        if tag == "const":
            return BVConst(int(obj[2]), int(obj[1]))
        if tag == "var":
            return BVVar(str(obj[2]), int(obj[1]))
        if tag == "binop":
            return BVBinOp(str(obj[1]), child(obj[2], BVExpr), child(obj[3], BVExpr))
        if tag == "unop":
            return BVUnOp(str(obj[1]), child(obj[2], BVExpr))
        if tag == "extract":
            return BVExtract(child(obj[3], BVExpr), int(obj[1]), int(obj[2]))
        if tag == "concat":
            return BVConcat([child(part, BVExpr) for part in obj[1:]])
        if tag == "zext":
            return BVZeroExt(child(obj[2], BVExpr), int(obj[1]))
        if tag == "sext":
            return BVSignExt(child(obj[2], BVExpr), int(obj[1]))
        if tag == "ite":
            return BVIte(child(obj[1], BoolExpr), child(obj[2], BVExpr),
                         child(obj[3], BVExpr))
        if tag == "bool":
            return TRUE if obj[1] else FALSE
        if tag == "not":
            return BoolNot(child(obj[1], BoolExpr))
        if tag == "and":
            return BoolAnd([child(op, BoolExpr) for op in obj[1:]])
        if tag == "or":
            return BoolOr([child(op, BoolExpr) for op in obj[1:]])
        if tag == "cmp":
            return BVCmp(str(obj[1]), child(obj[2], BVExpr), child(obj[3], BVExpr))
    except (IndexError, ValueError, TypeError) as exc:
        raise ExpressionError("malformed serialized %s node: %r (%s)" % (tag, obj, exc))
    raise ExpressionError("unknown serialized expression tag %r" % (tag,))


def _expect(expr: Expr, kind: Type[Expr]) -> Expr:
    if not isinstance(expr, kind):
        raise ExpressionError("expected a %s expression, got %r"
                              % ("boolean" if kind is BoolExpr else "bit-vector", expr))
    return expr


# ---------------------------------------------------------------------------
# Nested form
# ---------------------------------------------------------------------------

def expr_to_obj(expr: Expr) -> ExprObj:
    """Render *expr* as nested ``[tag, ...]`` lists of JSON-safe scalars."""

    return _node_obj(expr, expr_to_obj)


def _nested_child(obj: Any, kind: Type[Expr]) -> Expr:
    return _expect(expr_from_obj(obj), kind)


def expr_from_obj(obj: Union[ExprObj, tuple]) -> Expr:
    """Rebuild an expression from the output of :func:`expr_to_obj`."""

    return _node_from_obj(obj, _nested_child)


def bool_expr_from_obj(obj: Union[ExprObj, tuple]) -> BoolExpr:
    """Deserialize and type-check a boolean expression."""

    return _expect(expr_from_obj(obj), BoolExpr)


def bv_expr_from_obj(obj: Union[ExprObj, tuple]) -> BVExpr:
    """Deserialize and type-check a bit-vector expression."""

    return _expect(expr_from_obj(obj), BVExpr)


# ---------------------------------------------------------------------------
# Term table
# ---------------------------------------------------------------------------

class TermTableWriter:
    """Collects distinct terms into post-ordered rows with children by index.

    :meth:`add` walks a root iteratively and appends every node not yet in
    the table after its children, so each row refers only to earlier rows.
    Nodes are keyed by ``id``: interning makes that their structural
    identity, and the intern table keeps every written node alive.
    """

    __slots__ = ("rows", "_index")

    def __init__(self) -> None:
        #: One ``[tag, ...]`` row per distinct node, children as row indices.
        self.rows: List[ExprObj] = []
        self._index: Dict[int, int] = {}

    def add(self, root: Expr) -> int:
        """Add *root* and its subterms; return the row index of *root*."""

        index = self._index
        found = index.get(id(root))
        if found is not None:
            return found
        rows = self.rows

        def child_row(node: Expr) -> int:
            return index[id(node)]  # post-order: every child is already a row

        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in index:
                continue
            if expanded:
                index[id(node)] = len(rows)
                rows.append(_node_obj(node, child_row))
                continue
            stack.append((node, True))
            for sub in reversed(node.children()):
                if id(sub) not in index:
                    stack.append((sub, False))
        return index[id(root)]


def terms_from_table(rows: List[Any]) -> List[Expr]:
    """Rebuild every row written by :class:`TermTableWriter`, in order.

    Each row is built once, through the interned constructors, so element
    *i* of the result is the term of row *i*.  A child reference must name
    an earlier row of the right kind (bit-vector or boolean); anything else
    raises :class:`~repro.errors.ExpressionError`.
    """

    if not isinstance(rows, list):
        raise ExpressionError("term table must be a list, got %r" % (type(rows).__name__,))
    terms: List[Expr] = []

    def earlier_row(ref: Any, kind: Type[Expr]) -> Expr:
        # ``type(...) is int`` rejects JSON true/false and floats as indices.
        if type(ref) is not int or not 0 <= ref < len(terms):
            raise ExpressionError("term row %d refers to %r, which is not an earlier row"
                                  % (len(terms), ref))
        return _expect(terms[ref], kind)

    for row in rows:
        terms.append(_node_from_obj(row, earlier_row))
    return terms


def model_to_obj(model: "dict") -> "dict":
    """JSON-safe rendering of a solver model / assignment (name -> int).

    Witness bundles and exploration artifacts carry these next to serialized
    expressions; the explicit coercion catches non-scalar values early rather
    than at json.dump time.
    """

    rendered = {}
    for name, value in model.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ExpressionError(
                "model value for %r must be an int, got %r" % (name, value))
        rendered[str(name)] = int(value)
    return rendered


def model_from_obj(obj: "dict") -> "dict":
    """Rebuild an assignment serialized with :func:`model_to_obj`."""

    if not isinstance(obj, dict):
        raise ExpressionError("serialized model must be an object, got %r" % (obj,))
    try:
        return {str(name): int(value) for name, value in obj.items()}
    except (TypeError, ValueError) as exc:
        raise ExpressionError("malformed serialized model: %s" % (exc,))
