"""Bit-vector and boolean expression ASTs.

Agent code in this repository computes on :class:`BVExpr` values exactly as it
would on Python integers: the usual arithmetic, bitwise and comparison
operators are overloaded and produce new expression nodes.  When every operand
is concrete, operators fold to constants immediately, so purely concrete runs
carry no symbolic overhead.

Design notes
------------

* Widths are explicit and checked.  OpenFlow fields are 8/16/32/48/64-bit
  unsigned quantities; all comparisons default to *unsigned* semantics, with
  signed variants available as methods (``slt``, ``sle`` ...).
* Every node is **hash-consed**: construction interns the term in a global
  :class:`InternTable`, so two structurally identical terms built through any
  code path are the *same object* and ``a is b`` decides structural equality
  in O(1).  Caches throughout the solver stack key on ``id(expr)`` instead of
  the nested :meth:`Expr.key` tuples (which are still available, computed at
  most once per distinct term, and remain the cross-process/cross-generation
  fallback used by :func:`structurally_equal`).
* ``BVExpr.__eq__`` is *symbolic*: it returns a :class:`BoolExpr`.  Never use
  raw ``BVExpr`` objects as dictionary keys — use ``id(expr)`` (keeping a
  reference to the expression alive) or ``expr.key()``.
* Branching on a symbolic :class:`BoolExpr` (``if cond:``) calls back into the
  active exploration engine through a registered hook.  Outside an exploration
  context this raises :class:`~repro.errors.NoActiveEngineError` so that bugs
  where symbolic values leak into plain code are caught immediately.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.errors import (
    ConcretizationError,
    ExpressionError,
    NoActiveEngineError,
    WidthMismatchError,
)

__all__ = [
    "Expr",
    "InternTable",
    "intern_table",
    "BVExpr",
    "BVConst",
    "BVVar",
    "BVBinOp",
    "BVUnOp",
    "BVExtract",
    "BVConcat",
    "BVZeroExt",
    "BVSignExt",
    "BVIte",
    "BoolExpr",
    "BoolConst",
    "BoolNot",
    "BoolAnd",
    "BoolOr",
    "BVCmp",
    "TRUE",
    "FALSE",
    "BitVec",
    "Bool",
    "bv",
    "bvvar",
    "ite",
    "concat",
    "extract",
    "zero_extend",
    "sign_extend",
    "bool_and",
    "bool_or",
    "bool_not",
    "is_concrete",
    "concrete_value",
    "structurally_equal",
    "expr_size",
    "collect_variables",
    "set_branch_hook",
    "reset_branch_hook",
    "BVLike",
]

#: Values accepted wherever a bit-vector operand is expected.
BVLike = Union["BVExpr", int]

# ---------------------------------------------------------------------------
# Branch hook — installed by the exploration engine.
# ---------------------------------------------------------------------------


def _no_engine_branch(cond: "BoolExpr") -> bool:
    raise NoActiveEngineError(
        "attempted to branch on the symbolic condition %r outside of an "
        "exploration context; wrap the computation in Engine.explore() or "
        "evaluate it under a concrete assignment" % (cond,)
    )


# The hook is thread-local so that several engines may explore concurrently
# (one per worker thread of a Campaign) without observing each other's hook.
_branch_hooks = threading.local()


def _current_branch_hook() -> Callable[["BoolExpr"], bool]:
    return getattr(_branch_hooks, "hook", _no_engine_branch)


def set_branch_hook(hook: Callable[["BoolExpr"], bool]) -> Callable[["BoolExpr"], bool]:
    """Install *hook* as this thread's handler for truth-testing symbolic booleans.

    Returns the previously installed hook so callers can restore it.
    """

    previous = _current_branch_hook()
    _branch_hooks.hook = hook
    return previous


def reset_branch_hook(previous: Optional[Callable[["BoolExpr"], bool]] = None) -> None:
    """Restore *previous* (or the default error-raising hook) on this thread."""

    _branch_hooks.hook = previous if previous is not None else _no_engine_branch


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


class InternTable:
    """The hash-consing table behind every expression constructor.

    Keys are shallow tuples ``(cls, ...scalars..., id(child), ...)`` — because
    children are themselves interned (and kept alive by the table), a child's
    ``id`` is a canonical O(1) stand-in for its whole subtree, so interning a
    node costs one small-tuple hash instead of a deep structural one.

    The table holds strong references to every distinct term, which is what
    makes ``id``-keyed caches elsewhere safe (a live id is never recycled).
    Long multi-scale campaigns can :meth:`reset` it between scales to release
    the accumulated terms; terms from different generations remain *correct*
    (``structurally_equal`` falls back to key comparison) but are no longer
    pointer-identical.

    Thread-safety: the single mutating operation is ``dict.setdefault``,
    which is atomic under the GIL; the hit/miss counters are best-effort
    under concurrent construction.
    """

    __slots__ = ("_terms", "hits", "misses")

    def __init__(self) -> None:
        self._terms: dict = {}
        self.hits = 0
        self.misses = 0

    def _intern(self, key: tuple, candidate: "Expr") -> "Expr":
        interned = self._terms.setdefault(key, candidate)
        if interned is candidate:
            self.misses += 1  # soft-lint: disable=unlocked-shared-state -- counters are documented best-effort; setdefault is the GIL-atomic mutation
        else:
            self.hits += 1  # soft-lint: disable=unlocked-shared-state -- counters are documented best-effort; setdefault is the GIL-atomic mutation
        return interned

    @property
    def distinct_terms(self) -> int:
        return len(self._terms)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def memory_bytes(self) -> int:
        """Approximate retained size of the table (keys + term objects)."""

        import sys

        total = sys.getsizeof(self._terms)
        for key, term in list(self._terms.items()):
            total += sys.getsizeof(key) + sys.getsizeof(term)
        return total

    def stats_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "distinct_terms": self.distinct_terms,
            "hit_rate": self.hit_rate,
            "memory_bytes": self.memory_bytes(),
        }

    def reset(self) -> None:
        """Drop every interned term (a new *generation*) and zero the counters.

        The module-level ``TRUE``/``FALSE`` singletons are re-seeded so
        boolean constants stay pointer-identical across generations.
        """

        # reset() is a documented generation boundary, called only between
        # runs by the owner of the process's exploration life cycle — never
        # concurrently with construction.
        self._terms.clear()  # soft-lint: disable=unlocked-shared-state -- reset is a single-threaded generation boundary
        self.hits = 0  # soft-lint: disable=unlocked-shared-state -- reset is a single-threaded generation boundary
        self.misses = 0  # soft-lint: disable=unlocked-shared-state -- reset is a single-threaded generation boundary
        for singleton in (globals().get("TRUE"), globals().get("FALSE")):
            if singleton is not None:
                # soft-lint: disable=unlocked-shared-state -- reset is a single-threaded generation boundary
                self._terms[(BoolConst, singleton.value)] = singleton


_INTERN = InternTable()
#: Hot-path alias: constructor lookups go straight to the backing dict.
_TERMS = _INTERN._terms


def intern_table() -> InternTable:
    """The process-wide expression intern table (stats / reset live here)."""

    return _INTERN


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


class Expr:
    """Common base class of bit-vector and boolean expressions.

    Besides its operands a node carries memos of pure functions of the
    term, each filled on first use: ``_size`` (:func:`expr_size`),
    ``_simplified`` (:func:`repro.symbex.simplify.simplify`) and
    ``_compiled`` (:func:`repro.symbex.compile.compile_term`).  A memo lives
    and dies with its node, so an intern-table reset releases it too, and
    ``__reduce__`` rebuilds nodes structurally, so memos never pickle.
    """

    __slots__ = ("_key", "_hash", "_size", "_simplified", "_compiled")

    def key(self) -> tuple:
        """Return a hashable nested tuple uniquely describing this term."""

        key = getattr(self, "_key", None)
        if key is None:
            key = self._compute_key()
            object.__setattr__(self, "_key", key)
        return key

    def _compute_key(self) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Return the immediate sub-expressions (possibly empty)."""

        return ()

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.pretty()

    def pretty(self) -> str:
        """Human readable rendering of the expression."""

        raise NotImplementedError


def structurally_equal(a: Expr, b: Expr) -> bool:
    """True when *a* and *b* denote the same term (structural identity).

    With hash-consing this is pointer equality for terms of the same intern
    generation; the key comparison only runs for terms that straddle an
    :meth:`InternTable.reset` (or were built in another process).
    """

    return a is b or a.key() == b.key()


def expr_size(expr: Expr) -> int:
    """Number of distinct operator nodes in *expr*, counting shared subterms once.

    This is the metric the paper calls "constraint size" (number of boolean
    operations in a path condition).  The count is a property of the term
    alone, so it is computed on first use and kept on the node itself: paths
    share their interned constraints, and each is walked once.  The memo
    lives and dies with its term, across intern generations too.
    """

    size = getattr(expr, "_size", None)
    if size is not None:
        return size
    seen = set()
    stack = [expr]
    count = 0
    while stack:
        node = stack.pop()
        # Interning makes id() the structural identity of a live node; the
        # whole tree is pinned by *expr* for the duration of the walk.
        k = id(node)
        if k in seen:
            continue
        seen.add(k)
        count += 1
        stack.extend(node.children())
    object.__setattr__(expr, "_size", count)
    return count


class MemoStats:
    """Hit/miss counters of one per-node memo (``_simplified``, ``_compiled``).

    Best-effort under concurrent threads, like the intern table's counters:
    a memo write is idempotent, so a race can at most compute a term twice.
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def stats_dict(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }


def collect_variables(expr: Expr) -> dict:
    """Return a mapping ``name -> width`` of every free variable in *expr*."""

    variables: dict = {}
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        k = id(node)
        if k in seen:
            continue
        seen.add(k)
        if isinstance(node, BVVar):
            existing = variables.get(node.name)
            if existing is not None and existing != node.width:
                raise ExpressionError(
                    "variable %r used with widths %d and %d"
                    % (node.name, existing, node.width)
                )
            variables[node.name] = node.width
        stack.extend(node.children())
    return variables


# ---------------------------------------------------------------------------
# Bit-vector expressions
# ---------------------------------------------------------------------------


def _mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _to_signed(value: int, width: int) -> int:
    value = _mask(value, width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def _check_width(width: int) -> None:
    if not isinstance(width, int) or width <= 0:
        raise ExpressionError("bit-vector width must be a positive integer, got %r" % (width,))


class BVExpr(Expr):
    """A fixed-width unsigned bit-vector expression.

    Concrete subclasses construct through ``__new__`` and intern the node in
    the global :class:`InternTable`; ``width`` is set by each subclass.
    """

    __slots__ = ("width",)

    # -- coercion helpers -------------------------------------------------

    def _coerce(self, other: BVLike) -> "BVExpr":
        if isinstance(other, BVExpr):
            if other.width != self.width:
                raise WidthMismatchError(
                    "cannot combine %d-bit and %d-bit values (%r, %r)"
                    % (self.width, other.width, self, other)
                )
            return other
        if isinstance(other, bool):
            # Accidental bool arithmetic is almost always a bug in agent code.
            raise ExpressionError("cannot combine a bit-vector with a Python bool")
        if isinstance(other, int):
            return BVConst(other, self.width)
        return NotImplemented  # type: ignore[return-value]

    # -- concrete access ---------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        return isinstance(self, BVConst)

    def as_int(self) -> int:
        """Return the concrete value, or raise :class:`ConcretizationError`."""

        raise ConcretizationError("value %r is symbolic and has no single concrete value" % (self,))

    def __int__(self) -> int:
        return self.as_int()

    def __index__(self) -> int:
        return self.as_int()

    def __bool__(self) -> bool:
        return bool(self != 0)

    # -- arithmetic --------------------------------------------------------

    def _binop(self, op: str, other: BVLike, swapped: bool = False) -> "BVExpr":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        lhs: BVExpr = self
        if swapped:
            lhs, rhs = rhs, lhs
        return _make_binop(op, lhs, rhs)

    def __add__(self, other: BVLike) -> "BVExpr":
        return self._binop("add", other)

    def __radd__(self, other: BVLike) -> "BVExpr":
        return self._binop("add", other, swapped=True)

    def __sub__(self, other: BVLike) -> "BVExpr":
        return self._binop("sub", other)

    def __rsub__(self, other: BVLike) -> "BVExpr":
        return self._binop("sub", other, swapped=True)

    def __mul__(self, other: BVLike) -> "BVExpr":
        return self._binop("mul", other)

    def __rmul__(self, other: BVLike) -> "BVExpr":
        return self._binop("mul", other, swapped=True)

    def __and__(self, other: BVLike) -> "BVExpr":
        return self._binop("and", other)

    def __rand__(self, other: BVLike) -> "BVExpr":
        return self._binop("and", other, swapped=True)

    def __or__(self, other: BVLike) -> "BVExpr":
        return self._binop("or", other)

    def __ror__(self, other: BVLike) -> "BVExpr":
        return self._binop("or", other, swapped=True)

    def __xor__(self, other: BVLike) -> "BVExpr":
        return self._binop("xor", other)

    def __rxor__(self, other: BVLike) -> "BVExpr":
        return self._binop("xor", other, swapped=True)

    def __lshift__(self, other: BVLike) -> "BVExpr":
        return self._binop("shl", other)

    def __rshift__(self, other: BVLike) -> "BVExpr":
        return self._binop("lshr", other)

    def __invert__(self) -> "BVExpr":
        return _make_unop("not", self)

    def __neg__(self) -> "BVExpr":
        return _make_unop("neg", self)

    # -- comparisons (unsigned by default) ---------------------------------

    def __eq__(self, other: object) -> "BoolExpr":  # type: ignore[override]
        if not isinstance(other, (BVExpr, int)) or isinstance(other, bool):
            return NotImplemented  # type: ignore[return-value]
        return _make_cmp("eq", self, self._coerce(other))

    def __ne__(self, other: object) -> "BoolExpr":  # type: ignore[override]
        if not isinstance(other, (BVExpr, int)) or isinstance(other, bool):
            return NotImplemented  # type: ignore[return-value]
        return _make_cmp("ne", self, self._coerce(other))

    def __lt__(self, other: BVLike) -> "BoolExpr":
        return _make_cmp("ult", self, self._coerce(other))

    def __le__(self, other: BVLike) -> "BoolExpr":
        return _make_cmp("ule", self, self._coerce(other))

    def __gt__(self, other: BVLike) -> "BoolExpr":
        return _make_cmp("ult", self._coerce(other), self)

    def __ge__(self, other: BVLike) -> "BoolExpr":
        return _make_cmp("ule", self._coerce(other), self)

    def slt(self, other: BVLike) -> "BoolExpr":
        """Signed less-than."""

        return _make_cmp("slt", self, self._coerce(other))

    def sle(self, other: BVLike) -> "BoolExpr":
        """Signed less-or-equal."""

        return _make_cmp("sle", self, self._coerce(other))

    def sgt(self, other: BVLike) -> "BoolExpr":
        """Signed greater-than."""

        return _make_cmp("slt", self._coerce(other), self)

    def sge(self, other: BVLike) -> "BoolExpr":
        """Signed greater-or-equal."""

        return _make_cmp("sle", self._coerce(other), self)

    # -- structural helpers -------------------------------------------------

    def extract(self, high: int, low: int) -> "BVExpr":
        """Return bits ``high..low`` (inclusive) as a ``high-low+1``-bit value."""

        return extract(self, high, low)

    def zext(self, width: int) -> "BVExpr":
        """Zero-extend to *width* bits."""

        return zero_extend(self, width)

    def sext(self, width: int) -> "BVExpr":
        """Sign-extend to *width* bits."""

        return sign_extend(self, width)


class BVConst(BVExpr):
    """A concrete bit-vector constant."""

    __slots__ = ("value",)

    def __new__(cls, value: int, width: int) -> "BVConst":
        _check_width(width)
        if not isinstance(value, int):
            raise ExpressionError("constant value must be an int, got %r" % (value,))
        value = value & ((1 << width) - 1)
        key = (cls, width, value)
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        self = object.__new__(cls)
        self.width = width
        self.value = value
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVConst, (self.value, self.width))

    def as_int(self) -> int:
        return self.value

    def as_signed_int(self) -> int:
        return _to_signed(self.value, self.width)

    def _compute_key(self) -> tuple:
        return ("const", self.width, self.value)

    def pretty(self) -> str:
        if self.width % 4 == 0:
            return "0x%0*x[%d]" % (self.width // 4, self.value, self.width)
        return "%d[%d]" % (self.value, self.width)


class BVVar(BVExpr):
    """A free symbolic variable."""

    __slots__ = ("name",)

    def __new__(cls, name: str, width: int) -> "BVVar":
        # Validate BEFORE the cache lookup: scalar key components hash by
        # value, so e.g. a float 8.0 width would otherwise silently hit the
        # entry interned for the valid int 8.
        _check_width(width)
        if not name:
            raise ExpressionError("variable name must be non-empty")
        key = (cls, name, width)
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        self = object.__new__(cls)
        self.width = width
        self.name = name
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVVar, (self.name, self.width))

    def _compute_key(self) -> tuple:
        return ("var", self.width, self.name)

    def pretty(self) -> str:
        return "%s[%d]" % (self.name, self.width)


_BINOPS = frozenset(
    {"add", "sub", "mul", "udiv", "urem", "and", "or", "xor", "shl", "lshr", "ashr"}
)


class BVBinOp(BVExpr):
    """A binary operation over two same-width bit-vectors."""

    __slots__ = ("op", "lhs", "rhs")

    def __new__(cls, op: str, lhs: BVExpr, rhs: BVExpr) -> "BVBinOp":
        key = (cls, op, id(lhs), id(rhs))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        if op not in _BINOPS:
            raise ExpressionError("unknown bit-vector binary operator %r" % (op,))
        if lhs.width != rhs.width:
            raise WidthMismatchError(
                "operands of %s must share a width: %d vs %d" % (op, lhs.width, rhs.width)
            )
        self = object.__new__(cls)
        self.width = lhs.width
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVBinOp, (self.op, self.lhs, self.rhs))

    def children(self) -> Tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def _compute_key(self) -> tuple:
        return ("binop", self.op, self.width, self.lhs.key(), self.rhs.key())

    def pretty(self) -> str:
        return "(%s %s %s)" % (self.lhs.pretty(), self.op, self.rhs.pretty())


class BVUnOp(BVExpr):
    """A unary bit-vector operation (bitwise not / arithmetic negation)."""

    __slots__ = ("op", "operand")

    def __new__(cls, op: str, operand: BVExpr) -> "BVUnOp":
        key = (cls, op, id(operand))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        if op not in ("not", "neg"):
            raise ExpressionError("unknown bit-vector unary operator %r" % (op,))
        self = object.__new__(cls)
        self.width = operand.width
        self.op = op
        self.operand = operand
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVUnOp, (self.op, self.operand))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _compute_key(self) -> tuple:
        return ("unop", self.op, self.width, self.operand.key())

    def pretty(self) -> str:
        symbol = "~" if self.op == "not" else "-"
        return "%s%s" % (symbol, self.operand.pretty())


class BVExtract(BVExpr):
    """Bits ``high..low`` (inclusive) of a wider expression."""

    __slots__ = ("operand", "high", "low")

    def __new__(cls, operand: BVExpr, high: int, low: int) -> "BVExtract":
        # Validate before the lookup: high/low hash by value in the key
        # (8.0 == 8), so invalid numeric types must not reach the cache.
        if not (isinstance(high, int) and isinstance(low, int)
                and 0 <= low <= high < operand.width):
            raise ExpressionError(
                "invalid extract [%s:%s] of a %d-bit value" % (high, low, operand.width)
            )
        key = (cls, high, low, id(operand))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        self = object.__new__(cls)
        self.width = high - low + 1
        self.operand = operand
        self.high = high
        self.low = low
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVExtract, (self.operand, self.high, self.low))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _compute_key(self) -> tuple:
        return ("extract", self.high, self.low, self.operand.key())

    def pretty(self) -> str:
        return "%s[%d:%d]" % (self.operand.pretty(), self.high, self.low)


class BVConcat(BVExpr):
    """Concatenation of bit-vectors; the first part holds the most significant bits."""

    __slots__ = ("parts",)

    def __new__(cls, parts: Sequence[BVExpr]) -> "BVConcat":
        parts = tuple(parts)
        key = (cls,) + tuple(map(id, parts))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        if len(parts) < 2:
            raise ExpressionError("concat requires at least two parts")
        self = object.__new__(cls)
        self.width = sum(p.width for p in parts)
        self.parts = parts
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVConcat, (self.parts,))

    def children(self) -> Tuple[Expr, ...]:
        return self.parts

    def _compute_key(self) -> tuple:
        return ("concat",) + tuple(p.key() for p in self.parts)

    def pretty(self) -> str:
        return "(%s)" % " . ".join(p.pretty() for p in self.parts)


class BVZeroExt(BVExpr):
    """Zero extension of a narrower expression."""

    __slots__ = ("operand",)

    def __new__(cls, operand: BVExpr, width: int) -> "BVZeroExt":
        _check_width(width)  # before the lookup: width hashes by value
        if width <= operand.width:
            raise ExpressionError(
                "zero-extend target width %d must exceed operand width %d"
                % (width, operand.width)
            )
        key = (cls, width, id(operand))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        self = object.__new__(cls)
        self.width = width
        self.operand = operand
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVZeroExt, (self.operand, self.width))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _compute_key(self) -> tuple:
        return ("zext", self.width, self.operand.key())

    def pretty(self) -> str:
        return "zext%d(%s)" % (self.width, self.operand.pretty())


class BVSignExt(BVExpr):
    """Sign extension of a narrower expression."""

    __slots__ = ("operand",)

    def __new__(cls, operand: BVExpr, width: int) -> "BVSignExt":
        _check_width(width)  # before the lookup: width hashes by value
        if width <= operand.width:
            raise ExpressionError(
                "sign-extend target width %d must exceed operand width %d"
                % (width, operand.width)
            )
        key = (cls, width, id(operand))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        self = object.__new__(cls)
        self.width = width
        self.operand = operand
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVSignExt, (self.operand, self.width))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _compute_key(self) -> tuple:
        return ("sext", self.width, self.operand.key())

    def pretty(self) -> str:
        return "sext%d(%s)" % (self.width, self.operand.pretty())


class BVIte(BVExpr):
    """If-then-else over bit-vectors."""

    __slots__ = ("cond", "then", "otherwise")

    def __new__(cls, cond: "BoolExpr", then: BVExpr, otherwise: BVExpr) -> "BVIte":
        key = (cls, id(cond), id(then), id(otherwise))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        if then.width != otherwise.width:
            raise WidthMismatchError(
                "ite branches must share a width: %d vs %d" % (then.width, otherwise.width)
            )
        self = object.__new__(cls)
        self.width = then.width
        self.cond = cond
        self.then = then
        self.otherwise = otherwise
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVIte, (self.cond, self.then, self.otherwise))

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.otherwise)

    def _compute_key(self) -> tuple:
        return ("ite", self.cond.key(), self.then.key(), self.otherwise.key())

    def pretty(self) -> str:
        return "ite(%s, %s, %s)" % (
            self.cond.pretty(),
            self.then.pretty(),
            self.otherwise.pretty(),
        )


# ---------------------------------------------------------------------------
# Boolean expressions
# ---------------------------------------------------------------------------


class BoolExpr(Expr):
    """A boolean expression over bit-vector atoms."""

    __slots__ = ()

    @property
    def is_concrete(self) -> bool:
        return isinstance(self, BoolConst)

    def __bool__(self) -> bool:
        if isinstance(self, BoolConst):
            return self.value
        return _current_branch_hook()(self)

    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return bool_and(self, other)

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return bool_or(self, other)

    def __invert__(self) -> "BoolExpr":
        return bool_not(self)

    # Structural equality (note: unlike BVExpr, == on BoolExpr is *not* symbolic).
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BoolExpr):
            return NotImplemented
        return self.key() == other.key()

    def __ne__(self, other: object) -> bool:
        if self is other:
            return False
        if not isinstance(other, BoolExpr):
            return NotImplemented
        return self.key() != other.key()

    __hash__ = Expr.__hash__


class BoolConst(BoolExpr):
    """The constants ``TRUE`` and ``FALSE``."""

    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "BoolConst":
        value = bool(value)
        key = (cls, value)
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        self = object.__new__(cls)
        self.value = value
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BoolConst, (self.value,))

    def _compute_key(self) -> tuple:
        return ("bool", self.value)

    def pretty(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class BoolNot(BoolExpr):
    """Logical negation."""

    __slots__ = ("operand",)

    def __new__(cls, operand: BoolExpr) -> "BoolNot":
        key = (cls, id(operand))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        self = object.__new__(cls)
        self.operand = operand
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BoolNot, (self.operand,))

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def _compute_key(self) -> tuple:
        return ("not", self.operand.key())

    def pretty(self) -> str:
        return "!%s" % (self.operand.pretty(),)


class _BoolNary(BoolExpr):
    __slots__ = ("operands",)

    _NAME = "?"

    def __new__(cls, operands: Sequence[BoolExpr]) -> "_BoolNary":
        operands = tuple(operands)
        key = (cls,) + tuple(map(id, operands))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        if len(operands) < 2:
            raise ExpressionError("%s requires at least two operands" % cls._NAME)
        self = object.__new__(cls)
        self.operands = operands
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (type(self), (self.operands,))

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def _compute_key(self) -> tuple:
        return (self._NAME,) + tuple(o.key() for o in self.operands)

    def pretty(self) -> str:
        joiner = " %s " % ("&&" if self._NAME == "and" else "||")
        return "(%s)" % joiner.join(o.pretty() for o in self.operands)


class BoolAnd(_BoolNary):
    """N-ary conjunction."""

    __slots__ = ()
    _NAME = "and"


class BoolOr(_BoolNary):
    """N-ary disjunction."""

    __slots__ = ()
    _NAME = "or"


_CMPS = frozenset({"eq", "ne", "ult", "ule", "slt", "sle"})


class BVCmp(BoolExpr):
    """A comparison atom between two same-width bit-vectors."""

    __slots__ = ("op", "lhs", "rhs")

    def __new__(cls, op: str, lhs: BVExpr, rhs: BVExpr) -> "BVCmp":
        key = (cls, op, id(lhs), id(rhs))
        cached = _TERMS.get(key)
        if cached is not None:
            _INTERN.hits += 1
            return cached
        if op not in _CMPS:
            raise ExpressionError("unknown comparison operator %r" % (op,))
        if lhs.width != rhs.width:
            raise WidthMismatchError(
                "comparison operands must share a width: %d vs %d" % (lhs.width, rhs.width)
            )
        self = object.__new__(cls)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        return _INTERN._intern(key, self)

    def __reduce__(self):
        return (BVCmp, (self.op, self.lhs, self.rhs))

    def children(self) -> Tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def _compute_key(self) -> tuple:
        return ("cmp", self.op, self.lhs.key(), self.rhs.key())

    def pretty(self) -> str:
        symbols = {"eq": "==", "ne": "!=", "ult": "<u", "ule": "<=u", "slt": "<s", "sle": "<=s"}
        return "(%s %s %s)" % (self.lhs.pretty(), symbols[self.op], self.rhs.pretty())


# Convenience aliases used in type annotations throughout the code base.
BitVec = BVExpr
Bool = BoolExpr


# ---------------------------------------------------------------------------
# Smart constructors (perform constant folding and light normalization)
# ---------------------------------------------------------------------------


def bv(value: BVLike, width: int) -> BVExpr:
    """Coerce *value* into a *width*-bit expression (constants are masked)."""

    if isinstance(value, BVExpr):
        if value.width == width:
            return value
        if value.width < width:
            return zero_extend(value, width)
        return extract(value, width - 1, 0)
    if isinstance(value, bool):
        raise ExpressionError("refusing to build a bit-vector from a Python bool")
    if isinstance(value, int):
        return BVConst(value, width)
    raise ExpressionError("cannot build a bit-vector from %r" % (value,))


def bvvar(name: str, width: int) -> BVVar:
    """Create a fresh free variable."""

    return BVVar(name, width)


def is_concrete(value: object) -> bool:
    """True for Python ints, concrete bit-vectors and concrete booleans."""

    if isinstance(value, (int, bytes)):
        return True
    if isinstance(value, BVExpr):
        return isinstance(value, BVConst)
    if isinstance(value, BoolExpr):
        return isinstance(value, BoolConst)
    return False


def concrete_value(value: object) -> int:
    """Extract the concrete integer behind *value* or raise ConcretizationError."""

    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, BVConst):
        return value.value
    if isinstance(value, BVExpr):
        raise ConcretizationError("value %r is symbolic" % (value,))
    raise ConcretizationError("cannot interpret %r as a concrete integer" % (value,))


def _fold_binop(op: str, lhs: int, rhs: int, width: int) -> int:
    if op == "add":
        return _mask(lhs + rhs, width)
    if op == "sub":
        return _mask(lhs - rhs, width)
    if op == "mul":
        return _mask(lhs * rhs, width)
    if op == "udiv":
        return _mask(lhs // rhs, width) if rhs != 0 else _mask(-1, width)
    if op == "urem":
        return _mask(lhs % rhs, width) if rhs != 0 else lhs
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
        signed = _to_signed(lhs, width)
        shift = min(rhs, width - 1)
        return _mask(signed >> shift, width)
    raise ExpressionError("unknown operator %r" % (op,))


def _make_binop(op: str, lhs: BVExpr, rhs: BVExpr) -> BVExpr:
    if isinstance(lhs, BVConst) and isinstance(rhs, BVConst):
        return BVConst(_fold_binop(op, lhs.value, rhs.value, lhs.width), lhs.width)
    # Identity / absorbing element shortcuts keep path conditions small.
    if isinstance(rhs, BVConst):
        if rhs.value == 0 and op in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return lhs
        if rhs.value == 0 and op in ("and", "mul"):
            return BVConst(0, lhs.width)
        if rhs.value == _mask(-1, lhs.width) and op == "and":
            return lhs
        if rhs.value == 1 and op == "mul":
            return lhs
    if isinstance(lhs, BVConst):
        if lhs.value == 0 and op in ("add", "or", "xor"):
            return rhs
        if lhs.value == 0 and op in ("and", "mul", "shl", "lshr", "ashr"):
            return BVConst(0, lhs.width)
        if lhs.value == _mask(-1, lhs.width) and op == "and":
            return rhs
        if lhs.value == 1 and op == "mul":
            return rhs
    return BVBinOp(op, lhs, rhs)


def _make_unop(op: str, operand: BVExpr) -> BVExpr:
    if isinstance(operand, BVConst):
        if op == "not":
            return BVConst(~operand.value, operand.width)
        return BVConst(-operand.value, operand.width)
    if isinstance(operand, BVUnOp) and operand.op == op:
        # ~~x == x and -(-x) == x
        return operand.operand
    return BVUnOp(op, operand)


def _fold_cmp(op: str, lhs: BVConst, rhs: BVConst) -> BoolConst:
    if op == "eq":
        return TRUE if lhs.value == rhs.value else FALSE
    if op == "ne":
        return TRUE if lhs.value != rhs.value else FALSE
    if op == "ult":
        return TRUE if lhs.value < rhs.value else FALSE
    if op == "ule":
        return TRUE if lhs.value <= rhs.value else FALSE
    if op == "slt":
        return TRUE if lhs.as_signed_int() < rhs.as_signed_int() else FALSE
    if op == "sle":
        return TRUE if lhs.as_signed_int() <= rhs.as_signed_int() else FALSE
    raise ExpressionError("unknown comparison %r" % (op,))


def _make_cmp(op: str, lhs: BVExpr, rhs: BVExpr) -> BoolExpr:
    if isinstance(lhs, BVConst) and isinstance(rhs, BVConst):
        return _fold_cmp(op, lhs, rhs)
    if structurally_equal(lhs, rhs):
        if op in ("eq", "ule", "sle"):
            return TRUE
        if op in ("ne", "ult", "slt"):
            return FALSE
    return BVCmp(op, lhs, rhs)


def ite(cond: BoolExpr, then: BVLike, otherwise: BVLike) -> BVExpr:
    """Bit-vector if-then-else; folds when the condition is concrete."""

    if not isinstance(cond, BoolExpr):
        raise ExpressionError("ite condition must be a BoolExpr, got %r" % (cond,))
    if isinstance(then, int) and isinstance(otherwise, int):
        raise ExpressionError("at least one ite branch must be a bit-vector to fix the width")
    if isinstance(then, int):
        then = BVConst(then, otherwise.width)  # type: ignore[union-attr]
    if isinstance(otherwise, int):
        otherwise = BVConst(otherwise, then.width)
    if isinstance(cond, BoolConst):
        return then if cond.value else otherwise
    if structurally_equal(then, otherwise):
        return then
    return BVIte(cond, then, otherwise)


def concat(*parts: BVExpr) -> BVExpr:
    """Concatenate bit-vectors, most significant part first."""

    flattened: list = []
    for part in parts:
        if not isinstance(part, BVExpr):
            raise ExpressionError("concat operands must be bit-vectors, got %r" % (part,))
        if isinstance(part, BVConcat):
            flattened.extend(part.parts)
        else:
            flattened.append(part)
    if not flattened:
        raise ExpressionError("concat requires at least one operand")
    if len(flattened) == 1:
        return flattened[0]
    # Merge adjacent constants and re-join adjacent extracts of the same term
    # (so a field that was split into bytes by a writer re-emerges intact).
    merged: list = [flattened[0]]
    for part in flattened[1:]:
        last = merged[-1]
        if isinstance(last, BVConst) and isinstance(part, BVConst):
            merged[-1] = BVConst((last.value << part.width) | part.value, last.width + part.width)
            continue
        if (
            isinstance(last, BVExtract)
            and isinstance(part, BVExtract)
            and structurally_equal(last.operand, part.operand)
            and last.low == part.high + 1
        ):
            merged[-1] = extract(last.operand, last.high, part.low)
            continue
        merged.append(part)
    if len(merged) == 1:
        return merged[0]
    return BVConcat(merged)


def extract(operand: BVExpr, high: int, low: int) -> BVExpr:
    """Return bits ``high..low`` (inclusive)."""

    if not isinstance(operand, BVExpr):
        raise ExpressionError("extract operand must be a bit-vector, got %r" % (operand,))
    if high == operand.width - 1 and low == 0:
        return operand
    if isinstance(operand, BVConst):
        return BVConst(operand.value >> low, high - low + 1)
    if isinstance(operand, BVExtract):
        return extract(operand.operand, operand.low + high, operand.low + low)
    if isinstance(operand, BVConcat):
        # Try to satisfy the extract from a single part to keep terms small.
        offset = 0
        for part in reversed(operand.parts):
            if low >= offset and high < offset + part.width:
                return extract(part, high - offset, low - offset)
            offset += part.width
    if isinstance(operand, (BVZeroExt,)):
        if high < operand.operand.width:
            return extract(operand.operand, high, low)
        if low >= operand.operand.width:
            return BVConst(0, high - low + 1)
    return BVExtract(operand, high, low)


def zero_extend(operand: BVExpr, width: int) -> BVExpr:
    """Zero-extend *operand* to *width* bits (no-op when already that wide)."""

    if operand.width == width:
        return operand
    if operand.width > width:
        raise ExpressionError(
            "cannot zero-extend a %d-bit value to %d bits" % (operand.width, width)
        )
    if isinstance(operand, BVConst):
        return BVConst(operand.value, width)
    return BVZeroExt(operand, width)


def sign_extend(operand: BVExpr, width: int) -> BVExpr:
    """Sign-extend *operand* to *width* bits (no-op when already that wide)."""

    if operand.width == width:
        return operand
    if operand.width > width:
        raise ExpressionError(
            "cannot sign-extend a %d-bit value to %d bits" % (operand.width, width)
        )
    if isinstance(operand, BVConst):
        return BVConst(_to_signed(operand.value, operand.width), width)
    return BVSignExt(operand, width)


def _coerce_bool(value: Union[BoolExpr, bool]) -> BoolExpr:
    if isinstance(value, BoolExpr):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    raise ExpressionError("expected a boolean, got %r" % (value,))


def bool_not(operand: Union[BoolExpr, bool]) -> BoolExpr:
    """Logical negation with folding and double-negation elimination."""

    operand = _coerce_bool(operand)
    if isinstance(operand, BoolConst):
        return FALSE if operand.value else TRUE
    if isinstance(operand, BoolNot):
        return operand.operand
    if isinstance(operand, BVCmp):
        negations = {"eq": "ne", "ne": "eq", "ult": None, "ule": None, "slt": None, "sle": None}
        flipped = negations[operand.op]
        if flipped is not None:
            return BVCmp(flipped, operand.lhs, operand.rhs)
        # !(a < b)  ==  b <= a ; !(a <= b) == b < a
        if operand.op == "ult":
            return BVCmp("ule", operand.rhs, operand.lhs)
        if operand.op == "ule":
            return BVCmp("ult", operand.rhs, operand.lhs)
        if operand.op == "slt":
            return BVCmp("sle", operand.rhs, operand.lhs)
        if operand.op == "sle":
            return BVCmp("slt", operand.rhs, operand.lhs)
    return BoolNot(operand)


def _nary(kind: type, absorbing: BoolConst, neutral: BoolConst,
          operands: Iterable[Union[BoolExpr, bool]]) -> BoolExpr:
    flat: list = []
    seen = set()
    for operand in operands:
        operand = _coerce_bool(operand)
        if isinstance(operand, BoolConst):
            if operand is absorbing or operand.value == absorbing.value:
                return absorbing
            continue
        if isinstance(operand, kind):
            for inner in operand.operands:  # type: ignore[attr-defined]
                if id(inner) not in seen:
                    seen.add(id(inner))
                    flat.append(inner)
            continue
        if id(operand) not in seen:
            seen.add(id(operand))
            flat.append(operand)
    if not flat:
        return neutral
    if len(flat) == 1:
        return flat[0]
    return kind(flat)


def bool_and(*operands: Union[BoolExpr, bool]) -> BoolExpr:
    """N-ary conjunction with flattening, deduplication and folding."""

    return _nary(BoolAnd, FALSE, TRUE, operands)


def bool_or(*operands: Union[BoolExpr, bool]) -> BoolExpr:
    """N-ary disjunction with flattening, deduplication and folding."""

    return _nary(BoolOr, TRUE, FALSE, operands)
