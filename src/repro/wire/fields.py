"""Helpers for protocol fields that may be concrete or symbolic.

Message and packet classes store their fields as either plain ``int`` values
or :class:`~repro.symbex.expr.BVExpr` terms.  These helpers centralize the
small amount of glue needed to treat both uniformly: width coercion, equality
that yields either a Python bool or a symbolic condition, and concrete
extraction for replay/normalization code that requires plain integers.
"""

from __future__ import annotations

from typing import Union

from repro.errors import ConcretizationError
from repro.symbex.expr import BoolExpr, BVConst, BVExpr, bv

__all__ = ["FieldValue", "as_field", "field_int", "field_equals", "is_symbolic_field", "field_repr"]

FieldValue = Union[int, BVExpr]


def as_field(value: FieldValue, width: int) -> FieldValue:
    """Coerce *value* to either a masked int or a *width*-bit expression."""

    if isinstance(value, bool):
        raise ConcretizationError("refusing to use a Python bool as a protocol field")
    if isinstance(value, int):
        return value & ((1 << width) - 1)
    if isinstance(value, BVExpr):
        coerced = bv(value, width)
        if isinstance(coerced, BVConst):
            return coerced.value
        return coerced
    raise ConcretizationError("cannot use %r as a protocol field" % (value,))


def is_symbolic_field(value: FieldValue) -> bool:
    """True when the field still carries symbolic bits."""

    return isinstance(value, BVExpr) and not isinstance(value, BVConst)


def field_int(value: FieldValue) -> int:
    """Return the concrete integer value of a field (raises when symbolic)."""

    if isinstance(value, int):
        return value
    if isinstance(value, BVConst):
        return value.value
    if isinstance(value, BVExpr):
        raise ConcretizationError("field %r is symbolic, not an integer" % (value,))
    raise ConcretizationError("cannot read %r as an integer field" % (value,))


def field_equals(a: FieldValue, b: FieldValue, width: int) -> Union[bool, BoolExpr]:
    """Equality over two fields; symbolic when either side is symbolic."""

    a = as_field(a, width)
    b = as_field(b, width)
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, int):
        a = bv(a, width)
    if isinstance(b, int):
        b = bv(b, width)
    return a == b


def field_repr(value) -> str:
    """Stable printable form used by normalized output traces.

    Accepts ints, bit-vector expressions and the symbolic logical port names
    ("FLOOD", "NORMAL", ...) that agents use for non-numbered outputs.
    """

    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, BVConst):
        return "%d" % value.value
    if isinstance(value, BVExpr):
        return "sym(%s)" % value.pretty()
    return repr(value)
