"""Tests for expression simplification and substitution."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExpressionError
from repro.symbex.expr import (
    BoolConst,
    BVConst,
    FALSE,
    TRUE,
    bool_and,
    bool_not,
    bool_or,
    bv,
    bvvar,
    concat,
    extract,
    ite,
    zero_extend,
)
from repro.symbex.simplify import simplify, simplify_bool, substitute
from tests.oracles import evaluate_bool, evaluate_bv


# ---------------------------------------------------------------------------
# simplify / substitute
# ---------------------------------------------------------------------------

def test_simplify_folds_constant_subterms():
    x = bvvar("x", 16)
    term = (x + 0) & 0xFFFF
    assert simplify(term) is x


def test_simplify_bool_folds_tautologies():
    x = bvvar("x", 16)
    assert simplify_bool(bool_or(x == 3, TRUE)) is TRUE
    assert simplify_bool(bool_and(x == 3, FALSE)) is FALSE
    assert simplify_bool(bool_not(bool_not(x == 3))) == (x == 3)


def test_substitute_with_integer_binding():
    x, y = bvvar("x", 16), bvvar("y", 16)
    term = x + y
    result = substitute(term, {"x": 3})
    assert evaluate_bv(result, {"y": 4}) == 7


def test_substitute_with_expression_binding():
    x, y = bvvar("x", 16), bvvar("y", 16)
    condition = x == 10
    result = substitute(condition, {"x": y + 1})
    assert evaluate_bool(result, {"y": 9})
    assert not evaluate_bool(result, {"y": 10})


def test_substitute_full_model_reduces_to_constant():
    x, y = bvvar("x", 8), bvvar("y", 8)
    condition = bool_and(x < y, (x ^ y) != 0)
    reduced = substitute(condition, {"x": 1, "y": 2})
    assert isinstance(reduced, BoolConst) and reduced.value


def test_substitute_width_mismatch_rejected():
    x = bvvar("x", 16)
    with pytest.raises(ExpressionError):
        substitute(x + 1, {"x": bvvar("wide", 32)})


def test_substitute_ignores_unused_bindings():
    x = bvvar("x", 16)
    result = substitute(x + 1, {"unused": 5, "x": 2})
    assert isinstance(result, BVConst) and result.value == 3


def test_evaluate_handles_all_node_kinds():
    x = bvvar("x", 8)
    term = ite(x > 4, concat(extract(x, 7, 4), bv(0xA, 4)), zero_extend(extract(x, 3, 0), 8))
    assert evaluate_bv(term, {"x": 0x53}) == 0x5A
    assert evaluate_bv(term, {"x": 0x03}) == 0x03


def test_evaluate_requires_binding_unless_default():
    x = bvvar("x", 8)
    with pytest.raises(ExpressionError):
        evaluate_bv(x + 1, {})
    assert evaluate_bv(x + 1, {}, default=0) == 1


def test_evaluate_signed_operations():
    x = bvvar("x", 8)
    assert evaluate_bool(x.slt(0), {"x": 0xFF})
    assert not evaluate_bool(x.slt(0), {"x": 0x7F})
    assert evaluate_bv(x.sext(16), {"x": 0x80}) == 0xFF80


@given(st.integers(min_value=0, max_value=0xFFFF))
def test_prop_simplify_preserves_semantics(value):
    x = bvvar("x", 16)
    term = ((x ^ 0xFFFF) & 0x00FF) + (x >> 8)
    assert evaluate_bv(simplify(term), {"x": value}) == evaluate_bv(term, {"x": value})


@given(st.integers(min_value=0, max_value=0xFF), st.integers(min_value=0, max_value=0xFF))
def test_prop_substitution_then_evaluation_commutes(a, b):
    x, y = bvvar("x", 8), bvvar("y", 8)
    condition = bool_or(x + y == 10, x > y)
    direct = evaluate_bool(condition, {"x": a, "y": b})
    via_substitution = substitute(condition, {"x": a, "y": b})
    assert isinstance(via_substitution, BoolConst)
    assert via_substitution.value == direct
