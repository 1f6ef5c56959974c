"""Tests for the bit-vector / boolean expression AST."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    ConcretizationError,
    ExpressionError,
    NoActiveEngineError,
    WidthMismatchError,
)
from repro.symbex.expr import (
    BVConst,
    BVVar,
    FALSE,
    TRUE,
    bool_and,
    bool_not,
    bool_or,
    bv,
    bvvar,
    collect_variables,
    concat,
    expr_size,
    extract,
    ite,
    sign_extend,
    structurally_equal,
    zero_extend,
)
from tests.oracles import evaluate_bool, evaluate_bv


def test_const_masks_to_width():
    assert BVConst(0x1FF, 8).value == 0xFF
    assert BVConst(-1, 16).value == 0xFFFF


def test_const_as_int_and_index():
    value = BVConst(42, 8)
    assert int(value) == 42
    assert value.extract(3, 0).as_int() == 10
    assert [10, 20, 30][value.as_int() % 3] == 10


def test_var_requires_name_and_width():
    with pytest.raises(ExpressionError):
        BVVar("", 8)
    with pytest.raises(ExpressionError):
        BVVar("x", 0)


def test_symbolic_as_int_raises():
    with pytest.raises(ConcretizationError):
        int(bvvar("x", 8))


def test_add_constant_folding():
    assert (bv(200, 8) + 100).as_int() == (300 & 0xFF)


def test_sub_and_mul_folding():
    assert (bv(5, 16) - 10).as_int() == 0xFFFB
    assert (bv(3, 8) * 7).as_int() == 21


def test_bitwise_folding():
    assert (bv(0xF0, 8) & 0x3C).as_int() == 0x30
    assert (bv(0xF0, 8) | 0x0F).as_int() == 0xFF
    assert (bv(0xFF, 8) ^ 0x0F).as_int() == 0xF0
    assert (~bv(0x0F, 8)).as_int() == 0xF0


def test_shift_folding():
    assert (bv(1, 8) << 3).as_int() == 8
    assert (bv(0x80, 8) >> 7).as_int() == 1
    assert (bv(1, 8) << 9).as_int() == 0


def test_identity_simplifications():
    x = bvvar("x", 16)
    assert (x + 0) is x
    assert (x | 0) is x
    assert (x & 0xFFFF) is x
    assert (x & 0).as_int() == 0
    assert (x * 1) is x
    assert structurally_equal(~(~x), x)


def test_width_mismatch_rejected():
    with pytest.raises(WidthMismatchError):
        bvvar("a", 8) + bvvar("b", 16)


def test_bool_operand_rejected():
    with pytest.raises(ExpressionError):
        bvvar("a", 8) + True


def test_comparison_folding():
    assert (bv(3, 8) < 5) is TRUE
    assert (bv(7, 8) < 5) is FALSE
    assert (bv(5, 8) == 5) is TRUE
    assert (bv(5, 8) != 5) is FALSE
    assert (bv(0xFF, 8) > 0) is TRUE


def test_signed_comparisons():
    assert bv(0xFF, 8).slt(0) is TRUE       # 0xFF is -1 signed
    assert bv(0x7F, 8).slt(0) is FALSE
    assert bv(0x80, 8).sle(bv(0x80, 8)) is TRUE


def test_self_comparison_simplifies():
    x = bvvar("x", 8)
    assert (x == x) is TRUE
    assert (x != x) is FALSE
    assert (x <= x) is TRUE
    assert (x < x) is FALSE


def test_symbolic_comparison_builds_atom():
    x = bvvar("x", 8)
    atom = x == 3
    assert not atom.is_concrete
    assert "x" in collect_variables(atom)


def test_extract_of_constant():
    assert extract(bv(0xABCD, 16), 15, 8).as_int() == 0xAB
    assert extract(bv(0xABCD, 16), 7, 0).as_int() == 0xCD


def test_extract_full_width_is_identity():
    x = bvvar("x", 16)
    assert extract(x, 15, 0) is x


def test_extract_of_extract_composes():
    x = bvvar("x", 32)
    inner = extract(x, 23, 8)
    outer = extract(inner, 7, 0)
    assert outer.key() == extract(x, 15, 8).key()


def test_invalid_extract_rejected():
    with pytest.raises(ExpressionError):
        extract(bvvar("x", 8), 8, 0)


def test_concat_of_constants_folds():
    assert concat(bv(0xAB, 8), bv(0xCD, 8)).as_int() == 0xABCD


def test_concat_rejoins_adjacent_extracts():
    x = bvvar("x", 16)
    high = extract(x, 15, 8)
    low = extract(x, 7, 0)
    assert concat(high, low) is x


def test_concat_width():
    value = concat(bvvar("a", 8), bvvar("b", 16), bvvar("c", 8))
    assert value.width == 32


def test_zero_extend_and_sign_extend():
    assert zero_extend(bv(0xFF, 8), 16).as_int() == 0x00FF
    assert sign_extend(bv(0xFF, 8), 16).as_int() == 0xFFFF
    x = bvvar("x", 8)
    assert zero_extend(x, 8) is x
    with pytest.raises(ExpressionError):
        zero_extend(bvvar("x", 16), 8)


def test_ite_folding():
    x = bvvar("x", 8)
    assert ite(TRUE, x, bv(0, 8)) is x
    assert ite(FALSE, x, bv(3, 8)).as_int() == 3
    assert ite(x == 1, x, x) is x


def test_bool_not_negates_comparison():
    x = bvvar("x", 8)
    negated = bool_not(x == 5)
    assert negated.key()[1] == "ne"
    assert bool_not(negated) == (x == 5)


def test_bool_and_or_folding():
    x = bvvar("x", 8)
    cond = x == 1
    assert bool_and(True, cond) == cond
    assert bool_and(False, cond) is FALSE
    assert bool_or(True, cond) is TRUE
    assert bool_or(False, cond) == cond
    assert bool_and(cond, cond) == cond


def test_bool_nary_flattening():
    x = bvvar("x", 8)
    a, b, d = x == 1, x == 2, x == 3
    nested = bool_and(a, bool_and(b, d))
    assert len(nested.operands) == 3


def test_truth_test_outside_engine_raises():
    x = bvvar("x", 8)
    with pytest.raises(NoActiveEngineError):
        bool(x == 5)
    with pytest.raises(NoActiveEngineError):
        if x:  # pragma: no cover - the branch never executes
            pass


def test_expr_size_counts_shared_subterms_once():
    x = bvvar("x", 16)
    term = (x + 1) ^ (x + 1)
    assert expr_size(term) == 4  # xor, add, x, 1


def test_collect_variables_width_conflict():
    from repro.symbex.expr import BoolAnd

    a = bvvar("v", 8) == 1
    b = bvvar("v", 16) == 2
    with pytest.raises(ExpressionError):
        collect_variables(BoolAnd([a, b]))


def test_keys_are_structural():
    assert (bvvar("x", 8) + 1).key() == (bvvar("x", 8) + 1).key()
    assert (bvvar("x", 8) + 1).key() != (bvvar("x", 8) + 2).key()


# ---------------------------------------------------------------------------
# Property-based tests: constant folding agrees with big-int evaluation
# ---------------------------------------------------------------------------

u16 = st.integers(min_value=0, max_value=0xFFFF)


@given(u16, u16)
def test_prop_add_matches_python(a, b):
    assert (bv(a, 16) + b).as_int() == (a + b) & 0xFFFF


@given(u16, u16)
def test_prop_sub_matches_python(a, b):
    assert (bv(a, 16) - b).as_int() == (a - b) & 0xFFFF


@given(u16, u16)
def test_prop_and_or_xor(a, b):
    assert (bv(a, 16) & b).as_int() == a & b
    assert (bv(a, 16) | b).as_int() == a | b
    assert (bv(a, 16) ^ b).as_int() == a ^ b


@given(u16, u16)
def test_prop_unsigned_comparisons(a, b):
    assert ((bv(a, 16) < b) is TRUE) == (a < b)
    assert ((bv(a, 16) <= b) is TRUE) == (a <= b)
    assert ((bv(a, 16) == b) is TRUE) == (a == b)


@given(u16, st.integers(min_value=0, max_value=20))
def test_prop_shifts(a, shift):
    expected_left = (a << shift) & 0xFFFF if shift < 16 else 0
    expected_right = a >> shift if shift < 16 else 0
    assert (bv(a, 16) << shift).as_int() == expected_left
    assert (bv(a, 16) >> shift).as_int() == expected_right


@given(u16)
def test_prop_extract_concat_roundtrip(a):
    value = bv(a, 16)
    assert concat(extract(value, 15, 8), extract(value, 7, 0)).as_int() == a


@given(u16, u16)
def test_prop_symbolic_evaluation_matches(a, b):
    x, y = bvvar("x", 16), bvvar("y", 16)
    term = (x + y) ^ (x & y)
    assert evaluate_bv(term, {"x": a, "y": b}) == ((a + b) & 0xFFFF) ^ (a & b)


@given(u16, u16)
def test_prop_boolean_evaluation_matches(a, b):
    x, y = bvvar("x", 16), bvvar("y", 16)
    condition = bool_or(x < y, x == y)
    assert evaluate_bool(condition, {"x": a, "y": b}) == (a <= b)
