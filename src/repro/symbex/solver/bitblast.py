"""Bit-blasting of bit-vector expressions to CNF.

Every bit-vector term is translated to a list of SAT literals (LSB first);
every boolean term to a single literal.  Translation is memoized on the
*identity* of the (hash-consed) term so shared sub-terms are encoded once —
path conditions produced by the exploration engine share most of their
structure, and interning makes the memo lookup a single small-int hash
instead of a deep structural one.  Cache entries keep a reference to the
expression so the id can never be recycled while the entry is live.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SolverError
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
)
from repro.symbex.solver.cnf import CNFBuilder

__all__ = ["BitBlaster"]


class BitBlaster:
    """Translate expressions into CNF clauses over a :class:`CNFBuilder`."""

    def __init__(self, cnf: CNFBuilder) -> None:
        self.cnf = cnf
        self._bv_cache: Dict[int, Tuple[BVExpr, List[int]]] = {}
        self._bool_cache: Dict[int, Tuple[BoolExpr, int]] = {}
        self._var_bits: Dict[str, List[int]] = {}
        self._var_widths: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def assert_bool(self, expr: BoolExpr) -> None:
        """Add clauses forcing *expr* to hold."""

        self.cnf.assert_true(self.bool_lit(expr))

    def variable_bits(self) -> Dict[str, List[int]]:
        """Mapping from variable name to its SAT literals (LSB first)."""

        return dict(self._var_bits)

    # ------------------------------------------------------------------
    # Bit-vector translation
    # ------------------------------------------------------------------

    def bv_bits(self, expr: BVExpr) -> List[int]:
        cached = self._bv_cache.get(id(expr))
        if cached is not None:
            return cached[1]
        bits = self._bv_bits_uncached(expr)
        if len(bits) != expr.width:
            raise SolverError(
                "internal bit-blasting error: %r produced %d bits, expected %d"
                % (expr, len(bits), expr.width)
            )
        self._bv_cache[id(expr)] = (expr, bits)
        return bits

    def _bv_bits_uncached(self, expr: BVExpr) -> List[int]:
        cnf = self.cnf
        if isinstance(expr, BVConst):
            return [cnf.const(bool((expr.value >> i) & 1)) for i in range(expr.width)]
        if isinstance(expr, BVVar):
            bits = self._var_bits.get(expr.name)
            if bits is None:
                bits = [cnf.new_var() for _ in range(expr.width)]
                self._var_bits[expr.name] = bits
                self._var_widths[expr.name] = expr.width
            elif self._var_widths[expr.name] != expr.width:
                raise SolverError(
                    "variable %r used with widths %d and %d in the same query"
                    % (expr.name, self._var_widths[expr.name], expr.width)
                )
            return list(bits)
        if isinstance(expr, BVUnOp):
            operand = self.bv_bits(expr.operand)
            if expr.op == "not":
                return [-bit for bit in operand]
            # neg == (~x) + 1
            inverted = [-bit for bit in operand]
            return self._add(inverted, [cnf.const(i == 0) for i in range(expr.width)])
        if isinstance(expr, BVBinOp):
            return self._binop(expr)
        if isinstance(expr, BVExtract):
            operand = self.bv_bits(expr.operand)
            return operand[expr.low:expr.high + 1]
        if isinstance(expr, BVConcat):
            bits: List[int] = []
            for part in reversed(expr.parts):  # LSB-first: last part is least significant
                bits.extend(self.bv_bits(part))
            return bits
        if isinstance(expr, BVZeroExt):
            operand = self.bv_bits(expr.operand)
            return operand + [cnf.false_lit] * (expr.width - expr.operand.width)
        if isinstance(expr, BVSignExt):
            operand = self.bv_bits(expr.operand)
            sign = operand[-1]
            return operand + [sign] * (expr.width - expr.operand.width)
        if isinstance(expr, BVIte):
            cond = self.bool_lit(expr.cond)
            then = self.bv_bits(expr.then)
            otherwise = self.bv_bits(expr.otherwise)
            return [cnf.gate_ite(cond, t, o) for t, o in zip(then, otherwise)]
        raise SolverError("cannot bit-blast unknown bit-vector node %r" % (expr,))

    def _binop(self, expr: BVBinOp) -> List[int]:
        cnf = self.cnf
        lhs = self.bv_bits(expr.lhs)
        rhs = self.bv_bits(expr.rhs)
        op = expr.op
        if op == "and":
            return [cnf.gate_and([a, b]) for a, b in zip(lhs, rhs)]
        if op == "or":
            return [cnf.gate_or([a, b]) for a, b in zip(lhs, rhs)]
        if op == "xor":
            return [cnf.gate_xor(a, b) for a, b in zip(lhs, rhs)]
        if op == "add":
            return self._add(lhs, rhs)
        if op == "sub":
            # a - b == a + ~b + 1
            inverted = [-bit for bit in rhs]
            return self._add(lhs, inverted, carry_in=cnf.true_lit)
        if op == "mul":
            return self._mul(lhs, rhs)
        if op == "shl":
            return self._shift(lhs, expr.rhs, rhs, direction="left")
        if op == "lshr":
            return self._shift(lhs, expr.rhs, rhs, direction="right")
        if op == "ashr":
            return self._shift(lhs, expr.rhs, rhs, direction="aright")
        if op in ("udiv", "urem"):
            raise SolverError(
                "division is not supported by the bit-blaster; rewrite the agent "
                "code to use masks/shifts (OpenFlow field handling never divides)"
            )
        raise SolverError("cannot bit-blast operator %r" % (op,))

    def _add(self, lhs: List[int], rhs: List[int], carry_in: int = None) -> List[int]:
        cnf = self.cnf
        carry = carry_in if carry_in is not None else cnf.false_lit
        out: List[int] = []
        for a, b in zip(lhs, rhs):
            total, carry = cnf.full_adder(a, b, carry)
            out.append(total)
        return out

    def _mul(self, lhs: List[int], rhs: List[int]) -> List[int]:
        cnf = self.cnf
        width = len(lhs)
        accumulator = [cnf.false_lit] * width
        for shift, control in enumerate(rhs):
            if control == cnf.false_lit:
                continue
            shifted = [cnf.false_lit] * shift + lhs[: width - shift]
            guarded = [cnf.gate_and([control, bit]) for bit in shifted]
            accumulator = self._add(accumulator, guarded)
        return accumulator

    def _shift(self, bits: List[int], amount_expr: BVExpr, amount_bits: List[int],
               direction: str) -> List[int]:
        cnf = self.cnf
        width = len(bits)
        if isinstance(amount_expr, BVConst):
            shift = amount_expr.value
            return self._shift_by_constant(bits, shift, direction)
        # Barrel shifter: one mux layer per bit of the shift amount that can
        # influence the result, plus an "overshift" guard.
        result = list(bits)
        stages = max(1, (width - 1).bit_length())
        for stage in range(stages):
            control = amount_bits[stage] if stage < len(amount_bits) else cnf.false_lit
            shifted = self._shift_by_constant(result, 1 << stage, direction)
            result = [cnf.gate_ite(control, s, r) for s, r in zip(shifted, result)]
        # If any higher bit of the amount is set the shift overflows the width.
        high_bits = amount_bits[stages:]
        if high_bits:
            overflow = cnf.gate_or(high_bits)
            fill = bits[-1] if direction == "aright" else cnf.false_lit
            result = [cnf.gate_ite(overflow, fill, r) for r in result]
        return result

    def _shift_by_constant(self, bits: List[int], shift: int, direction: str) -> List[int]:
        cnf = self.cnf
        width = len(bits)
        if shift == 0:
            return list(bits)
        if direction == "left":
            if shift >= width:
                return [cnf.false_lit] * width
            return [cnf.false_lit] * shift + bits[: width - shift]
        fill = bits[-1] if direction == "aright" else cnf.false_lit
        if shift >= width:
            return [fill] * width
        return bits[shift:] + [fill] * shift

    # ------------------------------------------------------------------
    # Boolean translation
    # ------------------------------------------------------------------

    def bool_lit(self, expr: BoolExpr) -> int:
        cached = self._bool_cache.get(id(expr))
        if cached is not None:
            return cached[1]
        lit = self._bool_lit_uncached(expr)
        self._bool_cache[id(expr)] = (expr, lit)
        return lit

    def _bool_lit_uncached(self, expr: BoolExpr) -> int:
        cnf = self.cnf
        if isinstance(expr, BoolConst):
            return cnf.const(expr.value)
        if isinstance(expr, BoolNot):
            return -self.bool_lit(expr.operand)
        if isinstance(expr, BoolAnd):
            return cnf.gate_and([self.bool_lit(o) for o in expr.operands])
        if isinstance(expr, BoolOr):
            return cnf.gate_or([self.bool_lit(o) for o in expr.operands])
        if isinstance(expr, BVCmp):
            return self._compare(expr)
        raise SolverError("cannot bit-blast unknown boolean node %r" % (expr,))

    def _compare(self, expr: BVCmp) -> int:
        cnf = self.cnf
        lhs = self.bv_bits(expr.lhs)
        rhs = self.bv_bits(expr.rhs)
        op = expr.op
        if op in ("eq", "ne"):
            equal = cnf.gate_and([cnf.gate_iff(a, b) for a, b in zip(lhs, rhs)])
            return equal if op == "eq" else -equal
        if op in ("slt", "sle"):
            # Signed comparison == unsigned comparison with the sign bit flipped.
            lhs = lhs[:-1] + [-lhs[-1]]
            rhs = rhs[:-1] + [-rhs[-1]]
            op = "ult" if op == "slt" else "ule"
        less = cnf.false_lit
        for a, b in zip(lhs, rhs):  # LSB to MSB
            differ = cnf.gate_xor(a, b)
            less = cnf.gate_ite(differ, b, less)
        if op == "ult":
            return less
        if op == "ule":
            equal = cnf.gate_and([cnf.gate_iff(a, b) for a, b in zip(lhs, rhs)])
            return cnf.gate_or([less, equal])
        raise SolverError("cannot bit-blast comparison %r" % (op,))
