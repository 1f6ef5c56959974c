"""Compiled concrete evaluation: flat register tapes for interned terms.

A tree-walking interpreter pays per *evaluation*: a recursive call, a type
dispatch and a memo-dict probe per node, every time a term is evaluated.
The Phase-1 inner loop and the replay pipeline evaluate the *same* terms
under thousands of different assignments, so this module moves the
per-node work to compile time instead:

* :func:`compile_term` lowers an expression DAG once into a
  :class:`CompiledProgram` — a topologically ordered register tape of op
  tuples over a preallocated register array.  Variables are resolved to
  input slots, constants are baked into the register template, shared
  subterms (the DAG is hash-consed) are computed exactly once, masks and
  sign bits are precomputed per instruction.
* ``CompiledProgram.run(assignment)`` evaluates one model: fill the input
  slots, sweep the tape, read the root register.  No recursion, no
  isinstance ladder, no per-call cache dict.

Because terms are hash-consed (:mod:`repro.symbex.expr`), a program is a
pure function of its interned node, so :func:`compile_term` keeps it on the
node (the ``_compiled`` slot): one compile per distinct term, and the
program lives and dies with its term.  :func:`compiled_cache_stats` counts
the hits and misses process-wide.

Semantics are bit-identical to the reference interpreter the tests keep
(``tests/oracles.py``) with one documented exception: the tape is *eager*,
so every variable in the term — including those only reachable through the
untaken arm of a ``BVIte`` — needs a binding (or ``default``).  Every
production call site passes complete models or a default, and the
differential tests sweep the seed catalog's path conditions to pin the
equivalence down.

Pickling a :class:`CompiledProgram` ships only the underlying expression
(itself pickled structurally by the intern layer) and recompiles on
unpickle, so programs cross ``ProcessPoolExecutor`` boundaries cheaply.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

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
)

__all__ = [
    "CompiledProgram",
    "compile_term",
    "evaluate_compiled",
    "evaluate_compiled_bool",
    "compiled_cache_stats",
]

Assignment = Mapping[str, int]

# Opcodes.  Small ints dispatched by an if-chain ordered by how often each
# op occurs in the seed catalog's path conditions (comparisons and boolean
# connectives dominate, then extracts and masked arithmetic).
_EQ = 0
_NE = 1
_ULT = 2
_ULE = 3
_SLT = 4
_SLE = 5
_BAND = 6
_BOR = 7
_BNOT = 8
_EXTRACT = 9
_ADD = 10
_SUB = 11
_MUL = 12
_AND = 13
_OR = 14
_XOR = 15
_SHL = 16
_LSHR = 17
_ASHR = 18
_UDIV = 19
_UREM = 20
_NOT = 21
_NEG = 22
_CONCAT = 23
_SEXT = 24
_ITE = 25


class CompiledProgram:
    """One term lowered to a flat register tape.

    Register layout: input slots first (one per distinct variable), then
    constant slots (values baked into the template), then temporaries in
    topological order.  ``_inputs`` is a precomputed ``(name, slot, mask)``
    list; ``_tape`` a list of op tuples writing ``ins[1]`` from operand
    registers with precomputed masks/sign bits.
    """

    __slots__ = ("expr", "_template", "_inputs", "_tape", "_root", "variables")

    def __init__(self, expr: Expr, template: List[int],
                 inputs: List[Tuple[str, int, int]],
                 tape: List[tuple], root: int,
                 variables: Dict[str, int]) -> None:
        self.expr = expr
        self._template = template
        self._inputs = inputs
        self._tape = tape
        self._root = root
        #: Free variables of the term: name -> width.
        self.variables = variables

    def __reduce__(self):
        # Recompile from the (structurally pickled, re-interned) expression;
        # the tape itself never crosses process boundaries.
        return (compile_term, (self.expr,))

    def run(self, assignment: Assignment, default: Optional[int] = None) -> int:
        """Evaluate under one ``name -> int`` assignment.

        Unbound variables take *default* when given, otherwise evaluation
        fails.  The opcode dispatch is inlined (no call per instruction).
        """

        regs = list(self._template)
        for name, slot, mask in self._inputs:
            value = assignment.get(name)
            if value is None:
                if default is None:
                    raise ExpressionError(
                        "no binding for variable %r during compiled "
                        "evaluation" % (name,))
                value = default
            regs[slot] = value & mask
        # Dispatch ordered by op frequency in the seed catalog's path
        # conditions: comparisons and boolean connectives dominate.
        for ins in self._tape:
            op = ins[0]
            if op == _EQ:
                regs[ins[1]] = 1 if regs[ins[2]] == regs[ins[3]] else 0
            elif op == _NE:
                regs[ins[1]] = 1 if regs[ins[2]] != regs[ins[3]] else 0
            elif op == _ULT:
                regs[ins[1]] = 1 if regs[ins[2]] < regs[ins[3]] else 0
            elif op == _ULE:
                regs[ins[1]] = 1 if regs[ins[2]] <= regs[ins[3]] else 0
            elif op == _BAND:
                value = 1
                for reg in ins[2]:
                    if not regs[reg]:
                        value = 0
                        break
                regs[ins[1]] = value
            elif op == _BOR:
                value = 0
                for reg in ins[2]:
                    if regs[reg]:
                        value = 1
                        break
                regs[ins[1]] = value
            elif op == _BNOT:
                regs[ins[1]] = 0 if regs[ins[2]] else 1
            elif op == _EXTRACT:
                # (op, dest, a, low, mask)
                regs[ins[1]] = (regs[ins[2]] >> ins[3]) & ins[4]
            elif op == _ADD:
                regs[ins[1]] = (regs[ins[2]] + regs[ins[3]]) & ins[4]
            elif op == _SUB:
                regs[ins[1]] = (regs[ins[2]] - regs[ins[3]]) & ins[4]
            elif op == _AND:
                regs[ins[1]] = regs[ins[2]] & regs[ins[3]]
            elif op == _OR:
                regs[ins[1]] = regs[ins[2]] | regs[ins[3]]
            elif op == _XOR:
                regs[ins[1]] = regs[ins[2]] ^ regs[ins[3]]
            elif op == _SHL:
                # (op, dest, a, b, mask, width)
                rhs = regs[ins[3]]
                regs[ins[1]] = ((regs[ins[2]] << rhs) & ins[4]
                                if rhs < ins[5] else 0)
            elif op == _LSHR:
                # (op, dest, a, b, width)
                rhs = regs[ins[3]]
                regs[ins[1]] = regs[ins[2]] >> rhs if rhs < ins[4] else 0
            elif op == _MUL:
                regs[ins[1]] = (regs[ins[2]] * regs[ins[3]]) & ins[4]
            elif op == _ITE:
                regs[ins[1]] = regs[ins[3]] if regs[ins[2]] else regs[ins[4]]
            elif op == _CONCAT:
                # (op, dest, ((reg, width), ...)) — MSB-first.
                value = 0
                for reg, width in ins[2]:
                    value = (value << width) | regs[reg]
                regs[ins[1]] = value
            elif op == _SLT:
                # (op, dest, a, b, signbit, power)
                lhs, rhs = regs[ins[2]], regs[ins[3]]
                if lhs & ins[4]:
                    lhs -= ins[5]
                if rhs & ins[4]:
                    rhs -= ins[5]
                regs[ins[1]] = 1 if lhs < rhs else 0
            elif op == _SLE:
                lhs, rhs = regs[ins[2]], regs[ins[3]]
                if lhs & ins[4]:
                    lhs -= ins[5]
                if rhs & ins[4]:
                    rhs -= ins[5]
                regs[ins[1]] = 1 if lhs <= rhs else 0
            elif op == _SEXT:
                # (op, dest, a, op_signbit, op_power, mask)
                value = regs[ins[2]]
                if value & ins[3]:
                    value -= ins[4]
                regs[ins[1]] = value & ins[5]
            elif op == _ASHR:
                # (op, dest, a, b, signbit, power, maxshift, mask)
                value = regs[ins[2]]
                if value & ins[4]:
                    value -= ins[5]
                shift = regs[ins[3]]
                if shift > ins[6]:
                    shift = ins[6]
                regs[ins[1]] = (value >> shift) & ins[7]
            elif op == _UDIV:
                rhs = regs[ins[3]]
                regs[ins[1]] = ((regs[ins[2]] // rhs) & ins[4]
                                if rhs else ins[4])
            elif op == _UREM:
                rhs = regs[ins[3]]
                regs[ins[1]] = regs[ins[2]] % rhs if rhs else regs[ins[2]]
            elif op == _NOT:
                regs[ins[1]] = ~regs[ins[2]] & ins[3]
            elif op == _NEG:
                regs[ins[1]] = -regs[ins[2]] & ins[3]
            else:
                raise ExpressionError("unknown compiled opcode %r" % (op,))
        return regs[self._root]

    def run_bool(self, assignment: Assignment,
                 default: Optional[int] = None) -> bool:
        return bool(self.run(assignment, default=default))


_BINOP_CODES = {
    "add": _ADD, "sub": _SUB, "mul": _MUL, "udiv": _UDIV, "urem": _UREM,
    "and": _AND, "or": _OR, "xor": _XOR,
    "shl": _SHL, "lshr": _LSHR, "ashr": _ASHR,
}
_CMP_CODES = {"eq": _EQ, "ne": _NE, "ult": _ULT, "ule": _ULE,
              "slt": _SLT, "sle": _SLE}


class _Compiler:
    """One compile_term invocation: DAG -> (template, inputs, tape)."""

    __slots__ = ("template", "inputs", "tape", "slots", "variables")

    def __init__(self) -> None:
        self.template: List[int] = []
        self.inputs: List[Tuple[str, int, int]] = []
        self.tape: List[tuple] = []
        # id(node) -> register holding its value (pins nothing: the root
        # expression pins the whole DAG for the compiler's lifetime).
        self.slots: Dict[int, int] = {}
        self.variables: Dict[str, int] = {}

    def new_register(self, initial: int = 0) -> int:
        self.template.append(initial)
        return len(self.template) - 1

    def emit(self, node: Expr) -> int:
        """Register holding *node*'s value (compiling it if new)."""

        slot = self.slots.get(id(node))
        if slot is not None:
            return slot
        slot = self._lower(node)
        self.slots[id(node)] = slot
        return slot

    def _lower(self, node: Expr) -> int:
        if isinstance(node, BVConst):
            return self.new_register(node.value)
        if isinstance(node, BVVar):
            known = self.variables.get(node.name)
            if known is not None:
                if known != node.width:
                    raise ExpressionError(
                        "variable %r used with widths %d and %d in one term"
                        % (node.name, known, node.width))
                # Same name and width: interning makes this the same node,
                # so the slots map already handled it — defensive only.
                for name, slot, _mask in self.inputs:
                    if name == node.name:
                        return slot
            slot = self.new_register()
            self.variables[node.name] = node.width
            self.inputs.append((node.name, slot, (1 << node.width) - 1))
            return slot
        if isinstance(node, BVBinOp):
            lhs = self.emit(node.lhs)
            rhs = self.emit(node.rhs)
            dest = self.new_register()
            op = _BINOP_CODES[node.op]
            width = node.width
            mask = (1 << width) - 1
            if op in (_ADD, _SUB, _MUL, _UDIV):
                self.tape.append((op, dest, lhs, rhs, mask))
            elif op in (_AND, _OR, _XOR, _UREM):
                self.tape.append((op, dest, lhs, rhs))
            elif op == _SHL:
                self.tape.append((op, dest, lhs, rhs, mask, width))
            elif op == _LSHR:
                self.tape.append((op, dest, lhs, rhs, width))
            else:  # _ASHR
                self.tape.append((op, dest, lhs, rhs, 1 << (width - 1),
                                  1 << width, width - 1, mask))
            return dest
        if isinstance(node, BVCmp):
            lhs = self.emit(node.lhs)
            rhs = self.emit(node.rhs)
            dest = self.new_register()
            op = _CMP_CODES[node.op]
            if op in (_SLT, _SLE):
                width = node.lhs.width
                self.tape.append((op, dest, lhs, rhs, 1 << (width - 1),
                                  1 << width))
            else:
                self.tape.append((op, dest, lhs, rhs))
            return dest
        if isinstance(node, BVUnOp):
            operand = self.emit(node.operand)
            dest = self.new_register()
            mask = (1 << node.width) - 1
            self.tape.append((_NOT if node.op == "not" else _NEG,
                              dest, operand, mask))
            return dest
        if isinstance(node, BVExtract):
            operand = self.emit(node.operand)
            dest = self.new_register()
            self.tape.append((_EXTRACT, dest, operand, node.low,
                              (1 << node.width) - 1))
            return dest
        if isinstance(node, BVConcat):
            parts = tuple((self.emit(part), part.width) for part in node.parts)
            dest = self.new_register()
            self.tape.append((_CONCAT, dest, parts))
            return dest
        if isinstance(node, BVZeroExt):
            # Zero extension is the identity on the (already in-range)
            # operand value: alias the operand's register.
            return self.emit(node.operand)
        if isinstance(node, BVSignExt):
            operand = self.emit(node.operand)
            dest = self.new_register()
            op_width = node.operand.width
            self.tape.append((_SEXT, dest, operand, 1 << (op_width - 1),
                              1 << op_width, (1 << node.width) - 1))
            return dest
        if isinstance(node, BVIte):
            cond = self.emit(node.cond)
            then = self.emit(node.then)
            otherwise = self.emit(node.otherwise)
            dest = self.new_register()
            self.tape.append((_ITE, dest, cond, then, otherwise))
            return dest
        if isinstance(node, BoolConst):
            return self.new_register(1 if node.value else 0)
        if isinstance(node, BoolNot):
            operand = self.emit(node.operand)
            dest = self.new_register()
            self.tape.append((_BNOT, dest, operand))
            return dest
        if isinstance(node, BoolAnd):
            operands = tuple(self.emit(o) for o in node.operands)
            dest = self.new_register()
            self.tape.append((_BAND, dest, operands))
            return dest
        if isinstance(node, BoolOr):
            operands = tuple(self.emit(o) for o in node.operands)
            dest = self.new_register()
            self.tape.append((_BOR, dest, operands))
            return dest
        raise ExpressionError("cannot compile unknown expression node %r" % (node,))


_COMPILE_STATS = MemoStats()


def compiled_cache_stats() -> Dict[str, float]:
    """Hits, misses and hit rate of the per-node compile memo."""

    return _COMPILE_STATS.stats_dict()


def compile_term(expr: Expr) -> CompiledProgram:
    """The compiled program for *expr* (one compile per distinct term)."""

    program = getattr(expr, "_compiled", None)
    if program is not None:
        _COMPILE_STATS.hits += 1
        return program
    _COMPILE_STATS.misses += 1
    program = _compile(expr)
    expr._compiled = program
    return program


def _compile(expr: Expr) -> CompiledProgram:
    """Lower *expr* into a fresh program (no memo)."""

    compiler = _Compiler()
    root = compiler.emit(expr)
    return CompiledProgram(expr, compiler.template, compiler.inputs,
                           compiler.tape, root, compiler.variables)


def evaluate_compiled(expr: BVExpr, assignment: Assignment,
                      default: Optional[int] = None) -> int:
    """*expr*'s value under *assignment* (one-shot :func:`compile_term` + run)."""

    return compile_term(expr).run(assignment, default=default)


def evaluate_compiled_bool(expr: BoolExpr, assignment: Assignment,
                           default: Optional[int] = None) -> bool:
    """Boolean counterpart of :func:`evaluate_compiled`."""

    return bool(compile_term(expr).run(assignment, default=default))
