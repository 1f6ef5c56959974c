"""CNF construction helpers (Tseitin-style gate encodings).

:class:`CNFBuilder` owns the variable namespace and the clause database of a
single query and provides gate-level helpers (AND/OR/XOR/ITE, adders,
comparators are built on top of these by the bit-blaster).  The builder keeps
a dedicated *true* literal so constant bits do not need special cases in the
bit-blaster.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.symbex.solver.sat import SATSolver

__all__ = ["CNFBuilder"]


class CNFBuilder:
    """Accumulates CNF clauses over a fresh variable namespace."""

    def __init__(self, solver: SATSolver = None) -> None:
        self.solver = solver if solver is not None else SATSolver()
        self._true_lit = self.solver.new_var()
        self.solver.add_clause([self._true_lit])
        self.clause_count = 1

    # -- primitives --------------------------------------------------------

    @property
    def true_lit(self) -> int:
        """A literal that is constrained to be true."""

        return self._true_lit

    @property
    def false_lit(self) -> int:
        """A literal that is constrained to be false."""

        return -self._true_lit

    def const(self, value: bool) -> int:
        return self._true_lit if value else -self._true_lit

    def new_var(self, decision: bool = True) -> int:
        return self.solver.new_var(decision=decision)

    def add_clause(self, literals: Iterable[int]) -> None:
        self.solver.add_clause(list(literals))
        self.clause_count += 1

    # -- gates ---------------------------------------------------------------

    def gate_and(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of *literals*."""

        literals = [l for l in literals]
        if not literals:
            return self.true_lit
        if len(literals) == 1:
            return literals[0]
        if any(l == self.false_lit for l in literals):
            return self.false_lit
        literals = [l for l in literals if l != self.true_lit]
        if not literals:
            return self.true_lit
        if len(literals) == 1:
            return literals[0]
        out = self.new_var()
        for lit in literals:
            self.add_clause([-out, lit])
        self.add_clause([out] + [-l for l in literals])
        return out

    def gate_or(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the disjunction of *literals*."""

        return -self.gate_and([-l for l in literals])

    def gate_xor(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a XOR b``."""

        if a == self.true_lit:
            return -b
        if a == self.false_lit:
            return b
        if b == self.true_lit:
            return -a
        if b == self.false_lit:
            return a
        out = self.new_var()
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])
        return out

    def gate_ite(self, cond: int, then: int, otherwise: int) -> int:
        """Return a literal equivalent to ``cond ? then : otherwise``."""

        if cond == self.true_lit:
            return then
        if cond == self.false_lit:
            return otherwise
        if then == otherwise:
            return then
        out = self.new_var()
        self.add_clause([-out, -cond, then])
        self.add_clause([-out, cond, otherwise])
        self.add_clause([out, -cond, -then])
        self.add_clause([out, cond, -otherwise])
        return out

    def gate_iff(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a == b``."""

        return -self.gate_xor(a, b)

    # -- arithmetic helpers -------------------------------------------------

    def full_adder(self, a: int, b: int, carry_in: int) -> (int, int):
        """Return ``(sum, carry_out)`` literals of a single-bit full adder."""

        partial = self.gate_xor(a, b)
        total = self.gate_xor(partial, carry_in)
        carry_out = self.gate_or([
            self.gate_and([a, b]),
            self.gate_and([partial, carry_in]),
        ])
        return total, carry_out

    def assert_true(self, lit: int) -> None:
        """Force *lit* to hold in every model."""

        self.add_clause([lit])

    def assert_false(self, lit: int) -> None:
        """Force *lit* to be false in every model."""

        self.add_clause([-lit])
