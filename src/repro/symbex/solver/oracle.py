"""Prefix-feasibility oracle: branch decisions as assumption-based SAT.

Phase 1 asks "is this branch side feasible?" once or twice per fresh
branch.  A fresh solver instance per check would re-simplify, re-bit-blast
and re-solve the *entire* path condition every time: along a path of depth ``d`` that is ``O(d)`` rebuilds of mostly
identical formulas, and sibling paths rebuild their shared ancestry again.

:class:`PrefixOracle` instead keeps one SAT instance for the whole
exploration.  Every distinct branch condition (and every ``assume()``
constraint) is simplified and bit-blasted **once**, yielding a literal that
is equivalent to the condition — Tseitin gates encode both directions, so
the *same* literal serves the True side (assume ``lit``) and the False side
(assume ``-lit``).  A path prefix is then just a set of literals, and its
feasibility one ``solve(assumptions=prefix)`` call that reuses the shared
bit-blasting structure and all learned clauses.

Paths are nodes of a **prefix trie of bitblast deltas**: a child path
that extends a parent prefix by one decision reuses the parent's encoded
literal set and ordered assumption list and only adds the suffix literal
(``extend``), instead of re-walking and re-hashing the shared conditions
per check; ``delta_hits`` counts reused nodes.  A replayed decision must
find its literal already in the trie: a fork creates both children, so a
missing one means the program branched differently on the same prefix,
and ``extend(..., replay=True)`` raises :class:`~repro.errors.EngineError`.  Every check then runs
through these layers, cheapest first (trivial → cache → learned cores →
base witness → backend):

* a **trivial check** — a prefix containing the false literal or a
  complementary pair is UNSAT without solving (detected in O(1) at node
  creation against the parent's set);
* the **cache** — each node keeps its feasibility verdict, so re-asking
  about common ancestry (including the very common "program re-branches
  on an already-decided condition" pattern) is a pointer hop;
* **learned cores** — every backend UNSAT leaves the SAT core's
  final-conflict core (MiniSat's ``analyzeFinal``): the few assumption
  literals the refutation rests on.  The oracle stores each core, indexed
  by literal, and a node containing a stored core is UNSAT without a solve
  (``core_decides``; KLEE's rule that a superset of an UNSAT set is
  UNSAT).  Only cores on the node's fresh literals (those after ``base``)
  can apply: the base is SAT, so no core lies inside it.  The shared
  instance only gains definitional clauses for fresh variables and implied
  learned clauses, so a stored core stays UNSAT for the oracle's lifetime
  (one exploration).  A few dozen cores decide thousands of branch sides;
* the **base witness** — every node proven SAT keeps the model that proved
  it (its *witness*; the root's is the empty model, every variable 0).  The
  engine passes the nearest witnessed ancestor on the current path as
  ``base``, so a child is first evaluated only on its fresh literals,
  usually one: if they hold under the base's witness, the child is SAT and
  shares that witness (``witness_inherits``).  If not, the failing inputs
  are patched on a copy of the witness and every literal of the node is
  re-verified (``witness_repairs``).  Per-path work thus scales with the
  path's fresh decisions, not with its depth.

Only then does the backend solve.  Every layer before it is sound, so
verdicts — and the explored path set — are exactly the backend's.  Every
SAT verdict hands the node its witness: the base's, a repaired copy or the
backend's model.  A witness lives while the node can still be a base: the
engine releases it (:meth:`PrefixOracle.release`) when the path's base
moves past the node — once both sides of the node's branch are decided —
and when a path ends on it.  A scheduled-but-unexplored sibling keeps its
witness until its replay reaches it, so after an exhaustive exploration
only the root holds one.  Nodes hold no parent pointer (the base is passed
in), so a finished trie is freed by reference counting.

The oracle decides feasibility only; it never *returns* models.

Instances are not thread-safe; each exploration builds its own oracle.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import EngineError
from repro.symbex.compile import compile_term
from repro.symbex.expr import (
    BoolAnd,
    BoolConst,
    BoolExpr,
    BoolNot,
    BoolOr,
    BVCmp,
    BVConst,
    BVExtract,
    BVVar,
    BVZeroExt,
    Expr,
)
from repro.symbex.simplify import simplify_bool
from repro.symbex.solver.backend import CDCLBackend
from repro.symbex.solver.sat import SATStatus

__all__ = ["PrefixOracle", "PrefixOracleStats", "PrefixNode"]


@dataclass
class PrefixOracleStats:
    """Counters of one :class:`PrefixOracle`."""

    #: Distinct conditions simplified + bit-blasted into the shared CNF.
    literals_encoded: int = 0
    #: Conditions requested again after their first encoding (the saving).
    literal_reuses: int = 0
    #: Feasibility questions asked by the scheduler.
    branch_checks: int = 0
    #: Checks decided without the backend (false literal / complementary pair).
    trivial_decides: int = 0
    #: Checks answered from a node's cached verdict (shared prefix ancestry).
    prefix_cache_hits: int = 0
    #: Checks proven UNSAT by a stored core inside the prefix (no solve).
    core_decides: int = 0
    #: Final-conflict cores stored from backend UNSAT answers.
    cores_learned: int = 0
    #: Checks proven SAT by the base witness alone: the node's fresh
    #: literals (usually one) hold under it (no solve, no prefix walk).
    witness_inherits: int = 0
    #: Checks proven SAT by locally repairing the base witness (no solve).
    witness_repairs: int = 0
    #: Prefix-trie nodes created (one per distinct path prefix).
    prefix_nodes: int = 0
    #: ``extend`` calls answered by an existing node (per-path delta reuse).
    delta_hits: int = 0
    #: Checks that reached the backend as an assumption re-solve.
    assumption_solves: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    encode_time: float = 0.0
    solve_time: float = 0.0


class PrefixNode:
    """One distinct path prefix: parent + one literal, encoded once.

    ``lits`` (the assumption set) and ``ordered`` (first-occurrence order,
    which the SAT core's assumption-trail reuse wants) are built from the
    parent by a single-literal delta instead of re-walking the whole path.
    ``trivial_unsat`` is decided in O(1) at creation.  ``status`` caches the
    feasibility verdict (UNKNOWN is never cached).  ``witness`` is the model
    that proved the node SAT while it may still serve as a check's base
    (``None`` once released, or when the verdict came from a cache).
    """

    __slots__ = ("lits", "ordered", "status", "trivial_unsat", "children",
                 "witness")

    def __init__(self, lits: FrozenSet[int], ordered: Tuple[int, ...],
                 trivial_unsat: bool) -> None:
        self.lits = lits
        self.ordered = ordered
        self.trivial_unsat = trivial_unsat
        self.status: Optional[str] = None
        self.children: Dict[int, "PrefixNode"] = {}
        self.witness: Optional[Dict[str, int]] = None


class PrefixOracle:
    """Shared incremental encoding of one exploration's branch conditions."""

    def __init__(self) -> None:
        self.stats = PrefixOracleStats()
        self._backend = CDCLBackend()
        # id-keyed (the expression layer hash-conses terms): entry values
        # carry the condition so its id stays pinned while the entry lives.
        self._literals: Dict[int, Tuple[BoolExpr, int]] = {}
        # base SAT var -> (simplified condition, its encoded literal); the
        # reverse map witnesses read assumptions through.
        self._lit_conditions: Dict[int, Tuple[BoolExpr, int]] = {}
        # assumption literal -> the stored cores containing it.
        self._cores: Dict[int, List[FrozenSet[int]]] = {}
        self._root = PrefixNode(frozenset(), (), False)
        # The empty prefix is satisfied by every model: the empty one, with
        # every variable read as 0, is the base every path starts from.
        self._root.witness = {}

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def literal(self, condition: BoolExpr) -> int:
        """The SAT literal equivalent to *condition* (encoded once per term)."""

        entry = self._literals.get(id(condition))
        if entry is not None:
            self.stats.literal_reuses += 1
            return entry[1]
        started = time.perf_counter()
        simplified = simplify_bool(condition)
        if isinstance(simplified, BoolConst):
            lit = self._backend.const_lit(simplified.value)
        else:
            lit = self._backend.declare(simplified)
            self._lit_conditions.setdefault(abs(lit), (simplified, lit))
        self._literals[id(condition)] = (condition, lit)
        self.stats.literals_encoded += 1
        self.stats.encode_time += time.perf_counter() - started
        return lit

    # ------------------------------------------------------------------
    # Prefix trie (per-path deltas)
    # ------------------------------------------------------------------

    def root(self) -> PrefixNode:
        """The empty-prefix node every path starts from."""

        return self._root

    def extend(self, node: PrefixNode, lit: int,
               replay: bool = False) -> PrefixNode:
        """The node for *node*'s prefix extended by *lit* (delta-encoded).

        A true literal or a literal already in the prefix leaves the node
        unchanged; an existing child is reused (``delta_hits``); otherwise
        one new node is created from the parent by a single-literal delta.
        With *replay* (a decision replayed from a scheduled prefix) that
        last case is a divergence and raises :class:`EngineError`.
        """

        if lit == self._backend.true_lit or lit in node.lits:
            self.stats.delta_hits += 1
            return node
        child = node.children.get(lit)
        if child is not None:
            self.stats.delta_hits += 1
            return child
        if replay:
            raise EngineError(
                "replayed branch diverged from its scheduled prefix: the "
                "program is not deterministic in its branch conditions")
        trivial = (node.trivial_unsat or lit == self._backend.false_lit
                   or -lit in node.lits)
        child = PrefixNode(node.lits | {lit}, node.ordered + (lit,), trivial)
        node.children[lit] = child
        self.stats.prefix_nodes += 1
        return child

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------

    def check_node(self, node: PrefixNode,
                   base: Optional[PrefixNode] = None) -> str:
        """Satisfiability of one prefix node (cached per node).

        *base* is a SAT ancestor of *node* on the same trie path (normally
        its parent).  Only the literals after it are matched against stored
        cores, and its witness is tried before the backend walks the whole
        prefix; see the module docstring for the order.
        """

        self.stats.branch_checks += 1
        if node.trivial_unsat:
            self.stats.trivial_decides += 1
            self.stats.unsat += 1
            return SATStatus.UNSAT
        if not node.lits:
            self.stats.trivial_decides += 1
            self.stats.sat += 1
            return SATStatus.SAT
        cached = node.status
        if cached is not None:
            self.stats.prefix_cache_hits += 1
            if cached == SATStatus.SAT:
                self.stats.sat += 1
            else:
                self.stats.unsat += 1
            return cached

        fresh = node.ordered[len(base.ordered):] if base is not None else node.ordered
        if any(core <= node.lits for lit in fresh for core in self._cores.get(lit, ())):
            self.stats.core_decides += 1
            self.stats.unsat += 1
            node.status = SATStatus.UNSAT
            return SATStatus.UNSAT
        if base is not None and base.witness is not None:
            witness = base.witness
            if all(self._holds(lit, witness) for lit in fresh):
                self.stats.witness_inherits += 1
                return self._proven_sat(node, witness)
            repaired = self._repair_witness(node, witness)
            if repaired is not None:
                self.stats.witness_repairs += 1
                return self._proven_sat(node, repaired)

        started = time.perf_counter()
        self.stats.assumption_solves += 1
        status = self._backend.check_sat(assumptions=list(node.ordered))
        self.stats.solve_time += time.perf_counter() - started
        if status == SATStatus.UNKNOWN:
            # Never cached: a retry with a raised budget must reach the backend.
            self.stats.unknown += 1
            return status
        if status == SATStatus.SAT:
            return self._proven_sat(node, self._backend.get_value())
        self.stats.unsat += 1
        node.status = status
        self._learn_core(frozenset(self._backend.core))
        return status

    def release(self, node: PrefixNode) -> None:
        """Drop *node*'s witness: it will not serve as a base again.

        The root keeps its (empty) witness for every later path.
        """

        if node is not self._root:
            node.witness = None

    def _proven_sat(self, node: PrefixNode, witness: Dict[str, int]) -> str:
        self.stats.sat += 1
        node.status = SATStatus.SAT
        self._set_witness(node, witness)
        return SATStatus.SAT

    def _set_witness(self, node: PrefixNode, witness: Dict[str, int]) -> None:
        """Hand *node* the model that proved it SAT (the one assignment point)."""

        node.witness = witness

    def _learn_core(self, core: FrozenSet[int]) -> None:
        """Store a backend UNSAT core under each of its literals."""

        self.stats.cores_learned += 1
        for lit in core:
            self._cores.setdefault(lit, []).append(core)

    def _holds(self, lit: int, model: Dict[str, int]) -> bool:
        """Whether assumption *lit* is true under *model* (unbound reads 0)."""

        entry = self._lit_conditions.get(lit if lit > 0 else -lit)
        if entry is None:
            return False  # not evaluable: a later layer decides
        condition, encoded = entry
        truth = bool(compile_term(condition).run(model, default=0))
        # The encoded literal of the condition may itself be negative.
        return truth == ((lit > 0) == (encoded > 0))

    # ------------------------------------------------------------------
    # Witness repair
    # ------------------------------------------------------------------

    def _repair_witness(self, node: PrefixNode,
                        base: Dict[str, int]) -> Optional[Dict[str, int]]:
        """A witness for *node* patched from the model *base*, or ``None``.

        The dominant check in practice is a known-SAT prefix extended by one
        *new* condition (a fresh ``field == const`` match the known model
        does not satisfy).  Instead of solving, copy *base* — the check's
        base witness — and patch the inputs of failing *atomic* literals
        (variable/extract against a constant); accept only if a full
        compiled re-evaluation of **every** literal then passes.  The
        repaired model is a genuine witness, so this can never flip an
        answer; anything unrepairable falls through.
        """

        conditions: List[Tuple[BoolExpr, bool]] = []
        # Freshest literal first: under a base witness only the literals
        # after the base can fail, so an unrepairable one ends the attempt
        # at once and a repairable one is patched before the rest is checked.
        for lit in reversed(node.ordered):
            entry = self._lit_conditions.get(lit if lit > 0 else -lit)
            if entry is None:
                return None
            condition, encoded = entry
            conditions.append((condition, (lit > 0) == (encoded > 0)))
        candidate = dict(base)
        for _attempt in range(3):
            # A pass proves the candidate once every literal held when it was
            # checked and no patch came after a literal checked earlier.
            checked = stale = False
            for condition, target in conditions:
                program = compile_term(condition)
                if bool(program.run(candidate, default=0)) != target:
                    if not (_repair_condition(condition, target, candidate)
                            and bool(program.run(candidate, default=0)) == target):
                        return None
                    stale = stale or checked
                checked = True
            if not stale:
                return candidate
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats_dict(self) -> Dict[str, float]:
        """Counter snapshot plus the size of the shared backend."""

        snapshot = asdict(self.stats)
        snapshot["sat_variables"] = self._backend.num_vars
        snapshot["sat_clauses"] = self._backend.num_clauses
        return snapshot


# ---------------------------------------------------------------------------
# Witness repair: best-effort input patching for atomic conditions
# ---------------------------------------------------------------------------


def _write_input(expr: Expr, value: int, model: Dict[str, int]) -> bool:
    """Force the *input bits* read by ``expr`` so it evaluates to *value*.

    Handles the shapes simplification leaves in branch atoms: a variable, an
    extract of a variable, and zero-extensions thereof.  Returns False for
    anything else (derived expressions are not repairable locally).
    """

    if isinstance(expr, BVZeroExt):
        if value >= (1 << expr.operand.width):
            return False
        return _write_input(expr.operand, value, model)
    if isinstance(expr, BVVar):
        model[expr.name] = value
        return True
    if isinstance(expr, BVExtract):
        operand = expr.operand
        if isinstance(operand, BVZeroExt):
            operand = operand.operand
        if not isinstance(operand, BVVar):
            return False
        field_mask = ((1 << expr.width) - 1) << expr.low
        current = model.get(operand.name, 0)
        model[operand.name] = ((current & ~field_mask)
                               | ((value << expr.low) & field_mask)) \
            & ((1 << operand.width) - 1)
        return True
    return False


def _repair_condition(condition: BoolExpr, target: bool,
                      model: Dict[str, int]) -> bool:
    """Patch *model* so *condition* evaluates to *target* (best effort).

    Only touches free inputs of atomic comparisons; the caller re-verifies
    every literal afterwards, so a wrong guess costs a backend solve, never
    soundness.
    """

    if isinstance(condition, BoolNot):
        return _repair_condition(condition.operand, not target, model)
    if isinstance(condition, BoolAnd) and target:
        ok = True
        for operand in condition.operands:
            if not bool(compile_term(operand).run(model, default=0)):
                ok = _repair_condition(operand, True, model) and ok
        return ok
    if isinstance(condition, BoolOr) and not target:
        ok = True
        for operand in condition.operands:
            if bool(compile_term(operand).run(model, default=0)):
                ok = _repair_condition(operand, False, model) and ok
        return ok
    if isinstance(condition, (BoolAnd, BoolOr)):
        # One falsified conjunct / satisfied disjunct suffices: try each.
        for operand in condition.operands:
            patched = dict(model)
            if (_repair_condition(operand, target, patched)
                    and bool(compile_term(operand).run(patched, default=0)) == target):
                model.update(patched)
                return True
        return False
    if not isinstance(condition, BVCmp):
        return False
    lhs, rhs = condition.lhs, condition.rhs
    if isinstance(lhs, BVConst) and condition.op in ("eq", "ne"):
        lhs, rhs = rhs, lhs
    if not isinstance(rhs, BVConst):
        return False
    constant = rhs.value
    width = lhs.width
    mask = (1 << width) - 1
    op = condition.op
    if op == "ne":
        op, target = "eq", not target
    if op == "eq":
        if target:
            return _write_input(lhs, constant, model)
        return _write_input(lhs, constant ^ 1, model) \
            if width else False
    if op == "ult":
        if target:
            return constant > 0 and _write_input(lhs, 0, model)
        return _write_input(lhs, constant, model)
    if op == "ule":
        if target:
            return _write_input(lhs, 0, model)
        return constant < mask and _write_input(lhs, constant + 1, model)
    return False
