"""Incremental crosscheck solving: encode once, scan a row with one query.

Phase 2b asks whether ``C_A(i) AND C_B(j)`` is satisfiable for up to
``|RES_A| * |RES_B|`` pairs per agent pair (§3.4), and nearly all of those
pairs are UNSAT.  :class:`GroupEncoding` keeps **one** SAT instance per test.
Each output-group condition is simplified and encoded exactly once, guarded
by a fresh *activation literal* ``act``:

* a single conjunction gets ``act -> atom`` for each of its conjuncts;
* a disjunction of paths (the usual group: one ``BoolAnd`` per explored
  path) is encoded one-sidedly.  Each path gets a *non-decision* path
  literal ``p`` with ``-act OR -p OR c`` for each of its conjuncts ``c``,
  plus one clause ``-act OR p_1 OR ... OR p_n``.

The atoms themselves are full Tseitin circuits, bit-blasted once and shared
by every group that mentions them.  The path clauses all watch ``-act``, so
while a group is inactive no assignment of an atom visits them.  The SAT
core never branches on path literals and answers SAT once every decision
variable is assigned (:mod:`repro.symbex.solver.sat` states the contract
that makes this sound).  So a SAT answer assigns the atom circuits, the
queried groups and one decision per inactive activation literal, not every
group's circuit.  On the ``catalog`` campaign this halves the propagations
per SAT call or better.  There is no prefix trie over paths: paths of one
group share few prefixes, and a trie's extra nodes measured slower, guarded
or not.

:meth:`GroupEncoding.check_row` decides a whole row of the pair matrix (one
A-group against its candidate B-groups):

1. Cheap per-pair filters first: trivially constant conditions and the
   ``(condition, condition)`` result cache.
2. The still-undecided candidates ``R`` get one *disjunctive* query: a fresh
   selector ``sel`` with the clause ``-sel OR act_j for j in R``, solved
   under ``{act_a, sel}`` and then retired with the unit clause ``-sel``.
   Because activation literals are implication-only, a model satisfies
   ``C_A(i)`` and at least one ``C_B(j)``.  Once a row turns out dense
   (:data:`DENSE_ROW_HIT_SHARE`), its row queries ask the SAT core to try
   the candidates' activation literals one at a time.
3. On SAT every condition in ``R`` is evaluated on the model with the
   compiled tapes; every hit is a verified inconsistency and leaves ``R``.
   A SAT answer that satisfies no candidate is a solver bug and raises
   :class:`~repro.errors.SolverError`.  On UNSAT every pair left in ``R`` is
   UNSAT.
4. The row is finished pair by pair (:meth:`GroupEncoding.check_pair`'s
   assumption solve ``{act_a, act_j}``) once its hit rounds reach the number
   of undecided candidates, when one candidate is left, or when the backend
   answers UNKNOWN.  So a row with a decisive backend never makes more SAT
   calls than it has candidates: the §3.4 bound still holds, and UNKNOWN
   pairs are still reported as unknown.

On ``packet_out`` (reference/ovs/modified, small scale) this turns 18,191
pair queries into a few hundred SAT calls.  Every decided pair is stored in
the result cache, so a pair that several scans on the engine ask about costs
one SAT call at most.

All public methods are thread-safe.  Queries on one engine serialize on its
lock (the shared SAT instance is stateful); a campaign's thread pool still
overlaps Phase 2b across *different* tests' engines, and the pure-Python
backend is GIL-bound either way.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.errors import SolverError
from repro.symbex.compile import compile_term
from repro.symbex.expr import BoolAnd, BoolConst, BoolExpr, BoolOr
from repro.symbex.simplify import simplify_bool
from repro.symbex.solver.backend import CDCLBackend
from repro.symbex.solver.model import SatResult, require_verified
from repro.symbex.solver.sat import SATStatus

__all__ = ["GroupEncoding", "IncrementalStats", "PairOutcome", "RowScan"]

#: A row whose hit rounds reach this share of its candidates is *dense*: its
#: row queries steer the SAT search to one candidate at a time.  Unsteered,
#: the solver refutes a sparse row's disjunction at once (``packet_out``:
#: ~1% of pairs SAT), but wanders on dense rows (flow-mod tests: ~15% SAT),
#: where trying candidates one by one finds models faster and leaves
#: refutations that make the row's final UNSAT query nearly free.
DENSE_ROW_HIT_SHARE = 0.05


@dataclass
class IncrementalStats:
    """Counters of one :class:`GroupEncoding` engine: encodings, verdicts, time.

    How the pairs were decided (row solves, hit rounds, pair solves) is
    counted per scan on :class:`RowScan` and its outcomes.
    """

    #: Distinct group conditions bit-blasted into the shared CNF.
    groups_encoded: int = 0
    #: Conditions requested again after their first encoding (the saving).
    encoding_reuses: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    encode_time: float = 0.0
    solve_time: float = 0.0


@dataclass
class _EncodedGroup:
    """One group condition installed in the shared CNF."""

    #: Assuming this literal activates the condition's clauses.
    activation: int
    #: The simplified conjuncts (used for model verification and row hits);
    #: empty when the condition simplified to a constant.
    atoms: List[BoolExpr] = field(default_factory=list)
    trivially_false: bool = False
    #: The original condition; pins the interned term alive so the engine's
    #: id-keyed group map stays valid for the lifetime of this entry.
    condition: Optional[BoolExpr] = None


@dataclass
class PairOutcome:
    """Result of one pair query plus how it was decided.

    ``result.time`` is the time spent deciding it; for a pair decided by a
    row query that is the time of the row query's solve.
    """

    result: SatResult
    #: "trivial" | "pair-cache" | "row" | "assumption"
    via: str


@dataclass
class RowScan:
    """Outcome of :meth:`GroupEncoding.check_row`: one entry per candidate.

    A candidate decided by its own SAT call (the pair-by-pair finish) has
    ``via == "assumption"``; the row's SAT calls are ``row_solves`` plus
    those outcomes.
    """

    #: One outcome per candidate; ``None`` only while :meth:`_solve_row`
    #: still has the candidate pending.
    outcomes: List[Optional[PairOutcome]]
    #: Disjunctive row queries sent to the SAT backend.
    row_solves: int = 0
    #: Row queries answered SAT.
    hit_rounds: int = 0


class GroupEncoding:
    """Shared incremental encoding of output-group conditions for ONE test.

    Conditions from different tests use different symbolic namespaces and
    must not share an instance; :meth:`bind_test` enforces this for callers
    that hold engines in a cache.
    """

    def __init__(self) -> None:
        self.stats = IncrementalStats()
        self._lock = threading.RLock()
        self._backend = CDCLBackend()
        # id-keyed: group conditions are hash-consed, so identity is
        # structural identity (each _EncodedGroup pins its condition alive).
        self._groups: Dict[int, _EncodedGroup] = {}
        self._pair_cache: Dict[FrozenSet[int], SatResult] = {}
        self._bound_test: Optional[str] = None

    # ------------------------------------------------------------------
    # Guard rails
    # ------------------------------------------------------------------

    def bind_test(self, test_key: str) -> None:
        """Pin the engine to one test; reuse across tests is an error."""

        with self._lock:
            if self._bound_test is None:
                self._bound_test = test_key
            elif self._bound_test != test_key:
                raise SolverError(
                    "GroupEncoding bound to test %r cannot crosscheck test %r; "
                    "conditions of different tests must not share one SAT "
                    "instance" % (self._bound_test, test_key))

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, condition: BoolExpr) -> _EncodedGroup:
        """Install *condition* behind an activation literal (once per key)."""

        with self._lock:
            key = id(condition)
            group = self._groups.get(key)
            if group is not None:
                self.stats.encoding_reuses += 1
                return group
            started = time.perf_counter()
            simplified = simplify_bool(condition)
            if isinstance(simplified, BoolConst):
                if simplified.value:
                    group = _EncodedGroup(activation=self._backend.true_lit,
                                          condition=condition)
                else:
                    group = _EncodedGroup(activation=self._backend.false_lit,
                                          trivially_false=True,
                                          condition=condition)
            else:
                if isinstance(simplified, BoolAnd):
                    atoms = list(simplified.operands)
                else:
                    atoms = [simplified]
                activation = self._backend.new_var()
                if isinstance(simplified, BoolOr):
                    self._encode_paths(activation, simplified.operands)
                else:
                    for atom in atoms:
                        self._backend.add_clause(
                            [-activation, self._backend.declare(atom)])
                group = _EncodedGroup(activation=activation, atoms=atoms,
                                      condition=condition)
            self._groups[key] = group
            self.stats.groups_encoded += 1
            self.stats.encode_time += time.perf_counter() - started
            return group

    def _encode_paths(self, activation: int,
                      disjuncts: Sequence[BoolExpr]) -> None:
        """Guarded one-sided encoding of ``activation -> OR(disjuncts)``.

        Each disjunct (one explored path) gets a non-decision path literal
        ``p`` with ``-activation OR -p OR c`` for every conjunct ``c``, and
        ``-activation OR p_1 OR ... OR p_n`` picks a path.  Every clause
        watches ``-activation`` first, so assigning an atom never touches the
        clauses of an inactive group.
        """

        backend = self._backend
        paths = []
        for disjunct in disjuncts:
            conjuncts = (disjunct.operands if isinstance(disjunct, BoolAnd)
                         else (disjunct,))
            path = backend.new_var(decision=False)
            for conjunct in conjuncts:
                literal = backend.declare(conjunct)
                backend.add_clause([-activation, -path, literal])
            paths.append(path)
        backend.add_clause([-activation] + paths)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def check_pair(self, condition_a: BoolExpr, condition_b: BoolExpr) -> PairOutcome:
        """Decide satisfiability of ``condition_a AND condition_b``."""

        with self._lock:
            group_a = self.encode(condition_a)
            group_b = self.encode(condition_b)
            started = time.perf_counter()
            try:
                outcome = self._decide_cheaply(group_a, group_b)
                if outcome is None:
                    outcome = self._solve_pair(group_a, group_b)
                return outcome
            finally:
                self.stats.solve_time += time.perf_counter() - started

    def check_row(self, condition_a: BoolExpr,
                  conditions_b: Sequence[BoolExpr]) -> RowScan:
        """Decide ``condition_a AND b`` for every *b* in *conditions_b*."""

        with self._lock:
            group_a = self.encode(condition_a)
            groups_b = [self.encode(condition) for condition in conditions_b]
            scan = RowScan(outcomes=[None] * len(groups_b))
            started = time.perf_counter()
            try:
                pending: List[int] = []
                for index, group_b in enumerate(groups_b):
                    filter_started = time.perf_counter()
                    outcome = self._decide_cheaply(group_a, group_b)
                    if outcome is None:
                        pending.append(index)
                    else:
                        outcome.result.time = time.perf_counter() - filter_started
                        scan.outcomes[index] = outcome
                self._solve_row(group_a, groups_b, pending, scan)
                return scan
            finally:
                self.stats.solve_time += time.perf_counter() - started

    def _decide_cheaply(self, group_a: _EncodedGroup,
                        group_b: _EncodedGroup) -> Optional[PairOutcome]:
        """Trivial and pair-cache verdicts; ``None`` if undecided."""

        if group_a.trivially_false or group_b.trivially_false:
            self.stats.unsat += 1
            return PairOutcome(SatResult(SATStatus.UNSAT), via="trivial")
        if not group_a.atoms and not group_b.atoms:
            self.stats.sat += 1
            return PairOutcome(SatResult(SATStatus.SAT, model={}), via="trivial")

        cached = self._pair_cache.get(self._cache_key(group_a, group_b))
        if cached is not None:
            return PairOutcome(SatResult(cached.status, dict(cached.model)),
                               via="pair-cache")
        return None

    def _solve_pair(self, group_a: _EncodedGroup,
                    group_b: _EncodedGroup) -> PairOutcome:
        """One SAT call under the pair's two activation literals."""

        started = time.perf_counter()
        status = self._backend.check_sat(
            assumptions=[group_a.activation, group_b.activation])
        elapsed = time.perf_counter() - started
        if status == SATStatus.UNKNOWN:
            # Never cached: a later call may run with a raised budget.
            self.stats.unknown += 1
            return PairOutcome(SatResult(SATStatus.UNKNOWN, time=elapsed),
                               via="assumption")
        model = None
        if status == SATStatus.SAT:
            model = self._checked_model(self._backend.get_value(), group_a, group_b)
        return self._decided(group_a, group_b, status, "assumption",
                             model=model, elapsed=elapsed)

    def _solve_row(self, group_a: _EncodedGroup, groups_b: List[_EncodedGroup],
                   pending: List[int], scan: RowScan) -> None:
        """Decide the *pending* candidates with disjunctive row queries."""

        backend = self._backend
        candidates = len(pending)
        while len(pending) > max(scan.hit_rounds, 1):
            selector = backend.new_var()
            activations = [groups_b[index].activation for index in pending]
            backend.add_clause([-selector] + activations)
            dense = (scan.hit_rounds > 0
                     and scan.hit_rounds >= DENSE_ROW_HIT_SHARE * candidates)
            scan.row_solves += 1
            started = time.perf_counter()
            status = backend.check_sat(assumptions=[group_a.activation, selector],
                                       prefer=activations if dense else ())
            elapsed = time.perf_counter() - started
            # Read the model before retiring the selector: adding a clause
            # backtracks the SAT core to the root level.
            model = backend.get_value() if status == SATStatus.SAT else None
            backend.add_clause([-selector])
            if status == SATStatus.UNKNOWN:
                break
            if status == SATStatus.UNSAT:
                for index in pending:
                    scan.outcomes[index] = self._decided(
                        group_a, groups_b[index], SATStatus.UNSAT, "row",
                        elapsed=elapsed)
                return
            hits = [index for index in pending
                    if all(compile_term(atom).run_bool(model, default=0)
                           for atom in groups_b[index].atoms)]
            if not hits:
                raise SolverError(
                    "row query returned a model that satisfies none of its %d "
                    "candidate conditions — this is a bug in the decision "
                    "procedure" % (len(pending),))
            scan.hit_rounds += 1
            for index in hits:
                scan.outcomes[index] = self._decided(
                    group_a, groups_b[index], SATStatus.SAT, "row",
                    model=self._checked_model(model, group_a, groups_b[index]),
                    elapsed=elapsed)
            pending = [index for index in pending if scan.outcomes[index] is None]

        for index in pending:
            scan.outcomes[index] = self._solve_pair(group_a, groups_b[index])

    def _checked_model(self, model: Dict[str, int], group_a: _EncodedGroup,
                       group_b: _EncodedGroup) -> Dict[str, int]:
        return require_verified(model, group_a.atoms + group_b.atoms)

    def _decided(self, group_a: _EncodedGroup, group_b: _EncodedGroup,
                 status: str, via: str, model: Optional[Dict[str, int]] = None,
                 elapsed: float = 0.0) -> PairOutcome:
        """Count and cache a SAT/UNSAT verdict on one pair."""

        if status == SATStatus.SAT:
            self.stats.sat += 1
            result = SatResult(SATStatus.SAT, model=dict(model), time=elapsed)
        else:
            self.stats.unsat += 1
            result = SatResult(SATStatus.UNSAT, time=elapsed)
        self._pair_cache[self._cache_key(group_a, group_b)] = SatResult(
            result.status, model=dict(result.model))
        return PairOutcome(result, via=via)

    @staticmethod
    def _cache_key(group_a: _EncodedGroup, group_b: _EncodedGroup) -> FrozenSet[int]:
        return frozenset((group_a.activation, group_b.activation))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats_dict(self) -> Dict[str, float]:
        """Counter snapshot plus the size of the shared backend."""

        with self._lock:
            snapshot = asdict(self.stats)
            snapshot["sat_variables"] = self._backend.num_vars
            snapshot["sat_clauses"] = self._backend.num_clauses
            backend_stats = self._backend.stats_dict()
            for name in ("propagations", "decisions", "conflicts"):
                snapshot["sat_" + name] = backend_stats.get(name, 0)
            return snapshot
