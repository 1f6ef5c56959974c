"""A CDCL SAT solver.

This is the boolean backend of the bit-vector decision procedure.  It is a
classic conflict-driven clause-learning solver with:

* two-watched-literal unit propagation with a dedicated **binary-clause fast
  path** (implications of 2-literal clauses are stored as ``(other, clause)``
  pairs and propagated without touching watch lists),
* first-UIP conflict analysis and clause learning with **LBD** (literal block
  distance) tracking,
* VSIDS-style variable activities with exponential decay, ordered by a
  **lazy-delete binary heap** so each decision costs O(log n) instead of an
  O(num_vars) scan,
* **phase saving** (decisions re-use the variable's last assigned polarity),
* periodic **learned-clause DB reduction** (glue clauses with LBD <= 2 and
  clauses locked as reasons are kept; the worst half of the rest, by LBD then
  activity, is dropped),
* non-chronological backjumping,
* geometric restarts (:data:`RESTART_GROWTH`),
* an optional conflict budget so callers can bound worst-case work,
* **non-decision variables** (MiniSat's ``setDecisionVar``): a variable
  allocated with ``new_var(decision=False)`` never enters the decision heap,
  so the search only ever assigns it by propagation,
* **final-conflict cores** (MiniSat's ``analyzeFinal``): every UNSAT answer
  leaves in :attr:`SATSolver.core` the assumptions the refutation rests on,
  so a caller can reject any later assumption set that contains it.

:meth:`SATSolver.solve` answers SAT once every *decision* variable is
assigned and propagation is conflict-free; non-decision variables may still
be unassigned at that point.  That answer is sound only for formulas whose
unassigned non-decision variables can always be completed.  The caller owes
this contract.  The crosscheck engine's guarded path literals meet it: each
path literal ``p`` of a group with activation literal ``act`` occurs only in
``-act OR -p OR c`` (one per conjunct ``c``) and in ``-act OR p_1 OR ...``.
Once every decision variable is assigned without conflict, an unassigned
``p`` of an active group has all its conjuncts true: the conjuncts are
decision variables' literals, so they are assigned, and a false one would
have forced ``-p``.  So setting each unassigned ``p`` to the value of its
``act`` extends the assignment to a full model.  Learned clauses are implied by the
formula, so the extension satisfies them too.

The solver is **incremental**: :meth:`SATSolver.solve` may be called any
number of times on the same instance, clauses and variables may be added
between calls, and *assumptions* scope a query to a subset of the formula
without touching the clause database.  Learned clauses and variable
activities persist across calls, which is what makes re-querying the same
instance (the crosscheck engine's ``solve under {act_i, act_j}`` pattern)
much cheaper than rebuilding it.  The conflict budget is per *call*, not per
instance lifetime.

Literals use the DIMACS convention: variable ``v`` (a positive integer) has the
positive literal ``v`` and the negative literal ``-v``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SolverError

__all__ = ["SATSolver", "SATStatus"]

#: Factor by which the conflict count between two restarts grows.
RESTART_GROWTH = 1.5


class SATStatus:
    """Tri-state result of a SAT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class _Clause:
    __slots__ = ("literals", "learned", "activity", "lbd")

    def __init__(self, literals: List[int], learned: bool = False,
                 lbd: int = 0) -> None:
        self.literals = literals
        self.learned = learned
        self.activity = 0.0
        self.lbd = lbd


class SATSolver:
    """Conflict-driven clause-learning SAT solver."""

    def __init__(self, restart_first: int = 100, learned_db_base: int = 4000,
                 learned_db_growth: float = 1.2) -> None:
        #: Conflicts before the first restart; grows by RESTART_GROWTH.
        self.restart_first = max(1, int(restart_first))
        #: Learned-clause count that triggers the first DB reduction.
        self.learned_db_base = max(1, int(learned_db_base))
        self.learned_db_growth = learned_db_growth

        self._num_vars = 0
        # Clause storage: original (3+ literals), binary (exactly 2, original
        # or learned — never reduced), and learned (3+ literals, reducible).
        self._clauses: List[_Clause] = []
        self._binary: List[_Clause] = []
        self._learned: List[_Clause] = []
        # watches[lit] lists 3+-literal clauses currently watching `lit`.
        self._watches: Dict[int, List[_Clause]] = {}
        # bin_watches[lit] lists (other, clause): when `lit` becomes false,
        # `other` is implied by `clause`.
        self._bin_watches: Dict[int, List[Tuple[int, _Clause]]] = {}
        # assignment[var] is None / True / False.
        self._assignment: List[Optional[bool]] = [None]
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._polarity: List[bool] = [False]
        # decision[var] is False for variables the search never branches on.
        self._decision: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # Lazy-delete decision-order heap of (-activity, var): stale entries
        # (assigned vars, outdated activities) are discarded or re-keyed at
        # pop time; every unassigned decision variable is always present.
        self._heap: List[Tuple[float, int]] = []
        self._qhead = 0
        # Assumption-trail reuse: the literal sequence of the previous call's
        # assumptions still standing on the trail, and the decision level
        # reached after applying each one.  A new call keeps the longest
        # matching prefix assigned instead of re-propagating it from level 0.
        self._assumption_seq: List[int] = []
        self._assumption_marks: List[int] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._learned_limit = self.learned_db_base
        self._root_conflict = False
        #: After an UNSAT answer: assumption literals whose conjunction the
        #: formula refutes (empty: the formula alone is UNSAT).  Empty after
        #: SAT and UNKNOWN answers.
        self.core: List[int] = []
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.solves = 0
        self.restarts = 0
        self.db_reductions = 0
        self.learned_deleted = 0
        self.cancellations = 0

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    def new_var(self, decision: bool = True) -> int:
        """Allocate and return a fresh variable (a positive integer).

        A ``decision=False`` variable is assigned by propagation only; see
        the module docstring for the contract a SAT answer then relies on.
        """

        self._num_vars += 1
        self._assignment.append(None)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(False)
        self._decision.append(decision)
        if decision:
            heappush(self._heap, (0.0, self._num_vars))
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses) + len(self._binary) + len(self._learned)

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT."""

        if self._trail_lim:
            # Clauses may arrive between queries (incremental use); watched
            # literals must be chosen against the root-level state only.
            self._backtrack(0)
            self._reset_assumption_trail()
        seen = set()
        clause: List[int] = []
        for lit in literals:
            if lit == 0 or abs(lit) > self._num_vars:
                raise SolverError("literal %d references an unallocated variable" % (lit,))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self._value(lit)
            if value is True and self._level[abs(lit)] == 0:
                return True  # already satisfied at the root
            if value is False and self._level[abs(lit)] == 0:
                continue  # literal is dead at the root
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._root_conflict = True
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._root_conflict = True
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._root_conflict = True
                return False
            return True
        c = _Clause(clause)
        if len(clause) == 2:
            self._binary.append(c)
            self._watch_binary(c)
        else:
            self._clauses.append(c)
            self._watch(c)
        return True

    def _watch(self, clause: _Clause) -> None:
        for lit in clause.literals[:2]:
            self._watches.setdefault(lit, []).append(clause)

    def _watch_binary(self, clause: _Clause) -> None:
        a, b = clause.literals
        self._bin_watches.setdefault(a, []).append((b, clause))
        self._bin_watches.setdefault(b, []).append((a, clause))

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        value = self._assignment[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        value = self._value(lit)
        if value is not None:
            return value
        var = abs(lit)
        self._assignment[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None."""

        trail = self._trail
        assignment = self._assignment
        bin_watches = self._bin_watches
        watches = self._watches
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            false_lit = -lit

            # Binary fast path: direct implications, no watch maintenance.
            bins = bin_watches.get(false_lit)
            if bins:
                for other, bin_clause in bins:
                    var = other if other > 0 else -other
                    value = assignment[var]
                    if value is None:
                        self._enqueue(other, bin_clause)
                    elif value != (other > 0):
                        return bin_clause

            watchers = watches.get(false_lit)
            if not watchers:
                continue
            new_watchers: List[_Clause] = []
            conflict: Optional[_Clause] = None
            index = 0
            while index < len(watchers):
                clause = watchers[index]
                index += 1
                if conflict is not None:
                    new_watchers.append(clause)
                    continue
                literals = clause.literals
                # Ensure the false literal is in position 1.
                if literals[0] == false_lit:
                    literals[0] = literals[1]
                    literals[1] = false_lit
                first = literals[0]
                first_var = first if first > 0 else -first
                first_value = assignment[first_var]
                if first_value is not None and first_value == (first > 0):
                    new_watchers.append(clause)
                    continue
                # Look for a replacement watch.
                found = False
                for position in range(2, len(literals)):
                    candidate = literals[position]
                    cand_var = candidate if candidate > 0 else -candidate
                    cand_value = assignment[cand_var]
                    if cand_value is None or cand_value == (candidate > 0):
                        literals[1] = candidate
                        literals[position] = false_lit
                        watches.setdefault(candidate, []).append(clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watchers.append(clause)
                if first_value is not None:  # and it is not satisfying: conflict
                    conflict = clause
                else:
                    self._enqueue(first, clause)
            watches[false_lit] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self._activity[var] + self._var_inc
        self._activity[var] = activity
        if activity > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_heap()
        elif self._assignment[var] is None and self._decision[var]:
            heappush(self._heap, (-activity, var))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            # Rescale every learned clause, including binary ones (stored in
            # _binary): missing any would leave its activity above the
            # threshold forever and re-trigger the rescale on each bump.
            for learned in self._learned:
                learned.activity *= 1e-20
            for binary in self._binary:
                if binary.learned:
                    binary.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _analyze(self, conflict: _Clause) -> (List[int], int, int):
        """First-UIP analysis; returns (learned clause, backjump level, LBD)."""

        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        reason: Optional[_Clause] = conflict
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            assert reason is not None, "decision literal reached without UIP"
            if reason.learned:
                self._bump_clause(reason)
            for clause_lit in reason.literals:
                if lit is not None and clause_lit == lit:
                    continue
                var = abs(clause_lit)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(clause_lit)
            # Find the next literal on the trail to resolve on.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            lit = self._trail[trail_index]
            var = abs(lit)
            seen[var] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            reason = self._reason[var]

        if len(learned) == 1:
            backjump = 0
        else:
            # Backjump to the second highest level in the learned clause: a
            # single max scan over the non-asserting literals, tracking the
            # position so the witness literal can be swapped into the watch
            # slot without a second pass (no sort needed).
            backjump = self._level[abs(learned[1])]
            witness = 1
            for position in range(2, len(learned)):
                level = self._level[abs(learned[position])]
                if level > backjump:
                    backjump = level
                    witness = position
            learned[1], learned[witness] = learned[witness], learned[1]
        lbd = len({self._level[abs(l)] for l in learned})
        return learned, backjump, lbd

    def _fail(self, assumptions: Sequence[int], literals: Iterable[int],
              failed: Optional[int] = None) -> str:
        """Record the final-conflict core, unwind to the root, answer UNSAT.

        *literals* are the false literals the refutation ends in: a conflict
        clause, a clashing learned unit, or an assumption *failed* that was
        already false.  As in MiniSat's ``analyzeFinal``, their reasons are
        walked back to the reason-less literals behind them.  Level-0
        literals are formula facts.  A reason-less literal above level 0 is
        an assumption, or a learned unit the formula implies; only the
        assumptions enter :attr:`core`.  An empty core means the formula
        alone is UNSAT, so every later call answers at once.
        """

        assumed = set(assumptions)
        assignment, level, reason = self._assignment, self._level, self._reason
        core = [] if failed is None else [failed]
        seen = set()
        stack = [abs(lit) for lit in literals]
        while stack:
            var = stack.pop()
            if var in seen or level[var] == 0:
                continue
            seen.add(var)
            clause = reason[var]
            if clause is not None:
                stack.extend(abs(lit) for lit in clause.literals)
            elif (var if assignment[var] else -var) in assumed:
                core.append(var if assignment[var] else -var)
        self.core = core
        if not core:
            self._root_conflict = True
        self._reset_assumption_trail()
        self._backtrack(0)
        return SATStatus.UNSAT

    def _reset_assumption_trail(self) -> None:
        del self._assumption_seq[:]
        del self._assumption_marks[:]

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        assignment = self._assignment
        reason = self._reason
        activity = self._activity
        decision = self._decision
        heap = self._heap
        for lit in reversed(self._trail[boundary:]):
            var = abs(lit)
            assignment[var] = None
            reason[var] = None
            if decision[var]:
                heappush(heap, (-activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _rebuild_heap(self) -> None:
        self._heap = [(-self._activity[var], var)
                      for var in range(1, self._num_vars + 1)
                      if self._assignment[var] is None and self._decision[var]]
        heapify(self._heap)

    def _pick_branch_variable(self) -> Optional[int]:
        heap = self._heap
        if len(heap) > 4 * self._num_vars + 64:
            # Lazy deletes accumulated; compact to bound memory.
            self._rebuild_heap()
            heap = self._heap
        assignment = self._assignment
        activity = self._activity
        while heap:
            neg_activity, var = heap[0]
            if assignment[var] is not None:
                heappop(heap)  # stale: assigned since it was pushed
                continue
            if -neg_activity != activity[var]:
                heappop(heap)  # stale priority: re-key with the current one
                heappush(heap, (-activity[var], var))
                continue
            return var
        return None

    def _preferred_decision(self, prefer: Sequence[int]) -> Optional[int]:
        """The first unassigned literal of *prefer*, or None once one is true."""

        assignment = self._assignment
        decision = None
        for lit in prefer:
            value = assignment[lit if lit > 0 else -lit]
            if value is None:
                if decision is None:
                    decision = lit
            elif value == (lit > 0):
                return None
        return decision

    # ------------------------------------------------------------------
    # Learned-clause DB reduction
    # ------------------------------------------------------------------

    def _locked(self, clause: _Clause) -> bool:
        first = clause.literals[0]
        var = abs(first)
        return self._assignment[var] is not None and self._reason[var] is clause

    def _reduce_learned(self) -> None:
        """Drop the worst half of the reducible learned clauses.

        Glue clauses (LBD <= 2) and clauses locked as the reason of a current
        assignment are always kept, so the procedure is safe at any decision
        level; surviving clauses keep their watch positions, so rebuilding
        the watch lists preserves the exact propagation state minus the
        deleted clauses.
        """

        keep: List[_Clause] = []
        removable: List[_Clause] = []
        for clause in self._learned:
            if clause.lbd <= 2 or self._locked(clause):
                keep.append(clause)
            else:
                removable.append(clause)
        removable.sort(key=lambda c: (c.lbd, -c.activity))
        cut = len(removable) // 2
        keep.extend(removable[:cut])
        deleted = removable[cut:]
        self._learned_limit = int(self._learned_limit * self.learned_db_growth) + 1
        if not deleted:
            return
        dead = frozenset(map(id, deleted))
        self._learned = keep
        watches = self._watches
        for lit in list(watches.keys()):
            watchers = watches[lit]
            kept = [c for c in watchers if id(c) not in dead]
            if len(kept) != len(watchers):
                watches[lit] = kept
        self.learned_deleted += len(deleted)
        self.db_reductions += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = (), max_conflicts: Optional[int] = None,
              cancel=None, prefer: Sequence[int] = ()) -> str:
        """Solve the formula; returns one of the :class:`SATStatus` constants.

        *assumptions* are literals forced at the start of the search (they act
        like temporary unit clauses).  When *max_conflicts* is given and
        exhausted within this call, ``UNKNOWN`` is returned.  The instance can
        be re-queried afterwards — each call gets its own conflict budget.

        *cancel* is an optional cooperative cancellation token (any object
        with an ``is_cancelled`` attribute, e.g.
        :class:`repro.symbex.solver.backend.CancellationToken`).  The search
        loop polls it at every conflict and every decision; once it reads
        true, the call unwinds exactly like a budget exhaustion — trail
        backtracked to the root, assumption-reuse state reset — and returns
        ``UNKNOWN``, so the instance stays fully reusable for later calls.

        *prefer* steers decisions, never the answer: while none of its
        literals is true, the search decides the first unassigned one before
        consulting the activity heap.  For a clause ``l_1 OR ... OR l_k``
        that makes the search try its disjuncts one at a time.

        ``SAT`` is answered once every decision variable is assigned; the
        model may leave non-decision variables unassigned (module docstring).
        """

        self.solves += 1
        self.core = []
        if self._root_conflict:
            return SATStatus.UNSAT

        # Assumption-trail reuse: keep the longest prefix of *assumptions*
        # matching the previous call's sequence assigned on the trail instead
        # of backtracking to level 0 and re-propagating it.  Anything else
        # standing at those levels is formula-implied (learned units enqueued
        # during the previous search), so keeping it is sound regardless of
        # the new assumption suffix.
        matched = 0
        seq = self._assumption_seq
        limit = min(len(seq), len(assumptions))
        while matched < limit and seq[matched] == assumptions[matched]:
            matched += 1
        keep_level = self._assumption_marks[matched - 1] if matched else 0
        self._backtrack(keep_level)
        del self._assumption_seq[matched:]
        del self._assumption_marks[matched:]
        # The kept trail is already propagated to fixpoint: backtrack keeps
        # assignments and add_clause() propagates new root units at insertion
        # time, so only literals enqueued past _qhead (if any) need
        # processing — no O(trail) re-scan per incremental call.
        conflict = self._propagate()
        if conflict is not None:
            return self._fail(assumptions, conflict.literals)

        # Apply the remaining assumptions as decisions at successive levels.
        for lit in assumptions[matched:]:
            if self._value(lit) is True:
                self._assumption_seq.append(lit)
                self._assumption_marks.append(self._decision_level())
                continue
            if self._value(lit) is False:
                return self._fail(assumptions, (lit,), failed=lit)
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)
            conflict = self._propagate()
            if conflict is not None:
                return self._fail(assumptions, conflict.literals)
            self._assumption_seq.append(lit)
            self._assumption_marks.append(self._decision_level())
        assumption_level = self._decision_level()

        restart_limit = self.restart_first
        conflicts_since_restart = 0
        total_budget = max_conflicts
        conflicts_at_start = self.conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if cancel is not None and cancel.is_cancelled:
                    self.cancellations += 1
                    self._reset_assumption_trail()
                    self._backtrack(0)
                    return SATStatus.UNKNOWN
                if total_budget is not None and self.conflicts - conflicts_at_start > total_budget:
                    self._reset_assumption_trail()
                    self._backtrack(0)
                    return SATStatus.UNKNOWN
                if self._decision_level() <= assumption_level:
                    return self._fail(assumptions, conflict.literals)
                learned, backjump, lbd = self._analyze(conflict)
                self._backtrack(max(backjump, assumption_level))
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return self._fail(assumptions, learned)
                else:
                    clause = _Clause(learned, learned=True, lbd=lbd)
                    if len(learned) == 2:
                        self._binary.append(clause)
                        self._watch_binary(clause)
                    else:
                        self._learned.append(clause)
                        self._watch(clause)
                    self._enqueue(learned[0], clause)
                self._decay()
                if len(self._learned) >= self._learned_limit:
                    self._reduce_learned()
            else:
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    restart_limit = int(restart_limit * RESTART_GROWTH)
                    self.restarts += 1
                    self._backtrack(assumption_level)
                    continue
                if cancel is not None and cancel.is_cancelled:
                    self.cancellations += 1
                    self._reset_assumption_trail()
                    self._backtrack(0)
                    return SATStatus.UNKNOWN
                decision = self._preferred_decision(prefer) if prefer else None
                if decision is None:
                    var = self._pick_branch_variable()
                    if var is None:
                        return SATStatus.SAT
                    decision = var if self._polarity[var] else -var
                self.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(decision, None)

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def model_value(self, var: int) -> bool:
        """Value of *var* in the satisfying assignment (False if unassigned)."""

        value = self._assignment[var]
        return bool(value)

    def model(self) -> Dict[int, bool]:
        """Return the full satisfying assignment as ``{var: bool}``."""

        return {
            var: bool(self._assignment[var])
            for var in range(1, self._num_vars + 1)
            if self._assignment[var] is not None
        }

    def stats_dict(self) -> Dict[str, int]:
        """Search counters (decisions, propagations, learned-DB activity)."""

        return {
            "variables": self._num_vars,
            "clauses": self.num_clauses,
            "learned": len(self._learned),
            "solves": self.solves,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "restarts": self.restarts,
            "db_reductions": self.db_reductions,
            "learned_deleted": self.learned_deleted,
            "cancellations": self.cancellations,
        }
