"""Tests for expression hash-consing and the overhauled SAT core.

Covers the interning invariants (construction, serialization and pickling all
yield pointer-identical terms; generations survive a table reset), the
per-node simplify memo, and the SAT solver's incremental edge cases: budget
exhaustion followed by a successful re-solve, conflicting assumptions leaving
the trail clean, clause addition after restarts, determinism across restart
schedules, learned-clause DB reduction, and the final-conflict core every
UNSAT exit reports.
"""

import pickle

import pytest

from repro.symbex.expr import (
    BoolConst,
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
    intern_table,
    ite,
    structurally_equal,
    zero_extend,
)
from repro.symbex.serialize import expr_from_obj, expr_to_obj
from repro.symbex.simplify import simplify_bool, simplify_cache_stats
from repro.symbex.solver import SATSolver, SATStatus
from repro.symbex.solver.sat import _Clause


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

def test_construction_is_interned():
    assert (bvvar("x", 8) + 1) is (bvvar("x", 8) + 1)
    assert (bvvar("x", 8) == 3) is (bvvar("x", 8) == 3)
    assert bool_not(bvvar("x", 8) == 3) is bool_not(bvvar("x", 8) == 3)
    assert (bvvar("x", 8) + 1) is not (bvvar("x", 8) + 2)


def test_structural_equality_is_pointer_equality():
    x = bvvar("x", 16)
    a = concat(extract(x, 15, 8), bv(0xFF, 8))
    b = concat(extract(x, 15, 8), bv(0xFF, 8))
    assert a is b
    assert structurally_equal(a, b)


def test_compound_terms_share_subterms():
    x = bvvar("x", 16)
    left = (x + 1) ^ (x + 1)
    assert left.lhs is left.rhs
    assert expr_size(left) == 4  # xor, add, x, 1 — shared nodes counted once


def test_nary_dedup_uses_identity():
    x = bvvar("x", 8)
    cond = x == 1
    assert bool_and(cond, cond) is cond
    both = bool_and(cond, x == 2)
    assert bool_and(cond, x == 2) is both
    assert bool_or(cond, bool_or(cond, x == 2)) is bool_or(cond, x == 2)


def test_serialize_roundtrip_is_pointer_identical():
    x = bvvar("pkt", 32)
    term = bool_and(extract(x, 31, 16) == 0xABCD,
                    bool_or(x != 0, zero_extend(extract(x, 7, 0), 32) < 9),
                    ite(x == 1, bv(3, 32), x) > 1)
    assert expr_from_obj(expr_to_obj(term)) is term


def test_pickle_roundtrip_is_pointer_identical():
    x = bvvar("pkt", 16)
    term = bool_not((x & 0x0F00) == 0x0200)
    assert pickle.loads(pickle.dumps(term)) is term


def test_intern_stats_count_hits():
    table = intern_table()
    before = table.hits
    first = bvvar("stats_probe", 24) + 7  # may miss or hit depending on history
    again = bvvar("stats_probe", 24) + 7  # every node of this one must hit
    assert again is first
    assert table.hits > before
    stats = table.stats_dict()
    assert stats["distinct_terms"] == len(table._terms)
    assert stats["memory_bytes"] > 0
    assert 0.0 <= stats["hit_rate"] <= 1.0


def test_intern_reset_keeps_constant_singletons():
    x = bvvar("reset_probe", 8)
    old_term = x + 5
    intern_table().reset()
    assert BoolConst(True) is TRUE
    assert BoolConst(False) is FALSE
    assert (bv(3, 8) < 5) is TRUE
    new_term = bvvar("reset_probe", 8) + 5
    # Across generations identity is lost but structural equality holds.
    assert new_term is not old_term
    assert structurally_equal(new_term, old_term)
    assert collect_variables(old_term) == {"reset_probe": 8}


def _uncached_size(expr):
    """Distinct operator nodes of *expr*, by a fresh walk (no memo)."""

    seen, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children())
    return len(seen)


def test_memoized_expr_size_matches_a_fresh_walk_on_the_catalog():
    from repro.core.explorer import explore_agent
    from repro.core.tests_catalog import TABLE1_TESTS, get_test

    constraints = []
    for test in TABLE1_TESTS:
        spec = get_test(test, scale="small")
        for agent in ("reference", "ovs", "modified"):
            for outcome in explore_agent(agent, spec).outcomes:
                sizes = [expr_size(c) for c in outcome.constraints]
                assert sizes == [_uncached_size(c) for c in outcome.constraints]
                assert outcome.constraint_size == sum(sizes)
                constraints.extend(outcome.constraints)
    assert constraints
    before = [expr_size(c) for c in constraints]

    # A new intern generation neither drops nor confuses the memo: old
    # terms keep their sizes, and re-interned copies compute equal ones.
    intern_table().reset()
    assert [expr_size(c) for c in constraints] == before
    fresh = [pickle.loads(pickle.dumps(c)) for c in constraints[:200]]
    assert all(new is not old for new, old in zip(fresh, constraints))
    assert [expr_size(c) for c in fresh] == before[:200]
    assert [_uncached_size(c) for c in fresh] == before[:200]


def test_invalid_construction_is_not_interned():
    from repro.errors import ExpressionError
    from repro.symbex.expr import BVExtract, BVSignExt, BVZeroExt

    distinct_before = intern_table().distinct_terms
    with pytest.raises(ExpressionError):
        bvvar("", 8)
    with pytest.raises(ExpressionError):
        extract(bvvar("y", 8), 9, 0)
    assert intern_table().distinct_terms <= distinct_before + 1  # only "y"


def test_invalid_scalars_do_not_false_hit_the_intern_table():
    from repro.errors import ExpressionError
    from repro.symbex.expr import BVExtract, BVSignExt, BVZeroExt, BVVar

    # Scalar key components hash by value (8.0 == 8): validation must run
    # before the cache lookup or a float width would return the cached term.
    y = BVVar("float_probe", 8)
    BVExtract(y, 5, 1)
    for build in (lambda: BVVar("float_probe", 8.0),
                  lambda: BVExtract(y, 5.0, 1),
                  lambda: BVZeroExt(y, 16.0),
                  lambda: BVSignExt(y, 16.0)):
        with pytest.raises(ExpressionError):
            build()


# ---------------------------------------------------------------------------
# Per-node simplify memo
# ---------------------------------------------------------------------------

def test_simplify_memo_counts_hits_and_misses():
    x = bvvar("memo_probe", 32)
    before = simplify_cache_stats()
    results = [simplify_bool(bool_or(x == value, x + value != 3))
               for value in range(200)]
    after = simplify_cache_stats()
    assert after["misses"] > before["misses"]
    assert after["hits"] > before["hits"]  # x itself is shared by every term
    # A repeated call is one hit on the root node, and the same result.
    assert simplify_bool(bool_or(x == 7, x + 7 != 3)) is results[7]
    stats = simplify_cache_stats()
    assert stats["hits"] == after["hits"] + 1
    assert stats["misses"] == after["misses"]
    assert 0.0 < stats["hit_rate"] <= 1.0


def test_exploration_stats_surface_simplify_cache():
    from repro.symbex.engine import Engine

    def program(state):
        x = state.new_symbol("x", 8)
        if x == 3:
            return 1
        return 0

    before = simplify_cache_stats()
    result = Engine().explore(program)
    after = simplify_cache_stats()
    assert result.stats.paths == 2
    # The memo is process-wide: an exploration shows up in its counters.
    assert (after["hits"] + after["misses"]
            > before["hits"] + before["misses"])


# ---------------------------------------------------------------------------
# SAT core: incremental edge cases
# ---------------------------------------------------------------------------

def _pigeonhole(solver, pigeons, holes):
    """At-least-one-hole per pigeon, at-most-one-pigeon per hole (UNSAT if
    pigeons > holes)."""

    grid = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in grid:
        solver.add_clause(row)
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                solver.add_clause([-grid[first][hole], -grid[second][hole]])
    return grid


def test_sat_unknown_then_resolve_with_larger_budget():
    solver = SATSolver()
    _pigeonhole(solver, 5, 4)
    assert solver.solve(max_conflicts=1) == SATStatus.UNKNOWN
    # Same instance, raised budget: the answer must come back, and the
    # UNKNOWN attempt must not have corrupted the trail or the clause DB.
    assert solver.solve(max_conflicts=200_000) == SATStatus.UNSAT
    assert solver.solve() == SATStatus.UNSAT


def test_sat_conflicting_assumptions_leave_trail_clean():
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a])
    solver.add_clause([-a, b])
    assert solver.solve(assumptions=[-a]) == SATStatus.UNSAT
    # Failed assumptions must fully unwind: no decision levels left, and no
    # assumption-polluted assignments beyond the root-implied ones.
    assert solver._decision_level() == 0
    assert all(solver._level[abs(lit)] == 0 for lit in solver._trail)
    assert solver.solve(assumptions=[b]) == SATStatus.SAT
    assert solver.solve() == SATStatus.SAT
    assert solver.model_value(a) is True
    assert solver.model_value(b) is True


def test_sat_assumption_prefix_reuse_is_sound():
    solver = SATSolver()
    a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
    solver.add_clause([-a, -b, c])
    # Shared prefix [a, b] across consecutive calls exercises the
    # assumption-trail reuse path (no full re-propagation).
    assert solver.solve(assumptions=[a, b, c]) == SATStatus.SAT
    assert solver.solve(assumptions=[a, b, -c]) == SATStatus.UNSAT
    assert solver.solve(assumptions=[a, -b, -c]) == SATStatus.SAT
    assert solver.solve(assumptions=[a, b]) == SATStatus.SAT
    assert solver.model_value(c) is True
    assert solver.solve() == SATStatus.SAT


def test_sat_clause_addition_after_restart():
    solver = SATSolver(restart_first=1)  # restart on every conflict
    grid = _pigeonhole(solver, 4, 4)
    assert solver.solve() == SATStatus.SAT
    assert solver.restarts >= 0  # schedule ran; SAT may arrive pre-restart
    # Pin pigeon 0 away from every hole but the last, then re-query.
    for hole in range(3):
        solver.add_clause([-grid[0][hole]])
    assert solver.solve() == SATStatus.SAT
    assert solver.model_value(grid[0][3]) is True
    solver.add_clause([-grid[0][3]])
    assert solver.solve() == SATStatus.UNSAT


def test_sat_results_deterministic_across_restart_schedules():
    def build(**kwargs):
        solver = SATSolver(**kwargs)
        grid = _pigeonhole(solver, 4, 4)
        solver.add_clause([grid[0][0], grid[1][1]])
        return solver, grid

    statuses = []
    models = []
    for restart_first in (1, 3, 100):
        solver, grid = build(restart_first=restart_first)
        statuses.append(solver.solve())
        models.append(solver.model())
    assert statuses == [SATStatus.SAT] * 3
    # Any model must satisfy the formula regardless of the schedule.
    for model in models:
        assert model  # non-empty assignment

    unsat_statuses = []
    for restart_first in (1, 3, 100):
        solver = SATSolver(restart_first=restart_first)
        _pigeonhole(solver, 5, 4)
        unsat_statuses.append(solver.solve())
    assert unsat_statuses == [SATStatus.UNSAT] * 3


def test_sat_learned_db_reduction_triggers_and_stays_correct():
    solver = SATSolver(learned_db_base=8, learned_db_growth=1.05)
    _pigeonhole(solver, 6, 5)
    assert solver.solve() == SATStatus.UNSAT
    assert solver.db_reductions >= 1
    assert solver.learned_deleted > 0
    stats = solver.stats_dict()
    assert stats["db_reductions"] == solver.db_reductions
    assert stats["decisions"] > 0 and stats["propagations"] > 0


def test_sat_phase_saving_knob():
    # Phase saving is always on: a decision re-uses the variable's last
    # polarity.  An unsaved variable is decided False first, so without
    # saving the second solve would answer a=False, b=True.
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve(assumptions=[a, b]) == SATStatus.SAT
    assert solver.solve() == SATStatus.SAT
    assert solver.model_value(a) is True and solver.model_value(b) is True


def test_sat_prefer_steers_decisions_but_not_answers():
    solver = SATSolver()
    a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
    solver.add_clause([a, b, c])
    # Without hints the default polarity (false) leaves the last disjunct to
    # propagation; with hints the first unassigned preferred literal is
    # decided, and no further one once a preferred literal holds.
    assert solver.solve(prefer=[c, b, a]) == SATStatus.SAT
    assert solver.model_value(c) is True
    assert solver.model_value(b) is False and solver.model_value(a) is False
    assert solver.solve(assumptions=[-c], prefer=[c, b, a]) == SATStatus.SAT
    assert solver.model_value(b) is True and solver.model_value(a) is False
    grid = _pigeonhole(solver, 5, 4)
    assert solver.solve(prefer=[row[0] for row in grid]) == SATStatus.UNSAT


def test_sat_binary_clause_fast_path_chain():
    solver = SATSolver()
    variables = [solver.new_var() for _ in range(12)]
    for left, right in zip(variables, variables[1:]):
        solver.add_clause([-left, right])  # left -> right
    solver.add_clause([variables[0]])
    assert solver.solve() == SATStatus.SAT
    assert all(solver.model_value(var) for var in variables)
    solver.add_clause([-variables[-1]])
    assert solver.solve() == SATStatus.UNSAT


# ---------------------------------------------------------------------------
# Non-decision variables: assigned by propagation only
# ---------------------------------------------------------------------------

class _GuardedCNF:
    """Guarded path gadgets over a SATSolver, the crosscheck engine's shape.

    Each group has a decision activation literal ``act`` and non-decision
    path literals ``p`` with ``-act OR -p OR c`` per conjunct ``c`` and
    ``-act OR p_1 OR ... OR p_n``.  Every clause added is kept, so a model
    can be completed per the SAT-answer contract and checked against all of
    them.
    """

    def __init__(self, solver):
        self.solver = solver
        self.clauses = []
        self.owner = {}  # path literal -> activation literal

    def add(self, clause):
        self.clauses.append(list(clause))
        return self.solver.add_clause(clause)

    def group(self, paths):
        act = self.solver.new_var()
        literals = []
        for conjuncts in paths:
            path = self.solver.new_var(decision=False)
            self.owner[path] = act
            for conjunct in conjuncts:
                self.add([-act, -path, conjunct])
            literals.append(path)
        self.add([-act] + literals)
        return act, literals

    def completed_model(self):
        """The solver's assignment, unassigned path literals set to ``act``."""

        model = self.solver.model()
        for var in range(1, self.solver.num_vars + 1):
            if var not in model:
                assert not self.solver._decision[var], var
                model[var] = model[self.owner[var]]
        return model

    def satisfied(self, model):
        return all(any(model[abs(lit)] == (lit > 0) for lit in clause)
                   for clause in self.clauses)


def test_sat_answers_with_non_decision_variables_unassigned():
    solver = SATSolver()
    cnf = _GuardedCNF(solver)
    x, y = solver.new_var(), solver.new_var()
    cnf.add([x, y])
    act, paths = cnf.group([[x], [y, -x]])
    idle, idle_paths = cnf.group([[x, y], [-y]])
    assert solver.solve(assumptions=[act]) == SATStatus.SAT
    # The inactive group's path literals were never assigned or decided.
    assert all(solver._assignment[p] is None for p in idle_paths)
    assert solver.model_value(act) is True and solver.model_value(idle) is False
    model = cnf.completed_model()
    assert cnf.satisfied(model)
    assert any(model[p] for p in paths)
    assert solver.solve(assumptions=[-act, -idle]) == SATStatus.SAT
    assert all(solver._assignment[p] is None for p in paths + idle_paths)
    assert cnf.satisfied(cnf.completed_model())


def test_sat_refutation_through_non_decision_variables():
    solver = SATSolver()
    a, x = solver.new_var(), solver.new_var()
    p = solver.new_var(decision=False)
    solver.add_clause([-a, p])
    solver.add_clause([-p, x])
    solver.add_clause([-p, -x])
    assert solver.solve(assumptions=[a]) == SATStatus.UNSAT
    assert solver.solve() == SATStatus.SAT
    assert solver.model_value(a) is False
    assert solver.solve(assumptions=[a]) == SATStatus.UNSAT


def test_branching_never_picks_a_non_decision_variable_after_backtracks():
    solver = SATSolver()
    cnf = _GuardedCNF(solver)
    grid = _pigeonhole(solver, 4, 3)
    cells = [cell for row in grid for cell in row]
    # Path literals over the pigeonhole cells, bumped by conflict analysis.
    acts = [cnf.group([[cells[i], -cells[i + 1]], [cells[i + 2]]])[0]
            for i in range(0, len(cells) - 2, 2)]
    solver._var_inc = 1e100  # the first bump rescales and rebuilds the heap
    assert solver.solve(assumptions=acts[:2]) == SATStatus.UNSAT
    assert solver.conflicts > 0
    solver._backtrack(0)
    assert all(solver._decision[var] for _, var in solver._heap)
    # Branch until the heap runs dry: every pick is a decision variable and
    # afterwards only non-decision variables are left unassigned.
    while True:
        var = solver._pick_branch_variable()
        if var is None:
            break
        assert solver._decision[var]
        solver._trail_lim.append(len(solver._trail))
        solver._enqueue(-var, None)
    unassigned = [var for var in range(1, solver.num_vars + 1)
                  if solver._assignment[var] is None]
    assert unassigned and not any(solver._decision[var] for var in unassigned)
    solver._backtrack(0)


def test_clauses_added_between_solves_keep_the_non_decision_contract():
    solver = SATSolver()
    cnf = _GuardedCNF(solver)
    x, y, z = solver.new_var(), solver.new_var(), solver.new_var()
    first, _ = cnf.group([[x, y], [-x, z]])
    assert solver.solve(assumptions=[first]) == SATStatus.SAT
    assert cnf.satisfied(cnf.completed_model())
    # A new group over fresh non-decision variables, added after a solve.
    second, _ = cnf.group([[-y, -z], [x, -z]])
    assert solver.solve(assumptions=[first, second]) == SATStatus.SAT
    model = cnf.completed_model()
    assert cnf.satisfied(model)
    assert model[first] and model[second]
    # A clause over existing path literals of a group: its models still
    # complete, and a clause refuting every path of it makes it UNSAT.
    third, third_paths = cnf.group([[x], [y]])
    cnf.add([-third_paths[0], z])
    assert solver.solve(assumptions=[third, -z]) == SATStatus.SAT
    assert cnf.satisfied(cnf.completed_model())
    cnf.add([-y])
    assert solver.solve(assumptions=[third, -z]) == SATStatus.UNSAT
    assert solver.solve(assumptions=[third]) == SATStatus.SAT
    assert cnf.satisfied(cnf.completed_model())


# ---------------------------------------------------------------------------
# SAT core: final-conflict cores (one test per UNSAT exit of solve)
# ---------------------------------------------------------------------------

class _RecordedCNF:
    """A solver plus the clauses it was given, to re-check a core on a
    fresh instance."""

    def __init__(self, num_vars):
        self.solver = SATSolver()
        self.vars = [self.solver.new_var() for _ in range(num_vars)]
        self.clauses = []

    def add(self, *clauses):
        for clause in clauses:
            self.clauses.append(list(clause))
            self.solver.add_clause(clause)

    def assert_core(self, assumptions):
        """The last answer's core is a subset of *assumptions* the formula
        refutes on its own; returns it."""

        core = list(self.solver.core)
        assert set(core) <= set(assumptions), (core, assumptions)
        fresh = SATSolver()
        for _ in self.vars:
            fresh.new_var()
        for clause in self.clauses:
            fresh.add_clause(clause)
        assert fresh.solve(assumptions=core) == SATStatus.UNSAT, core
        return core


def test_core_root_conflict_is_empty():
    cnf = _RecordedCNF(2)
    a, b = cnf.vars
    cnf.add([a], [-a])
    assert cnf.solver.solve(assumptions=[b]) == SATStatus.UNSAT
    assert cnf.assert_core([b]) == []


def test_core_of_a_refutation_without_assumptions_is_empty_and_sticks():
    # Pigeonhole 3-into-2 needs search; the unrelated assumption h plays no
    # part in the refutation, so the core is empty and later calls answer
    # from the recorded root conflict without a single new conflict.
    cnf = _RecordedCNF(7)
    h = cnf.vars[6]
    grid = [cnf.vars[0:2], cnf.vars[2:4], cnf.vars[4:6]]
    cnf.add(*grid)
    for hole in range(2):
        for first in range(3):
            for second in range(first + 1, 3):
                cnf.add([-grid[first][hole], -grid[second][hole]])
    assert cnf.solver.solve(assumptions=[h]) == SATStatus.UNSAT
    assert cnf.assert_core([h]) == []
    conflicts = cnf.solver.conflicts
    assert cnf.solver.solve(assumptions=[-h]) == SATStatus.UNSAT
    assert cnf.solver.conflicts == conflicts


def test_core_of_a_conflict_on_the_kept_assumption_trail():
    cnf = _RecordedCNF(2)
    a, x = cnf.vars
    cnf.add([a, x])
    assert cnf.solver.solve(assumptions=[a]) == SATStatus.SAT
    # Slip (-a | x) and (-a | -x) in behind the solver's back and rewind the
    # propagation queue: the next call keeps [a] on the trail and its
    # re-propagation is what conflicts.
    for literals in ([-a, x], [-a, -x]):
        clause = _Clause(literals)
        cnf.solver._binary.append(clause)
        cnf.solver._watch_binary(clause)
        cnf.clauses.append(literals)
    cnf.solver._qhead = 0
    assert cnf.solver.solve(assumptions=[a]) == SATStatus.UNSAT
    assert cnf.assert_core([a]) == [a]


def test_core_of_an_assumption_already_false():
    cnf = _RecordedCNF(4)
    a, b, c, d = cnf.vars
    cnf.add([-a, b], [-b, c])
    # a implies c through b; d is unrelated.
    assumptions = [d, a, -c]
    assert cnf.solver.solve(assumptions=assumptions) == SATStatus.UNSAT
    assert sorted(cnf.assert_core(assumptions)) == sorted([a, -c])
    # Falsified at level 0: the assumption alone is the core.
    cnf.add([-d])
    assert cnf.solver.solve(assumptions=[a, d]) == SATStatus.UNSAT
    assert cnf.assert_core([a, d]) == [d]


def test_core_of_a_conflict_while_applying_assumptions():
    cnf = _RecordedCNF(4)
    a, b, c, d = cnf.vars
    cnf.add([-a, -b, c], [-a, -b, -c])
    assumptions = [d, a, b]
    assert cnf.solver.solve(assumptions=assumptions) == SATStatus.UNSAT
    assert cnf.solver.conflicts == 0  # refuted by propagation alone
    assert sorted(cnf.assert_core(assumptions)) == sorted([a, b])


def test_core_of_a_conflict_at_the_assumption_level_after_search():
    # Pigeonhole 4-into-3 guarded by g: only search refutes it, and the
    # final conflict lands at the assumption level.
    cnf = _RecordedCNF(14)
    g, h = cnf.vars[12], cnf.vars[13]
    grid = [cnf.vars[row * 3:row * 3 + 3] for row in range(4)]
    cnf.add(*([-g] + row for row in grid))
    for hole in range(3):
        for first in range(4):
            for second in range(first + 1, 4):
                cnf.add([-grid[first][hole], -grid[second][hole]])
    assumptions = [g, h]
    assert cnf.solver.solve(assumptions=assumptions) == SATStatus.UNSAT
    assert cnf.solver.conflicts > 0
    assert cnf.assert_core(assumptions) == [g]
    assert cnf.solver.solve(assumptions=[h]) == SATStatus.SAT
    assert cnf.solver.core == []


def test_core_of_a_learned_unit_that_clashes(monkeypatch):
    # u is implied by the four ternary clauses, but only search finds it;
    # the assumption a forces -u.  Analysis is patched to learn the unit u
    # outright, which the backjump then finds false at the assumption level.
    cnf = _RecordedCNF(4)
    a, u, p, q = cnf.vars
    cnf.add([u, p, q], [u, p, -q], [u, -p, q], [u, -p, -q], [-a, -u])
    monkeypatch.setattr(cnf.solver, "_analyze", lambda conflict: ([u], 0, 1))
    assert cnf.solver.solve(assumptions=[a]) == SATStatus.UNSAT
    assert cnf.solver.conflicts == 1
    assert cnf.assert_core([a]) == [a]


def test_core_is_empty_after_sat_and_unknown_answers():
    cnf = _RecordedCNF(21)
    g, x = cnf.vars[20], cnf.vars[19]
    grid = [cnf.vars[row * 4:row * 4 + 4] for row in range(4)] + [cnf.vars[16:19] + [x]]
    cnf.add(*([-g] + row for row in grid))
    for hole in range(4):
        for first in range(5):
            for second in range(first + 1, 5):
                cnf.add([-grid[first][hole], -grid[second][hole]])
    cnf.add([-x])
    assert cnf.solver.solve(assumptions=[g, x]) == SATStatus.UNSAT
    assert cnf.assert_core([g, x]) == [x]
    assert cnf.solver.solve(assumptions=[-g]) == SATStatus.SAT
    assert cnf.solver.core == []
    assert cnf.solver.solve(assumptions=[g, x]) == SATStatus.UNSAT
    assert cnf.solver.solve(assumptions=[g], max_conflicts=1) == SATStatus.UNKNOWN
    assert cnf.solver.core == []
