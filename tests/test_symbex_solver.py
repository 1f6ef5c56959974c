"""Tests for the SAT backend, the bit-blaster and bit-vector queries.

Bit-vector queries go through :func:`tests.oracles.solve`, the one-shot
reference every front end is differentially tested against; model
verification is tested on the Phase-2b front end.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.symbex.expr import FALSE, TRUE, bool_or, bv, bvvar, ite
from repro.symbex.solver import GroupEncoding, SATSolver, SATStatus
from repro.symbex.solver.cnf import CNFBuilder
from tests.oracles import evaluate_bool, solve


# ---------------------------------------------------------------------------
# CDCL SAT solver
# ---------------------------------------------------------------------------

def test_sat_empty_formula_is_sat():
    assert SATSolver().solve() == SATStatus.SAT


def test_sat_single_unit_clause():
    solver = SATSolver()
    a = solver.new_var()
    solver.add_clause([a])
    assert solver.solve() == SATStatus.SAT
    assert solver.model_value(a) is True


def test_sat_contradicting_units_unsat():
    solver = SATSolver()
    a = solver.new_var()
    solver.add_clause([a])
    assert solver.add_clause([-a]) is False
    assert solver.solve() == SATStatus.UNSAT


def test_sat_simple_implication_chain():
    solver = SATSolver()
    a, b, d = solver.new_var(), solver.new_var(), solver.new_var()
    solver.add_clause([-a, b])
    solver.add_clause([-b, d])
    solver.add_clause([a])
    assert solver.solve() == SATStatus.SAT
    assert solver.model_value(d) is True


def test_sat_pigeonhole_2_into_1_unsat():
    # Two pigeons, one hole: p1h1, p2h1 must both hold but conflict.
    solver = SATSolver()
    p1, p2 = solver.new_var(), solver.new_var()
    solver.add_clause([p1])
    solver.add_clause([p2])
    solver.add_clause([-p1, -p2])
    assert solver.solve() == SATStatus.UNSAT


def test_sat_xor_chain_satisfiable():
    solver = SATSolver()
    variables = [solver.new_var() for _ in range(6)]
    # Encode pairwise "at least one differs" constraints.
    for left, right in zip(variables, variables[1:]):
        solver.add_clause([left, right])
        solver.add_clause([-left, -right])
    assert solver.solve() == SATStatus.SAT
    model = solver.model()
    for left, right in zip(variables, variables[1:]):
        assert model[left] != model[right]


def test_sat_assumptions():
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([-a, b])
    assert solver.solve(assumptions=[a, -b]) == SATStatus.UNSAT
    assert solver.solve(assumptions=[a, b]) == SATStatus.SAT
    assert solver.solve() == SATStatus.SAT


def test_sat_incremental_clause_addition_between_solves():
    # Clauses may be added after a SAT answer; the instance stays reusable.
    solver = SATSolver()
    a, b = solver.new_var(), solver.new_var()
    solver.add_clause([a, b])
    assert solver.solve() == SATStatus.SAT
    solver.add_clause([-a])
    assert solver.solve() == SATStatus.SAT
    assert solver.model_value(b) is True
    solver.add_clause([-b])
    assert solver.solve() == SATStatus.UNSAT


def test_sat_conflict_budget_is_per_call():
    # Ten independent selector-guarded conflicts: under each assumption the
    # default decision heuristic provokes exactly one fresh conflict.  With a
    # per-instance budget the later calls would exhaust it and go UNKNOWN.
    solver = SATSolver()
    selectors = []
    for _ in range(10):
        s, a, b = solver.new_var(), solver.new_var(), solver.new_var()
        solver.add_clause([-s, a, b])
        solver.add_clause([-s, a, -b])
        selectors.append(s)
    statuses = [solver.solve(assumptions=[s], max_conflicts=5) for s in selectors]
    assert statuses == [SATStatus.SAT] * 10
    assert solver.solves == 10


def test_sat_rejects_unallocated_literal():
    solver = SATSolver()
    with pytest.raises(SolverError):
        solver.add_clause([5])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6).filter(lambda v: v != 0),
                         min_size=1, max_size=4), min_size=1, max_size=18))
def test_prop_sat_models_satisfy_random_formulas(clauses):
    solver = SATSolver()
    for _ in range(6):
        solver.new_var()
    trivially_unsat = False
    for clause in clauses:
        if not solver.add_clause(clause):
            trivially_unsat = True
            break
    status = solver.solve() if not trivially_unsat else SATStatus.UNSAT
    if status == SATStatus.SAT:
        model = solver.model()
        for clause in clauses:
            assert any(model.get(abs(lit), False) == (lit > 0) for lit in clause)


# ---------------------------------------------------------------------------
# CNF gate helpers
# ---------------------------------------------------------------------------

def test_cnf_gate_and_or_semantics():
    cnf = CNFBuilder()
    a, b = cnf.new_var(), cnf.new_var()
    both = cnf.gate_and([a, b])
    either = cnf.gate_or([a, b])
    cnf.assert_true(a)
    cnf.assert_false(b)
    assert cnf.solver.solve() == SATStatus.SAT
    assert cnf.solver.model_value(abs(both)) == (both > 0 and False) or True  # gate literal defined
    # AND must be false, OR must be true under a=1, b=0.
    model = cnf.solver.model()
    assert (model[abs(both)] if both > 0 else not model[abs(both)]) is False
    assert (model[abs(either)] if either > 0 else not model[abs(either)]) is True


def test_cnf_gate_xor_and_ite():
    cnf = CNFBuilder()
    a, b = cnf.new_var(), cnf.new_var()
    xor = cnf.gate_xor(a, b)
    chosen = cnf.gate_ite(a, b, -b)
    cnf.assert_true(a)
    cnf.assert_true(b)
    assert cnf.solver.solve() == SATStatus.SAT
    model = cnf.solver.model()
    assert (model[abs(xor)] if xor > 0 else not model[abs(xor)]) is False
    assert (model[abs(chosen)] if chosen > 0 else not model[abs(chosen)]) is True


def test_cnf_constants():
    cnf = CNFBuilder()
    assert cnf.const(True) == cnf.true_lit
    assert cnf.const(False) == cnf.false_lit
    assert cnf.gate_and([]) == cnf.true_lit
    assert cnf.gate_or([cnf.false_lit, cnf.false_lit]) == cnf.false_lit


# ---------------------------------------------------------------------------
# Bit-vector queries
# ---------------------------------------------------------------------------

def test_solver_trivial_queries():
    assert solve([]).is_sat
    assert solve([TRUE]).is_sat
    assert solve([FALSE]).is_unsat


def test_solver_simple_equation():
    x = bvvar("x", 16)
    result = solve([x + 3 == 10])
    assert result.is_sat
    assert result.model["x"] == 7


def test_solver_unsat_range():
    x = bvvar("x", 16)
    assert solve([x < 5, x > 10]).is_unsat


def test_solver_bitmask_constraint():
    x = bvvar("x", 16)
    result = solve([(x & 0x00FF) == 0x0042, x > 0x1000])
    assert result.is_sat
    assert result.model["x"] & 0xFF == 0x42
    assert result.model["x"] > 0x1000


def test_solver_disjunction():
    x = bvvar("x", 8)
    result = solve([bool_or(x == 3, x == 200), x > 100])
    assert result.is_sat
    assert result.model["x"] == 200


def test_solver_multiplication():
    x = bvvar("x", 8)
    result = solve([x * 3 == 30, x < 50])
    assert result.is_sat
    assert (result.model["x"] * 3) & 0xFF == 30


def test_solver_ite_constraint():
    x, y = bvvar("x", 8), bvvar("y", 8)
    constraint = ite(x == 1, y, bv(0, 8)) == 7
    result = solve([constraint])
    assert result.is_sat
    assert result.model["x"] == 1 and result.model["y"] == 7


def test_solver_signed_comparison():
    x = bvvar("x", 8)
    result = solve([x.slt(0), x > 0x80])
    assert result.is_sat
    assert result.model["x"] > 0x80


def test_solver_extract_concat_constraints():
    x = bvvar("x", 16)
    result = solve([x.extract(15, 8) == 0xAB, x.extract(7, 0) == 0xCD])
    assert result.is_sat
    assert result.model["x"] == 0xABCD


def test_solver_model_verification_is_on_by_default(monkeypatch):
    # Verification has no off switch: a backend model that violates a
    # constraint is a decision-procedure bug, never a SAT answer.
    from repro.symbex.solver.backend import CDCLBackend

    monkeypatch.setattr(CDCLBackend, "get_value", lambda backend: {"x": 0})
    x = bvvar("x", 8)
    with pytest.raises(SolverError, match="does not satisfy"):
        GroupEncoding().check_pair(x * 3 == 21, x < 100)


def test_solver_symbolic_shift():
    x, s = bvvar("x", 16), bvvar("s", 16)
    result = solve([(bv(1, 16) << s) == 8, s < 16, x == (bv(0xFFFF, 16) >> s)])
    assert result.is_sat
    assert result.model["s"] == 3
    assert result.model["x"] == 0xFFFF >> 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=0, max_value=0xFFFF))
def test_prop_solver_models_satisfy_constraints(a, b):
    x, y = bvvar("x", 16), bvvar("y", 16)
    constraints = [x > min(a, b), y <= max(a, b), (x ^ y) != 0]
    result = solve(constraints)
    if result.is_sat:
        assert all(evaluate_bool(constraint, result.model) for constraint in constraints)
    else:
        # Only possible when the range is empty, i.e. min == 0xFFFF.
        assert min(a, b) == 0xFFFF
