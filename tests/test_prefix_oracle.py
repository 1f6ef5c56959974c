"""Tests for the prefix-feasibility oracle and the engine built on it.

Covers the prefix-feasibility oracle in isolation and — the load-bearing
property — that the depth-first prefix-oracle engine produces exactly the
path-condition set of :class:`tests.oracles.ReferenceEngine` (one
:func:`tests.oracles.solve` per branch side), in the same order, on synthetic programs
and on the seed catalog.
"""

import pytest

from repro.core.explorer import explore_agent
from repro.core.tests_catalog import TABLE1_TESTS
from repro.symbex.engine import Engine, EngineConfig
from repro.symbex.expr import bool_not, bvvar
from repro.symbex.solver import PrefixOracle
from repro.symbex.solver.sat import SATStatus
from tests.oracles import ReferenceEngine, check_prefix, explore_with_driver, solve


# ---------------------------------------------------------------------------
# PrefixOracle unit tests
# ---------------------------------------------------------------------------


def test_oracle_encodes_each_condition_once():
    oracle = PrefixOracle()
    x = bvvar("x", 8)
    lit_a = oracle.literal(x == 3)
    lit_b = oracle.literal(x == 3)
    assert lit_a == lit_b
    assert oracle.stats.literals_encoded == 1
    assert oracle.stats.literal_reuses == 1


def test_oracle_prefix_feasibility_and_negation():
    oracle = PrefixOracle()
    x = bvvar("x", 8)
    lit = oracle.literal(x < 10)
    other = oracle.literal(x > 20)
    assert check_prefix(oracle, [lit]) == SATStatus.SAT
    assert check_prefix(oracle, [lit, other]) == SATStatus.UNSAT
    # The same literal serves the negated side: x >= 10 and x > 20 is SAT.
    assert check_prefix(oracle, [-lit, other]) == SATStatus.SAT


def test_oracle_trivial_contradiction_skips_backend():
    oracle = PrefixOracle()
    x = bvvar("x", 8)
    lit = oracle.literal(x == 1)
    solves_before = oracle.stats.assumption_solves
    assert check_prefix(oracle, [lit, -lit]) == SATStatus.UNSAT
    assert oracle.stats.assumption_solves == solves_before
    assert oracle.stats.trivial_decides >= 1


def test_oracle_prefix_cache_hits():
    oracle = PrefixOracle()
    x = bvvar("x", 8)
    lits = [oracle.literal(x < 10), oracle.literal(x < 20)]
    assert check_prefix(oracle, lits) == SATStatus.SAT
    hits_before = oracle.stats.prefix_cache_hits
    # A repeated literal leaves the prefix unchanged: the same trie node
    # answers from its cached verdict.
    assert check_prefix(oracle, lits + [lits[0]]) == SATStatus.SAT
    assert oracle.stats.prefix_cache_hits == hits_before + 1


def test_oracle_negated_constraint_matches_bool_not():
    oracle = PrefixOracle()
    x = bvvar("x", 8)
    condition = x == 5
    lit = oracle.literal(condition)
    # assuming -lit must agree with encoding bool_not(condition) separately
    not_lit = oracle.literal(bool_not(condition))
    assert check_prefix(oracle, [-lit, -not_lit]) == SATStatus.UNSAT
    assert check_prefix(oracle, [lit, not_lit]) == SATStatus.UNSAT
    assert check_prefix(oracle, [-lit, not_lit]) == SATStatus.SAT


# ---------------------------------------------------------------------------
# Engine-level equivalence (synthetic programs)
# ---------------------------------------------------------------------------


def _branchy_program(state):
    x = state.new_symbol("x", 8)
    y = state.new_symbol("y", 8)
    state.assume(x < 40)
    if x == 3:
        state.record_event("eq")
    elif x < 10:
        state.record_event("lt")
    else:
        state.record_event("ge")
    if y == x + 1:
        state.record_event("linked")
    state.record_event("odd" if (y & 1) == 1 else "even")


def _path_condition_set(result):
    return frozenset(
        tuple(sorted(constraint.key() for constraint in path.condition.constraints()))
        for path in result.paths
    )


@pytest.fixture(scope="module")
def legacy_result():
    return ReferenceEngine().explore(_branchy_program)


def test_engine_explores_the_reference_path_set(legacy_result):
    result = Engine().explore(_branchy_program)
    assert _path_condition_set(result) == _path_condition_set(legacy_result)


def test_oracle_engine_issues_fewer_solver_queries(legacy_result):
    engine = Engine(config=EngineConfig())
    result = engine.explore(_branchy_program)
    assert result.stats.solver_queries <= legacy_result.stats.solver_queries
    # Each distinct condition is bit-blasted exactly once.
    assert result.solver_stats["literals_encoded"] < result.solver_stats["branch_checks"]


def test_dfs_oracle_engine_preserves_legacy_path_order(legacy_result):
    result = Engine().explore(_branchy_program)
    legacy_order = [path.decisions for path in legacy_result.paths]
    oracle_order = [path.decisions for path in result.paths]
    assert oracle_order == legacy_order


# ---------------------------------------------------------------------------
# Engine-vs-reference equivalence on the seed catalog (acceptance criterion)
# ---------------------------------------------------------------------------


def _report_path_set(report):
    return frozenset(
        tuple(sorted(constraint.key() for constraint in outcome.constraints))
        for outcome in report.outcomes
    )


@pytest.fixture(scope="module")
def legacy_catalog_path_sets():
    return {
        test: _path_condition_set(
            explore_with_driver("reference", test, ReferenceEngine())[2])
        for test in TABLE1_TESTS
    }


def test_engine_matches_reference_on_seed_catalog(legacy_catalog_path_sets):
    for test in TABLE1_TESTS:
        report = explore_agent("reference", test)
        assert _report_path_set(report) == legacy_catalog_path_sets[test], (
            "the engine diverged from the reference engine on test %r" % test)


# ---------------------------------------------------------------------------
# Regressions: discarded replays, per-run stats, the truncated frontier
# ---------------------------------------------------------------------------


def test_engine_counts_discarded_replays():
    from repro.symbex.engine import active_engine

    def program(state):
        x = state.new_symbol("x", 8)
        if x == 0:
            active_engine().abort_current_path("nope")
        state.record_event("ok")

    result = Engine().explore(program)
    assert result.stats.discarded_replays == 1
    assert result.path_count == 1
    assert [path.events for path in result.paths] == [["ok"]]


def test_reused_engine_solver_stats_are_per_run_deltas():
    def program(state):
        x = state.new_symbol("x", 8)
        if x == 1:
            state.record_event("one")

    engine = Engine()
    first = engine.explore(program)
    second = engine.explore(program)
    # The first run decides the branch without the prefix cache (learned
    # core, base witness or backend: ``x == 1`` is decided by patching the
    # root's empty witness).  Each explore() starts from an empty prefix
    # oracle, so the second run decides the branch the same way, and no
    # counter carries over from the first run as a lifetime total.
    for result in (first, second):
        decides = (result.solver_stats["assumption_solves"]
                   + result.solver_stats["core_decides"]
                   + result.solver_stats["witness_inherits"]
                   + result.solver_stats["witness_repairs"])
        assert decides >= 1
        assert result.solver_stats["prefix_cache_hits"] == 0
    assert (second.solver_stats["assumption_solves"]
            == first.solver_stats["assumption_solves"]
            == second.stats.solver_queries)

    legacy = ReferenceEngine()
    legacy_first = legacy.explore(program)
    legacy_second = legacy.explore(program)
    assert (legacy_second.solver_stats["assumption_solves"]
            == legacy_first.solver_stats["assumption_solves"])


def test_truncated_frontier_is_the_rest_of_the_depth_first_order():
    def program(state):
        for index in range(3):
            if state.new_symbol("b%d" % index, 1) == 1:
                state.record_event(index)

    full = Engine().explore(program)
    truncated = Engine(config=EngineConfig(max_paths=3)).explore(program)
    order = [path.decisions for path in full.paths]
    assert full.exhausted and len(order) == 8
    assert [path.decisions for path in truncated.paths] == order[:3]
    # The unexplored prefixes come back in pop order: the deepest fork first.
    assert truncated.frontier == [(True, False, False), (False,)]
    assert order[3] == (True, False, False)
    assert order[4][:1] == (False,)


# ---------------------------------------------------------------------------
# Phase-1 invariants of the witness-carrying oracle
# ---------------------------------------------------------------------------


def _trie_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def _path_view(result):
    return [(path.decisions, path.condition.constraints(), path.result,
             path.constraint_size(), path.error) for path in result.paths]


@pytest.fixture(scope="module")
def legacy_path_view():
    """The reference engine's path view of a small unit, explored once."""

    views = {}

    def view(agent, test):
        if (agent, test) not in views:
            _, _, legacy = explore_with_driver(agent, test, ReferenceEngine())
            views[agent, test] = _path_view(legacy)
        return views[agent, test]

    return view


@pytest.mark.parametrize("test", ["flow_mod", "packet_out"])
@pytest.mark.parametrize("agent", ["reference", "ovs", "modified"])
def test_oracle_witnesses_are_models_and_released(monkeypatch, legacy_path_view,
                                                  agent, test):
    from repro.symbex.compile import evaluate_compiled_bool

    handed = []
    original = PrefixOracle._set_witness

    def checked_set_witness(oracle, node, witness):
        # (i) every witness handed to a node satisfies all of its literals
        # under compiled evaluation (unbound inputs read 0).
        for lit in node.ordered:
            condition, encoded = oracle._lit_conditions[abs(lit)]
            truth = evaluate_compiled_bool(condition, witness, default=0)
            assert truth == ((lit > 0) == (encoded > 0)), (node.ordered, lit)
        handed.append(node)
        original(oracle, node, witness)

    monkeypatch.setattr(PrefixOracle, "_set_witness", checked_set_witness)
    engine, _, result = explore_with_driver(agent, test)
    assert handed and not result.stats.truncated
    assert result.solver_stats["witness_inherits"] > 0

    # (ii) once explore returns, only the root still holds a witness.
    root = engine.oracle.root()
    assert root.witness == {}
    holders = [node.ordered for node in _trie_nodes(root)
               if node is not root and node.witness is not None]
    assert holders == []

    # (iii) the explored artifact is the reference engine's, path by path.
    assert _path_view(result) == legacy_path_view(agent, test)


@pytest.mark.parametrize("test", ["flow_mod", "packet_out"])
@pytest.mark.parametrize("agent", ["reference", "ovs", "modified"])
def test_oracle_cores_are_unsat_and_decide_branches(monkeypatch, legacy_path_view,
                                                   agent, test):
    learned = []
    original = PrefixOracle._learn_core

    def recording_learn_core(oracle, core):
        learned.append((oracle, core))
        original(oracle, core)

    monkeypatch.setattr(PrefixOracle, "_learn_core", recording_learn_core)
    _, _, result = explore_with_driver(agent, test)
    assert learned and not result.stats.truncated
    assert result.solver_stats["cores_learned"] == len(learned)
    # A stored core never reaches the backend again.  Every unit but one
    # reuses its cores; reference x packet_out's 16 backend UNSATs each
    # rest on a core of their own.
    assert len({core for _, core in learned}) == len(learned)
    assert (result.solver_stats["core_decides"] > 0
            or (agent, test) == ("reference", "packet_out"))

    # (i) every learned core, read back as the branch conditions behind its
    # literals, is UNSAT on its own in a fresh solve.
    for oracle, core in learned:
        conditions = []
        for lit in core:
            condition, encoded = oracle._lit_conditions[abs(lit)]
            conditions.append(condition if (lit > 0) == (encoded > 0)
                              else bool_not(condition))
        assert solve(conditions).is_unsat, sorted(core)

    # (ii) the explored artifact is the reference engine's, path by path.
    assert _path_view(result) == legacy_path_view(agent, test)
