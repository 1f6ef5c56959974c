"""Tests for the strategy/scheduler/oracle exploration stack.

Covers the frontier strategies in isolation, the prefix-feasibility oracle
in isolation, and — the load-bearing property — that every strategy of the
prefix-oracle engine produces exactly the same path-condition set as
:class:`tests.oracles.ReferenceEngine` (one fresh ``Solver`` query per
branch side) on the seed catalog.
"""

import pytest

from repro.core.explorer import explore_agent
from repro.core.tests_catalog import TABLE1_TESTS
from repro.errors import EngineError
from repro.symbex.engine import Engine, EngineConfig
from repro.symbex.expr import bool_not, bvvar
from repro.symbex.solver import PrefixOracle, Solver, SolverConfig
from repro.symbex.solver.sat import SATStatus
from repro.symbex.strategies import (
    BFSStrategy,
    CoverageGuidedStrategy,
    DFSStrategy,
    RandomRestartStrategy,
    make_strategy,
    strategy_names,
)
from tests.oracles import ReferenceEngine, explore_with_driver

ALL_STRATEGIES = ("dfs", "bfs", "random", "coverage")


# ---------------------------------------------------------------------------
# Strategy frontier unit tests
# ---------------------------------------------------------------------------


def test_dfs_is_lifo_and_bfs_is_fifo():
    prefixes = [(True,), (False,), (True, True)]
    dfs = DFSStrategy()
    bfs = BFSStrategy()
    for prefix in prefixes:
        dfs.push(prefix)
        bfs.push(prefix)
    assert [dfs.pop() for _ in range(3)] == list(reversed(prefixes))
    assert [bfs.pop() for _ in range(3)] == prefixes


def test_random_strategy_is_deterministic_per_seed():
    def pop_order(seed):
        strategy = RandomRestartStrategy(seed=seed)
        for index in range(8):
            strategy.push((True,) * index)
        return [strategy.pop() for _ in range(8)]

    assert pop_order(7) == pop_order(7)
    assert pop_order(7) != pop_order(8)  # 8! orderings; collision ~ impossible


def test_strategy_metrics_track_frontier():
    strategy = DFSStrategy()
    strategy.push(())
    strategy.push((True,))
    strategy.pop()
    metrics = strategy.metrics()
    assert metrics["strategy"] == "dfs"
    assert metrics["frontier_pushes"] == 2
    assert metrics["frontier_pops"] == 1
    assert metrics["max_frontier"] == 2


def test_drain_empties_the_frontier_in_pop_order():
    strategy = BFSStrategy()
    pushed = [(index % 2 == 0,) for index in range(6)]
    for prefix in pushed:
        strategy.push(prefix)
    remaining = strategy.drain()
    assert remaining == pushed and len(strategy) == 0


def test_coverage_strategy_reset_clears_novelty_state():
    class FakeRecord:
        def __init__(self, events):
            self.events = events

    strategy = CoverageGuidedStrategy()
    strategy.push(())
    strategy.pop()
    strategy.push(("fork",))
    strategy.on_path_complete(FakeRecord(["seen"]))
    strategy.reset()
    # Regression: reset() used to keep _seen_logs, so a reused engine's
    # second exploration scored every path 0 (silent FIFO degradation).
    strategy.push(())
    strategy.pop()
    strategy.push(("fork2",))
    strategy.on_path_complete(FakeRecord(["seen"]))
    assert strategy.rescores == 1
    assert strategy.metrics()["scored_batches"] == 1


def test_coverage_strategy_prioritizes_novel_paths():
    class FakeRecord:
        def __init__(self, events):
            self.events = events

    strategy = CoverageGuidedStrategy()
    strategy.push(())
    assert strategy.pop() == ()
    # Three completed paths, each forking one prefix: the first two logs are
    # novel (score 1), the middle one is a repeat (score 0).  Novel forks
    # must pop before the stale one, FIFO among themselves.
    strategy.push(("novel-a",))
    strategy.on_path_complete(FakeRecord(["seen"]))  # first sighting: novel
    strategy.push(("stale",))
    strategy.on_path_complete(FakeRecord(["seen"]))  # repeated log: stale
    strategy.push(("novel-b",))
    strategy.on_path_complete(FakeRecord(["fresh"]))  # novel again
    assert [strategy.pop() for _ in range(3)] == [
        ("novel-a",), ("novel-b",), ("stale",)]


def test_pop_empty_frontier_raises():
    with pytest.raises(EngineError):
        DFSStrategy().pop()


def test_make_strategy_rejects_unknown_names():
    with pytest.raises(EngineError):
        make_strategy("dijkstra")
    assert set(ALL_STRATEGIES) == set(strategy_names())


# ---------------------------------------------------------------------------
# PrefixOracle unit tests
# ---------------------------------------------------------------------------


def test_oracle_encodes_each_condition_once():
    oracle = PrefixOracle(SolverConfig())
    x = bvvar("x", 8)
    lit_a = oracle.literal(x == 3)
    lit_b = oracle.literal(x == 3)
    assert lit_a == lit_b
    assert oracle.stats.literals_encoded == 1
    assert oracle.stats.literal_reuses == 1


def test_oracle_prefix_feasibility_and_negation():
    oracle = PrefixOracle(SolverConfig())
    x = bvvar("x", 8)
    lit = oracle.literal(x < 10)
    other = oracle.literal(x > 20)
    assert oracle.check_prefix([lit]) == SATStatus.SAT
    assert oracle.check_prefix([lit, other]) == SATStatus.UNSAT
    # The same literal serves the negated side: x >= 10 and x > 20 is SAT.
    assert oracle.check_prefix([-lit, other]) == SATStatus.SAT


def test_oracle_trivial_contradiction_skips_backend():
    oracle = PrefixOracle(SolverConfig())
    x = bvvar("x", 8)
    lit = oracle.literal(x == 1)
    solves_before = oracle.stats.assumption_solves
    assert oracle.check_prefix([lit, -lit]) == SATStatus.UNSAT
    assert oracle.stats.assumption_solves == solves_before
    assert oracle.stats.trivial_decides >= 1


def test_oracle_prefix_cache_hits():
    oracle = PrefixOracle(SolverConfig())
    x = bvvar("x", 8)
    lits = [oracle.literal(x < 10), oracle.literal(x < 20)]
    assert oracle.check_prefix(lits) == SATStatus.SAT
    hits_before = oracle.stats.prefix_cache_hits
    # A repeated literal leaves the prefix unchanged: the same trie node
    # answers from its cached verdict.
    assert oracle.check_prefix(lits + [lits[0]]) == SATStatus.SAT
    assert oracle.stats.prefix_cache_hits == hits_before + 1


def test_oracle_negated_constraint_matches_bool_not():
    oracle = PrefixOracle(SolverConfig())
    x = bvvar("x", 8)
    condition = x == 5
    lit = oracle.literal(condition)
    # assuming -lit must agree with encoding bool_not(condition) separately
    not_lit = oracle.literal(bool_not(condition))
    assert oracle.check_prefix([-lit, -not_lit]) == SATStatus.UNSAT
    assert oracle.check_prefix([lit, not_lit]) == SATStatus.UNSAT
    assert oracle.check_prefix([-lit, not_lit]) == SATStatus.SAT


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
    value = state.concretize(y & 1)
    state.record_event(value)


def _path_condition_set(result):
    return frozenset(
        tuple(sorted(constraint.key() for constraint in path.condition.constraints()))
        for path in result.paths
    )


@pytest.fixture(scope="module")
def legacy_result():
    return ReferenceEngine().explore(_branchy_program)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_every_strategy_explores_the_same_path_set(strategy, legacy_result):
    engine = Engine(config=EngineConfig(strategy=strategy))
    result = engine.explore(_branchy_program)
    assert _path_condition_set(result) == _path_condition_set(legacy_result)
    assert result.stats.strategy == strategy
    assert result.strategy_metrics["strategy"] == strategy


def test_oracle_engine_issues_fewer_solver_queries(legacy_result):
    engine = Engine(config=EngineConfig())
    result = engine.explore(_branchy_program)
    assert result.stats.solver_queries <= legacy_result.stats.solver_queries
    # Each distinct condition is bit-blasted exactly once.
    assert result.solver_stats["literals_encoded"] < result.solver_stats["branch_checks"]


def test_dfs_oracle_engine_preserves_legacy_path_order(legacy_result):
    result = Engine(config=EngineConfig(strategy="dfs")).explore(_branchy_program)
    legacy_order = [path.decisions for path in legacy_result.paths]
    oracle_order = [path.decisions for path in result.paths]
    assert oracle_order == legacy_order


# ---------------------------------------------------------------------------
# Strategy-vs-legacy equivalence on the seed catalog (acceptance criterion)
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


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_strategies_match_legacy_on_seed_catalog(strategy, legacy_catalog_path_sets):
    for test in TABLE1_TESTS:
        report = explore_agent("reference", test, strategy=strategy)
        assert report.engine_stats["strategy"] == strategy
        assert _report_path_set(report) == legacy_catalog_path_sets[test], (
            "strategy %r diverged from the reference engine on test %r"
            % (strategy, test))


# ---------------------------------------------------------------------------
# Review regressions: per-path truncation, discard scoring, per-run stats
# ---------------------------------------------------------------------------


def test_discarded_replays_do_not_inherit_next_path_score():
    class FakeRecord:
        def __init__(self, events):
            self.events = events

    strategy = CoverageGuidedStrategy()
    strategy.push(())
    strategy.pop()
    strategy.push(("from-discard",))
    strategy.on_path_discarded()  # flushed neutrally, before any novelty
    strategy.push(("from-novel",))
    strategy.on_path_complete(FakeRecord(["fresh"]))  # novel: score 1
    assert strategy.pop() == ("from-novel",)
    assert strategy.pop() == ("from-discard",)


def test_engine_notifies_strategy_of_discarded_replays():
    from repro.symbex.engine import active_engine

    notifications = []

    class SpyStrategy(DFSStrategy):
        def on_path_discarded(self):
            notifications.append("discarded")

    def program(state):
        x = state.new_symbol("x", 8)
        if x == 0:
            active_engine().abort_current_path("nope")
        state.record_event("ok")

    result = Engine(strategy=SpyStrategy()).explore(program)
    assert notifications == ["discarded"]
    assert result.stats.discarded_replays == 1
    assert result.path_count == 1


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
    # root's empty witness); the second is served entirely by the
    # persistent prefix cache, so every counter in solver_stats must be a
    # per-run delta, not a lifetime total.
    first_decides = (first.solver_stats["assumption_solves"]
                     + first.solver_stats["core_decides"]
                     + first.solver_stats["witness_inherits"]
                     + first.solver_stats["witness_repairs"])
    assert first_decides >= 1
    assert second.solver_stats["assumption_solves"] == 0
    assert second.solver_stats["core_decides"] == 0
    assert second.solver_stats["prefix_cache_hits"] >= 1
    assert second.solver_stats["queries"] == second.stats.solver_queries == 0

    legacy = ReferenceEngine()
    legacy_first = legacy.explore(program)
    legacy_second = legacy.explore(program)
    assert legacy_second.solver_stats["queries"] == legacy_first.solver_stats["queries"]


def test_forkless_paths_still_consume_their_novelty():
    class FakeRecord:
        def __init__(self, events):
            self.events = events

    strategy = CoverageGuidedStrategy()
    # A fork-less leaf path sees log "leaf": nothing to score, but the log
    # must enter the seen-set so a later identical log is not called novel.
    strategy.on_path_complete(FakeRecord(["leaf"]))
    strategy.push(("stale",))
    strategy.on_path_complete(FakeRecord(["leaf"]))  # repeat: score 0
    strategy.push(("novel",))
    strategy.on_path_complete(FakeRecord(["new"]))  # genuinely new: score 1
    assert strategy.pop() == ("novel",)
    assert strategy.pop() == ("stale",)


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
    # literals, is UNSAT on its own in a fresh Solver.
    for oracle, core in learned:
        conditions = []
        for lit in core:
            condition, encoded = oracle._lit_conditions[abs(lit)]
            conditions.append(condition if (lit > 0) == (encoded > 0)
                              else bool_not(condition))
        assert Solver().check(conditions).is_unsat, sorted(core)

    # (ii) the explored artifact is the reference engine's, path by path.
    assert _path_view(result) == legacy_path_view(agent, test)
