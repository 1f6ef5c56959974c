"""Tests for the path-exploration engine and per-path state."""

import pytest

from repro.errors import EngineError, SolverError
from repro.symbex.engine import Engine, EngineConfig
from repro.symbex.expr import bvvar
from repro.symbex.solver import CDCLBackend, PrefixOracle, SATStatus
from repro.symbex.state import PathCondition, PathState
from tests.oracles import ReferenceEngine, evaluate_bool, solve


def explore(program, **config):
    engine = Engine(config=EngineConfig(**config) if config else None)
    return engine.explore(program)


def test_concrete_program_has_single_path():
    result = explore(lambda state: state.record_event("done"))
    assert result.path_count == 1
    assert result.paths[0].events == ["done"]
    assert result.paths[0].decisions == ()


def test_single_branch_two_paths():
    def program(state):
        x = state.new_symbol("x", 8)
        if x == 3:
            state.record_event("eq")
        else:
            state.record_event("ne")

    result = explore(program)
    assert result.path_count == 2
    assert sorted(e for p in result.paths for e in p.events) == ["eq", "ne"]


def test_three_way_classification():
    def program(state):
        p = state.new_symbol("p", 16)
        if p == 0xFFFD:
            state.record_event("controller")
        elif p < 25:
            state.record_event("forward")
        else:
            state.record_event("error")

    result = explore(program)
    assert result.path_count == 3
    events = [p.events[0] for p in result.paths]
    assert set(events) == {"controller", "forward", "error"}


def test_infeasible_branches_are_pruned():
    def program(state):
        x = state.new_symbol("x", 8)
        if x < 10:
            if x > 20:  # infeasible under x < 10
                state.record_event("impossible")
            else:
                state.record_event("small")
        else:
            state.record_event("large")

    result = explore(program)
    assert result.path_count == 2
    assert all("impossible" not in p.events for p in result.paths)


def test_path_conditions_are_satisfied_by_their_own_models():
    def program(state):
        x = state.new_symbol("x", 16)
        y = state.new_symbol("y", 16)
        if x > 100:
            if y == x + 1:
                state.record_event("linked")
            else:
                state.record_event("free")
        else:
            state.record_event("low")

    result = explore(program)
    assert result.path_count == 3
    for path in result.paths:
        constraints = path.condition.constraints()
        answer = solve(constraints)
        assert answer.is_sat
        assert all(evaluate_bool(constraint, answer.model) for constraint in constraints)


def test_assume_restricts_exploration():
    def program(state):
        x = state.new_symbol("x", 8)
        state.assume(x < 10)
        if x > 50:
            state.record_event("big")
        else:
            state.record_event("small")

    result = explore(program)
    assert result.path_count == 1
    assert result.paths[0].events == ["small"]


def test_nested_branches_enumerate_all_combinations():
    def program(state):
        a = state.new_symbol("a", 8)
        b = state.new_symbol("b", 8)
        first = "a1" if a == 1 else "a0"
        second = "b1" if b == 1 else "b0"
        state.record_event(first + second)

    result = explore(program)
    assert result.path_count == 4
    assert {p.events[0] for p in result.paths} == {"a1b1", "a1b0", "a0b1", "a0b0"}


def test_loop_over_symbolic_bound_is_bounded_by_constraints():
    def program(state):
        n = state.new_symbol("n", 8)
        state.assume(n <= 2)
        count = 0
        index = 0
        while index < 3:
            if n > index:
                count += 1
            index += 1
        state.record_event(count)

    result = explore(program)
    assert {p.events[0] for p in result.paths} == {0, 1, 2}


def test_max_paths_truncation():
    def program(state):
        for index in range(8):
            state.new_symbol("x%d" % index, 8) == 1 and state.record_event(index)

    result = explore(program, max_paths=5)
    assert result.path_count == 5
    assert result.stats.truncated


def test_decision_limit_marks_path_as_failed():
    def program(state):
        x = state.new_symbol("x", 8)
        index = 0
        while True:
            if x == index:
                break
            index += 1
            if index > 100:
                break

    result = explore(program, max_decisions_per_path=16)
    assert any(not p.ok for p in result.paths)


def test_program_exception_recorded_as_path_error():
    def program(state):
        x = state.new_symbol("x", 8)
        if x == 0:
            raise ValueError("boom")
        state.record_event("ok")

    result = explore(program)
    errors = [p for p in result.paths if not p.ok]
    assert len(errors) == 1
    assert "ValueError" in errors[0].error
    assert any(p.ok and p.events == ["ok"] for p in result.paths)


def _product_branch(swallow):
    """Branch on ``x * y == 77``: no base witness or repair decides it, so
    the oracle's backend has to solve."""

    def program(state):
        x, y = state.new_symbol("x", 8), state.new_symbol("y", 8)
        try:
            state.record_event("hit" if x * y == 77 else "miss")
        except Exception:  # noqa: BLE001 - agent code that swallows everything
            if not swallow:
                raise
            state.record_event("swallowed")

    return program


@pytest.mark.parametrize("swallow", [False, True])
def test_oracle_unknown_is_an_engine_fault_not_a_path_error(monkeypatch, swallow):
    monkeypatch.setattr(CDCLBackend, "check_sat",
                        lambda backend, *args, **kwargs: SATStatus.UNKNOWN)
    with pytest.raises(SolverError, match="gave up"):
        explore(_product_branch(swallow))


@pytest.mark.parametrize("swallow", [False, True])
def test_oracle_bug_is_an_engine_fault_not_a_path_error(monkeypatch, swallow):
    def broken(oracle, node, base=None):
        raise RuntimeError("oracle bug")

    monkeypatch.setattr(PrefixOracle, "check_node", broken)
    with pytest.raises(RuntimeError, match="oracle bug"):
        explore(_product_branch(swallow))


def _diverging_program(swallow):
    """Branches on ``x < 10`` in its first run and on ``x > 200`` after."""

    runs = []

    def program(state):
        x = state.new_symbol("x", 8)
        runs.append(None)
        try:
            condition = x < 10 if len(runs) == 1 else x > 200
            state.record_event("taken" if condition else "other")
        except Exception:  # noqa: BLE001 - agent code that swallows everything
            if not swallow:
                raise
            state.record_event("swallowed")

    return program


@pytest.mark.parametrize("swallow", [False, True])
@pytest.mark.parametrize("engine", [Engine, ReferenceEngine])
def test_replay_that_branches_on_another_condition_is_an_engine_fault(engine, swallow):
    # The second run replays the prefix (False,) scheduled for ``x < 10``
    # but branches on ``x > 200``: following the prefix would record the
    # path condition ``x <= 200``, which is not the forked branch's negation.
    with pytest.raises(EngineError, match="diverged"):
        engine().explore(_diverging_program(swallow))


def test_engine_stats_counts_forks_and_forced_decisions():
    def program(state):
        x = state.new_symbol("x", 8)
        state.assume(x < 2)
        if x == 0:
            state.record_event("zero")
        else:
            state.record_event("one")
        if x < 2:  # always true: forced, no fork
            state.record_event("small")

    result = explore(program)
    assert result.path_count == 2
    assert result.stats.forks == 1
    assert result.stats.forced_decisions >= 2


def test_nested_exploration_is_rejected_gracefully():
    outer = Engine()

    def program(state):
        x = state.new_symbol("x", 8)
        if x == 1:
            state.record_event("one")
        else:
            state.record_event("other")

    result = outer.explore(program)
    assert result.path_count == 2
    # The branch hook must be restored after exploration.
    from repro.errors import NoActiveEngineError
    with pytest.raises(NoActiveEngineError):
        bool(bvvar("y", 8) == 1)


def test_path_condition_helpers():
    condition = PathCondition()
    x = bvvar("x", 8)
    condition.add(x == 1)
    condition.add(x < 5)
    assert len(condition) == 2
    assert condition.size() > 0
    assert condition.variables() == {"x": 8}
    clone = condition.copy()
    clone.add(x != 0)
    assert len(condition) == 2 and len(clone) == 3


def test_path_state_symbol_width_conflict():
    state = PathState(path_id=0)
    state.new_symbol("f", 8)
    with pytest.raises(Exception):
        state.new_symbol("f", 16)


def test_events_order_is_preserved():
    def program(state):
        x = state.new_symbol("x", 8)
        state.record_event("first")
        if x == 1:
            state.record_event("second-eq")
        else:
            state.record_event("second-ne")
        state.record_event("third")

    result = explore(program)
    for path in result.paths:
        assert path.events[0] == "first"
        assert path.events[-1] == "third"
        assert len(path.events) == 3


# ---------------------------------------------------------------------------
# Per-run stats, discarded replays, truncation semantics
# ---------------------------------------------------------------------------


def test_reused_engine_reports_per_run_solver_queries():
    def program(state):
        x = state.new_symbol("x", 8)
        if x == 1:
            state.record_event("one")

    engine = ReferenceEngine()
    first = engine.explore(program)
    second = engine.explore(program)
    assert first.stats.solver_queries > 0
    # Regression: a reused engine used to report the solver's *cumulative*
    # query counter, inflating every exploration after the first.
    assert second.stats.solver_queries == first.stats.solver_queries


def test_reused_oracle_engine_reports_per_run_solver_queries():
    def program(state):
        x = state.new_symbol("x", 8)
        if x == 1:
            state.record_event("one")

    def counters(result):
        return {name: value for name, value in result.solver_stats.items()
                if not name.endswith("_time")}

    engine = Engine()
    first = engine.explore(program)
    second = engine.explore(program)
    # Each explore() builds its own oracle, so a second run on the same
    # engine does the same work as the first and reports it as its own.
    assert first.solver_stats["branch_checks"] > 0
    assert counters(second) == counters(first)
    assert second.stats.solver_queries == first.stats.solver_queries


def test_aborted_replays_are_counted():
    from repro.symbex.engine import active_engine

    def program(state):
        x = state.new_symbol("x", 8)
        for index in range(4):
            if x == index:
                active_engine().abort_current_path("infeasible vendor prefix")
        state.record_event("done")

    result = explore(program)
    assert result.path_count == 1
    assert result.paths[0].events == ["done"]
    assert result.stats.discarded_replays == 4
    assert not result.stats.truncated


def test_aborted_replays_consume_the_path_budget():
    from repro.symbex.engine import active_engine

    def program(state):
        x = state.new_symbol("x", 8)
        for index in range(4):
            if x == index:
                active_engine().abort_current_path("discard")
        state.record_event("done")

    result = explore(program, max_paths=3)
    # Regression: discarded replays used to be invisible to max_paths, so a
    # prefix-heavy exploration could spin far past its budget.
    assert result.path_count + result.stats.discarded_replays == 3
    assert result.stats.truncated
    assert result.stats.truncation_reason == "max_paths"


def test_max_paths_truncation_reason_and_partial_result():
    def program(state):
        for index in range(6):
            bit = state.new_symbol("b%d" % index, 1)
            if bit == 1:
                state.record_event(index)

    result = explore(program, max_paths=5)
    assert result.path_count == 5
    assert result.stats.truncated
    assert result.stats.truncation_reason == "max_paths"
    # The partial result is fully usable: every record carries its condition
    # and decisions, and the unexplored remainder is handed back.
    assert all(p.decisions for p in result.paths)
    assert all(p.condition.constraints() for p in result.paths)
    assert result.frontier


def test_time_budget_truncation_reason_and_partial_result():
    import time as _time

    def program(state):
        x = state.new_symbol("x", 4)
        for index in range(3):
            if x == index:
                break
        _time.sleep(0.03)
        state.record_event("slow")

    result = explore(program, time_budget=0.05)
    assert result.stats.truncated
    assert result.stats.truncation_reason == "time_budget"
    assert 1 <= result.path_count < 4
    assert all(p.events == ["slow"] for p in result.paths)


def test_decision_limit_truncation_reason_and_usable_result():
    def program(state):
        x = state.new_symbol("x", 8)
        index = 0
        while True:
            if x == index:
                break
            index += 1
            if index > 100:
                break
        state.record_event("leaf")

    result = explore(program, max_decisions_per_path=16)
    assert result.stats.truncated
    assert result.stats.truncation_reason == "max_decisions_per_path"
    failed = [p for p in result.paths if not p.ok]
    assert failed and all("DecisionLimitExceeded" in p.error for p in failed)
    # Paths under the limit are unaffected and the result stays usable.
    assert any(p.ok and p.events == ["leaf"] for p in result.paths)
