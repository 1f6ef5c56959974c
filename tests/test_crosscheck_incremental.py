"""Tests of the incremental crosscheck engine.

The row scan (shared SAT instance + activation literals) must report the
exact same inconsistency set as the pair-by-pair reference scan in
:mod:`tests.oracles` (called "legacy" below: it is the per-query Phase 2b
the row scan replaced).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import Campaign
from repro.core.crosscheck import find_inconsistencies
from repro.core.explorer import explore_agent
from repro.core.grouping import GroupedResults, OutputGroup, group_paths
from repro.core.trace import OutputTrace
from repro.errors import CampaignError, SolverError
from repro.symbex.compile import evaluate_compiled_bool
from repro.symbex.expr import bool_and, bool_or, bvvar
from repro.symbex.solver import GroupEncoding
from repro.symbex.solver import backend as backend_module
from repro.symbex.solver import incremental as incremental_module
from tests.oracles import pairwise_crosscheck

AGENTS = ("reference", "ovs", "modified")


def _synthetic_grouped(agent, values, trace_tag, test_key="synthetic"):
    """Grouped results with one ``x == value`` group per value."""

    x = bvvar("x", 8)
    groups = [
        OutputGroup(trace=OutputTrace(items=((trace_tag, value),)),
                    condition=(x == value), path_ids=[index], path_count=1)
        for index, value in enumerate(values)
    ]
    return GroupedResults(agent_name=agent, test_key=test_key, groups=groups,
                          grouping_time=0.0, total_paths=len(groups))


def _trace_pairs(report):
    return {(i.trace_a, i.trace_b) for i in report.inconsistencies}


# ---------------------------------------------------------------------------
# GroupEncoding unit behaviour
# ---------------------------------------------------------------------------

def test_group_encoding_encodes_each_condition_once():
    engine = GroupEncoding()
    x = bvvar("x", 8)
    first = engine.encode(x == 3)
    again = engine.encode(x == 3)
    other = engine.encode(x == 4)
    assert first is again
    assert other is not first
    assert engine.stats.groups_encoded == 2
    assert engine.stats.encoding_reuses == 1


def test_group_encoding_pair_queries_and_cache():
    engine = GroupEncoding()
    x = bvvar("x", 8)
    sat = engine.check_pair(x > 5, x < 9)
    assert sat.result.is_sat
    assert 5 < sat.result.model["x"] < 9
    unsat = engine.check_pair(x > 5, x < 3)
    assert unsat.result.is_unsat
    repeat = engine.check_pair(x > 5, x < 3)
    assert repeat.result.is_unsat
    assert repeat.via == "pair-cache"


def test_group_encoding_unknown_is_not_pair_cached(monkeypatch):
    monkeypatch.setattr(backend_module, "MAX_CONFLICTS", 0)
    engine = GroupEncoding()
    x = bvvar("x", 8)
    condition = bool_or(x == 5, x == 9)
    first = engine.check_pair(condition, x > 0)
    assert first.result.is_unknown
    monkeypatch.undo()
    second = engine.check_pair(condition, x > 0)
    assert second.result.is_sat
    assert second.via == "assumption"


def test_group_encoding_rejects_cross_test_reuse():
    engine = GroupEncoding()
    engine.bind_test("stats_request")
    engine.bind_test("stats_request")
    with pytest.raises(SolverError):
        engine.bind_test("set_config")


def test_soft_crosscheck_reads_the_conflict_budget(monkeypatch):
    # SOFT's crosscheck runs under the backend's one conflict budget: a zero
    # budget shows up as an UNKNOWN pair, never as a verdict.
    x = bvvar("x", 8)
    grouped_a = _synthetic_grouped("a", [0], "a-out")
    grouped_a.groups[0].condition = bool_or(x == 5, x == 9)
    grouped_b = _synthetic_grouped("b", [0], "b-out")
    grouped_b.groups[0].condition = (x > 0)
    monkeypatch.setattr(backend_module, "MAX_CONFLICTS", 0)
    report = find_inconsistencies(grouped_a, grouped_b)
    assert report.unknown_pairs == 1
    monkeypatch.undo()
    assert find_inconsistencies(grouped_a, grouped_b).inconsistency_count == 1


# ---------------------------------------------------------------------------
# Equivalence with the pair-by-pair reference scan on the seed catalog
# ---------------------------------------------------------------------------

def test_incremental_matches_legacy_on_seed_catalog():
    for test in ("stats_request", "set_config"):
        grouped = {agent: group_paths(explore_agent(agent, test))
                   for agent in AGENTS}
        engine = GroupEncoding()
        for agent_a, agent_b in itertools.combinations(AGENTS, 2):
            legacy = pairwise_crosscheck(grouped[agent_a], grouped[agent_b])
            incremental = find_inconsistencies(grouped[agent_a], grouped[agent_b],
                                               engine=engine)
            assert _trace_pairs(incremental) == _trace_pairs(legacy)
            assert incremental.queries == legacy.queries
            assert incremental.unsat_pairs == legacy.unsat_pairs
            assert incremental.unknown_pairs == legacy.unknown_pairs
            # Every SAT example is a real model of both group conditions
            # (verified inside the engine), so divergence witnesses hold.
            for inconsistency in incremental.inconsistencies:
                assert inconsistency.example
        # The shared engine bit-blasted each agent's groups once for all
        # pairs of this test.
        assert engine.stats.encoding_reuses > 0


# ---------------------------------------------------------------------------
# Campaign integration: shared per-test engines
# ---------------------------------------------------------------------------

def test_encoding_cache_shares_one_engine_per_test(monkeypatch):
    engines_by_test = {}
    run_pair = Campaign._run_pair

    def recording_run_pair(self, spec, agent_a, agent_b, engine, **kwargs):
        engines_by_test.setdefault(spec.key, set()).add(id(engine))
        return run_pair(self, spec, agent_a, agent_b, engine, **kwargs)

    monkeypatch.setattr(Campaign, "_run_pair", recording_run_pair)
    report = (Campaign(replay_testcases=False)
              .with_tests("stats_request", "set_config")
              .with_agents(*AGENTS)
              .run())
    # Every pair of a test shares that test's engine; no two tests share one.
    assert report.pair_count == 6
    assert sorted(engines_by_test) == ["set_config", "stats_request"]
    assert all(len(ids) == 1 for ids in engines_by_test.values())
    assert len(set().union(*engines_by_test.values())) == 2
    assert report.solver_stats["engines"] == 2


def test_campaign_incremental_matches_legacy_and_bounds_rebuilds():
    fast = (Campaign(replay_testcases=False)
            .with_tests("stats_request", "set_config")
            .with_agents(*AGENTS)
            .run())
    assert fast.pair_count == 6
    for report in fast.reports:
        twin = pairwise_crosscheck(report.grouped_a, report.grouped_b)
        assert _trace_pairs(report.crosscheck) == _trace_pairs(twin)
        assert report.crosscheck.queries == twin.queries
    # One engine per test, not one per pair: each agent's groups are
    # encoded once per test although every agent is in two of its pairs.
    assert fast.solver_stats["engines"] == 2 < fast.pair_count
    assert fast.solver_stats["encoding_reuses"] > 0
    groups = {}
    for report in fast.reports:
        for grouped in (report.grouped_a, report.grouped_b):
            groups[(report.test_key, grouped.agent_name)] = len(grouped.groups)
    assert 0 < fast.solver_stats["groups_encoded"] <= sum(groups.values())
    assert fast.solver_stats["assumption_solves"] == sum(
        report.crosscheck.solver_stats["assumption_solves"]
        for report in fast.reports)
    # Stats surface identically in the JSON report and the CLI table.
    assert fast.to_dict()["solver_stats"] == fast.solver_stats
    assert "phase 2b: incremental" in fast.describe()
    assert ("%d pair(s) decided by %d SAT call(s)"
            % (fast.total_queries, fast.solver_stats["assumption_solves"])
            in fast.describe())


def test_campaign_rerun_solver_stats_are_per_run():
    def counters(report):
        return {name: value for name, value in report.solver_stats.items()
                if not name.endswith("_time")}

    settings = dict(tests=["set_config"], agents=["reference", "modified"],
                    replay_testcases=False)
    campaign = Campaign(**settings)
    first = campaign.run()
    assert first.solver_stats["groups_encoded"] > 0
    assert first.solver_stats["engines"] == 1
    # Engines live for one run: the same campaign refuses a second run, and
    # a new campaign over the same cells does, and reports, the same work.
    with pytest.raises(CampaignError, match="runs once"):
        campaign.run()
    second = Campaign(**settings).run()
    assert counters(second) == counters(first)
    assert second.solver_stats["assumption_solves"] <= second.total_queries


def _assert_cli_usage_error(argv, capsys):
    from repro.cli.main import main

    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_campaign_no_incremental_flag(capsys):
    # The row scan is the only crosscheck path; the opt-out flag is gone.
    _assert_cli_usage_error(["campaign", "--tests", "concrete",
                             "--agents", "reference,ovs", "--no-incremental"],
                            capsys)


@pytest.mark.parametrize("argv", [
    ["campaign", "--portfolio"],
    ["campaign", "--backend", "cdcl"],
    ["explore", "--agent", "reference", "--test", "concrete", "--backend", "cdcl"],
])
def test_cli_rejects_removed_solver_backend_flags(argv, capsys):
    _assert_cli_usage_error(argv, capsys)


# ---------------------------------------------------------------------------
# Row scan: one disjunctive SAT query per A-group row
# ---------------------------------------------------------------------------

def _grouped(agent, rows, test_key="synthetic"):
    """Grouped results from ``(trace_tag, condition)`` rows."""

    groups = [
        OutputGroup(trace=OutputTrace(items=(("out", tag),)), condition=condition,
                    path_ids=[index], path_count=1)
        for index, (tag, condition) in enumerate(rows)
    ]
    return GroupedResults(agent_name=agent, test_key=test_key, groups=groups,
                          grouping_time=0.0, total_paths=len(groups))


def _pairwise_sat_pairs(grouped_a, grouped_b, engine):
    """Reference answer: one ``check_pair`` per candidate pair, row-major.

    Returns the SAT pairs and the number of pairs that took a SAT call.
    """

    found = []
    solves = 0
    for group_a in grouped_a.groups:
        for group_b in grouped_b.groups:
            if group_a.trace == group_b.trace:
                continue
            outcome = engine.check_pair(group_a.condition, group_b.condition)
            solves += outcome.via == "assumption"
            if outcome.result.is_sat:
                found.append((group_a.trace, group_b.trace,
                              bool_and(group_a.condition, group_b.condition)))
    return found, solves


def _sat_pairs(report):
    return [(i.trace_a, i.trace_b, i.condition) for i in report.inconsistencies]


_X = bvvar("x", 8)
_BYTE = st.integers(min_value=0, max_value=255)


@st.composite
def _conditions(draw):
    kind = draw(st.sampled_from(("eq", "range", "or", "range-or")))
    if kind == "eq":
        return _X == draw(_BYTE)
    low, high = sorted((draw(_BYTE), draw(_BYTE)))
    if kind == "range":
        return bool_and(_X >= low, _X <= high)
    if kind == "or":
        return bool_or(_X == low, _X == high)
    return bool_or(bool_and(_X >= low, _X <= high), _X == draw(_BYTE))


_ROWS = st.lists(st.tuples(st.integers(min_value=0, max_value=3), _conditions()),
                 min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(_ROWS, _ROWS)
def test_row_scan_matches_pairwise_and_legacy(rows_a, rows_b):
    grouped_a = _grouped("a", rows_a)
    grouped_b = _grouped("b", rows_b)
    report = find_inconsistencies(grouped_a, grouped_b, engine=GroupEncoding())
    expected, _ = _pairwise_sat_pairs(grouped_a, grouped_b, GroupEncoding())
    legacy = pairwise_crosscheck(grouped_a, grouped_b)
    assert _sat_pairs(report) == expected == _sat_pairs(legacy)
    assert report.queries == legacy.queries
    assert report.unsat_pairs == legacy.unsat_pairs
    assert report.unknown_pairs == 0
    for inconsistency in report.inconsistencies:
        assert evaluate_compiled_bool(inconsistency.condition, inconsistency.example)
    # The §3.4 bound: never more SAT calls than candidate pairs.
    stats = report.solver_stats
    assert stats["assumption_solves"] <= report.queries


def test_row_scan_falls_back_to_pairwise_when_hits_trickle_in():
    # Every model of x < 8 hits exactly one of the disjoint B-groups, so hit
    # rounds catch up with the undecided candidates and the row finishes
    # pair by pair — still within one SAT call per candidate.
    grouped_a = _grouped("a", [(0, _X < 8)])
    grouped_b = _grouped("b", [(value + 1, _X == value) for value in range(8)])
    engine = GroupEncoding()
    report = find_inconsistencies(grouped_a, grouped_b, engine=engine)
    assert report.inconsistency_count == 8
    assert report.queries == 8
    stats = report.solver_stats
    assert stats["assumption_solves"] <= 8
    assert stats["row_solves"] >= 1
    assert stats["pairwise_fallbacks"] >= 1
    assert stats["hit_rounds"] >= 1
    for inconsistency in report.inconsistencies:
        assert inconsistency.example["x"] == inconsistency.trace_b.items[0][1] - 1
        assert inconsistency.solver_time > 0


def test_row_scan_decides_an_unsat_row_with_one_sat_call():
    grouped_a = _grouped("a", [(0, _X > 200)])
    grouped_b = _grouped("b", [(value + 1, _X == value) for value in range(6)])
    engine = GroupEncoding()
    report = find_inconsistencies(grouped_a, grouped_b, engine=engine)
    assert report.inconsistency_count == 0
    assert report.unsat_pairs == report.queries == 6
    assert report.solver_stats["assumption_solves"] == 1
    assert report.solver_stats["row_solves"] == 1
    assert report.solver_stats["hit_rounds"] == 0
    # Every decided pair is cached: a re-scan makes no SAT call.
    again = find_inconsistencies(grouped_a, grouped_b, engine=engine)
    assert again.solver_stats["assumption_solves"] == 0
    assert again.solver_stats["pair_cache_hits"] == 6


def test_row_scan_unknown_row_answer_finishes_pairwise(monkeypatch):
    grouped_a = _grouped("a", [(0, bool_or(_X == 5, _X == 9))])
    grouped_b = _grouped("b", [(1, _X > 0), (2, _X > 1)])
    monkeypatch.setattr(backend_module, "MAX_CONFLICTS", 0)
    engine = GroupEncoding()
    report = find_inconsistencies(grouped_a, grouped_b, engine=engine)
    assert report.queries == 2
    assert report.unknown_pairs + report.inconsistency_count == 2
    assert report.unknown_pairs >= 1
    assert report.solver_stats["pairwise_fallbacks"] == 1


def test_row_scan_rejects_a_model_that_satisfies_no_candidate(monkeypatch):
    class NeverTrue:
        def run_bool(self, assignment, default=None):
            return False

    monkeypatch.setattr(incremental_module, "compile_term", lambda term: NeverTrue())
    grouped_a = _grouped("a", [(0, _X < 8)])
    grouped_b = _grouped("b", [(1, _X == 1), (2, _X == 2)])
    engine = GroupEncoding()
    with pytest.raises(SolverError, match="satisfies none"):
        find_inconsistencies(grouped_a, grouped_b, engine=engine)


# ---------------------------------------------------------------------------
# Guarded path encoding: inactive groups stay unassigned
# ---------------------------------------------------------------------------

_Y = bvvar("y", 8)


def test_sat_answer_leaves_inactive_groups_unassigned():
    # Three agents' multi-path groups over one shared atom pool.
    agents = {
        "reference": [bool_or(bool_and(_X == 1, _Y > 7), bool_and(_X < 40, _Y == 200)),
                      bool_or(_X == 7, bool_and(_X > 100, _Y < 5))],
        "ovs": [bool_or(bool_and(_X == 1, _Y == 9), bool_and(_X == _Y, _Y > 7)),
                bool_or(bool_and(_X < 40, _Y < 5), _Y == 200)],
        "modified": [bool_or(bool_and(_X == 1, _Y > 7, _X == _Y), _Y == 200),
                     bool_or(_X == 7, bool_and(_X < 40, _Y == 9))],
    }
    engine = GroupEncoding()
    backend = engine._backend
    solver = backend.sat_solver

    def non_decision_vars():
        return {var for var in range(1, solver.num_vars + 1)
                if not solver._decision[var]}

    # The path literals of a group are the non-decision variables its
    # encoding allocates.
    groups = {}
    for agent, conditions in agents.items():
        for index, condition in enumerate(conditions):
            before = non_decision_vars()
            group = engine.encode(condition)
            groups[agent, index] = (group, non_decision_vars() - before)
    assert all(paths for _, paths in groups.values())
    group_a, group_b = groups["reference", 0][0], groups["ovs", 0][0]
    assert backend.check_sat([group_a.activation, group_b.activation]) == "sat"
    assignment = solver._assignment
    others = [entry for key, entry in groups.items()
              if key not in (("reference", 0), ("ovs", 0))]
    for group, paths in others:
        assert assignment[group.activation] is False
        assert all(assignment[path] is None for path in paths)
    condition = bool_and(agents["reference"][0], agents["ovs"][0])
    assert evaluate_compiled_bool(condition, backend.get_value())
    stats = engine.stats_dict()
    assert stats["sat_propagations"] > 0 and stats["sat_decisions"] > 0
    assert all(isinstance(value, (int, float)) for value in stats.values())


_SMALL = st.integers(min_value=0, max_value=15)


@st.composite
def _atom(draw):
    kind = draw(st.sampled_from(("x==", "x<", "y>=", "x==y", "y!=")))
    if kind == "x==":
        return _X == draw(_SMALL)
    if kind == "x<":
        return _X < draw(_SMALL)
    if kind == "y>=":
        return _Y >= draw(_SMALL)
    if kind == "x==y":
        return _X == _Y
    return _Y != draw(_SMALL)


@st.composite
def _pooled_rows(draw):
    """Two agents' rows of disjunctions of conjunctions over one atom pool."""

    pool = draw(st.lists(_atom(), min_size=2, max_size=6))
    path = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    condition = st.lists(path, min_size=1, max_size=3).map(
        lambda paths: bool_or(*[bool_and(*conjuncts) for conjuncts in paths]))
    rows = st.lists(st.tuples(st.integers(min_value=0, max_value=3), condition),
                    min_size=1, max_size=6)
    return draw(rows), draw(rows)


@settings(max_examples=40, deadline=None)
@given(_pooled_rows())
def test_row_scan_on_shared_atom_pool_matches_legacy(rows):
    grouped_a, grouped_b = _grouped("a", rows[0]), _grouped("b", rows[1])
    report = find_inconsistencies(grouped_a, grouped_b, engine=GroupEncoding())
    legacy = pairwise_crosscheck(grouped_a, grouped_b)
    assert _sat_pairs(report) == _sat_pairs(legacy)
    assert report.unsat_pairs == legacy.unsat_pairs
    assert report.unknown_pairs == 0
    for inconsistency in report.inconsistencies:
        assert evaluate_compiled_bool(inconsistency.condition, inconsistency.example)


_SEC34_TESTS = ("flow_mod", "eth_flow_mod", "short_symb")


@pytest.fixture(scope="module")
def grouped_flow_tests():
    return {test: {agent: group_paths(explore_agent(agent, test)) for agent in AGENTS}
            for test in _SEC34_TESTS}


@pytest.mark.parametrize("test", _SEC34_TESTS)
def test_row_scan_keeps_the_sec34_bound_on_the_catalog(test, grouped_flow_tests):
    grouped = grouped_flow_tests[test]
    rows, pairwise = GroupEncoding(), GroupEncoding()
    row_calls = pairwise_calls = candidates = 0
    for agent_a, agent_b in itertools.combinations(AGENTS, 2):
        report = find_inconsistencies(grouped[agent_a], grouped[agent_b],
                                      engine=rows)
        expected, solves = _pairwise_sat_pairs(grouped[agent_a], grouped[agent_b],
                                               pairwise)
        assert _sat_pairs(report) == expected
        assert report.solver_stats["assumption_solves"] <= report.queries
        row_calls += report.solver_stats["assumption_solves"]
        pairwise_calls += solves
        candidates += report.queries
    assert row_calls <= candidates
    if test == "eth_flow_mod":
        assert row_calls < pairwise_calls
