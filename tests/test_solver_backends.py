"""The CDCL engine: cancellation cleanliness, UNKNOWN caching, and a
differential sweep over the engine's front ends on the seed catalogue.

The sweep is the load-bearing test of the one-engine pipeline: on real path
conditions from every (test, agent) cell of the seed catalogue, and on
conjunctions of two of them, the Phase-2b :class:`GroupEncoding` and the
Phase-1 :class:`PrefixOracle` must reach the verdict of the one-shot
reference :func:`tests.oracles.solve`, and every model any of them returns
must satisfy the query under concrete evaluation.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.explorer import explore_agent
from repro.core.tests_catalog import TABLE1_TESTS
from repro.symbex.compile import evaluate_compiled_bool
from repro.symbex.expr import TRUE, BVCmp, BVConst, BVVar, bool_and, bvvar
from repro.symbex.solver import (
    CancellationToken,
    CDCLBackend,
    GroupEncoding,
    PrefixOracle,
    SATSolver,
    SATStatus,
)
from repro.symbex.solver import backend as backend_module
from tests.oracles import solve

AGENTS = ("reference", "ovs", "modified")

#: Per-cell cap for the seed-catalog sweep; paths are sampled evenly so the
#: sweep still touches early, middle and late paths of every cell.
SWEEP_PATHS_PER_CELL = 12


def _var(name="x", width=16):
    return BVVar(name, width)


def _sat_query(x=None):
    x = x if x is not None else _var()
    return [BVCmp("ult", x, BVConst(10, 16)),
            BVCmp("ult", BVConst(3, 16), x)]


# ---------------------------------------------------------------------------
# UNKNOWN answers are never cached
# ---------------------------------------------------------------------------

def test_interval_unknowns_are_never_cached(monkeypatch):
    x, y = bvvar("x", 8), bvvar("y", 8)
    # UNSAT, but propagation alone cannot tell: refuting it takes CDCL
    # conflicts.
    query = [(x * y) == 7, x > 1, y > 1, x < 7, y < 7]
    oracle = PrefixOracle()
    node = oracle.root()
    for constraint in query:
        node = oracle.extend(node, oracle.literal(constraint))
    monkeypatch.setattr(backend_module, "MAX_CONFLICTS", 0)
    assert oracle.check_node(node, base=oracle.root()) == SATStatus.UNKNOWN
    assert oracle.check_node(node, base=oracle.root()) == SATStatus.UNKNOWN
    assert node.status is None
    assert oracle.stats.prefix_cache_hits == 0
    assert oracle.stats.unknown == 2
    # A retry with a raised budget reaches the engine and gets the verdict;
    # the budget is read when each query runs.
    monkeypatch.undo()
    assert oracle.check_node(node, base=oracle.root()) == SATStatus.UNSAT
    assert oracle.stats.prefix_cache_hits == 0
    assert oracle.check_node(node, base=oracle.root()) == SATStatus.UNSAT
    assert oracle.stats.prefix_cache_hits == 1


# ---------------------------------------------------------------------------
# Cooperative cancellation leaves incremental instances reusable
# ---------------------------------------------------------------------------

def _pigeonhole(solver, pigeons, holes):
    grid = [[solver.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in grid:
        solver.add_clause(row)
    for hole in range(holes):
        for first in range(pigeons):
            for second in range(first + 1, pigeons):
                solver.add_clause([-grid[first][hole], -grid[second][hole]])
    return grid


class _CountdownToken:
    """Deterministic mid-search cancellation: trip after N polls."""

    def __init__(self, polls: int) -> None:
        self.remaining = polls

    @property
    def is_cancelled(self) -> bool:
        self.remaining -= 1
        return self.remaining <= 0


def test_sat_cancellation_returns_unknown_and_leaves_trail_clean():
    solver = SATSolver()
    _pigeonhole(solver, 6, 5)
    token = CancellationToken()
    token.cancel()
    assert solver.solve(cancel=token) == SATStatus.UNKNOWN
    assert solver.cancellations == 1
    # Mirrors the failed-assumption cleanliness contract: a cancelled solve
    # must fully unwind so the instance stays incrementally reusable.
    assert solver._decision_level() == 0
    assert all(solver._level[abs(lit)] == 0 for lit in solver._trail)
    assert solver.solve() == SATStatus.UNSAT
    assert solver.stats_dict()["cancellations"] == 1


def test_sat_mid_search_cancellation_is_clean():
    solver = SATSolver()
    grid = _pigeonhole(solver, 7, 6)
    assert solver.solve(cancel=_CountdownToken(40)) == SATStatus.UNKNOWN
    assert solver.cancellations == 1
    assert solver._decision_level() == 0
    assert all(solver._level[abs(lit)] == 0 for lit in solver._trail)
    # The instance answers correctly afterwards, including under assumptions.
    assert solver.solve(assumptions=[grid[0][0]]) == SATStatus.UNSAT
    assert solver._decision_level() == 0
    assert solver.solve() == SATStatus.UNSAT


def test_cancelled_cdcl_backend_stays_reusable():
    backend = CDCLBackend()
    for constraint in _sat_query():
        backend.assert_formula(constraint)
    token = CancellationToken()
    token.cancel()
    assert backend.check_sat(cancel=token) == SATStatus.UNKNOWN
    sat = backend.sat_solver
    assert sat.cancellations == 1
    assert sat._decision_level() == 0
    assert all(sat._level[abs(lit)] == 0 for lit in sat._trail)
    # Same instance, no token: the query completes and yields a real model.
    assert backend.check_sat() == SATStatus.SAT
    assert 3 < backend.get_value()["x"] < 10
    # Assumption-based reuse still works after the cancelled attempt.
    lit = backend.declare(BVCmp("eq", _var(), BVConst(5, 16)))
    assert backend.check_sat(assumptions=[lit]) == SATStatus.SAT
    assert backend.get_value()["x"] == 5
    assert backend.check_sat(assumptions=[-lit]) == SATStatus.SAT
    assert backend.get_value()["x"] != 5


def test_token_cancels_an_inflight_query_from_another_thread():
    # A pigeonhole instance far beyond what CDCL resolves quickly, built
    # through the backend's CNF surface; cancelling the token from another
    # thread must unwind the running query promptly.
    backend = CDCLBackend()
    _pigeonhole(backend, 10, 9)
    token = CancellationToken()
    results = []
    thread = threading.Thread(
        target=lambda: results.append(backend.check_sat(cancel=token)))
    thread.start()
    deadline = time.monotonic() + 10.0
    while backend.sat_solver.decisions == 0 and time.monotonic() < deadline:
        time.sleep(0.0005)
    token.cancel()
    thread.join(30.0)
    assert results == [SATStatus.UNKNOWN]
    sat = backend.sat_solver
    assert sat.cancellations == 1
    assert sat._decision_level() == 0


# ---------------------------------------------------------------------------
# Seed-catalog sweep: every front end of the one engine agrees
# ---------------------------------------------------------------------------

def _sample(outcomes, limit):
    if len(outcomes) <= limit:
        return list(outcomes)
    step = len(outcomes) / float(limit)
    return [outcomes[int(index * step)] for index in range(limit)]


@pytest.fixture(scope="module")
def catalog_queries():
    """Real path conditions from every (test, agent) cell of the catalogue.

    Besides each sampled path condition, the sweep asks Phase 2b's question
    about two of them: a path of one agent against the path at the same
    sample position of the next agent (SAT or UNSAT), and against the next
    sampled path of its own agent (UNSAT: one agent's paths are disjoint).
    """

    queries = []
    for test in TABLE1_TESTS:
        sampled = {}
        for agent in AGENTS:
            report = explore_agent(agent, test)
            assert report.path_count > 0, (test, agent)
            sampled[agent] = [outcome.constraints for outcome in
                              _sample(report.outcomes, SWEEP_PATHS_PER_CELL)
                              if outcome.constraints]
            queries.extend((test, agent, constraints)
                           for constraints in sampled[agent])
        for agent, other in zip(AGENTS, AGENTS[1:] + AGENTS[:1]):
            mine, theirs = sampled[agent], sampled[other]
            queries.extend((test, agent + "/" + other, first + second)
                           for first, second in zip(mine, theirs))
            queries.extend((test, agent + "/" + agent, first + second)
                           for first, second in zip(mine, mine[1:]))
    assert len(queries) > 300
    return queries


def _deciders():
    """Each front end as ``(test, constraints) -> (status, model)``."""

    encodings = {}

    def reference(_test, constraints):
        result = solve(constraints)
        return result.status, result.model

    def group_encoding(test, constraints):
        # One engine per test, as in a campaign's Phase 2b.
        engine = encodings.setdefault(test, GroupEncoding())
        result = engine.check_pair(bool_and(*constraints), TRUE).result
        return result.status, result.model

    def prefix_oracle(_test, constraints):
        oracle = PrefixOracle()
        node = oracle.root()
        for constraint in constraints:
            node = oracle.extend(node, oracle.literal(constraint))
        status = oracle.check_node(node, base=oracle.root())
        return status, node.witness

    return {"reference": reference, "group-encoding": group_encoding,
            "prefix-oracle": prefix_oracle}


def test_differential_sweep_all_backends_agree(catalog_queries):
    verdicts = {}
    for name, decide in _deciders().items():
        statuses = []
        for test, cell, constraints in catalog_queries:
            status, model = decide(test, constraints)
            if status == SATStatus.SAT:
                assert model is not None, (name, test, cell)
                assert all(evaluate_compiled_bool(constraint, model, default=0)
                           for constraint in constraints), (name, test, cell)
            statuses.append(status)
        verdicts[name] = statuses
    reference = verdicts["reference"]
    assert {SATStatus.SAT, SATStatus.UNSAT} == set(reference)
    for name, statuses in verdicts.items():
        wrong = [(query[0], query[1], expected, got)
                 for query, expected, got in zip(catalog_queries, reference, statuses)
                 if got != expected]
        assert not wrong, (name, wrong[:5])
