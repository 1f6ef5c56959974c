"""Table 4: instruction and branch coverage per test, Reference vs Open vSwitch.

The paper reports that individual tests each cover 20-40% of the
OpenFlow-processing code (because each test targets a few message handlers)
and that the cumulative coverage of all tests is much higher.  The same shape
is asserted here: every symbolic test covers a meaningful but partial share,
the Flow Mod family covers more than Packet Out / Set Config / Concrete, and
the union over all tests exceeds every individual test.
"""

from benchmarks.conftest import COVERAGE_MAX_PATHS, cached_exploration, print_table
from repro.core.tests_catalog import TABLE1_TESTS
from repro.coverage.tracker import CoverageTracker
from repro.core.tests_catalog import get_test
from repro.symbex.engine import EngineConfig

AGENTS = ("reference", "ovs")


def _run_all():
    per_test = {}
    for test in TABLE1_TESTS:
        for agent in AGENTS:
            per_test[(test, agent)] = cached_exploration(agent, test, with_coverage=True,
                                                         max_paths=COVERAGE_MAX_PATHS)
    # Cumulative coverage: one tracker kept armed across every test (reference).
    tracker = CoverageTracker(packages=["repro.agents.common", "repro.agents.reference"])
    for test in TABLE1_TESTS:
        from repro.harness.driver import TestDriver
        from repro.symbex.engine import Engine
        from repro.agents import make_agent

        spec = get_test(test)
        driver = TestDriver(agent_factory=lambda: make_agent("reference"),
                            inputs=spec.inputs, coverage_tracker=tracker)
        Engine(config=EngineConfig(max_paths=COVERAGE_MAX_PATHS)).explore(driver.program)
    cumulative = tracker.report()
    return per_test, cumulative


def test_table4_instruction_and_branch_coverage(run_once):
    per_test, cumulative = run_once(_run_all)

    rows = []
    for test in TABLE1_TESTS:
        row = [test]
        for agent in AGENTS:
            coverage = per_test[(test, agent)].coverage
            row.append("%.1f%%" % (100 * coverage.instruction_coverage))
            row.append("%.1f%%" % (100 * coverage.branch_coverage))
        rows.append(tuple(row))
    rows.append(("cumulative (reference)",
                 "%.1f%%" % (100 * cumulative.instruction_coverage),
                 "%.1f%%" % (100 * cumulative.branch_coverage), "", ""))
    print_table("Table 4: instruction and branch coverage",
                ("Test", "Ref inst", "Ref branch", "OVS inst", "OVS branch"), rows)

    for agent in AGENTS:
        concrete = per_test[("concrete", agent)].coverage.instruction_coverage
        flow_mod = per_test[("flow_mod", agent)].coverage.instruction_coverage
        packet_out = per_test[("packet_out", agent)].coverage.instruction_coverage
        # Each test covers a partial share of the agent code (the concrete
        # 8-byte messages exercise only the trivial handlers, so their share
        # is small; every symbolic test reaches clearly more).
        for test in TABLE1_TESTS:
            coverage = per_test[(test, agent)].coverage.instruction_coverage
            assert 0.02 < coverage < 0.95
        for test in ("packet_out", "flow_mod", "eth_flow_mod", "stats_request"):
            assert per_test[(test, agent)].coverage.instruction_coverage > 0.05
        # The Flow Mod family exercises the most code (paper: ~40% vs ~20-30%).
        assert flow_mod > packet_out
        assert flow_mod > concrete
    # Cumulative coverage exceeds every individual test's coverage (paper: ~75%).
    best_single = max(per_test[(test, "reference")].coverage.instruction_coverage
                      for test in TABLE1_TESTS)
    assert cumulative.instruction_coverage >= best_single
