"""Integration tests of the SOFT pipeline: explore, group, crosscheck, replay.

These use the cheaper Table-1 tests (stats_request, set_config, short_symb,
concrete) plus one Packet Out run so the whole pipeline stays fast enough for
CI while still exercising every stage end to end.
"""

import os
import subprocess
import sys

import pytest

from repro.baselines.fuzzer import DifferentialFuzzer
from repro.baselines.oftest import default_suite, run_suite
from repro.cli.main import main as cli_main
from repro.core.campaign import Campaign
from repro.core.crosscheck import find_inconsistencies
from repro.core.explorer import explore_agent
from repro.core.grouping import balanced_or, group_paths
from repro.core.testcase import build_testcase, replay_testcase
from repro.core.tests_catalog import (
    TABLE1_TESTS,
    VALID_SCALES,
    catalog,
    current_scale,
    get_test,
)
from repro.core.trace import OutputTrace
from repro.core.variants import TABLE5_VARIANTS, concretization_spec, flow_mod_sequence_spec
from repro.coverage.tracker import CoverageTracker
from repro.symbex.expr import bvvar
from repro.symbex.state import PathState
from tests.oracles import evaluate_bool


# ---------------------------------------------------------------------------
# Catalogue and variants
# ---------------------------------------------------------------------------

def test_catalog_contains_all_table1_tests():
    specs = catalog()
    assert set(specs) == set(TABLE1_TESTS)
    for key, spec in specs.items():
        assert spec.key == key
        assert spec.message_count >= 1
        assert spec.inputs


def test_get_test_unknown_key():
    with pytest.raises(KeyError):
        get_test("no_such_test")


def test_current_scale_default_is_small(monkeypatch):
    monkeypatch.delenv("SOFT_SCALE", raising=False)
    assert current_scale() == "small"
    monkeypatch.setenv("SOFT_SCALE", "paper")
    assert current_scale() == "paper"
    # Whitespace and case are normalized silently.
    monkeypatch.setenv("SOFT_SCALE", "  Paper ")
    assert current_scale() == "paper"


def test_current_scale_warns_on_invalid_value(monkeypatch):
    monkeypatch.setenv("SOFT_SCALE", "large")
    with pytest.warns(RuntimeWarning, match="small, paper"):
        assert current_scale() == "small"


def _built_shape(spec):
    """Symbols and assumptions one run of the spec's input builders creates."""

    state = PathState(path_id=0)
    for test_input in spec.inputs:
        test_input.build(state)
    return sorted(state.symbols.items()), [str(atom) for atom in state.condition]


@pytest.mark.parametrize("key", ["packet_out", "flow_mod", "eth_flow_mod",
                                 "cs_flow_mods"])
def test_spec_scale_is_the_only_scale_source(key, monkeypatch):
    # A spec built for one scale must build that scale's messages whatever
    # SOFT_SCALE says when the builders run.
    shapes = {}
    for scale in VALID_SCALES:
        monkeypatch.setenv("SOFT_SCALE", scale)
        shapes[scale] = _built_shape(get_test(key, scale=scale))
    assert shapes["small"] != shapes["paper"]
    for spec_scale in VALID_SCALES:
        spec = get_test(key, scale=spec_scale)
        for env_scale in VALID_SCALES:
            monkeypatch.setenv("SOFT_SCALE", env_scale)
            assert _built_shape(spec) == shapes[spec_scale], (spec_scale, env_scale)
        monkeypatch.delenv("SOFT_SCALE")
        assert _built_shape(spec) == shapes[spec_scale]


def test_cli_rejects_invalid_scale(monkeypatch, capsys):
    monkeypatch.setenv("SOFT_SCALE", "large")
    assert cli_main(["list-tests"]) == 2
    err = capsys.readouterr().err
    assert "SOFT_SCALE" in err and "small, paper" in err


def test_figure4_variants_have_increasing_message_counts():
    specs = [flow_mod_sequence_spec(n) for n in (1, 2, 3)]
    assert [s.message_count for s in specs] == [2, 3, 4]
    with pytest.raises(ValueError):
        flow_mod_sequence_spec(4)


def test_table5_variants_exist():
    for variant in TABLE5_VARIANTS:
        spec = concretization_spec(variant)
        assert spec.key == "table5_%s" % variant
    with pytest.raises(ValueError):
        concretization_spec("nonsense")


# ---------------------------------------------------------------------------
# Exploration and grouping
# ---------------------------------------------------------------------------

def test_concrete_test_has_exactly_one_path():
    report = explore_agent("reference", "concrete")
    assert report.path_count == 1
    assert report.outcomes[0].constraint_size == 0
    grouped = group_paths(report)
    assert grouped.distinct_output_count == 1


def test_stats_request_exploration_reference_vs_ovs():
    reference = explore_agent("reference", "stats_request")
    ovs = explore_agent("ovs", "stats_request")
    assert reference.path_count >= 7
    assert ovs.path_count >= reference.path_count
    assert all(outcome.ok for outcome in reference.outcomes + ovs.outcomes)
    # Every path condition is satisfiable by construction.
    from tests.oracles import solve

    for outcome in reference.outcomes:
        answer = solve(outcome.constraints)
        assert answer.is_sat
        assert all(evaluate_bool(constraint, answer.model)
                   for constraint in outcome.constraints)


def test_grouping_reduces_outputs_and_covers_all_paths():
    report = explore_agent("ovs", "stats_request")
    grouped = group_paths(report)
    assert grouped.distinct_output_count <= report.path_count
    assert grouped.total_paths == sum(1 for o in report.outcomes if o.ok)
    assert grouped.agent_name == "ovs"
    for group in grouped.groups:
        assert group.path_count == len(group.path_ids)


def test_balanced_or_equivalence():
    x = bvvar("x", 8)
    terms = [x == value for value in range(5)]
    combined = balanced_or(terms)
    for value in range(5):
        assert evaluate_bool(combined, {"x": value})
    assert not evaluate_bool(combined, {"x": 7})


def test_output_trace_helpers():
    empty = OutputTrace(items=())
    assert empty.is_empty and len(empty) == 0
    assert empty.describe() == "(no observable output)"
    trace = OutputTrace(items=(("crash", 0),))
    assert not trace.is_empty
    assert "crash" in trace.short()
    assert trace == OutputTrace(items=(("crash", 0),))
    assert hash(trace) == hash(OutputTrace(items=(("crash", 0),)))


# ---------------------------------------------------------------------------
# Crosschecking and concrete test cases
# ---------------------------------------------------------------------------

def test_crosscheck_finds_stats_inconsistencies():
    grouped_ref = group_paths(explore_agent("reference", "stats_request"))
    grouped_ovs = group_paths(explore_agent("ovs", "stats_request"))
    report = find_inconsistencies(grouped_ref, grouped_ovs)
    assert report.inconsistency_count >= 1
    assert report.queries <= (grouped_ref.distinct_output_count
                              * grouped_ovs.distinct_output_count)
    for inconsistency in report.inconsistencies:
        assert inconsistency.trace_a != inconsistency.trace_b
        assert inconsistency.example


def test_crosscheck_same_agent_finds_nothing():
    grouped_a = group_paths(explore_agent("reference", "stats_request"))
    grouped_b = group_paths(explore_agent("reference", "stats_request"))
    report = find_inconsistencies(grouped_a, grouped_b)
    assert report.inconsistency_count == 0


def test_crosscheck_rejects_mismatched_tests():
    from repro.errors import CrosscheckError

    grouped_a = group_paths(explore_agent("reference", "stats_request"))
    grouped_b = group_paths(explore_agent("ovs", "concrete"))
    with pytest.raises(CrosscheckError):
        find_inconsistencies(grouped_a, grouped_b)


def test_testcase_generation_and_replay_reproduces_divergence():
    grouped_ref = group_paths(explore_agent("reference", "stats_request"))
    grouped_ovs = group_paths(explore_agent("ovs", "stats_request"))
    report = find_inconsistencies(grouped_ref, grouped_ovs)
    assert report.inconsistencies
    inconsistency = report.inconsistencies[0]
    testcase = build_testcase("stats_request", inconsistency.example, inconsistency)
    assert testcase.inputs and testcase.inputs[0][0] == "control"
    assert testcase.inputs[0][1].is_concrete
    replay = replay_testcase(testcase, "reference", "ovs")
    assert replay.diverged


def _soft_run(test, agent_a, agent_b, **options):
    """The pipeline on one test and one pair: a one-pair campaign."""

    (report,) = Campaign(tests=[test], pairs=[(agent_a, agent_b)], **options).run().reports
    return report


def test_full_soft_run_on_set_config_matches_paper_zero_inconsistencies():
    report = _soft_run("set_config", "reference", "ovs")
    assert report.inconsistency_count == 0
    assert report.exploration_a.path_count >= 1
    assert report.crosscheck.identical_output_pairs >= 1


def test_full_soft_run_detects_set_config_mutation():
    report = _soft_run("set_config", "reference", "modified")
    assert report.inconsistency_count >= 1
    assert report.verified_inconsistency_count() >= 1


def test_full_soft_run_short_symb():
    report = _soft_run("short_symb", "reference", "ovs", replay_testcases=False)
    assert report.inconsistency_count >= 1
    # Without replay no test case is built and no witness kept.
    assert report.witnesses == []
    assert report.verified_inconsistency_count() == 0
    description = report.describe()
    assert "short_symb" in description


# ---------------------------------------------------------------------------
# Coverage tracker
# ---------------------------------------------------------------------------

def test_coverage_tracker_reports_nonzero_agent_coverage():
    report = explore_agent("reference", "stats_request", with_coverage=True)
    assert report.coverage is not None
    assert 0.0 < report.coverage.instruction_coverage < 1.0
    assert 0.0 <= report.coverage.branch_coverage <= 1.0
    assert report.coverage.executable_line_count > 100


def test_coverage_tracker_manual_use():
    tracker = CoverageTracker(packages=["repro.agents.common"])
    from repro.agents.common.ports import SwitchPortSet

    with tracker.tracking():
        SwitchPortSet(count=4).contains(2)
    report = tracker.report()
    assert report.executed_line_count > 0
    tracker.reset()
    assert tracker.report().executed_line_count == 0


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_oftest_baseline_passes_on_all_agents():
    for agent in ("reference", "ovs", "modified"):
        results = run_suite(agent)
        assert len(results) == len(default_suite())
        assert all(result.passed for result in results), \
            "the manual baseline suite only checks basic functionality"


def test_differential_fuzzer_runs_and_reports():
    fuzzer = DifferentialFuzzer("reference", "ovs", seed=7)
    report = fuzzer.run(iterations=30)
    assert report.iterations == 30
    assert 0 <= report.divergence_count <= 30
    for divergence in report.divergences:
        assert divergence.trace_a != divergence.trace_b


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list_commands(capsys):
    assert cli_main(["list-tests"]) == 0
    assert "packet_out" in capsys.readouterr().out
    assert cli_main(["list-agents"]) == 0
    assert "reference" in capsys.readouterr().out


def test_cli_explore_and_oftest(capsys):
    assert cli_main(["explore", "--agent", "reference", "--test", "concrete"]) == 0
    output = capsys.readouterr().out
    assert "paths explored" in output
    assert cli_main(["oftest", "--agent", "ovs"]) == 0
    assert "cases passed" in capsys.readouterr().out


def test_cli_rejects_removed_strategy_flag(capsys):
    # Phase 1 explores depth-first only; the frontier option is gone.
    for argv in (["explore", "--agent", "reference", "--test", "concrete"],
                 ["campaign", "--tests", "concrete", "--agents", "reference,ovs"],
                 ["triage", "--tests", "concrete", "--agents", "reference,ovs"]):
        with pytest.raises(SystemExit) as exited:
            cli_main(argv + ["--strategy", "dfs"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --strategy" in capsys.readouterr().err


def test_cli_run_set_config(capsys):
    assert cli_main(["run", "--test", "set_config", "--agent-a", "reference",
                     "--agent-b", "ovs"]) == 0
    assert "SOFT report" in capsys.readouterr().out


def _run_python(*args):
    """Run a fresh interpreter with this checkout's ``src`` on its path."""

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + list(args), capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def test_import_repro_loads_no_analysis_module():
    # The symbex-compat lint runs on demand (soft list-agents, soft lint),
    # so importing the package and registering its agents loads no analysis.
    proc = _run_python("-c", "import sys, repro; print(sorted(name for name in "
                             "sys.modules if name.startswith('repro.analysis')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_module_runs_without_runtime_warning():
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "repro.cli.main", "list-tests")
    assert proc.returncode == 0, proc.stderr
    assert "packet_out" in proc.stdout
