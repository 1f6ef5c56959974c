"""Tests for the static agent-analysis subsystem (decision maps + lints).

Covers the three analysis passes (decision maps, symbex-compatibility lint,
concurrency lint), the suppression protocol, registry validation, the
``soft lint`` CLI verb, the coverage-fraction denominator, and the
mined-constants fuzzer pool.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    RULE_NAMES,
    branch_sites_for_file,
    build_decision_map,
    decision_map_for_agent,
    lint_class,
    lint_source,
    mine_constants_from,
    run_lint,
)
from repro.analysis.findings import apply_suppressions, suppressions_in_source
from repro.cli.main import main as cli_main
from repro.core.artifacts import save_exploration_artifact
from repro.core.campaign import Campaign
from repro.core.explorer import explore_agent
from repro.errors import AgentRegistrationError

AGENTS = ("reference", "modified", "ovs")

OFPP_CONTROLLER = 0xFFFD


# ---------------------------------------------------------------------------
# Decision maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("agent", AGENTS)
def test_decision_map_extracts_sites_and_dispatch_arms(agent):
    dmap = decision_map_for_agent(agent)
    assert dmap.site_count > 0
    assert dmap.files(), "decision map should cover at least one source file"
    # Every agent dispatches on OFPT_* message types somewhere.
    assert any(arm.constant.startswith("OFPT_") for arm in dmap.dispatch_arms)
    # Mined constants include the values the agents actually compare against.
    assert dmap.interesting_values(), "no constants mined from comparisons"


def test_decision_map_mines_rare_planted_constant():
    # The PR-6 planted bug branches on OFPP_CONTROLLER (0xfffd) — a value a
    # uniform 16-bit fuzzer hits with probability 2**-16.  The miner must
    # surface it so the fuzzer pool can draw it directly.
    dmap = decision_map_for_agent("modified")
    assert OFPP_CONTROLLER in dmap.interesting_values()


def test_decision_map_uncovered_and_roundtrip():
    dmap = decision_map_for_agent("reference")
    everything = dmap.uncovered({})
    assert len(everything) == dmap.site_count
    fully_executed = {}
    for path, line in dmap.site_keys():
        fully_executed.setdefault(path, set()).add(line)
    assert dmap.uncovered(fully_executed) == set()
    doc = dmap.to_dict()
    assert doc["format"] == "soft/decision-map/v1"
    assert doc["site_count"] == dmap.site_count


@pytest.mark.parametrize("agent", AGENTS)
def test_static_sites_superset_of_dynamic_branch_points(agent):
    """Dynamic exercise never executes a branch the decision map missed."""

    from repro.baselines.oftest import run_suite
    from repro.coverage.tracker import CoverageTracker

    packages = ["repro.agents.common", "repro.agents.%s" % agent]
    dmap = build_decision_map(packages)
    static_lines_by_file = {}
    for path, line in dmap.site_keys():
        static_lines_by_file.setdefault(path, set()).add(line)

    tracker = CoverageTracker(packages=packages)
    with tracker.tracking():
        run_suite(agent)

    executed_any = False
    for path, lines in tracker.executed.items():
        static_lines = static_lines_by_file.get(path, set())
        dynamic_branches = {
            line for line in lines
            if line in {site.line for site in branch_sites_for_file(path)}
        }
        executed_any = executed_any or bool(dynamic_branches)
        assert dynamic_branches <= static_lines, \
            "dynamic branch lines missing from decision map in %s" % path
    assert executed_any, "the suite should execute at least one branch"

    report = tracker.report()
    assert report.executed_branch_point_count <= report.branch_point_count
    assert 0 < report.coverage_fraction <= 1
    # The denominator is the static decision-site count for this agent's
    # packages, shared between tracker and decision map by construction.
    assert report.branch_point_count == dmap.site_count


def test_explore_agent_coverage_fraction_bounds():
    report = explore_agent("reference", "packet_out", with_coverage=True)
    coverage = report.coverage
    assert coverage is not None
    assert 0 < coverage.coverage_fraction <= 1


def test_coverage_fraction_survives_report_roundtrip():
    report = explore_agent("reference", "set_config", with_coverage=True)
    coverage = report.coverage
    data = coverage.as_dict()
    assert "coverage_fraction" in data and "executed_branch_points" in data
    restored = type(coverage).from_dict(data)
    assert restored.executed_branch_point_count == coverage.executed_branch_point_count
    assert restored.coverage_fraction == pytest.approx(coverage.coverage_fraction)


def test_campaign_report_exposes_coverage_fraction(tmp_path):
    # Artifacts saved with coverage (soft explore --coverage) feed the
    # campaign-wide coverage aggregate.
    campaign = Campaign(replay_testcases=False)
    for agent in ("reference", "ovs"):
        path = str(tmp_path / ("%s.json" % agent))
        save_exploration_artifact(
            explore_agent(agent, "set_config", with_coverage=True), path)
        campaign.load_artifact(path)
    report = campaign.run()
    assert report.explorations_run == 0
    assert report.coverage is not None
    fraction = report.coverage_fraction
    assert fraction is not None
    assert 0 < fraction <= 1
    assert report.to_dict()["coverage"]["coverage_fraction"] == pytest.approx(fraction)
    assert "coverage_fraction=" in report.describe()


def test_mine_constants_from_handler():
    from repro.agents.reference.agent import ReferenceSwitch

    values = mine_constants_from(ReferenceSwitch._packet_out_output)
    assert OFPP_CONTROLLER in values

    # Builtins have no retrievable source: empty, not an exception.
    assert mine_constants_from(len) == []


# ---------------------------------------------------------------------------
# Symbex-compatibility lint
# ---------------------------------------------------------------------------

def _lint(source, path="src/repro/agents/fake.py", rules=None):
    return lint_source(textwrap.dedent(source), path, rules=rules)


def test_symbex_lint_flags_nondeterministic_calls():
    findings = _lint("""
        import random, time

        def handler(self, buf):
            if random.random() < 0.5:
                return time.time()
    """)
    rules = {f.rule for f in findings}
    assert "symbex-compat" in rules
    messages = " ".join(f.message for f in findings)
    assert "random" in messages and "time" in messages


def test_symbex_lint_flags_io_and_unordered_iteration():
    findings = _lint("""
        def handler(self, buf):
            print(buf)
            for port in set(self.ports):
                pass
            while hash(buf) & 1:
                break
    """)
    messages = [f.message for f in findings if f.rule == "symbex-compat"]
    assert any("print" in m for m in messages)
    assert any("unordered" in m for m in messages)
    assert any("hash" in m for m in messages)


def test_symbex_lint_only_applies_under_agents_tree(tmp_path):
    source = textwrap.dedent("""
        import random

        def helper():
            if random.random() < 0.5:
                return 1
    """)
    agents_dir = tmp_path / "repro" / "agents"
    agents_dir.mkdir(parents=True)
    (agents_dir / "x.py").write_text(source)
    core_dir = tmp_path / "repro" / "core"
    core_dir.mkdir(parents=True)
    (core_dir / "x.py").write_text(source)

    report = run_lint([str(tmp_path)])
    by_path = {}
    for finding in report.findings:
        by_path.setdefault(finding.path, []).append(finding.rule)
    assert "symbex-compat" in by_path[str(agents_dir / "x.py")]
    assert str(core_dir / "x.py") not in by_path


def test_lint_class_on_clean_agents():
    from repro.agents import make_agent

    for agent in AGENTS:
        cls = type(make_agent(agent))
        assert lint_class(cls) == [], "agent %r should be symbex-clean" % agent


# ---------------------------------------------------------------------------
# Concurrency lint
# ---------------------------------------------------------------------------

def test_concurrency_lint_flags_unlocked_public_mutation():
    findings = _lint("""
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put(self, key, value):
                self._data[key] = value

            def get(self, key):
                with self._lock:
                    return self._data.get(key)

            def _helper(self):
                self._data.clear()
    """, path="src/repro/core/fake.py")
    concurrency = [f for f in findings if f.rule == "unlocked-shared-state"]
    assert len(concurrency) == 1
    assert concurrency[0].message.startswith("assignment to shared attribute")


def test_concurrency_lint_accepts_locked_and_self_calls():
    findings = _lint("""
        import threading

        class Index:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def add_all(self, items):
                for item in items:
                    self.add(item)
    """, path="src/repro/core/fake.py")
    assert not [f for f in findings if f.rule == "unlocked-shared-state"]


def test_concurrency_lint_thread_safety_claim_without_lock():
    findings = _lint("""
        class Table:
            '''A thread-safe table (allegedly).'''

            def put(self, key, value):
                self.data[key] = value
    """, path="src/repro/core/fake.py")
    concurrency = [f for f in findings if f.rule == "unlocked-shared-state"]
    assert len(concurrency) == 1
    assert "claiming thread-safety" in concurrency[0].message


# ---------------------------------------------------------------------------
# Broad-except lint + suppression protocol
# ---------------------------------------------------------------------------

def test_broad_except_flagged_and_typed_excepts_pass():
    findings = _lint("""
        def f():
            try:
                g()
            except Exception:
                pass
            try:
                g()
            except (ValueError, KeyError):
                pass
            try:
                g()
            except:
                pass
    """, path="src/repro/core/fake.py")
    broad = [f for f in findings if f.rule == "broad-except"]
    assert len(broad) == 2


def test_suppression_requires_reason():
    no_reason = _lint("""
        def f():
            try:
                g()
            except Exception:  # soft-lint: disable=broad-except
                pass
    """, path="src/repro/core/fake.py")
    assert [f for f in no_reason if not f.suppressed], \
        "a reason-less disable comment must not suppress"

    with_reason = _lint("""
        def f():
            try:
                g()
            except Exception:  # soft-lint: disable=broad-except -- g is third-party
                pass
    """, path="src/repro/core/fake.py")
    broad = [f for f in with_reason if f.rule == "broad-except"]
    assert broad and all(f.suppressed for f in broad)
    assert broad[0].suppress_reason == "g is third-party"


def test_suppression_preceding_line_and_disable_all():
    findings = _lint("""
        def f():
            try:
                g()
            # soft-lint: disable=all -- legacy shim, scheduled for removal
            except Exception:
                pass
    """, path="src/repro/core/fake.py")
    broad = [f for f in findings if f.rule == "broad-except"]
    assert broad and all(f.suppressed for f in broad)


def test_suppressions_in_source_parsing():
    source = ("x = 1  # soft-lint: disable=broad-except,symbex-compat -- why not\n"
              "y = 2  # soft-lint: disable=broad-except\n")
    table = suppressions_in_source(source)
    assert 1 in table and table[1][0] == {"broad-except", "symbex-compat"}
    assert 2 not in table  # reason-less comment dropped

    from repro.analysis.findings import Finding

    finding = Finding(rule="broad-except", path="p", line=1, message="m")
    (suppressed,) = apply_suppressions([finding], source)
    assert suppressed.suppressed and suppressed.suppress_reason == "why not"


def test_lint_source_rejects_unknown_rule_and_reports_syntax_errors():
    with pytest.raises(ValueError):
        lint_source("x = 1", "p.py", rules=["no-such-rule"])
    findings = lint_source("def broken(:\n", "p.py")
    assert findings and findings[0].rule == "parse-error"


# ---------------------------------------------------------------------------
# Registry validation + strict symbex gate
# ---------------------------------------------------------------------------

def _cleanup(name):
    from repro.agents import registry

    registry.AGENT_REGISTRY.pop(name, None)
    registry._INFO.pop(name, None)


def test_register_agent_validates_metadata():
    from repro.agents import registry

    class NoHandler:
        """Has a description but no handler."""

    with pytest.raises(AgentRegistrationError):
        registry.register_agent("bad_stub")(NoHandler)

    class NoDescription:
        def handle_control_buffer(self, buf):
            return []

    try:
        with pytest.raises(AgentRegistrationError):
            registry.register_agent("bad_stub")(NoDescription)
        # validate=False keeps the permissive path for scaffolding.
        registry.register_agent("bad_stub", validate=False)(NoDescription)
        assert "bad_stub" in registry.AGENT_REGISTRY
    finally:
        _cleanup("bad_stub")


def test_register_agent_rejects_duplicates_unless_replace():
    from repro.agents import registry

    class StubA:
        """First registration."""

        def handle_control_buffer(self, buf):
            return []

    class StubB:
        """Second registration."""

        def handle_control_buffer(self, buf):
            return []

    try:
        registry.register_agent("dup_stub")(StubA)
        with pytest.raises(AgentRegistrationError):
            registry.register_agent("dup_stub")(StubB)
        registry.register_agent("dup_stub", replace=True)(StubB)
        assert registry.AGENT_REGISTRY["dup_stub"] is StubB
    finally:
        _cleanup("dup_stub")


def test_list_agents_reports_nondeterministic_handler(capsys):
    from repro.agents import registry
    from repro.analysis.lint import lint_class
    from repro.cli.main import main as cli_main

    class RandomAgent:
        """Branches on random.random(): unmodelable by the symbex engine."""

        def handle_control_buffer(self, buf):
            import random

            if random.random() < 0.5:
                return [b"heads"]
            return [b"tails"]

    findings = [f for f in lint_class(RandomAgent) if not f.suppressed]
    assert any("random" in finding.message for finding in findings)
    try:
        # Registration does not lint; soft list-agents does, on demand.
        registry.register_agent("rng_stub")(RandomAgent)
        assert registry.AGENT_REGISTRY["rng_stub"] is RandomAgent
        assert cli_main(["list-agents"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("rng_stub "))
        reported = [line for line in lines[start + 1:]
                    if line.startswith(" ") and "symbex-compat:" in line]
        assert any("random" in line for line in reported)
    finally:
        _cleanup("rng_stub")


def test_real_agents_register_without_lint_findings():
    from repro.agents import agent_registry
    from repro.analysis.lint import lint_class

    for name, info in agent_registry().items():
        findings = [f for f in lint_class(info.factory) if not f.suppressed]
        assert findings == [], "agent %r carries symbex-compat findings" % name


# ---------------------------------------------------------------------------
# run_lint + CLI verb
# ---------------------------------------------------------------------------

def test_run_lint_on_real_sources_is_clean():
    import repro
    import os

    report = run_lint([os.path.dirname(os.path.abspath(repro.__file__))])
    assert report.rules == list(RULE_NAMES) or tuple(report.rules) == RULE_NAMES
    assert report.files_scanned > 50
    assert report.ok, "unsuppressed findings in src/repro:\n%s" % "\n".join(
        "%s:%d: %s" % (f.path, f.line, f.message) for f in report.unsuppressed())


def test_cli_lint_clean_and_dirty(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f():\n    return 1\n")
    assert cli_main(["lint", "--path", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f():\n    try:\n        g()\n"
                     "    except Exception:\n        pass\n")
    out_json = tmp_path / "lint.json"
    assert cli_main(["lint", "--path", str(dirty),
                     "--json", str(out_json)]) == 1
    data = json.loads(out_json.read_text())
    assert data["format"] == "soft/lint-report/v1"
    assert data["unsuppressed_count"] == 1
    assert data["findings"][0]["rule"] == "broad-except"

    assert cli_main(["lint", "--path", str(clean), "--rules", "bogus"]) == 2


# ---------------------------------------------------------------------------
# Mined-constants fuzzer pool
# ---------------------------------------------------------------------------

def test_fuzzer_pool_preserves_rng_sequence_when_empty():
    from repro.baselines.fuzzer import DifferentialFuzzer

    plain = DifferentialFuzzer("reference", "ovs", seed=7)
    pooled = DifferentialFuzzer("reference", "ovs", seed=7, interesting_values=[])
    report_a = plain.run(iterations=25)
    report_b = pooled.run(iterations=25)
    assert report_a.divergence_count == report_b.divergence_count
    assert ([d.description for d in report_a.divergences]
            == [d.description for d in report_b.divergences])


def test_fuzzer_pool_draws_mined_constants():
    from repro.baselines.fuzzer import DifferentialFuzzer

    pool = decision_map_for_agent("modified").interesting_values()
    fuzzer = DifferentialFuzzer("reference", "modified", seed=1,
                                interesting_values=pool, interesting_prob=1.0)
    seen = {fuzzer._field(16) for _ in range(64)}
    allowed = {value & 0xFFFF for value in pool}
    assert seen <= allowed
    assert OFPP_CONTROLLER in allowed


# ---------------------------------------------------------------------------
# compare_bench tolerance (a baseline metric absent from a fresh run skips)
# ---------------------------------------------------------------------------

def test_compare_bench_tolerates_metric_absent_from_current_run(tmp_path, capsys):
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "compare_bench",
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "compare_bench.py"))
    compare_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_bench)

    baseline_dir = tmp_path / "baseline"
    current_dir = tmp_path / "current"
    baseline_dir.mkdir()
    current_dir.mkdir()
    (baseline_dir / "BENCH_solver.json").write_text(json.dumps({
        "sat_core": {"decisions_per_sec": 1000.0,
                     "propagations_per_sec": 5000.0},
        "intern": {"hit_rate": 0.9},
        "end_to_end": {"speedup": 2.0},
    }))
    # Fresh run emits sat_core but the intern/end_to_end keys were retired.
    (current_dir / "BENCH_solver.json").write_text(json.dumps({
        "sat_core": {"decisions_per_sec": 1100.0,
                     "propagations_per_sec": 5100.0},
    }))

    rc = compare_bench.main([str(baseline_dir), str(current_dir)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "skipped (absent from current run)" in out
    assert "MISSING" not in out

    # A genuine regression still fails.
    (current_dir / "BENCH_solver.json").write_text(json.dumps({
        "sat_core": {"decisions_per_sec": 100.0,
                     "propagations_per_sec": 5100.0},
    }))
    rc = compare_bench.main([str(baseline_dir), str(current_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSED" in out
