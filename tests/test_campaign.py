"""Tests of the Campaign API: cache, pair matrix, workers, reporting, CLI."""

import gc
import json

import pytest

import repro.core.campaign as campaign_module
from repro.cli.main import build_parser, main as cli_main
from repro.core.campaign import Campaign, ExplorationCache
from repro.core.soft import SoftReport
from repro.core.tests_catalog import TABLE1_TESTS, get_test
from repro.errors import CampaignError
from repro.symbex.compile import compile_term
from repro.symbex.expr import BVVar, bvvar, intern_table
from repro.symbex.simplify import simplify_bool


@pytest.fixture
def counting_explorer(monkeypatch):
    """Replace campaign-side explore_agent with a call-recording wrapper."""

    calls = []
    original = campaign_module.explore_agent

    def recorder(agent, spec, **kwargs):
        calls.append((agent if isinstance(agent, str) else "factory", spec.key))
        return original(agent, spec, **kwargs)

    monkeypatch.setattr(campaign_module, "explore_agent", recorder)
    return calls


# ---------------------------------------------------------------------------
# Exploration cache
# ---------------------------------------------------------------------------

def test_all_pairs_campaign_explores_each_agent_test_once(counting_explorer):
    report = (Campaign()
              .with_tests("set_config", "concrete")
              .with_agents("reference", "ovs", "modified")
              .run())
    # 3 agents x 2 tests = 6 explorations, NOT 2 per pair (12).
    assert sorted(counting_explorer) == sorted(
        (agent, test)
        for agent in ("reference", "ovs", "modified")
        for test in ("set_config", "concrete"))
    # All 3 pairs per test were still crosschecked.
    assert report.pair_count == 6
    assert report.explorations_run == 6
    # 12 retrievals over 6 entries: 6 explorations saved vs the per-pair API.
    assert report.cache_hits == 6
    assert {(r.agent_a, r.agent_b) for r in report.reports} == {
        ("reference", "ovs"), ("reference", "modified"), ("ovs", "modified")}


def test_campaign_workers_match_serial_results(counting_explorer):
    serial = Campaign(tests=["set_config"], agents=["reference", "ovs", "modified"]).run()
    threaded = (Campaign(tests=["set_config"], agents=["reference", "ovs", "modified"])
                .with_workers(4).run())
    assert len(counting_explorer) == 6  # 3 per campaign, cache is per-campaign
    assert serial.total_queries == threaded.total_queries
    assert serial.total_inconsistencies == threaded.total_inconsistencies
    for report in threaded.reports:
        twin = serial.report_for(report.test_key, report.agent_a, report.agent_b)
        assert twin is not None
        assert twin.inconsistency_count == report.inconsistency_count


def test_exploration_cache_direct_use():
    from repro.core.explorer import explore_agent

    cache = ExplorationCache()
    spec = get_test("concrete")
    assert not cache.contains("reference", spec)
    cache.seed(explore_agent("reference", spec), spec)
    assert cache.contains("reference", spec)
    entry = cache.get("reference", spec)
    assert entry.report.agent_name == "reference"
    assert cache.hits == 0  # first retrieval is not a saving
    cache.get("reference", spec)
    assert cache.hits == 1
    with pytest.raises(CampaignError):
        cache.get("ovs", spec)


# ---------------------------------------------------------------------------
# Configuration and validation
# ---------------------------------------------------------------------------

def test_campaign_tests_all_expands_to_catalog():
    campaign = Campaign().with_tests("all").with_agents("reference", "ovs")
    assert [spec.key for spec in campaign._resolve_tests()] == list(TABLE1_TESTS)


def test_campaign_explicit_pairs_override_all_pairs():
    report = (Campaign()
              .with_tests("concrete")
              .with_pairs(("reference", "ovs"), ("ovs", "modified"))
              .run())
    assert report.pair_count == 2
    assert {(r.agent_a, r.agent_b) for r in report.reports} == {
        ("reference", "ovs"), ("ovs", "modified")}


def test_campaign_explicit_pairs_skip_unpaired_agents(counting_explorer):
    (Campaign()
     .with_tests("concrete")
     .with_agents("reference", "ovs", "modified")
     .with_pairs(("reference", "ovs"))
     .run())
    # 'modified' appears in no pair, so it must not be explored at all.
    assert sorted(counting_explorer) == [("ovs", "concrete"), ("reference", "concrete")]


def test_campaign_validation_errors():
    with pytest.raises(CampaignError):
        Campaign(agents=["reference", "ovs"]).run()  # no tests
    with pytest.raises(CampaignError):
        Campaign(tests=["concrete"], agents=["reference"]).run()  # < 2 agents
    with pytest.raises(CampaignError):
        Campaign(executor="fork")
    with pytest.raises(CampaignError):
        Campaign().with_pairs(("reference",))  # malformed pair
    with pytest.raises(CampaignError):
        # Unknown agent without a seeded artifact.
        Campaign(tests=["concrete"], agents=["reference", "no_such_agent"]).run()


def test_soft_run_is_thin_campaign_wrapper(capsys):
    # `soft run` is a one-pair campaign and prints that pair's SoftReport.
    campaign_report = Campaign(tests=["concrete"], pairs=[("reference", "ovs")],
                               replay_testcases=False).run()
    (report,) = campaign_report.reports
    assert isinstance(report, SoftReport)
    assert (report.test_key, report.agent_a, report.agent_b) == ("concrete", "reference", "ovs")
    assert cli_main(["run", "--test", "concrete", "--agent-a", "reference",
                     "--agent-b", "ovs", "--no-replay"]) == 0
    assert ("solver queries: %d, inconsistencies: %d"
            % (report.crosscheck.queries, report.inconsistency_count)
            in capsys.readouterr().out)
    many = Campaign(tests=["concrete", "set_config"], pairs=[("reference", "ovs")],
                    replay_testcases=False).run()
    assert [pair.test_key for pair in many.reports] == ["concrete", "set_config"]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def test_campaign_report_json_and_summary_consistency():
    report = (Campaign()
              .with_tests("set_config")
              .with_agents("reference", "modified")
              .run())
    data = json.loads(report.to_json())
    assert data["format"] == "soft/campaign-report/v1"
    assert data["totals"]["inconsistencies"] == report.total_inconsistencies >= 1
    assert data["totals"]["solver_queries"] == report.total_queries
    assert data["totals"]["replay_verified"] == report.total_replay_verified
    row = data["pair_reports"][0]
    pair_report = report.reports[0]
    # JSON rows, the CLI table and describe() all come from summary_row().
    assert row["inconsistencies"] == pair_report.inconsistency_count
    assert row["solver_queries"] == pair_report.crosscheck.queries
    assert row["replay_verified"] == pair_report.verified_inconsistency_count()
    assert len(row["inconsistencies_detail"]) == row["inconsistencies"]
    described = report.describe()
    assert "set_config" in described and "reference vs modified" in described


def test_soft_report_summary_row_matches_describe():
    (report,) = Campaign(tests=["set_config"], pairs=[("reference", "ovs")],
                         replay_testcases=False).run().reports
    row = report.summary_row()
    assert row["solver_queries"] == report.crosscheck.queries
    assert row["replay_verified"] == report.verified_inconsistency_count()
    assert "solver queries: %d" % row["solver_queries"] in report.describe()


def test_campaign_process_executor_uses_actual_spec():
    from repro.core.tests_catalog import TestSpec, get_test

    # A customized (but picklable) spec must be explored as-is, never
    # silently swapped for its catalog namesake.
    base = get_test("stats_request")
    custom = TestSpec(key="stats_request", title=base.title,
                      description="customized", inputs=base.inputs,
                      message_count=base.message_count, scale=base.scale)
    report = Campaign(tests=[custom], agents=["reference", "ovs"],
                      workers=2, executor="process", replay_testcases=False).run()
    assert report.explorations_run == 2
    assert report.reports[0].inconsistency_count >= 1
    # Closure-built specs (the "concrete" catalog test) don't pickle and must
    # transparently fall back to the parent instead of failing.
    report = Campaign(tests=["concrete"], agents=["reference", "ovs"],
                      workers=2, executor="process").run()
    assert report.explorations_run == 2


def test_campaign_rerun_reports_per_run_cache_stats():
    campaign = Campaign(tests=["concrete"], agents=["reference", "ovs"])
    first = campaign.run()
    assert first.explorations_run == 2
    assert first.cache_hits == 0  # single pair: each entry retrieved once
    assert first.solver_stats["engines"] == 1
    # A report counts its own run's work; a second run is refused rather
    # than reconciled against the first.
    with pytest.raises(CampaignError, match="runs once"):
        campaign.run()
    # A rerun is a new campaign, whose cache stats are its own.
    second = Campaign(tests=["concrete"], agents=["reference", "ovs"]).run()
    assert second.explorations_run == 2
    assert second.cache_hits == 0


def _previous_generation_probe():
    """Fill both per-term memos for a term no later code will rebuild."""

    condition = bvvar("reset_generation_probe", 8) + 3 == 4
    simplify_bool(condition)
    compile_term(condition).run({"reset_generation_probe": 1})


def test_intern_reset_releases_the_previous_generation():
    _previous_generation_probe()
    intern_table().reset()
    # Per-term memos live on the nodes and go with them: a campaign run in the
    # new generation pins nothing of the old one.
    Campaign(tests=["concrete"], agents=["reference", "ovs"]).run()
    gc.collect()
    survivors = [obj for obj in gc.get_objects()
                 if isinstance(obj, BVVar) and obj.name == "reset_generation_probe"]
    assert survivors == []


def test_campaign_default_run_reports_intern_stats():
    report = Campaign(tests=["concrete"], agents=["reference", "ovs"]).run()
    stats = report.intern_stats
    assert stats["distinct_terms"] > 0 and stats["memory_bytes"] > 0
    assert "intern_stats" in report.to_dict()


def test_campaign_reports_unused_loaded_artifacts():
    from repro.core.explorer import explore_agent

    campaign = (Campaign()
                .with_tests("concrete")
                .with_pairs(("reference", "ovs")))
    campaign.add_artifact(explore_agent("modified", "concrete"))
    report = campaign.run()
    assert report.unused_loaded_agents == ["modified"]
    assert "matched no pair" in report.describe()
    assert json.loads(report.to_json())["unused_loaded_agents"] == ["modified"]


def test_campaign_report_for_is_order_insensitive():
    report = Campaign(tests=["concrete"], agents=["reference", "ovs"]).run()
    assert report.report_for("concrete", "ovs", "reference") is not None
    assert report.report_for("concrete", "reference", "modified") is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_campaign_argument_parsing():
    parser = build_parser()
    args = parser.parse_args([
        "campaign", "--tests", "all", "--agents", "reference,ovs,modified",
        "--workers", "4", "--json", "out.json"])
    assert args.command == "campaign"
    assert args.tests == "all"
    assert args.agents == "reference,ovs,modified"
    assert args.workers == 4
    assert args.json_out == "out.json"
    args = parser.parse_args(["campaign", "--pairs", "reference:ovs", "--executor", "process"])
    assert args.pairs == "reference:ovs"
    assert args.executor == "process"
    with pytest.raises(SystemExit):
        parser.parse_args(["campaign", "--executor", "bogus"])


def test_cli_campaign_runs_and_emits_json(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(["campaign", "--tests", "set_config,concrete",
                     "--agents", "reference,ovs", "--workers", "2",
                     "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "campaign: 2 test(s) x 2 agent(s)" in printed
    data = json.loads(out.read_text())
    assert {row["test"] for row in data["pair_reports"]} == {"set_config", "concrete"}
    for row in data["pair_reports"]:
        assert isinstance(row["inconsistencies"], int)


def test_cli_campaign_json_to_stdout(capsys):
    code = cli_main(["campaign", "--tests", "concrete", "--agents", "reference,ovs",
                     "--quiet", "--json", "-"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tests"] == ["concrete"]


def test_cli_campaign_rejects_bad_pairs(capsys):
    assert cli_main(["campaign", "--tests", "concrete", "--pairs", "reference"]) == 2
    assert "agentA:agentB" in capsys.readouterr().err


def test_cli_campaign_errors_cleanly_without_agents(capsys):
    assert cli_main(["campaign", "--tests", "concrete"]) == 2
    assert "at least two agents" in capsys.readouterr().err
