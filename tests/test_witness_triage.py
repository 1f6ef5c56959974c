"""Witness triage subsystem: diffs, minimization, clustering, corpus replay.

The integration tests run one small campaign (reference vs modified on the
cheap seed tests) through the default triage pipeline and assert the paper's
§3.5 properties: every inconsistency is replay-confirmed, duplicates collapse
into clusters, minimized witnesses are strictly smaller, and the persisted
corpus replays without a single solver query.
"""

import json
import pickle

import pytest

from repro.agents.common.base import AgentConfig, OpenFlowAgent
from repro.agents.registry import make_agent
from repro.cli.main import main as cli_main
from repro.core.artifacts import load_witness_bundle, save_witness_bundle
from repro.core.campaign import Campaign
from repro.core.corpus import WitnessCorpus
from repro.core.testcase import build_testcase, replay_testcase
from repro.core.tests_catalog import get_test
from repro.core.trace import OutputTrace, event_kind
from repro.core.witness import (
    DivergenceSignature,
    TriageIndex,
    Witness,
    minimize_witness,
)
from repro.errors import WitnessError
from repro.harness.inputs import ProbeInput
from repro.symbex.solver.backend import CDCLBackend
from repro.symbex.solver.incremental import GroupEncoding
from repro.wire.buffer import SymBuffer


# ---------------------------------------------------------------------------
# Trace diffs and event kinds
# ---------------------------------------------------------------------------

def test_diff_identical_traces():
    trace = OutputTrace(items=(("ctrl_msg", 0, ("BARRIER_REPLY",)),))
    diff = trace.diff(OutputTrace(items=trace.items))
    assert not diff.diverged
    assert diff.index == -1
    assert "identical" in diff.describe()


def test_diff_first_divergence_and_kinds():
    a = OutputTrace(items=(
        ("ctrl_msg", 0, ("BARRIER_REPLY",)),
        ("dp_out", 1, "1", "flow{...}", 60),
    ))
    b = OutputTrace(items=(
        ("ctrl_msg", 0, ("BARRIER_REPLY",)),
        ("ctrl_msg", 1, ("ERROR", "2", "4")),
    ))
    diff = a.diff(b)
    assert diff.diverged and diff.index == 1
    assert diff.kind_a == ("dp_out",)
    assert diff.kind_b == ("ctrl_msg", "ERROR", "2", "4")


def test_diff_prefix_trace_reports_end():
    a = OutputTrace(items=(("crash", 0),))
    b = OutputTrace(items=(("crash", 0), ("dp_out", 1, "2", "x", 3)))
    diff = a.diff(b)
    assert diff.index == 1
    assert diff.kind_a is None
    assert diff.kind_b == ("dp_out",)
    # Symmetric case.
    diff = b.diff(a)
    assert diff.kind_a == ("dp_out",) and diff.kind_b is None


def test_event_kind_drops_volatile_fields():
    # Input indices, ports and payload lengths never reach the kind.
    assert event_kind(("dp_out", 3, "17", "flow{...}", 1500)) == ("dp_out",)
    assert event_kind(("crash", 2)) == ("crash",)
    assert event_kind(("ctrl_msg", 1, ("PACKET_IN", "1", "0", "buffered", 128))) \
        == ("ctrl_msg", "PACKET_IN")
    # Error type/code distinguish root causes and are kept.
    assert event_kind(("ctrl_msg", 0, ("ERROR", "3", "4"))) \
        == ("ctrl_msg", "ERROR", "3", "4")
    assert event_kind(None) is None


def test_signature_round_trip_and_matching():
    signature = DivergenceSignature(
        test_key="flow_mod", agent_a="reference", agent_b="modified",
        index=0, kind_a=("dp_out",), kind_b=("ctrl_msg", "ERROR", "2", "4"))
    rebuilt = DivergenceSignature.from_obj(
        json.loads(json.dumps(signature.to_obj())))
    assert rebuilt == signature
    assert rebuilt.key() == signature.key()
    with pytest.raises(WitnessError):
        DivergenceSignature.from_obj({"test": "x"})


# ---------------------------------------------------------------------------
# Testcase materialization: unbound recording, factories, error paths
# ---------------------------------------------------------------------------

def test_build_testcase_records_unbound_variables():
    spec = get_test("short_symb")
    partial = {"ss.type": 0x12, "ss.length": 10}
    testcase = build_testcase(spec, partial)
    assert "ss.xid" in testcase.unbound_variables
    assert "ss.body0" in testcase.unbound_variables
    assert "ss.type" not in testcase.unbound_variables
    assert "unbound" in testcase.describe()
    # A fully bound assignment records nothing.
    full = dict(partial, **{"ss.xid": 1, "ss.body0": 2, "ss.body1": 3})
    assert build_testcase(spec, full).unbound_variables == []


def test_probe_port_concretization_and_unbound_recording():
    from repro.core.tests_catalog import TestSpec

    def symbolic_probe(state):
        port = state.new_symbol("probe.port", 16)
        frame = SymBuffer(b"\x01\x02\x03\x04")
        return port, frame

    spec = TestSpec(key="probe_port_test", title="probe", description="probe",
                    inputs=[ProbeInput("symbolic_probe", symbolic_probe)],
                    message_count=1)
    bound = build_testcase(spec, {"probe.port": 7})
    kind, (port, frame) = bound.inputs[0]
    assert kind == "probe" and port == 7
    assert bound.unbound_variables == []
    # Missing binding: port falls back to zero and the name is recorded.
    unbound = build_testcase(spec, {})
    _, (port, _) = unbound.inputs[0]
    assert port == 0
    assert unbound.unbound_variables == ["probe.port"]


def test_replay_outcome_surfaces_unbound_variables():
    spec = get_test("short_symb")
    testcase = build_testcase(spec, {"ss.type": 0x00})
    outcome = replay_testcase(testcase, "reference", "reference")
    assert not outcome.diverged
    assert "unbound variables zero-filled" in outcome.describe()
    assert "ss.length" in outcome.describe()


def test_replay_accepts_agent_factory_and_options():
    spec = get_test("concrete")
    testcase = build_testcase(spec, {})

    seen = []

    def factory(name: str) -> OpenFlowAgent:
        seen.append(name)
        return make_agent(name)

    outcome = replay_testcase(testcase, "reference", "ovs", agent_factory=factory)
    assert seen == ["reference", "ovs"]
    assert outcome.run_a.agent_name == "reference"

    # The factory decides how agents are configured: a three-table switch
    # reports n_tables=3 in its FEATURES_REPLY, which is observable.
    small = AgentConfig(n_tables=3)
    outcome = replay_testcase(testcase, "reference", "reference",
                              agent_factory=lambda name: make_agent(name, config=small))
    features_a = [item for item in outcome.run_a.trace
                  if item[2][0] == "FEATURES_REPLY"]
    assert features_a and features_a[0][2][1] == 3
    # Both sides get the same configuration, so the traces agree.
    assert not outcome.diverged


# ---------------------------------------------------------------------------
# The campaign triage pipeline on the seed catalog
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def triaged_campaign(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("witness_corpus")
    report = (Campaign(corpus_dir=str(corpus_dir))
              .with_tests("set_config", "flow_mod")
              .with_agents("reference", "modified")
              .run())
    return report, str(corpus_dir)


def test_triage_confirms_and_clusters_every_inconsistency(triaged_campaign):
    report, _ = triaged_campaign
    triage = report.triage
    assert triage is not None
    assert report.total_inconsistencies > 0
    # Every raw inconsistency became a replay-confirmed, clustered witness.
    assert triage.raw_witnesses == report.total_inconsistencies
    assert triage.confirmed_witnesses == triage.raw_witnesses
    assert triage.unconfirmed_witnesses == 0
    assert sum(cluster.size for cluster in triage.clusters) == triage.raw_witnesses
    # Deduplication collapses duplicates: at least one cluster merged >= 2.
    assert triage.merged_cluster_count >= 1
    assert triage.cluster_count < triage.raw_witnesses
    assert triage.dedup_ratio > 1.0


def test_minimized_witnesses_are_strictly_smaller(triaged_campaign):
    report, _ = triaged_campaign
    witnesses = [w for sr in report.reports for w in sr.witnesses]
    assert witnesses
    for witness in witnesses:
        stats = witness.minimization
        assert stats is not None
        assert witness.confirmed  # divergence preserved through minimization
        assert stats.reduced, "minimization did not shrink %s" % witness.signature.short()
        assert stats.minimized_variables == witness.variable_count
        assert stats.minimized_inputs == witness.input_count
        assert 0.0 < stats.shrink_ratio <= 1.0
        # Dropped variables are zero-filled and surfaced, not hidden.
        for name in stats.dropped_variables:
            assert name not in witness.assignment
            assert name in witness.testcase.unbound_variables


def test_triage_in_campaign_report_dict(triaged_campaign):
    report, _ = triaged_campaign
    data = json.loads(report.to_json())
    triage = data["triage"]
    assert triage["raw_witnesses"] == report.total_inconsistencies
    assert triage["merged_clusters"] >= 1
    assert triage["cluster_rows"]
    assert data["corpus"]["saved"] == report.corpus_saved
    assert "triage:" in report.describe()


def test_corpus_dir_without_replay_is_rejected(tmp_path):
    from repro.errors import CampaignError

    campaign = (Campaign(replay_testcases=False, corpus_dir=str(tmp_path / "c"))
                .with_tests("set_config")
                .with_agents("reference", "modified"))
    with pytest.raises(CampaignError, match="requires replay"):
        campaign.run()


def test_triage_skips_unreplayable_artifact_pairs():
    # An artifact whose agent is not registered cannot be replayed; triage
    # must skip the pair, record it, and not crash the campaign.
    from repro.core.explorer import explore_agent

    artifact = explore_agent("modified", "set_config").to_dict()
    artifact["agent"] = "vendor_x"
    report = (Campaign()
              .with_agents("reference")
              .add_artifact(artifact)
              .run())
    assert report.total_inconsistencies > 0
    triage = report.triage
    assert triage.raw_witnesses == 0
    assert triage.skipped_pairs == [
        ("set_config", "reference", "vendor_x", "agent(s) not replayable")]
    assert "skipped" in triage.describe()
    # The skip reason distinguishes a disabled replay from an unreplayable agent.
    report = (Campaign(replay_testcases=False)
              .with_tests("set_config")
              .with_agents("reference", "modified")
              .run())
    assert report.triage.skipped_pairs == [
        ("set_config", "reference", "modified", "replay disabled")]


def test_crashed_agent_replay_is_a_witness():
    report = (Campaign()
              .with_tests("packet_out")
              .with_agents("reference", "modified")
              .run())
    witnesses = [w for sr in report.reports for w in sr.witnesses]
    crashed = [w for w in witnesses
               if w.replay.run_a.crashed or w.replay.run_b.crashed]
    assert crashed, "expected at least one crash-divergence witness on packet_out"
    for witness in crashed:
        assert witness.confirmed
        run = (witness.replay.run_a if witness.replay.run_a.crashed
               else witness.replay.run_b)
        # The crash is an observable trace event and survives bundling.
        assert any(item[0] == "crash" for item in run.trace)
        assert run.inputs_consumed <= len(witness.testcase.inputs)
        rebuilt = Witness.from_dict(witness.to_dict())
        assert rebuilt.replay.run_a.crashed == witness.replay.run_a.crashed


# ---------------------------------------------------------------------------
# Minimization oracle details
# ---------------------------------------------------------------------------

def test_minimize_respects_replay_budget(triaged_campaign):
    report, _ = triaged_campaign
    soft_report = next(sr for sr in report.reports if sr.witnesses)
    witness = soft_report.witnesses[0]
    spec = get_test(witness.test_key)

    calls = []

    def replayer(candidate):
        calls.append(candidate)
        return replay_testcase(candidate, witness.agent_a, witness.agent_b)

    # Rebuild an unminimized witness and minimize with a tiny budget.
    from repro.core.witness import build_witness

    raw = build_witness(spec, witness.testcase.inconsistency,
                        build_testcase(spec, witness.solver_model),
                        replay_testcase(build_testcase(spec, witness.solver_model),
                                        witness.agent_a, witness.agent_b))
    minimized = minimize_witness(raw, spec, replayer, max_replays=3)
    assert len(calls) <= 3
    assert minimized.minimization.replays <= 3
    assert minimized.confirmed


def test_minimize_returns_unconfirmed_witness_unchanged():
    spec = get_test("short_symb")
    testcase = build_testcase(spec, {})
    replay = replay_testcase(testcase, "reference", "reference")
    signature = DivergenceSignature.from_diff(
        spec.key, "reference", "reference", replay.diff())
    witness = Witness(test_key=spec.key, scale=spec.scale,
                      agent_a="reference", agent_b="reference",
                      assignment={}, testcase=testcase, replay=replay,
                      signature=signature)
    assert not witness.confirmed
    assert minimize_witness(witness, spec, lambda tc: replay) is witness


# ---------------------------------------------------------------------------
# Clustering index
# ---------------------------------------------------------------------------

def test_triage_index_clusters_by_signature(triaged_campaign):
    report, _ = triaged_campaign
    witnesses = [w for sr in report.reports for w in sr.witnesses]
    index = TriageIndex()
    index.add_all(witnesses)
    clustered = index.report()
    assert clustered.raw_witnesses == len(witnesses)
    assert clustered.cluster_count == report.triage.cluster_count
    # The representative is the smallest witness of its cluster.
    for cluster in clustered.clusters:
        best = min(cluster.witnesses, key=lambda w: w.size_key())
        assert cluster.representative.size_key() == best.size_key()


# ---------------------------------------------------------------------------
# Witness bundles and the persistent corpus
# ---------------------------------------------------------------------------

def test_witness_bundle_json_and_pickle_round_trip(triaged_campaign, tmp_path):
    report, _ = triaged_campaign
    witness = report.triage.clusters[0].representative
    path = tmp_path / "bundle.witness.json"
    save_witness_bundle(witness, str(path))
    rebuilt = load_witness_bundle(str(path))
    assert rebuilt.signature == witness.signature
    assert rebuilt.assignment == witness.assignment
    assert rebuilt.solver_model == witness.solver_model
    assert rebuilt.replay.run_a.trace == witness.replay.run_a.trace
    assert rebuilt.replay.run_b.trace == witness.replay.run_b.trace
    assert rebuilt.testcase.unbound_variables == witness.testcase.unbound_variables
    assert [kind for kind, _ in rebuilt.testcase.inputs] \
        == [kind for kind, _ in witness.testcase.inputs]
    assert rebuilt.minimization.shrink_ratio == witness.minimization.shrink_ratio
    # Conditions round-trip to pointer-identical interned terms.
    assert rebuilt.condition is witness.condition

    pickled = pickle.loads(pickle.dumps(witness))
    assert pickled.signature == witness.signature
    assert pickled.replay.diverged == witness.replay.diverged

    with pytest.raises(WitnessError):
        Witness.from_dict({"format": "nope"})


def test_corpus_replays_without_solver(triaged_campaign, monkeypatch):
    report, corpus_dir = triaged_campaign
    corpus = WitnessCorpus(corpus_dir, create=False)
    assert len(corpus) == report.triage.cluster_count
    assert report.corpus_saved == len(corpus)

    def poisoned(*args, **kwargs):
        raise AssertionError("solver used during corpus replay")

    monkeypatch.setattr(CDCLBackend, "check_sat", poisoned)
    monkeypatch.setattr(GroupEncoding, "check_pair", poisoned)
    monkeypatch.setattr(GroupEncoding, "check_row", poisoned)
    run = corpus.run()
    assert run.ok
    assert run.replayed == len(corpus)
    assert run.count("confirmed") == run.replayed
    assert run.to_dict()["solver_queries"] == 0
    assert run.witnesses_per_sec > 0


def test_corpus_add_is_deduplicating(triaged_campaign, tmp_path):
    report, _ = triaged_campaign
    corpus = WitnessCorpus(str(tmp_path / "c"))
    witness = report.triage.clusters[0].representative
    _, added_first = corpus.add(witness)
    _, added_again = corpus.add(witness)
    assert added_first and not added_again
    assert len(corpus) == 1


def test_corpus_detects_stale_witness(tmp_path):
    # A "witness" pairing an agent with itself can never replay-diverge: the
    # corpus run must flag it stale and fail, both via the API and the CLI.
    spec = get_test("concrete")
    testcase = build_testcase(spec, {})
    replay = replay_testcase(testcase, "reference", "reference")
    witness = Witness(
        test_key=spec.key, scale=spec.scale,
        agent_a="reference", agent_b="reference",
        assignment={}, testcase=testcase, replay=replay,
        signature=DivergenceSignature(
            test_key=spec.key, agent_a="reference", agent_b="reference",
            index=0, kind_a=("crash",), kind_b=None),
    )
    corpus_dir = str(tmp_path / "stale")
    corpus = WitnessCorpus(corpus_dir)
    corpus.add(witness, overwrite=True)
    run = corpus.run()
    assert not run.ok
    assert len(run.stale) == 1
    assert run.to_dict()["stale"] == 1
    assert cli_main(["corpus", "run", "--dir", corpus_dir, "--quiet"]) == 1


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------

def test_cli_triage_and_corpus_run(tmp_path, capsys):
    corpus_dir = tmp_path / "cli_corpus"
    json_path = tmp_path / "triage.json"
    code = cli_main(["triage", "--tests", "set_config",
                     "--agents", "reference,modified",
                     "--corpus", str(corpus_dir),
                     "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "triage:" in out and "cluster" in out
    data = json.loads(json_path.read_text())
    assert data["format"] == "soft/triage-report/v1"
    assert data["triage"]["confirmed_witnesses"] == data["triage"]["raw_witnesses"]
    assert data["corpus"]["saved"] >= 1

    code = cli_main(["corpus", "run", "--dir", str(corpus_dir),
                     "--json", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 solver queries" in out

    code = cli_main(["corpus", "list", "--dir", str(corpus_dir)])
    assert code == 0
    assert "witness bundle(s)" in capsys.readouterr().out
