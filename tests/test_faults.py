"""Tests of the fault-tolerant campaign runtime and the injection harness.

Covers the acceptance scenario of the robustness work: a campaign with a
planted hanging agent and a planted crashing agent finishes within the
``cell_timeout x retries`` envelope, reports structured ``JobFailure``
records for exactly the faulty cells, and a ``--resume`` run converges
to the same inconsistency set as an uninterrupted campaign.
"""

import json
import os
import time
from dataclasses import asdict

import pytest

from repro.core.campaign import (
    Campaign,
    EXIT_CRASHED,
    EXIT_FAILURES,
    EXIT_OK,
)
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.corpus import WitnessCorpus
from repro.core.jobs import CampaignJob, JobSupervisor
from repro.errors import CheckpointError
from repro.symbex.engine import EngineConfig
from repro.testing.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_point,
    installed_fault_plan,
    load_fault_plan,
)


# ---------------------------------------------------------------------------
# Fault harness
# ---------------------------------------------------------------------------

def test_fault_plan_fires_at_exact_hit_indices():
    plan = FaultPlan([FaultSpec(site="s", kind="raise", hits=(2,))])
    with installed_fault_plan(plan):
        fault_point("s")  # hit 1: no effect
        with pytest.raises(InjectedFault):
            fault_point("s")  # hit 2: fires
        fault_point("s")  # hit 3: no effect again
    assert plan.fired == [("s", "", "raise", 2)]
    # Context matching is substring-based; a non-matching context does not
    # advance the counter of the matched spec.
    plan2 = FaultPlan([FaultSpec(site="s", kind="raise", match="ovs", hits=(1,))])
    with installed_fault_plan(plan2):
        fault_point("s", "reference:concrete")
        with pytest.raises(InjectedFault):
            fault_point("s", "ovs:concrete")


def test_fault_plan_json_round_trip(tmp_path):
    plan = FaultPlan([
        FaultSpec(site="phase1", kind="hang", match="ovs", hits=(1, 2),
                  duration=9.0),
        FaultSpec(site="corpus.save", kind="corrupt"),
    ], seed=7)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan.to_dict()))
    loaded = load_fault_plan(str(path))
    assert [s.to_dict() for s in loaded.specs] == [s.to_dict() for s in plan.specs]
    assert loaded.seed == 7
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_fault_plan(str(bad))
    with pytest.raises(ValueError):
        FaultSpec(site="s", kind="explode")


def test_fault_plan_corrupt_directive_is_returned_not_raised():
    plan = FaultPlan([FaultSpec(site="corpus.save", kind="corrupt")])
    with installed_fault_plan(plan):
        assert fault_point("corpus.save", "/tmp/x.json") == "corrupt"
        assert fault_point("corpus.save", "/tmp/x.json") is None  # hit 2
    assert fault_point("corpus.save") is None  # no plan installed


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

def test_supervisor_retries_flaky_job_then_succeeds():
    failures = {"left": 1}

    def flaky():
        if failures["left"]:
            failures["left"] -= 1
            raise RuntimeError("transient")
        return "value"

    supervisor = JobSupervisor(retries=2)
    job = CampaignJob(kind="phase1", key=("phase1", "x"), thread_fn=flaky)
    results = supervisor.run([job])
    assert results[0].state == "ok" and results[0].value == "value"
    assert job.attempts == 2


def test_supervisor_abandons_hanging_job_at_deadline():
    def hang():
        time.sleep(30.0)

    supervisor = JobSupervisor(cell_timeout=0.2, retries=0)
    started = time.monotonic()
    results = supervisor.run([
        CampaignJob(kind="phase1", key=("phase1", "hung"), thread_fn=hang),
        CampaignJob(kind="phase1", key=("phase1", "fine"), thread_fn=lambda: 1),
    ])
    wall = time.monotonic() - started
    assert wall < 5.0  # did NOT wait the 30s out
    assert results[0].state == "timed_out"
    assert results[0].failure.error_type == "CellTimeoutError"
    assert results[1].state == "ok"
    assert supervisor.abandoned_attempts == 1


def test_supervisor_commits_results_on_caller_thread():
    import threading

    seen = []
    supervisor = JobSupervisor()
    supervisor.run([CampaignJob(kind="pair", key=("pair", "x"),
                                thread_fn=lambda: 41)],
                   on_result=lambda r: seen.append(threading.current_thread()))
    assert seen == [threading.main_thread()]


def _cube(x):
    return x ** 3


def test_supervisor_runs_process_and_thread_jobs_in_one_loop():
    import threading

    seen = []
    jobs = [CampaignJob(kind="phase1", key=("phase1", "pool"),
                        process_task=(_cube, (3,))),
            CampaignJob(kind="pair", key=("pair", "thread"),
                        thread_fn=lambda: threading.current_thread().name)]
    results = JobSupervisor(workers=2).run(
        jobs, on_result=lambda r: seen.append(threading.current_thread()))
    assert [r.job for r in results] == jobs  # input order
    assert [r.state for r in results] == ["ok", "ok"]
    assert results[0].value == 27
    assert results[1].value == "soft-job-pair/thread"
    assert seen == [threading.main_thread()] * 2


# ---------------------------------------------------------------------------
# Campaign-level fault tolerance (the acceptance scenario)
# ---------------------------------------------------------------------------

def test_campaign_hanging_agent_is_killed_at_deadline():
    plan = FaultPlan([FaultSpec(site="phase1", kind="hang",
                                match="ovs:concrete", hits=(1, 2),
                                duration=60.0)])
    campaign = Campaign(tests=["concrete"], agents=["reference", "ovs"],
                        replay_testcases=False,
                        cell_timeout=1.0, retries=1, fault_plan=plan)
    started = time.monotonic()
    report = campaign.run()
    wall = time.monotonic() - started
    # Both attempts abandoned at the 1s deadline; generous slack for CI.
    assert wall < 1.0 * 2 + 8.0
    assert report.exit_code == EXIT_FAILURES
    assert report.job_states.get("timed_out") == 1
    cells = {f.cell: f for f in report.job_failures}
    assert cells["phase1/ovs/concrete/small"].state == "timed_out"
    assert cells["phase1/ovs/concrete/small"].attempts == 2
    # The dependent pair is skipped, not hung.
    assert cells["pair/concrete/small/reference/ovs"].state == "skipped"
    # The healthy agent's cell is untouched.
    assert report.job_states.get("ok") == 1


def test_campaign_process_pool_hang_is_torn_down_at_deadline():
    # A hung worker process cannot be abandoned like a thread: the pool is
    # torn down at the deadline and the other in-flight cell re-runs free.
    plan = FaultPlan([FaultSpec(site="phase1", kind="hang",
                                match="ovs:stats_request", hits=(1,),
                                duration=60.0)])
    campaign = Campaign(tests=["stats_request"], agents=["reference", "ovs"],
                        workers=2, executor="process", cell_timeout=1.0,
                        retries=1, replay_testcases=False,
                        fault_plan=plan)
    started = time.monotonic()
    report = campaign.run()
    wall = time.monotonic() - started
    assert wall < 1.0 * 2 + 8.0
    assert report.exit_code == EXIT_FAILURES
    assert report.job_states == {"ok": 1, "timed_out": 1, "skipped": 1}
    cells = {f.cell: f for f in report.job_failures}
    hung = cells["phase1/ovs/stats_request/small"]
    assert hung.state == "timed_out" and hung.attempts == 2
    assert hung.error_type == "CellTimeoutError"
    assert cells["pair/stats_request/small/reference/ovs"].state == "skipped"
    assert report.executor_degraded == []


def test_campaign_crashing_agent_retries_then_fails_with_traceback():
    plan = FaultPlan([FaultSpec(site="phase1", kind="raise",
                                match="ovs:concrete", hits=(1, 2))])
    report = Campaign(tests=["concrete"], agents=["reference", "ovs"],
                      replay_testcases=False,
                      retries=1, fault_plan=plan).run()
    assert report.exit_code == EXIT_FAILURES
    failure = next(f for f in report.job_failures if f.state == "failed")
    assert failure.cell == "phase1/ovs/concrete/small"
    assert failure.attempts == 2
    assert failure.error_type == "InjectedFault"
    assert "InjectedFault" in failure.traceback


def test_campaign_crashing_agent_recovers_within_retry_budget():
    plan = FaultPlan([FaultSpec(site="phase1", kind="raise",
                                match="ovs:concrete", hits=(1,))])
    report = Campaign(tests=["concrete"], agents=["reference", "ovs"],
                      replay_testcases=False,
                      retries=1, fault_plan=plan).run()
    assert report.exit_code == EXIT_OK
    assert report.job_failures == []
    assert report.pair_count == 1
    assert plan.fired  # the fault really did fire on attempt 1


def test_campaign_in_process_worker_kill_is_isolated():
    # In thread mode a "kill" cannot take the interpreter down; it surfaces
    # as WorkerCrashError and the cell terminalizes as crashed (exit 3).
    plan = FaultPlan([FaultSpec(site="phase1", kind="kill",
                                match="ovs:concrete", hits=(1, 2))])
    report = Campaign(tests=["concrete"], agents=["reference", "ovs"],
                      replay_testcases=False,
                      retries=1, fault_plan=plan).run()
    assert report.exit_code == EXIT_CRASHED
    failure = next(f for f in report.job_failures if f.state == "crashed")
    assert failure.error_type == "WorkerCrashError"


def test_campaign_process_pool_kill_rebuilds_then_degrades():
    # Counters restart in every worker process, so hits=(1,) kills every
    # process attempt: the pool breaks, is rebuilt MAX_POOL_REBUILDS times,
    # then the remaining cells degrade to threads where the same spec
    # consumes one retry (WorkerCrashError) and the rerun succeeds.
    plan = FaultPlan([FaultSpec(site="phase1", kind="kill",
                                match="ovs:stats_request", hits=(1,))])
    report = Campaign(tests=["stats_request"], agents=["reference", "ovs"],
                      workers=2, executor="process",
                      replay_testcases=False,
                      retries=2, fault_plan=plan).run()
    assert report.exit_code == EXIT_OK
    assert report.job_states.get("ok") == 3
    kinds = {event.get("kind") for event in report.executor_degraded}
    assert "process-pool-broken" in kinds


# ---------------------------------------------------------------------------
# Checkpointing and resume
# ---------------------------------------------------------------------------

def _pair_signature(report):
    return sorted((r.test_key, r.agent_a, r.agent_b, r.inconsistency_count,
                   r.grouped_a.distinct_output_count,
                   r.grouped_b.distinct_output_count)
                  for r in report.reports)


def test_campaign_resume_converges_to_uninterrupted_result(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    plan = FaultPlan([FaultSpec(site="phase1", kind="raise",
                                match="ovs:set_config", hits=(1, 2))])
    crashed = Campaign(tests=["concrete", "set_config"],
                       agents=["reference", "ovs"],
                       replay_testcases=False,
                       retries=1, checkpoint_dir=ckpt, fault_plan=plan).run()
    assert crashed.exit_code == EXIT_FAILURES
    assert crashed.job_states.get("failed") == 1
    assert crashed.job_states.get("skipped") == 1

    # Resume without the fault plan: only the failed cell and its dependent
    # pair are re-run; everything else is restored from the checkpoint.
    resumed = Campaign(tests=["concrete", "set_config"],
                       agents=["reference", "ovs"],
                       replay_testcases=False,
                       checkpoint_dir=ckpt, resume=True).run()
    assert resumed.exit_code == EXIT_OK
    assert resumed.resumed_cells == 4  # 3 ok phase1 cells + 1 ok pair
    assert resumed.explorations_run == 1

    fresh = Campaign(tests=["concrete", "set_config"],
                     agents=["reference", "ovs"],
                     replay_testcases=False).run()
    assert _pair_signature(resumed) == _pair_signature(fresh)
    assert resumed.total_inconsistencies == fresh.total_inconsistencies


def test_campaign_resume_with_replay_restores_witnesses(tmp_path):
    # Phase 1 of modified x set_config fails, so only the packet_out pair is
    # checkpointed; the resumed run restores it (witnesses included) and
    # re-runs set_config.
    ckpt = str(tmp_path / "ckpt")
    cells = dict(tests=["set_config", "packet_out"], agents=["reference", "modified"])
    plan = FaultPlan([FaultSpec(site="phase1", kind="raise",
                                match="modified:set_config", hits=(1, 2))])
    crashed = Campaign(checkpoint_dir=ckpt, fault_plan=plan, **cells).run()
    assert crashed.exit_code == EXIT_FAILURES
    assert [r.test_key for r in crashed.reports] == ["packet_out"]
    (payload,) = os.listdir(os.path.join(ckpt, "pairs"))
    with open(os.path.join(ckpt, "pairs", payload)) as handle:
        saved = json.load(handle)
    assert saved["format"] == "soft/pair-cell/v2"
    assert "replays_diverged" not in saved
    assert all("condition" not in inc for inc in saved["crosscheck"]["inconsistencies"])
    assert all(witness["condition"] is None for witness in saved["witnesses"])

    resumed = Campaign(checkpoint_dir=ckpt, resume=True, **cells).run()
    assert resumed.exit_code == EXIT_OK
    assert resumed.resumed_cells == 4  # 3 ok phase1 cells + the packet_out pair
    fresh = Campaign(**cells).run()

    def witness_count(report):
        return sum(len(r.witnesses) for r in report.reports)

    assert (resumed.total_replay_verified, resumed.triage.cluster_count,
            witness_count(resumed)) == (fresh.total_replay_verified,
                                        fresh.triage.cluster_count,
                                        witness_count(fresh)) == (44, 10, 44)
    for restored, rerun in zip(resumed.reports, fresh.reports):
        assert len(restored.inconsistencies) == len(rerun.inconsistencies)
        for ours, theirs in zip(restored.inconsistencies, rerun.inconsistencies):
            assert ours.condition is theirs.condition
        for witness, inconsistency in zip(restored.witnesses, restored.inconsistencies):
            assert witness.condition is inconsistency.condition
    assert json.loads(resumed.to_json())["pair_reports"][1]["replays_diverged"] \
        == [w.confirmed for w in fresh.reports[1].witnesses]


def test_checkpoint_pair_with_unknown_trace_is_malformed(tmp_path):
    # A pair payload's conditions are rebuilt from the restored groups; a
    # trace that names no group cannot be, and the payload is refused.
    ckpt = tmp_path / "ckpt"
    cells = dict(tests=["stats_request"], agents=["reference", "ovs"],
                 replay_testcases=False, checkpoint_dir=str(ckpt))
    assert Campaign(**cells).run().total_inconsistencies > 0
    (payload,) = (ckpt / "pairs").iterdir()
    data = json.loads(payload.read_text())
    data["crosscheck"]["inconsistencies"][0]["trace_a"] = [["crash", 99]]
    payload.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="no restored output group"):
        Campaign(resume=True, **cells).run()


def test_campaign_resume_of_complete_run_does_no_work(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    first = Campaign(tests=["concrete"], agents=["reference", "ovs"],
                     replay_testcases=False,
                     checkpoint_dir=ckpt).run()
    assert first.exit_code == EXIT_OK
    again = Campaign(tests=["concrete"], agents=["reference", "ovs"],
                     replay_testcases=False,
                     checkpoint_dir=ckpt, resume=True).run()
    assert again.explorations_run == 0
    assert again.resumed_cells == 3
    assert _pair_signature(again) == _pair_signature(first)


def test_checkpoint_refuses_mismatched_fingerprint(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    Campaign(tests=["concrete"], agents=["reference", "ovs"],
             replay_testcases=False,
             checkpoint_dir=ckpt).run()
    with pytest.raises(CheckpointError):
        Campaign(tests=["set_config"], agents=["reference", "ovs"],
                 replay_testcases=False,
                 checkpoint_dir=ckpt, resume=True).run()
    # A fresh (non-resume) run refuses to silently clobber existing records.
    with pytest.raises(CheckpointError):
        Campaign(tests=["concrete"], agents=["reference", "ovs"],
                 replay_testcases=False,
                 checkpoint_dir=ckpt).run()


def test_checkpoint_from_older_format_is_refused_up_front(tmp_path, monkeypatch, capsys):
    import repro.core.campaign as campaign_module
    from repro.cli.main import main as cli_main

    ckpt = tmp_path / "ckpt"
    Campaign(tests=["concrete"], agents=["reference", "ovs"],
             replay_testcases=False,
             checkpoint_dir=str(ckpt)).run()
    meta = ckpt / "meta.json"
    current = json.loads(meta.read_text())
    explored = []
    monkeypatch.setattr(campaign_module, "explore_agent",
                        lambda *args, **kwargs: explored.append(args))
    # v1: nested-tree phase-1 payloads; v2: a fingerprint with a hybrid-mode
    # key; v3: a fingerprint with a search-strategy key; v4: a fingerprint
    # with a coverage-tracing key; v5: pair payloads that store conditions;
    # v6: a fingerprint without the Phase-2 settings.
    phase2_settings = ("replay_testcases", "minimize", "minimize_budget")
    v6_fingerprint = {key: value for key, value in current["fingerprint"].items()
                      if key not in phase2_settings}
    for old_format, fingerprint in (
            ("soft/campaign-checkpoint/v1", current["fingerprint"]),
            ("soft/campaign-checkpoint/v2", dict(v6_fingerprint, hybrid=False)),
            ("soft/campaign-checkpoint/v3", dict(v6_fingerprint, strategy=None)),
            ("soft/campaign-checkpoint/v4", dict(v6_fingerprint, with_coverage=False)),
            ("soft/campaign-checkpoint/v5", v6_fingerprint),
            ("soft/campaign-checkpoint/v6", v6_fingerprint)):
        data = {"format": old_format, "fingerprint": fingerprint}
        meta.write_text(json.dumps(data))

        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            Campaign(tests=["concrete"], agents=["reference", "ovs"],
                     replay_testcases=False,
                     checkpoint_dir=str(ckpt), resume=True).run()
        assert explored == []

        code = cli_main(["campaign", "--tests", "concrete", "--agents", "reference,ovs",
                         "--checkpoint", str(ckpt), "--resume", "--quiet"])
        assert code == 2
        assert "unsupported checkpoint format" in capsys.readouterr().err
        assert explored == []


def test_checkpoint_refuses_resume_with_other_phase2_settings(tmp_path):
    # A pair restored from a checkpoint written without replay (or without
    # minimization) holds no witnesses (or unminimized ones): resuming it
    # into a run with those settings on would report fewer replay-verified
    # or minimized witnesses than a fresh run.
    cells = dict(tests=["stats_request"], agents=["reference", "ovs"])
    for name, setting in (("no-replay", {"replay_testcases": False}),
                          ("no-minimize", {"minimize": False})):
        ckpt = str(tmp_path / name)
        assert Campaign(checkpoint_dir=ckpt, **setting, **cells).run().exit_code == EXIT_OK
        with pytest.raises(CheckpointError, match="differently-configured"):
            Campaign(checkpoint_dir=ckpt, resume=True, **cells).run()


def test_cli_triage_exits_non_zero_on_a_failed_cell(capsys):
    from repro.cli.main import main as cli_main

    plan = FaultPlan([FaultSpec(site="phase1", kind="raise",
                                match="ovs:stats_request", hits=(1, 2))])
    with installed_fault_plan(plan):
        code = cli_main(["triage", "--tests", "stats_request",
                         "--agents", "reference,ovs", "--quiet"])
    assert plan.fired
    assert code == EXIT_FAILURES


def test_checkpoint_refuses_resume_with_other_phase1_settings(tmp_path, monkeypatch):
    import repro.core.campaign as campaign_module

    ckpt = tmp_path / "ckpt"
    cells = dict(tests=["stats_request"], agents=["reference", "ovs"],
                 replay_testcases=False, checkpoint_dir=str(ckpt))
    first = Campaign(**cells).run()
    assert first.exit_code == EXIT_OK
    meta_path = ckpt / "meta.json"
    meta = json.loads(meta_path.read_text())
    recorded = meta["fingerprint"]["engine_config"]
    assert recorded == asdict(EngineConfig())
    explored = []
    monkeypatch.setattr(campaign_module, "explore_agent",
                        lambda *args, **kwargs: explored.append(args))
    # A checkpoint written under other exploration limits (explorations
    # truncated at 5 paths) must not resume into a default run: the restored
    # cells would report paths that run never explored.
    meta["fingerprint"]["engine_config"] = dict(recorded, max_paths=5)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CheckpointError, match="differently-configured"):
        Campaign(resume=True, **cells).run()
    assert explored == []
    meta["fingerprint"]["engine_config"] = recorded
    meta_path.write_text(json.dumps(meta))
    same = Campaign(resume=True, **cells).run()
    assert same.explorations_run == 0 and same.resumed_cells == 3
    assert explored == []


def test_checkpoint_journal_tolerates_truncated_tail(tmp_path):
    directory = str(tmp_path / "ckpt")
    checkpoint = CampaignCheckpoint(directory)
    checkpoint.open(fingerprint={"k": 1}, resume=False)
    checkpoint.append({"cell": ["phase1", "a"], "state": "ok"})
    checkpoint.append({"cell": ["phase1", "b"], "state": "ok"})
    with open(os.path.join(directory, "jobs.jsonl"), "a") as handle:
        handle.write('{"cell": ["phase1", "c"], "sta')  # killed mid-append
    assert set(checkpoint.completed_cells()) == {("phase1", "a"), ("phase1", "b")}


# ---------------------------------------------------------------------------
# Corpus corruption tolerance
# ---------------------------------------------------------------------------

def test_corpus_run_records_corrupt_bundle_and_continues(tmp_path):
    corpus = WitnessCorpus(str(tmp_path / "corpus"))
    garbage = os.path.join(corpus.directory, "zzz-broken.witness.json")
    with open(garbage, "w") as handle:
        handle.write('{"format": "soft/witness-bundle/v1", "tr')
    report = corpus.run()
    assert report.replayed == 1
    assert not report.ok
    assert [entry.status for entry in report.entries] == ["corrupt"]
    assert report.to_dict()["corrupt"] == 1
    assert "corrupt" in report.describe()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_resume_requires_checkpoint(capsys):
    from repro.cli.main import main as cli_main

    code = cli_main(["campaign", "--resume"])
    assert code == 2
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_cli_rejects_malformed_fault_plan(tmp_path, capsys):
    from repro.cli.main import main as cli_main

    bad = tmp_path / "plan.json"
    bad.write_text("{broken")
    code = cli_main(["campaign", "--tests", "concrete",
                     "--agents", "reference,ovs",
                     "--fault-plan", str(bad)])
    assert code == 2
    assert "fault plan" in capsys.readouterr().err


def test_cli_campaign_reports_failures_and_degradation(tmp_path, capsys):
    from repro.cli.main import main as cli_main

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(FaultPlan([
        FaultSpec(site="phase1", kind="raise", match="ovs:concrete",
                  hits=(1, 2))]).to_dict()))
    out = tmp_path / "report.json"
    code = cli_main(["campaign", "--tests", "concrete",
                     "--agents", "reference,ovs", "--no-replay",
                     "--retries", "1", "--fault-plan", str(plan),
                     "--json", str(out), "--quiet"])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["exit_code"] == 1
    states = {f["state"] for f in data["job_failures"]}
    assert states == {"failed", "skipped"}

    # The "concrete" spec is closure-built and unpicklable, so asking for
    # the process executor degrades every Phase-1 cell to threads — which
    # the CLI must announce on stderr rather than hide.
    code = cli_main(["campaign", "--tests", "concrete",
                     "--agents", "reference,ovs", "--no-replay",
                     "--executor", "process", "--workers", "2", "--quiet"])
    assert code == 0
    assert "executor degraded" in capsys.readouterr().err
