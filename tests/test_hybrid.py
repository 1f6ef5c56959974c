"""Tests for the hybrid concolic hunt engine (seed pool, scheduler, pipeline).

The centerpiece is the planted rare-constant experiment: an agent pair that
diverges *only* when a 16-bit PACKET_OUT port equals ``OFPP_CONTROLLER``
(0xFFFD).  Random fuzzing hits that value with probability 2^-16 per draw, so
a fuzz-only hunt finds nothing within the test budget, while the hybrid
hunt's concolic stage flips the comparison branch and lands on the constant
directly — the motivating scenario for the whole subsystem.
"""

import random
import tempfile
import time

import pytest

from repro.agents.reference.agent import ReferenceSwitch
from repro.baselines.fuzzer import DifferentialFuzzer, promote_divergence
from repro.core.corpus import WitnessCorpus
from repro.core.tests_catalog import TestSpec
from repro.core.witness import TriageIndex
from repro.coverage.tracker import CoverageTracker
from repro.errors import CampaignError
from repro.harness.inputs import ControlMessageInput
from repro.hybrid import HybridConfig, HybridHunt, SeedPool, StageStats
from repro.hybrid import scheduler as scheduler_module
from repro.openflow import constants as c
from repro.openflow.actions import ActionOutput
from repro.openflow.messages import PacketOut
from repro.packetlib.builder import build_tcp_packet, build_udp_packet
from repro.symbex.engine import EngineConfig


# ---------------------------------------------------------------------------
# Seed pool
# ---------------------------------------------------------------------------


def test_seed_pool_dedupes_and_scores_novelty():
    pool = SeedPool()
    fp1 = frozenset({("a.py", 1), ("a.py", 2)})
    fp2 = frozenset({("a.py", 2), ("a.py", 3)})
    seed1 = pool.add({"x": 1}, "fuzz", fingerprint=fp1)
    assert seed1 is not None and seed1.novelty == 2
    # Second admission is scored against the union so far: only line 3 is new.
    seed2 = pool.add({"x": 2}, "fuzz", fingerprint=fp2)
    assert seed2 is not None and seed2.novelty == 1
    assert pool.covered_units == 3
    # Same assignment again: duplicate, regardless of fingerprint.
    assert pool.add({"x": 1}, "concolic", fingerprint=fp2) is None
    assert pool.rejected_duplicates == 1


def test_seed_pool_require_novel_rejects_stale_inputs():
    pool = SeedPool()
    fp = frozenset({("a.py", 1)})
    assert pool.add({"x": 1}, "fuzz", fingerprint=fp, require_novel=True)
    assert pool.add({"x": 2}, "fuzz", fingerprint=fp, require_novel=True) is None
    assert pool.rejected_stale == 1
    # Without the flag the stale input is still admitted (novelty 0).
    seed = pool.add({"x": 3}, "fuzz", fingerprint=fp)
    assert seed is not None and seed.novelty == 0


def test_seed_pool_expansion_walks_best_first():
    pool = SeedPool()
    pool.add({"x": 1}, "fuzz", fingerprint=frozenset({("a.py", 1)}))
    pool.add({"x": 2}, "fuzz",
             fingerprint=frozenset({("b.py", 1), ("b.py", 2)}))
    # x=2 added two units vs one: it is expanded first; the expansion counter
    # then rotates selection instead of hammering the single best seed.
    first = pool.next_for_expansion()
    second = pool.next_for_expansion()
    assert first.assignment == {"x": 2}
    assert second.assignment == {"x": 1}


# ---------------------------------------------------------------------------
# Coverage fingerprints (tracker satellite)
# ---------------------------------------------------------------------------


def _tracked_run(fn):
    tracker = CoverageTracker(packages=["repro.packetlib"])
    with tracker.tracking():
        fn()
    return tracker


def test_fingerprint_is_stable_across_identical_runs():
    tracker = _tracked_run(build_tcp_packet)
    fp1 = tracker.fingerprint()
    tracker.reset()
    with tracker.tracking():
        build_tcp_packet()
    assert tracker.fingerprint() == fp1
    assert fp1  # the builder executes instrumented lines


def test_merge_unions_fingerprints_and_novel_vs_counts_difference():
    tcp = _tracked_run(build_tcp_packet)
    udp = _tracked_run(build_udp_packet)
    assert udp.novel_vs(tcp) > 0          # UDP builder runs lines TCP did not
    assert tcp.novel_vs(tcp.fingerprint()) == 0
    merged = _tracked_run(build_tcp_packet)
    merged.merge_from(udp)
    assert merged.fingerprint() == tcp.fingerprint() | udp.fingerprint()
    assert udp.novel_vs(merged) == 0      # merged tracker covers both


# ---------------------------------------------------------------------------
# Planted rare-constant pair: diverges only at port == OFPP_CONTROLLER
# ---------------------------------------------------------------------------


class PlantedReference(ReferenceSwitch):
    NAME = "planted-ref"


class PlantedBuggy(ReferenceSwitch):
    """Reference switch with one planted bug: controller output is dropped."""

    NAME = "planted-buggy"

    def handle_packet_out(self, buf, header):
        if len(buf) >= c.OFP_PACKET_OUT_LEN:
            _, _, actions, _ = self.parse_packet_out_fields(buf)
            for action in actions:
                if (isinstance(action, ActionOutput)
                        and action.port == c.OFPP_CONTROLLER):
                    return  # planted: silently swallow controller output
        super().handle_packet_out(buf, header)


def _build_planted_packet_out(state):
    out_port = state.new_symbol("pb.out_port", 16)
    message = PacketOut(
        xid=1,
        buffer_id=c.OFP_NO_BUFFER,
        in_port=c.OFPP_NONE,
        actions=[ActionOutput(port=out_port, max_len=128)],
        data=build_tcp_packet(tp_src=1234, tp_dst=80).to_bytes(),
    )
    return message.pack()


def planted_spec():
    return TestSpec(
        key="planted_rare_port",
        title="Planted rare-constant PACKET_OUT",
        description="One symbolic 16-bit output port; the pair diverges only "
                    "when it equals OFPP_CONTROLLER (0xFFFD).",
        inputs=[ControlMessageInput("planted_packet_out",
                                    _build_planted_packet_out)],
        message_count=1,
    )


def _planted_config(stages, seed=11, max_slices=10):
    return HybridConfig(
        budget=60.0,                # never binds: max_slices ends the hunt
        slice_time=0.5,
        seed=seed,
        stages=stages,
        fuzz_per_slice=6,
        flips_per_slice=10,
        max_slices=max_slices,
        coverage_packages=("repro.agents.common", "repro.agents.reference"),
    )


def test_hybrid_finds_planted_rare_branch_within_budget():
    hunt = HybridHunt(planted_spec(), PlantedReference, PlantedBuggy,
                      config=_planted_config(stages=("fuzz", "concolic")))
    report = hunt.run()
    assert report.cluster_count >= 1
    assert any(w.assignment.get("pb.out_port") == c.OFPP_CONTROLLER
               for w in report.witnesses)
    assert report.stats.stages["concolic"].divergences >= 1


def test_fuzz_only_misses_planted_rare_branch_at_equal_budget():
    hunt = HybridHunt(planted_spec(), PlantedReference, PlantedBuggy,
                      config=_planted_config(stages=("fuzz",)))
    report = hunt.run()
    assert report.cluster_count == 0
    assert not report.witnesses
    # The fuzz stage did real work — it just cannot win a 2^-16 lottery.
    assert report.stats.stages["fuzz"].inputs_run > 0


# ---------------------------------------------------------------------------
# Scheduler accounting under a fake clock
# ---------------------------------------------------------------------------


class FakeClock:
    """Deterministic clock: every read advances time by a fixed tick."""

    def __init__(self, tick=0.01):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


def test_scheduler_slice_accounting_under_fake_clock():
    clock = FakeClock(tick=0.01)
    config = HybridConfig(budget=1.0, slice_time=0.2, seed=2,
                          stages=("fuzz",), fuzz_per_slice=3,
                          coverage_packages=("repro.agents.common",))
    hunt = HybridHunt(planted_spec(), PlantedReference, PlantedBuggy,
                      config=config, clock=clock)
    report = hunt.run()
    fuzz = report.stats.stages["fuzz"]
    assert report.stats.slices == fuzz.slices > 0
    # Each slice ran its full complement: the 0.01 ticks spent inside a slice
    # never reach the 0.2s slice deadline.
    assert fuzz.inputs_run == 3 * fuzz.slices
    # Time accounting: stage time is measured on the same clock and the loop
    # only exits once the budget is consumed.
    assert report.stats.wall_time >= config.budget
    assert fuzz.time_spent <= report.stats.wall_time
    assert fuzz.time_spent > 0


def test_symbex_slice_respects_the_wall_clock_budget():
    # Regression: the symbex slice's crosscheck used to run the whole pair
    # matrix unbounded, so one slice could blow far past the global budget
    # (observed 5-7s of a 6s hunt), starving every other stage.  The scan is
    # now deadline-bounded, so the hunt must end close to its budget even
    # though packet_out exploration alone would happily run much longer.
    config = HybridConfig(budget=1.5, slice_time=0.25, seed=0,
                          stages=("symbex",))
    report = HybridHunt("packet_out", "reference", "modified",
                        config=config).run()
    assert report.stats.wall_time < config.budget * 1.5
    symbex = report.stats.stages["symbex"]
    assert symbex.slices >= 2  # preemption: budget spread over several slices


def test_symbex_slices_rescan_on_one_encoding(monkeypatch):
    # Each symbex slice re-scans the grown pair matrix on the hunt's one
    # GroupEncoding: pairs an earlier slice decided come from its pair cache,
    # and no group condition is encoded twice.
    scans = []
    real = scheduler_module.find_inconsistencies

    def recording(grouped_a, grouped_b, **kwargs):
        report = real(grouped_a, grouped_b, **kwargs)
        scans.append((grouped_a, grouped_b, kwargs["engine"], report))
        return report

    monkeypatch.setattr(scheduler_module, "find_inconsistencies", recording)
    config = HybridConfig(seed=0, stages=("symbex",),
                          engine_config=EngineConfig(max_paths=4),
                          coverage_packages=("repro.agents.common",))
    hunt = HybridHunt("stats_request", "reference", "modified", config=config)
    stage = StageStats(name="symbex")
    deadline = time.perf_counter() + 600.0
    hunt._run_symbex_slice(stage, deadline)
    hunt._run_symbex_slice(stage, deadline)

    (_, _, engine, first), (_, _, again, second) = scans
    assert engine is again is hunt._crosscheck_engine
    assert second.queries > first.queries          # the matrix grew
    assert second.solver_stats["pair_cache_hits"] > 0
    conditions = {id(group.condition) for grouped_a, grouped_b, _, _ in scans
                  for group in grouped_a.groups + grouped_b.groups}
    assert engine.stats.groups_encoded == engine.group_count == len(conditions)


def test_scheduler_max_slices_caps_the_hunt():
    clock = FakeClock(tick=0.0)          # frozen clock: budget never expires
    config = HybridConfig(budget=1.0, slice_time=0.2, seed=2,
                          stages=("fuzz",), fuzz_per_slice=2, max_slices=4,
                          coverage_packages=("repro.agents.common",))
    hunt = HybridHunt(planted_spec(), PlantedReference, PlantedBuggy,
                      config=config, clock=clock)
    report = hunt.run()
    assert report.stats.slices == 4


def test_unknown_stage_is_rejected():
    with pytest.raises(CampaignError):
        HybridHunt(planted_spec(), PlantedReference, PlantedBuggy,
                   config=HybridConfig(stages=("fuzz", "warp")))


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def _deterministic_hunt():
    hunt = HybridHunt(planted_spec(), PlantedReference, PlantedBuggy,
                      config=_planted_config(stages=("fuzz", "concolic"),
                                             seed=3, max_slices=6),
                      clock=FakeClock(tick=0.001))
    return hunt.run()


def test_hunt_is_deterministic_under_fixed_seed_and_clock():
    first = _deterministic_hunt()
    second = _deterministic_hunt()
    assert first.stats.slices == second.stats.slices
    assert ([w.signature.key() for w in first.witnesses]
            == [w.signature.key() for w in second.witnesses])
    assert ([w.assignment for w in first.witnesses]
            == [w.assignment for w in second.witnesses])
    for name, stage in first.stats.stages.items():
        other = second.stats.stages[name]
        assert (stage.slices, stage.inputs_run, stage.divergences) == \
            (other.slices, other.inputs_run, other.divergences)


# ---------------------------------------------------------------------------
# Fuzz divergence -> Witness -> corpus round-trip (fuzzer satellite)
# ---------------------------------------------------------------------------


def test_fuzzer_rng_injection_is_deterministic():
    run1 = DifferentialFuzzer("reference", "modified",
                              rng=random.Random(5)).run(iterations=30)
    run2 = DifferentialFuzzer("reference", "modified",
                              rng=random.Random(5)).run(iterations=30)
    assert ([d.description for d in run1.divergences]
            == [d.description for d in run2.divergences])


def test_fuzz_divergence_promotes_to_witness_and_corpus_roundtrip():
    fuzzer = DifferentialFuzzer("reference", "modified", seed=5)
    report = fuzzer.run(iterations=120)
    assert report.divergence_count >= 1
    divergence = report.divergences[0]
    assert divergence.inputs  # the concrete inputs ride along

    witness = promote_divergence(divergence, "reference", "modified")
    assert witness.confirmed
    assert witness.testcase.inputs == divergence.inputs

    index = TriageIndex()
    index.add(witness)
    triage = index.report()
    assert triage.cluster_count == 1

    with tempfile.TemporaryDirectory() as tmp:
        saved = WitnessCorpus(tmp).add_clusters(triage.clusters)
        assert saved == 1
        loaded = WitnessCorpus(tmp, create=False).load()
        assert len(loaded) == 1
        assert loaded[0].test_key == witness.test_key
        assert loaded[0].signature.key() == witness.signature.key()
