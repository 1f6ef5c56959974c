"""Witness triage + corpus benchmark (the §3.5 "actionable output" layer).

Runs the default triage pipeline on the seed catalog (reference vs modified),
then exercises the persistent corpus as a solver-free regression suite.  Two
properties are gated and one trajectory point is emitted:

* every raw inconsistency must be replay-confirmed and clustered, with at
  least one cluster merging >= 2 raw witnesses and every minimized witness
  strictly smaller than its original;
* the corpus replay must confirm every stored bundle without a single solver
  query (the solver entry points are poisoned for the duration);
* ``BENCH_triage.json`` records witnesses/sec replayed from the corpus (the
  best of ``CORPUS_ROUNDS`` rounds of at least ``ROUND_SECONDS`` each) and
  the minimization shrink ratio, both guarded by
  ``benchmarks/compare_bench.py``.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from benchmarks.conftest import print_table, write_bench
from repro.core.campaign import Campaign
from repro.core.corpus import CorpusRunReport, WitnessCorpus
from repro.symbex.solver.backend import CDCLBackend
from repro.symbex.solver.incremental import GroupEncoding

TESTS = ("set_config", "flow_mod")
AGENTS = ("reference", "modified")
#: Timed rounds of corpus replay; the best round's throughput is reported.
CORPUS_ROUNDS = 5
#: Each round replays the whole corpus again and again for at least this
#: long: one pass takes a few milliseconds, too short to time apart from
#: host noise.
ROUND_SECONDS = 0.2


def _replay_round(corpus: WitnessCorpus) -> Tuple[List[CorpusRunReport], float]:
    """Replay *corpus* until ``ROUND_SECONDS`` pass; the runs and their rate."""

    runs: List[CorpusRunReport] = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < ROUND_SECONDS:
        runs.append(corpus.run())
    wall = sum(run.wall_time for run in runs)
    return runs, sum(run.replayed for run in runs) / wall


def test_triage_and_corpus_benchmark(tmp_path):
    corpus_dir = str(tmp_path / "bench_corpus")
    campaign_started = time.perf_counter()
    report = (Campaign(corpus_dir=corpus_dir)
              .with_tests(*TESTS)
              .with_agents(*AGENTS)
              .run())
    campaign_time = time.perf_counter() - campaign_started
    triage = report.triage

    # -- triage gates ------------------------------------------------------
    assert triage is not None and triage.raw_witnesses > 0
    assert triage.confirmed_witnesses == triage.raw_witnesses
    assert triage.merged_cluster_count >= 1
    assert triage.cluster_count < triage.raw_witnesses
    witnesses = [w for sr in report.reports for w in sr.witnesses]
    assert all(w.minimization is not None and w.minimization.reduced
               for w in witnesses)

    # -- corpus replay throughput (solver poisoned) ------------------------
    corpus = WitnessCorpus(corpus_dir, create=False)
    assert len(corpus) == triage.cluster_count

    backend_check = CDCLBackend.check_sat
    engine_check = GroupEncoding.check_pair
    engine_row = GroupEncoding.check_row

    def poisoned(*args, **kwargs):
        raise AssertionError("solver query during corpus replay")

    CDCLBackend.check_sat = poisoned
    GroupEncoding.check_pair = poisoned
    GroupEncoding.check_row = poisoned
    try:
        rounds = [_replay_round(corpus) for _ in range(CORPUS_ROUNDS)]
    finally:
        CDCLBackend.check_sat = backend_check
        GroupEncoding.check_pair = engine_check
        GroupEncoding.check_row = engine_row
    runs = [run for round_runs, _ in rounds for run in round_runs]
    assert all(run.ok for run in runs)
    best_rate = max(rate for _, rate in rounds)
    replayed = sum(run.replayed for run in runs)

    rows = [(cluster.signature.short()[:60], cluster.size,
             "%d<-%d" % (cluster.representative.variable_count,
                         cluster.representative.minimization.original_variables))
            for cluster in triage.clusters]
    print_table("witness clusters (raw -> minimized representative)",
                ("signature", "raw", "vars"), rows)
    print_table("corpus replay", ("round", "passes", "witnesses", "wall", "per_sec"),
                [(index, len(round_runs), sum(run.replayed for run in round_runs),
                  "%.3fs" % sum(run.wall_time for run in round_runs),
                  "%.0f" % rate)
                 for index, (round_runs, rate) in enumerate(rounds)])

    data = {
        "tests": list(TESTS),
        "agents": list(AGENTS),
        "campaign_wall_clock": campaign_time,
        "triage": {
            "raw_witnesses": triage.raw_witnesses,
            "confirmed_witnesses": triage.confirmed_witnesses,
            "clusters": triage.cluster_count,
            "merged_clusters": triage.merged_cluster_count,
            "dedup_ratio": triage.dedup_ratio,
            "minimization_replays": triage.minimization_replays,
        },
        "minimization": {
            "shrink_ratio": triage.mean_shrink_ratio,
            "all_reduced": True,
        },
        "corpus": {
            "witnesses": len(corpus),
            "rounds": CORPUS_ROUNDS,
            "round_seconds": ROUND_SECONDS,
            "replayed": replayed,
            "replays_per_sec": best_rate,
            "solver_queries": 0,
            "all_confirmed": all(run.ok for run in runs),
        },
    }
    write_bench("BENCH_triage.json", data)
