"""Hybrid hunt benchmark: hybrid vs pure-symbex vs pure-fuzz at equal budget.

Runs three budgeted hunts on the same (test, pair, seed) — the full hybrid
stage roster, symbex only, and fuzz only — and emits ``BENCH_hybrid.json``
with inconsistency clusters per minute and coverage at budget for each mode.
Two gates encode the point of the subsystem:

* the hybrid hunt finds at least as many witness clusters as pure symbolic
  exploration at the same wall-clock budget, and
* strictly more than pure fuzzing (which cannot hit rare constants).

``benchmarks/compare_bench.py`` guards the hybrid throughput numbers.
"""

from __future__ import annotations

from benchmarks.conftest import print_table, write_bench
from repro.hybrid import HybridConfig, HybridHunt

TEST = "packet_out"
AGENT_A, AGENT_B = "reference", "modified"
BUDGET = 6.0
SEED = 0

MODES = (
    ("hybrid", ("fuzz", "concolic", "symbex", "replay")),
    ("symbex", ("symbex",)),
    ("fuzz", ("fuzz",)),
)


def _run_mode(stages):
    config = HybridConfig(budget=BUDGET, slice_time=0.5, seed=SEED,
                          stages=stages)
    return HybridHunt(TEST, AGENT_A, AGENT_B, config=config).run()


def _mode_row(name, report):
    wall = max(report.stats.wall_time, 1e-9)
    coverage_units = sum(stage.new_coverage_units
                         for stage in report.stats.stages.values())
    return {
        "stages": list(report.stats.stages),
        "clusters": report.cluster_count,
        "witnesses": len(report.witnesses),
        "confirmed_witnesses": report.confirmed_witnesses,
        "clusters_per_minute": 60.0 * report.cluster_count / wall,
        "coverage_units": coverage_units,
        "coverage_units_per_sec": coverage_units / wall,
        "wall_time": report.stats.wall_time,
        "slices": report.stats.slices,
    }


def test_hybrid_hunt_beats_the_pure_baselines():
    reports = {name: _run_mode(stages) for name, stages in MODES}
    rows = {name: _mode_row(name, report) for name, report in reports.items()}

    print_table(
        "hunt modes at equal %.0fs budget" % BUDGET,
        ("mode", "clusters", "witnesses", "clusters/min", "cov units", "slices"),
        [(name, row["clusters"], row["witnesses"],
          "%.1f" % row["clusters_per_minute"], row["coverage_units"],
          row["slices"])
         for name, row in rows.items()])

    # -- gates -------------------------------------------------------------
    assert rows["hybrid"]["clusters"] >= 1
    assert rows["hybrid"]["clusters"] >= rows["symbex"]["clusters"]
    assert rows["hybrid"]["clusters"] > rows["fuzz"]["clusters"]
    # Every hybrid witness went through the one concrete-replay pipeline.
    assert (rows["hybrid"]["confirmed_witnesses"]
            == rows["hybrid"]["witnesses"])

    hybrid = reports["hybrid"]
    data = {
        "test": TEST,
        "agents": [AGENT_A, AGENT_B],
        "budget": BUDGET,
        "seed": SEED,
        "modes": rows,
        "hybrid": {
            "clusters_per_minute": rows["hybrid"]["clusters_per_minute"],
            "coverage_units": rows["hybrid"]["coverage_units"],
            "stage_breakdown": {
                name: stage.as_dict()
                for name, stage in hybrid.stats.stages.items()
            },
            "seed_pool": hybrid.stats.seed_pool,
            "concolic": hybrid.stats.concolic,
        },
        "advantage": {
            "clusters_vs_fuzz": (rows["hybrid"]["clusters"]
                                 - rows["fuzz"]["clusters"]),
            "clusters_vs_symbex": (rows["hybrid"]["clusters"]
                                   - rows["symbex"]["clusters"]),
        },
    }
    write_bench("BENCH_hybrid.json", data)
