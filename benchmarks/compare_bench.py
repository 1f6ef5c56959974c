#!/usr/bin/env python
"""Guard the committed BENCH_* trajectory points against regressions.

Usage::

    python benchmarks/compare_bench.py [BASELINE_DIR [CURRENT_DIR]]
                                       [--threshold 0.20]

Compares freshly generated benchmark JSONs in CURRENT_DIR (default
``.bench_out/``, where every ``benchmarks/test_*.py`` writes its trajectory
point) against the committed ones in BASELINE_DIR (default: the repository
root), on the higher-is-better metrics below, and exits non-zero when any
metric dropped by more than ``threshold`` (default 20%).  Missing baseline files or keys are skipped
with a note, so the guard bootstraps cleanly when a new benchmark lands;
a metric present in the baseline but absent from the current run (renamed
or retired key) is likewise skipped rather than failed.

Caveat: several metrics are absolute throughputs measured on the machine
that committed the baseline, so a materially slower CI runner can trip the
gate without a code regression.  When that happens, regenerate the
committed BENCH_*.json on the runner class CI uses (or raise
``--threshold``) rather than chasing phantom regressions.

The benches never write to the committed files, so a benchmark run leaves
the working tree clean.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: The repository root, which holds the committed ``BENCH_*.json`` baselines.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The gitignored directory the benches write their fresh JSONs into.
BENCH_OUT = os.path.join(ROOT, ".bench_out")

#: (file, dotted key path, human label); all metrics are higher-is-better.
METRICS = [
    ("BENCH_explore.json", "prefix_oracle.paths_per_sec", "Phase-1 paths/sec"),
    ("BENCH_explore.json", "query_reduction", "Phase-1 query reduction"),
    ("BENCH_solver.json", "sat_core.decisions_per_sec", "SAT decisions/sec"),
    ("BENCH_solver.json", "sat_core.propagations_per_sec", "SAT propagations/sec"),
    ("BENCH_solver.json", "intern.hit_rate", "Intern hit rate"),
    ("BENCH_triage.json", "corpus.replays_per_sec", "Corpus replays/sec"),
    ("BENCH_triage.json", "minimization.shrink_ratio", "Witness shrink ratio"),
    ("BENCH_triage.json", "triage.dedup_ratio", "Witness dedup ratio"),
    ("BENCH_eval.json", "eval.compiled_evals_per_sec", "Compiled evals/sec"),
    ("BENCH_eval.json", "eval.compiled_speedup", "Compiled vs interpreted"),
]


def _dig(obj, dotted):
    for part in dotted.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


def _load(directory, name):
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline_dir", nargs="?", default=ROOT,
                        help="directory with the committed BENCH_*.json "
                             "(default: the repository root)")
    parser.add_argument("current_dir", nargs="?", default=BENCH_OUT,
                        help="directory with the freshly generated BENCH_*.json "
                             "(default: .bench_out/)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="maximum tolerated fractional drop (default 0.20)")
    args = parser.parse_args(argv)

    failures = []
    rows = []
    for filename, key, label in METRICS:
        baseline_doc = _load(args.baseline_dir, filename)
        current_doc = _load(args.current_dir, filename)
        baseline = _dig(baseline_doc, key) if baseline_doc else None
        current = _dig(current_doc, key) if current_doc else None
        if baseline is None or not isinstance(baseline, (int, float)) or baseline <= 0:
            rows.append((label, "-", current, "skipped (no baseline)"))
            continue
        if current is None or not isinstance(current, (int, float)):
            # A metric present in the committed baseline but absent from the
            # fresh run means the current bench revision no longer emits it
            # (renamed or retired key) — skip it rather than failing, the same
            # way a missing baseline bootstraps cleanly in the other direction.
            rows.append((label, baseline, "-", "skipped (absent from current run)"))
            continue
        ratio = current / baseline
        status = "ok (%.2fx)" % ratio
        if ratio < 1.0 - args.threshold:
            status = "REGRESSED (%.2fx < %.2fx floor)" % (ratio, 1.0 - args.threshold)
            failures.append("%s: %.4g -> %.4g (%.0f%% drop, threshold %.0f%%)"
                            % (label, baseline, current,
                               100 * (1 - ratio), 100 * args.threshold))
        rows.append((label, baseline, current, status))

    width = max(len(row[0]) for row in rows) if rows else 0
    print("benchmark comparison (baseline=%s, current=%s, threshold=%.0f%%)"
          % (args.baseline_dir, args.current_dir, 100 * args.threshold))
    for label, baseline, current, status in rows:
        print("  %-*s  baseline=%-12s current=%-12s %s"
              % (width, label,
                 "%.4g" % baseline if isinstance(baseline, (int, float)) else baseline,
                 "%.4g" % current if isinstance(current, (int, float)) else current,
                 status))

    if failures:
        print("\nFAIL: %d metric(s) regressed beyond the threshold:" % len(failures))
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nOK: no metric regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
