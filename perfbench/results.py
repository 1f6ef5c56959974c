"""Pure result logic: output digests, metric definitions and run verdicts.

Importable without ``repro`` so the benchmark's own tests can exercise it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from workloads import TABLE1_TESTS

__all__ = ["output_digest", "END_TO_END", "PER_LAYER", "SUMMARY_KEYS", "PINNED_KEYS",
           "failed_share", "summaries_agree", "expected_mismatches"]

#: (name, unit) of every end-to-end metric, reported with tracing off.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("confirmed_share", "ratio"),
)

#: (name, unit) of every per-layer metric, reported by the traced run.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("setup.s", "s"),
    ("explorer.s", "s"),
    ("explorer.calls", "count"),
    ("explorer.paths", "count"),
    ("explorer.paths_per_s", "1/s"),
    ("explorer.solver_queries", "count"),
    ("grouping.s", "s"),
    ("grouping.groups", "count"),
    ("crosscheck.s", "s"),
) + tuple(("crosscheck.s.%s" % test, "s") for test in TABLE1_TESTS) + (
    ("crosscheck.queries", "count"),
    ("crosscheck.inconsistencies", "count"),
    ("crosscheck.sat_share", "ratio"),
    ("crosscheck.assumption_solves", "count"),
    ("crosscheck.interval_decides", "count"),
    ("crosscheck.unknown", "count"),
    ("crosscheck.encode_s", "s"),
    ("crosscheck.solve_s", "s"),
    ("testcase.build.s", "s"),
    ("testcase.build.calls", "count"),
    ("testcase.build.unbound_vars", "count"),
    ("testcase.replay.s", "s"),
    ("testcase.replay.calls", "count"),
    ("testcase.replay.diverged_share", "ratio"),
    ("witness.minimize.s", "s"),
    ("witness.minimize.replays", "count"),
    ("witness.minimize.shrink_ratio", "ratio"),
    ("witness.cluster.s", "s"),
    ("witness.cluster.clusters", "count"),
    ("artifacts.save_s", "s"),
    ("artifacts.load_s", "s"),
    ("artifacts.mb", "MB"),
    ("jobs.cells", "count"),
    ("jobs.failed", "count"),
    ("jobs.retried", "count"),
    ("jobs.unattributed_s", "s"),
    ("expr.intern_hit_rate", "ratio"),
    ("expr.distinct_terms", "count"),
    ("simplify.hit_rate", "ratio"),
    ("compile.hit_rate", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: Output counts every run of the same code must reproduce exactly.
SUMMARY_KEYS = ("digest", "inconsistencies", "confirmed", "clusters", "paths")

#: The ones pinned in expected.json: they do not depend on which satisfying
#: example the solver returns, so any correct program gives them.  Per-unit
#: path counts catch a paper-scale run that silently explored at small scale.
PINNED_KEYS = ("digest", "inconsistencies", "paths", "unit_paths")


def output_digest(entries: Iterable[Sequence[object]]) -> str:
    """SHA-256 of the sorted, canonically rendered *entries*.

    Each entry is e.g. ``(test, agent_a, agent_b, trace_a, trace_b)``; the
    order the entries arrive in does not change the digest.
    """

    rendered = sorted(json.dumps(list(entry), sort_keys=True, separators=(",", ":"))
                      for entry in entries)
    return hashlib.sha256("\n".join(rendered).encode()).hexdigest()


def failed_share(attempted: int, failed: int) -> float:
    """Cells that ended non-``ok`` per cell attempted."""

    return failed / attempted if attempted else 1.0


def summaries_agree(summaries: Sequence[Dict[str, object]]) -> List[str]:
    """Differences between the output summaries of one run's children."""

    problems: List[str] = []
    if not summaries:
        return ["no child produced an output summary"]
    first = summaries[0]
    for index, other in enumerate(summaries[1:], start=2):
        for key in SUMMARY_KEYS:
            if other.get(key) != first.get(key):
                problems.append("child %d reports %s=%r, child 1 reported %r"
                                % (index, key, other.get(key), first.get(key)))
    return problems


def expected_mismatches(summary: Dict[str, object],
                        expected: Optional[Dict[str, object]]) -> List[str]:
    """Pinned outputs that differ from the workload's expected values."""

    if not expected:
        return ["no expected outputs recorded for this workload"]
    return ["%s is %r, expected %r" % (key, summary.get(key), expected[key])
            for key in PINNED_KEYS
            if key in expected and summary.get(key) != expected[key]]
