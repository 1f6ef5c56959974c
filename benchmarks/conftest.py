"""Shared infrastructure for the benchmark harness.

Explorations, groupings and crosschecks are cached per session so that the
benches regenerating different tables (which share the same underlying runs,
exactly like the paper's tables share one set of Cloud9 runs) do not repeat
the expensive Phase-1 work.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from benchmarks.compare_bench import BENCH_OUT
from repro.core.crosscheck import CrosscheckReport, find_inconsistencies
from repro.core.explorer import AgentExplorationReport, explore_agent
from repro.core.grouping import GroupedResults, group_paths
from repro.core.tests_catalog import get_test
from repro.symbex.engine import EngineConfig

_EXPLORATIONS: Dict[Tuple, AgentExplorationReport] = {}
_GROUPINGS: Dict[Tuple, GroupedResults] = {}
_CROSSCHECKS: Dict[Tuple, CrosscheckReport] = {}

#: Paths explored per (agent, test) when coverage tracing is armed; tracing
#: slows the agent code down considerably and coverage saturates early.
COVERAGE_MAX_PATHS = 200


def cached_exploration(agent: str, test, with_coverage: bool = False,
                       max_paths: Optional[int] = None) -> AgentExplorationReport:
    spec = get_test(test) if isinstance(test, str) else test
    key = (agent, spec.key, with_coverage, max_paths)
    if key not in _EXPLORATIONS:
        engine_config = EngineConfig(max_paths=max_paths) if max_paths else None
        _EXPLORATIONS[key] = explore_agent(agent, spec, with_coverage=with_coverage,
                                           engine_config=engine_config)
    return _EXPLORATIONS[key]


def cached_grouping(agent: str, test) -> GroupedResults:
    spec = get_test(test) if isinstance(test, str) else test
    key = (agent, spec.key)
    if key not in _GROUPINGS:
        _GROUPINGS[key] = group_paths(cached_exploration(agent, spec))
    return _GROUPINGS[key]


def cached_crosscheck(test, agent_a: str, agent_b: str) -> CrosscheckReport:
    spec = get_test(test) if isinstance(test, str) else test
    key = (spec.key, agent_a, agent_b)
    if key not in _CROSSCHECKS:
        _CROSSCHECKS[key] = find_inconsistencies(cached_grouping(agent_a, spec),
                                                 cached_grouping(agent_b, spec))
    return _CROSSCHECKS[key]


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


def print_table(title: str, header, rows) -> None:
    """Render a table to stdout (visible with ``pytest -s`` and in CI logs)."""

    print("\n== %s ==" % title)
    widths = [max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows
              else len(str(header[i])) for i in range(len(header))]
    print("  " + "  ".join(str(header[i]).ljust(widths[i]) for i in range(len(header))))
    for row in rows:
        print("  " + "  ".join(str(row[i]).ljust(widths[i]) for i in range(len(row))))


def write_bench(name: str, payload: Dict[str, object]) -> str:
    """Write one ``BENCH_*.json`` trajectory point into ``.bench_out/``.

    The committed file of the same name at the repository root is the
    baseline ``compare_bench.py`` compares this fresh point against.
    """

    os.makedirs(BENCH_OUT, exist_ok=True)
    path = os.path.join(BENCH_OUT, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print("\nwrote %s" % path)
    return path
