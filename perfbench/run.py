"""SOFT end-to-end benchmark: run a workload in fresh processes, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

With ``--trace 0`` the run starts a few set-up-only processes, then one child
process per iteration until ``--seconds`` have passed (at least one), and
reports the median end-to-end metrics.  With ``--trace 1`` it runs one
untraced and one traced child and reports the per-layer metrics of the traced
one, plus the tracing overhead.  Each child's outputs are checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Everything the benchmark writes goes under ``perfbench/out/``: one JSON
record per run (with the commit, ``nproc`` and Python version) and, for traced
runs, the spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from results import (
    END_TO_END,
    PER_LAYER,
    expected_mismatches,
    failed_share,
    summaries_agree,
)
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

#: Set-up-only processes per untraced run; setup_s is their median.
SETUP_RUNS = 5
#: A run must finish within 180 s; children are not started past this.
RUN_BUDGET_S = 170.0


@dataclass
class Child:
    """One finished child process and what it reported."""

    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    result: Dict[str, object] = field(default_factory=dict)
    order: List = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and "setup_s" in self.result

    @property
    def wall_s(self) -> float:
        """Launch-to-exit wall time, minus the benchmark's own checking."""

        return self.wall - float(self.result.get("overhead_s", 0.0))

    @property
    def cpu_s(self) -> float:
        return self.cpu - float(self.result.get("overhead_cpu_s", 0.0))


def launch(workload: Workload, order: List, scratch: str, timeout: float,
           trace: bool = False, setup_only: bool = False) -> Child:
    """Run child.py once and collect its rusage and result."""

    handle, result_path = tempfile.mkstemp(prefix="child-", suffix=".json", dir=scratch)
    os.close(handle)
    env = dict(os.environ, PYTHONPATH=SRC, SOFT_SCALE=workload.scale)
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload.name, "--order", json.dumps(order),
               "--result", result_path, "--scratch", scratch,
               "--trace", "1" if trace else "0"]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    command += ["--launched", repr(time.time())]
    process = subprocess.Popen(command, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                               stdout=sys.stderr.fileno())
    killer = threading.Timer(max(1.0, timeout), process.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    result: Dict[str, object] = {}
    if process.returncode == 0:
        try:
            with open(result_path) as stream:
                result = json.load(stream)
        except (OSError, ValueError):
            result = {}
    return Child(returncode=process.returncode, wall=wall,
                 cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, result=result, order=order)


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED) as stream:
        return json.load(stream)


def verdict(workload: Workload, runs: List[Child], others: List[Child],
            expected: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Correctness, attempted and failed counts over a run's children.

    *runs* executed the workload; *others* only set up.  A child that did not
    finish counts every cell it would have run as failed.
    """

    errors: List[str] = []
    attempted = failed = 0
    for index, child in enumerate(runs, start=1):
        if not child.ok:
            errors.append("child %d exited with %d" % (index, child.returncode))
            attempted += workload.cells_per_run
            failed += workload.cells_per_run
            continue
        attempted += int(child.result["cells"])
        failed += int(child.result["failed_cells"])
        errors.extend("child %d: %s" % (index, problem)
                      for problem in child.result["errors"])
    errors.extend("set-up child exited with %d" % child.returncode
                  for child in others if not child.ok)
    summaries = [child.result["summary"] for child in runs if child.ok]
    errors.extend(summaries_agree(summaries))
    if summaries:
        errors.extend(expected_mismatches(summaries[0], expected))
    if failed:
        errors.append("%d of %d cells failed" % (failed, attempted))
    return {"correct": not errors, "attempted": max(1, attempted), "failed": failed,
            "errors": errors, "summary": summaries[0] if summaries else None}


def measure(workload: Workload, rng: random.Random, seconds: float,
            remaining: Callable[[], float],
            launch_one: Callable[[List], Child],
            clock: Callable[[], float] = time.perf_counter) -> List[Child]:
    """Iterations that fit in *seconds* (at least one), in balanced pairs.

    Each pair runs a seeded order and then its reverse, so order effects
    (peak RSS depends on which test runs last) cancel in the median.  After
    the first iteration, a pair starts only if both of its iterations are
    expected to end within the window and within the run's budget.
    """

    runs: List[Child] = []
    started = clock()

    def fits(iterations: int) -> bool:
        elapsed = clock() - started
        each = elapsed / len(runs)
        return (elapsed + iterations * each <= seconds
                and remaining() > (iterations + 0.5) * each)

    while not runs or fits(2):
        base = workload.order(rng)
        runs.append(launch_one(base))
        if len(runs) > 1 or fits(1):
            runs.append(launch_one(base[::-1]))
    return runs


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 scratch: str) -> Dict[str, object]:
    """One benchmark run: the result object plus the record written to out/."""

    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    rng = random.Random(seed)
    expected = _load_expected().get(workload.name)

    def remaining() -> float:
        return deadline - time.perf_counter()

    setups: List[Child] = []
    runs: List[Child] = []
    metrics: Dict[str, Dict[str, object]] = {}
    if trace:
        order = workload.order(rng)
        untraced = launch(workload, order, scratch, remaining())
        traced = launch(workload, order, scratch, remaining(), trace=True)
        runs = [untraced, traced]
        if untraced.ok and traced.ok:
            layers = dict(traced.result["layers"])
            layers["trace.coverage"] = float(traced.result["covered_s"]) / traced.wall_s
            layers["trace.overhead"] = traced.wall_s / untraced.wall_s - 1.0
            units = dict(PER_LAYER)
            metrics = {name: {"value": layers[name], "unit": units[name]}
                       for name, _ in PER_LAYER}
    else:
        setups = [launch(workload, [], scratch, remaining(), setup_only=True)
                  for _ in range(SETUP_RUNS)]
        runs = measure(workload, rng, seconds, remaining,
                       lambda order: launch(workload, order, scratch, remaining()))
        done = [child for child in runs if child.ok]
        if done and all(child.ok for child in setups):
            samples = {
                "wall_s": [child.wall_s for child in done],
                "cpu_s": [child.cpu_s for child in done],
                "setup_s": [float(child.result["setup_s"]) for child in setups + done],
                "peak_rss_mb": [child.rss_mb for child in done],
                "confirmed_share": [float(child.result["confirmed_share"]) for child in done],
            }
            metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                       for name, unit in END_TO_END}

    outcome = verdict(workload, runs, setups, expected)
    if not metrics:
        outcome["correct"] = False
        outcome["errors"].append("no metrics: a child did not finish")
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "run_s": time.perf_counter() - started,
        "children": [{"kind": kind, "order": child.order,
                      "returncode": child.returncode, "wall": child.wall,
                      "cpu": child.cpu, "rss_mb": child.rss_mb, "result": child.result}
                     for kind, group in (("setup", setups), ("run", runs))
                     for child in group],
        "metrics": metrics, **outcome,
    }
    return {"result": {"correct": outcome["correct"], "attempted": outcome["attempted"],
                       "failed": outcome["failed"], "metrics": metrics},
            "record": record}


def _print_run(workload: Workload, run: Dict[str, object]) -> None:
    record = run["record"]
    for name, metric in record["metrics"].items():
        print("%-14s %-32s %14.6f %s" % (workload.name, name, metric["value"], metric["unit"]))
    print("%-14s %-32s %14.6f %s" % (workload.name, "failed_share",
                                     failed_share(record["attempted"], record["failed"]),
                                     "ratio"))
    summary = record["summary"] or {}
    print("%-14s outputs: %s" % (workload.name, ", ".join(
        "%s=%s" % (key, summary[key]) for key in
        ("inconsistencies", "confirmed", "clusters", "paths", "digest") if key in summary)))
    for problem in record["errors"]:
        print("%-14s INCORRECT: %s" % (workload.name, problem))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: %s holds no SOFT sources; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    results: Dict[str, object] = {}
    try:
        for name in names:
            workload = WORKLOADS[name]
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace), scratch)
            stem = os.path.join(OUT, "%s-seed%d-trace%d" % (name, args.seed, args.trace))
            with open(stem + ".json", "w") as stream:
                json.dump(run["record"], stream, indent=2)
            for spans in sorted(os.listdir(scratch)):
                if spans.endswith(".spans.jsonl"):
                    shutil.move(os.path.join(scratch, spans), stem + ".spans.jsonl")
            _print_run(workload, run)
            results[name] = run["result"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
