"""The ``soft`` command line tool.

Mirrors the three tools of the paper's prototype (§4) plus convenience
commands::

    soft list-tests                 # the Table-1 catalogue
    soft list-agents                # registered agents under test
    soft explore --agent reference --test packet_out --save ref_po.json
    soft explore --load ref_po.json
    soft run --test packet_out --agent-a reference --agent-b ovs
    soft campaign --tests all --agents reference,ovs,modified --workers 4 \\
                  --json out.json
    soft campaign --tests stats_request --agents reference \\
                  --artifact vendor_ovs.json
    soft triage --tests flow_mod --agents reference,modified \\
                --corpus corpus/   # cluster + minimize witnesses, persist them
    soft corpus run --dir corpus/  # solver-free regression replay
    soft oftest --agent ovs         # the manual baseline suite
    soft fuzz --agent-a reference --agent-b ovs --iterations 200
    soft lint                       # static analysis over the repro stack
    soft bench --suite eval,explore # benchmarks vs committed baselines
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.agents import AGENT_REGISTRY, agent_registry
from repro.baselines.fuzzer import DifferentialFuzzer
from repro.baselines.oftest import run_suite
from repro.core.artifacts import load_exploration_artifact, save_exploration_artifact
from repro.core.campaign import Campaign
from repro.core.corpus import WitnessCorpus
from repro.core.explorer import explore_agent
from repro.core.grouping import group_paths
from repro.core.tests_catalog import TABLE1_TESTS, VALID_SCALES, catalog
from repro.errors import (
    ArtifactError,
    CampaignError,
    CheckpointError,
    CorpusError,
    WitnessError,
)

__all__ = ["main", "build_parser"]

#: ``soft bench`` suites: name -> pytest file (each writes one
#: ``.bench_out/BENCH_*.json`` trajectory point).
BENCH_SUITES = {
    "explore": "benchmarks/test_exploration.py",
    "solver": "benchmarks/test_solver_core.py",
    "triage": "benchmarks/test_triage_corpus.py",
    "eval": "benchmarks/test_eval_core.py",
}


def _split_csv(value: str) -> List[str]:
    """Split a comma-separated CLI list, dropping empty items."""

    return [item.strip() for item in value.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soft",
        description="SOFT: systematic OpenFlow switch interoperability testing "
                    "(CoNEXT 2012 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-tests", help="list the Table-1 test specifications")
    subparsers.add_parser("list-agents", help="list the registered agents under test")

    explore = subparsers.add_parser("explore", help="Phase 1: symbolically execute one agent")
    explore.add_argument("--agent", choices=sorted(AGENT_REGISTRY),
                         help="agent to explore (required unless --load is given)")
    explore.add_argument("--test", choices=TABLE1_TESTS,
                         help="test to explore (required unless --load is given)")
    explore.add_argument("--coverage", action="store_true",
                         help="also report instruction/branch coverage")
    explore.add_argument("--profile", nargs="?", const=25, type=int, default=None,
                         metavar="N",
                         help="profile the exploration with cProfile and print "
                              "the top N functions by cumulative time "
                              "(default N: 25)")
    explore.add_argument("--save", metavar="FILE",
                         help="save the Phase-1 artifact (vendor exchange format) as JSON")
    explore.add_argument("--load", metavar="FILE",
                         help="load and summarize a saved artifact instead of exploring")

    run = subparsers.add_parser("run", help="full pipeline: explore, group, crosscheck, replay")
    run.add_argument("--test", required=True, choices=TABLE1_TESTS)
    run.add_argument("--agent-a", default="reference", choices=sorted(AGENT_REGISTRY))
    run.add_argument("--agent-b", default="ovs", choices=sorted(AGENT_REGISTRY))
    run.add_argument("--no-replay", action="store_true",
                     help="skip concrete replay of generated test cases")

    campaign = subparsers.add_parser(
        "campaign",
        help="N tests x M agents: explore once per (agent, test), crosscheck all pairs")
    campaign.add_argument("--tests", default="all",
                          help="comma-separated test keys, or 'all' (default)")
    campaign.add_argument("--agents", default="",
                          help="comma-separated agent names (>= 2 unless --artifact "
                               "or --pairs supplies more)")
    campaign.add_argument("--pairs", default="",
                          help="explicit a:b pairs (comma-separated) instead of all-pairs")
    campaign.add_argument("--artifact", action="append", default=[], metavar="FILE",
                          help="seed Phase 1 from a saved artifact (repeatable); the "
                               "artifact's agent joins the campaign")
    campaign.add_argument("--workers", type=int, default=1,
                          help="worker pool width for exploration and pair crosschecks")
    campaign.add_argument("--executor", choices=("thread", "process"), default="thread",
                          help="pool kind for Phase 1 (process = true CPU parallelism)")
    campaign.add_argument("--no-replay", action="store_true",
                          help="skip concrete replay of generated test cases")
    campaign.add_argument("--no-minimize", action="store_true",
                          help="skip delta-minimization of witnesses")
    campaign.add_argument("--cell-timeout", type=float, default=None,
                          metavar="SECONDS", dest="cell_timeout",
                          help="per-cell wall-clock deadline; a cell still running "
                               "at the deadline is recorded as timed_out instead "
                               "of hanging the whole campaign")
    campaign.add_argument("--retries", type=int, default=1,
                          help="extra attempts per cell after a crash or failure "
                               "(default 1; re-queued at once, no backoff)")
    campaign.add_argument("--checkpoint", metavar="DIR", default=None,
                          help="journal every finished cell into DIR so an "
                               "interrupted campaign can be resumed")
    campaign.add_argument("--resume", action="store_true",
                          help="skip cells already completed in the --checkpoint "
                               "directory (requires --checkpoint)")
    campaign.add_argument("--fault-plan", metavar="FILE", dest="fault_plan",
                          default=None,
                          help="install a JSON fault-injection plan (testing "
                               "only: deterministic hangs/crashes/corruption "
                               "at named sites)")
    campaign.add_argument("--corpus", metavar="DIR", default=None,
                          help="persist confirmed witnesses into DIR as "
                               "regression bundles")
    campaign.add_argument("--json", metavar="FILE", dest="json_out",
                          help="write the machine-readable report to FILE ('-' = stdout)")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress the human-readable table")

    triage = subparsers.add_parser(
        "triage",
        help="campaign + witness triage: replay-confirm, minimize and cluster "
             "every inconsistency; optionally persist the corpus")
    triage.add_argument("--tests", default="all",
                        help="comma-separated test keys, or 'all' (default)")
    triage.add_argument("--agents", default="",
                        help="comma-separated agent names (>= 2)")
    triage.add_argument("--pairs", default="",
                        help="explicit a:b pairs (comma-separated) instead of all-pairs")
    triage.add_argument("--workers", type=int, default=1,
                        help="worker pool width for exploration and pair crosschecks")
    triage.add_argument("--no-minimize", action="store_true",
                        help="skip delta-minimization of witnesses")
    triage.add_argument("--minimize-budget", type=int, default=96,
                        help="max replay-oracle runs per witness (default 96)")
    triage.add_argument("--corpus", metavar="DIR",
                        help="persist confirmed cluster representatives as witness "
                             "bundles into DIR")
    triage.add_argument("--json", metavar="FILE", dest="json_out",
                        help="write the machine-readable triage report to FILE "
                             "('-' = stdout)")
    triage.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable table")

    corpus = subparsers.add_parser(
        "corpus", help="operate on a persistent witness corpus")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_run = corpus_sub.add_parser(
        "run", help="replay every stored witness solver-free against the "
                    "current agents; non-zero exit on any non-diverging witness")
    corpus_run.add_argument("--dir", required=True, metavar="DIR",
                            help="corpus directory of witness bundles")
    corpus_run.add_argument("--json", metavar="FILE", dest="json_out",
                            help="write the machine-readable run report to FILE "
                                 "('-' = stdout)")
    corpus_run.add_argument("--quiet", action="store_true",
                            help="suppress the per-witness table")
    corpus_list = corpus_sub.add_parser(
        "list", help="list the witness bundles stored in a corpus directory")
    corpus_list.add_argument("--dir", required=True, metavar="DIR",
                             help="corpus directory of witness bundles")

    oftest = subparsers.add_parser("oftest", help="run the OFTest-style manual baseline suite")
    oftest.add_argument("--agent", required=True, choices=sorted(AGENT_REGISTRY))

    fuzz = subparsers.add_parser("fuzz", help="differential random fuzzing baseline")
    fuzz.add_argument("--agent-a", default="reference", choices=sorted(AGENT_REGISTRY))
    fuzz.add_argument("--agent-b", default="ovs", choices=sorted(AGENT_REGISTRY))
    fuzz.add_argument("--iterations", type=int, default=100)
    fuzz.add_argument("--seed", type=int, default=0,
                      help="RNG seed; the same seed replays the same campaign")
    fuzz.add_argument("--mine-constants", action="store_true",
                      help="bias random fields toward constants mined from the "
                           "agents' branch comparisons (decision-map analysis)")

    lint = subparsers.add_parser(
        "lint",
        help="static analysis: broad excepts, symbex-incompatible agent "
             "constructs, unlocked shared state; non-zero exit on findings")
    lint.add_argument("--path", action="append", default=[], metavar="PATH",
                      help="file or directory to lint (repeatable; default: "
                           "the installed repro package)")
    lint.add_argument("--rules", default="",
                      help="comma-separated rule subset (default: all rules)")
    lint.add_argument("--json", metavar="FILE", dest="json_out",
                      help="write the machine-readable lint report to FILE "
                           "('-' = stdout)")
    lint.add_argument("--quiet", action="store_true",
                      help="suppress the human-readable table")

    bench = subparsers.add_parser(
        "bench",
        help="run the benchmark suite and compare against the committed "
             "BENCH_*.json baselines; non-zero exit on a >threshold regression")
    bench.add_argument("--suite", default="all",
                       help="comma-separated benchmark subset (%s) or 'all'"
                            % ",".join(sorted(BENCH_SUITES)))
    bench.add_argument("--threshold", type=float, default=0.20,
                       help="relative regression that fails the comparison "
                            "(default: 0.20)")

    return parser


def _run_profiled(top: int, fn):
    """Run *fn* under cProfile, printing the top-N cumulative-time functions.

    The profile goes to stderr so ``--json -`` output on stdout stays
    machine-parseable.
    """

    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        print("\n-- cProfile: top %d functions by cumulative time --" % top,
              file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        stats.print_stats(top)


def _cmd_list_tests() -> int:
    for key, spec in catalog().items():
        print("%-14s %-12s %s" % (key, "(%d msgs)" % spec.message_count, spec.description))
    return 0


def _cmd_list_agents() -> int:
    from repro.analysis.lint import lint_class

    for name, info in sorted(agent_registry().items()):
        description = info.description or "(no description)"
        print("%-12s %s" % (name, description))
        if info.vendor:
            print("%-12s   models: %s" % ("", info.vendor))
        for finding in lint_class(info.factory):
            if not finding.suppressed:
                print("%-12s   symbex-compat: %s:%d: %s"
                      % ("", finding.path, finding.line, finding.message))
    return 0


def _print_exploration_summary(report, grouped) -> None:
    print("agent=%s test=%s" % (report.agent_name, report.test_key))
    print("  paths explored:        %d" % report.path_count)
    print("  distinct outputs:      %d" % grouped.distinct_output_count)
    print("  cpu time:              %.2fs" % report.cpu_time)
    engine_stats = report.engine_stats or {}
    if engine_stats.get("solver_queries") is not None:
        print("  solver queries:        %d" % engine_stats["solver_queries"])
    print("  avg constraint size:   %.1f" % report.average_constraint_size())
    print("  max constraint size:   %d" % report.max_constraint_size())
    if report.coverage is not None:
        print("  instruction coverage:  %.1f%%" % (100 * report.coverage.instruction_coverage))
        print("  branch coverage:       %.1f%%" % (100 * report.coverage.branch_coverage))
    for group in grouped.groups:
        print("  output group: %s" % group.describe())


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.load:
        report = load_exploration_artifact(args.load)
        print("loaded artifact %s" % args.load)
    else:
        if not args.agent or not args.test:
            print("error: --agent and --test are required unless --load is given",
                  file=sys.stderr)
            return 2

        def run_exploration():
            return explore_agent(args.agent, args.test,
                                 with_coverage=args.coverage)

        if args.profile:
            report = _run_profiled(args.profile, run_exploration)
        else:
            report = run_exploration()
    grouped = group_paths(report)
    _print_exploration_summary(report, grouped)
    if args.save:
        save_exploration_artifact(report, args.save)
        print("saved artifact to %s" % args.save)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    report = Campaign(tests=[args.test], pairs=[(args.agent_a, args.agent_b)],
                      replay_testcases=not args.no_replay).run()
    for failure in report.job_failures:
        print("error: cell %s" % failure.describe(), file=sys.stderr)
    for pair_report in report.reports:
        print(pair_report.describe())
    return report.exit_code


def _configure_campaign(campaign: Campaign, args: argparse.Namespace) -> Optional[int]:
    """Apply the shared --tests/--agents/--pairs options; exit code on error."""

    tests = _split_csv(args.tests) or ["all"]
    campaign.with_tests(*tests)
    agents = _split_csv(args.agents)
    if agents:
        campaign.with_agents(*agents)
    pairs = _split_csv(args.pairs)
    if pairs:
        parsed = []
        for pair in pairs:
            halves = pair.split(":")
            if len(halves) != 2 or not halves[0] or not halves[1]:
                print("error: --pairs entries must look like agentA:agentB, got %r"
                      % pair, file=sys.stderr)
                return 2
            parsed.append((halves[0], halves[1]))
        campaign.with_pairs(*parsed)
    return None


def _write_json(rendered: str, json_out: str, quiet: bool) -> int:
    if json_out == "-":
        print(rendered)
        return 0
    try:
        with open(json_out, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
    except OSError as exc:
        print("error: cannot write JSON report: %s" % exc, file=sys.stderr)
        return 2
    if not quiet:
        print("wrote JSON report to %s" % json_out)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan:
        from repro.testing.faults import load_fault_plan

        try:
            fault_plan = load_fault_plan(args.fault_plan)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    campaign = Campaign(workers=args.workers, executor=args.executor,
                        replay_testcases=not args.no_replay,
                        minimize=not args.no_minimize,
                        cell_timeout=args.cell_timeout,
                        retries=args.retries,
                        checkpoint_dir=args.checkpoint,
                        resume=args.resume,
                        fault_plan=fault_plan,
                        corpus_dir=args.corpus)
    error = _configure_campaign(campaign, args)
    if error is not None:
        return error
    for path in args.artifact:
        campaign.load_artifact(path)

    report = campaign.run()

    if report.unused_loaded_agents:
        print("warning: loaded artifact(s) for %s matched no pair and were unused"
              % ", ".join(report.unused_loaded_agents), file=sys.stderr)
    if report.executor_degraded:
        print("warning: executor degraded: process pool fell back to threads "
              "after %d event(s); see executor_degraded in the JSON report"
              % len(report.executor_degraded), file=sys.stderr)
    if not args.quiet:
        print(report.describe())
    if args.json_out:
        code = _write_json(report.to_json(), args.json_out, args.quiet)
        if code:
            return code
    return report.exit_code


def _cmd_triage(args: argparse.Namespace) -> int:
    import json as json_mod

    campaign = Campaign(workers=args.workers, minimize=not args.no_minimize,
                        minimize_budget=args.minimize_budget,
                        corpus_dir=args.corpus)
    error = _configure_campaign(campaign, args)
    if error is not None:
        return error

    report = campaign.run()
    triage = report.triage

    if not args.quiet:
        print(triage.describe())
        for cluster in triage.clusters:
            print(cluster.describe())
        if args.corpus:
            print("corpus: %d new bundle(s) saved to %s"
                  % (report.corpus_saved, args.corpus))
    if args.json_out:
        rendered = json_mod.dumps({
            "format": "soft/triage-report/v1",
            "campaign_totals": {
                "pair_reports": report.pair_count,
                "solver_queries": report.total_queries,
                "inconsistencies": report.total_inconsistencies,
                "replay_verified": report.total_replay_verified,
                "total_time": report.total_time,
            },
            "triage": triage.to_dict(),
            "corpus": ({"dir": args.corpus, "saved": report.corpus_saved}
                       if args.corpus else None),
        }, indent=2)
        code = _write_json(rendered, args.json_out, args.quiet)
        if code:
            return code
    if report.exit_code:
        return report.exit_code
    return 0 if triage.unconfirmed_witnesses == 0 else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    corpus = WitnessCorpus(args.dir, create=False)
    if args.corpus_command == "list":
        for witness in corpus.load():
            minimization = witness.minimization
            print("%-60s %d var(s), %d input(s)%s"
                  % (witness.signature.short(), witness.variable_count,
                     witness.input_count,
                     "" if minimization is None else
                     " (minimized from %d)" % minimization.original_variables))
        print("%d witness bundle(s) in %s" % (len(corpus), args.dir))
        return 0

    report = corpus.run()
    if not args.quiet:
        print(report.describe())
    if args.json_out:
        import json as json_mod

        code = _write_json(json_mod.dumps(report.to_dict(), indent=2),
                           args.json_out, args.quiet)
        if code:
            return code
    return 0 if report.ok else 1


def _cmd_oftest(args: argparse.Namespace) -> int:
    results = run_suite(args.agent)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        print("%-4s %-28s %s" % (status, result.case_name, result.trace_summary))
    print("%d/%d cases passed" % (len(results) - failures, len(results)))
    return 1 if failures else 0


def _mined_pool(*agent_names: str) -> List[int]:
    """Merged interesting-value pool from the agents' decision maps."""

    from repro.analysis.decision_map import decision_map_for_agent

    pool: set = set()
    for name in agent_names:
        pool.update(decision_map_for_agent(name).interesting_values())
    return sorted(pool)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    interesting = _mined_pool(args.agent_a, args.agent_b) if args.mine_constants else None
    fuzzer = DifferentialFuzzer(args.agent_a, args.agent_b, seed=args.seed,
                                interesting_values=interesting)
    report = fuzzer.run(iterations=args.iterations)
    if interesting:
        print("mined %d interesting constant(s) from decision maps" % len(interesting))
    print("%d iterations, %d divergences (%.1f%%)" % (
        report.iterations, report.divergence_count, 100 * report.divergence_rate))
    for divergence in report.divergences[:20]:
        print("  #%d %s" % (divergence.iteration, divergence.description))
        print("    %s: %s" % (report.agent_a, divergence.trace_a))
        print("    %s: %s" % (report.agent_b, divergence.trace_b))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.analysis.lint import run_lint

    paths = args.path
    if not paths:
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    rules = _split_csv(args.rules) or None
    try:
        report = run_lint(paths, rules=rules)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if not args.quiet:
        print(report.describe())
    if args.json_out:
        code = _write_json(json_mod.dumps(report.to_dict(), indent=2),
                           args.json_out, args.quiet)
        if code:
            return code
    return 0 if report.ok else 1


def _find_bench_root() -> Optional[str]:
    """Locate the repo checkout holding benchmarks/ and the committed baselines.

    Tries the working directory first (the common case: running ``soft bench``
    from a checkout), then the source tree the installed package came from.
    """

    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    for root in (os.getcwd(), package_root):
        if os.path.isfile(os.path.join(root, "benchmarks", "compare_bench.py")):
            return root
    return None


def _cmd_bench(args: argparse.Namespace) -> int:
    import subprocess

    root = _find_bench_root()
    if root is None:
        print("error: cannot find a repo checkout with benchmarks/ "
              "(run soft bench from the repository root)", file=sys.stderr)
        return 2

    names = _split_csv(args.suite) or ["all"]
    if names == ["all"]:
        names = sorted(BENCH_SUITES)
    unknown = [name for name in names if name not in BENCH_SUITES]
    if unknown:
        print("error: unknown benchmark suite(s): %s (valid: %s)"
              % (", ".join(unknown), ", ".join(sorted(BENCH_SUITES))),
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    extra = [os.path.join(root, "src"), root]
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in extra + [env.get("PYTHONPATH", "")] if path)

    failed = []
    for name in names:
        test_file = BENCH_SUITES[name]
        print("== bench: %s (%s) ==" % (name, test_file))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-s", test_file],
            cwd=root, env=env)
        if proc.returncode:
            failed.append(name)

    # Committed BENCH_*.json at the root vs the fresh ones in .bench_out/.
    compare = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "compare_bench.py"),
         "--threshold", str(args.threshold)],
        cwd=root, env=env)

    if failed:
        print("error: benchmark suite(s) failed: %s" % ", ".join(failed),
              file=sys.stderr)
        return 1
    return compare.returncode


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""

    raw_scale = os.environ.get("SOFT_SCALE")
    if raw_scale is not None and raw_scale.strip().lower() not in VALID_SCALES:
        print("error: SOFT_SCALE=%r is not a valid scale; valid scales: %s"
              % (raw_scale, ", ".join(VALID_SCALES)), file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-tests":
            return _cmd_list_tests()
        if args.command == "list-agents":
            return _cmd_list_agents()
        if args.command == "explore":
            return _cmd_explore(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "triage":
            return _cmd_triage(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        if args.command == "oftest":
            return _cmd_oftest(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "bench":
            return _cmd_bench(args)
    except (ArtifactError, CampaignError, CheckpointError, CorpusError,
            WitnessError) as exc:
        print("error: %s" % (exc.args[0] if exc.args else exc), file=sys.stderr)
        return 2
    parser.error("unknown command %r" % (args.command,))
    return 2


if __name__ == "__main__":
    sys.exit(main())
