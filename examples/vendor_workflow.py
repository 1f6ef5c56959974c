#!/usr/bin/env python3
"""Two-phase vendor workflow (paper §2.4), with serialized artifacts.

Phase 1 runs independently per vendor: each vendor symbolically executes its
own agent and *saves the intermediate result to a JSON artifact* — path
conditions plus normalized output traces, but no source code.  Only that file
leaves the vendor's premises.  Phase 2 — run by a third party such as the
ONF, or under an inter-vendor NDA — loads the artifacts into a
:class:`repro.Campaign` and crosschecks them without re-exploring anything,
handing each vendor a concrete reproducing test case per inconsistency.

The same flow is available on the command line::

    soft explore --agent reference --test stats_request --save vendor_a.json
    soft explore --agent ovs       --test stats_request --save vendor_b.json
    soft campaign --tests stats_request --artifact vendor_a.json \\
                  --artifact vendor_b.json --json report.json

Run this script with::

    python examples/vendor_workflow.py
"""

import tempfile

from repro import Campaign, explore_agent, save_exploration_artifact

TEST = "stats_request"


def vendor_phase(agent_name: str, artifact_path: str) -> None:
    """What a single vendor runs in-house: explore, then save the artifact."""

    print("[vendor:%s] exploring agent with test %r ..." % (agent_name, TEST))
    exploration = explore_agent(agent_name, TEST)
    save_exploration_artifact(exploration, artifact_path)
    print("[vendor:%s] %d paths explored (%.2fs cpu); artifact saved to %s"
          % (agent_name, exploration.path_count, exploration.cpu_time, artifact_path))


def interop_event(artifact_a: str, artifact_b: str) -> None:
    """What the interoperability event / third party runs: load and crosscheck."""

    print("[interop] loading artifacts and crosschecking (no re-exploration) ...")
    report = (Campaign()
              .load_artifact(artifact_a)
              .load_artifact(artifact_b)
              .run())
    assert report.explorations_run == 0, "artifacts fully covered Phase 1"
    pair = report.reports[0]
    print("[interop] %d solver queries, %d inconsistencies (%d replay-verified)"
          % (pair.crosscheck.queries, pair.inconsistency_count,
             pair.verified_inconsistency_count()))
    for index, inconsistency in enumerate(pair.inconsistencies, start=1):
        print("\n--- inconsistency %d ---" % index)
        print(inconsistency.describe())
    for witness in pair.witnesses:
        print("replay of %s confirms divergence: %s"
              % (witness.test_key, witness.confirmed))


def main() -> None:
    with tempfile.TemporaryDirectory() as exchange_dir:
        artifact_a = "%s/vendor_reference.json" % exchange_dir
        artifact_b = "%s/vendor_ovs.json" % exchange_dir
        vendor_phase("reference", artifact_a)
        vendor_phase("ovs", artifact_b)
        interop_event(artifact_a, artifact_b)


if __name__ == "__main__":
    main()
