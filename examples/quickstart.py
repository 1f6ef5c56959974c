#!/usr/bin/env python3
"""Quickstart: find inconsistencies between two OpenFlow agents with SOFT.

Runs the full pipeline (symbolic exploration of each agent, grouping of path
conditions by output, solver-based crosschecking, concrete test-case
generation and replay) for the Packet Out test of the paper's Table 1, as a
one-pair campaign.

    python examples/quickstart.py
"""

from repro import Campaign


def main() -> None:
    campaign = Campaign(tests=["packet_out"], pairs=[("reference", "ovs")])
    report = campaign.run().reports[0]

    print(report.describe())
    print()
    print("Replayed %d concrete test cases; %d reproduced the divergence."
          % (len(report.witnesses), report.verified_inconsistency_count()))

    if report.witnesses:
        print()
        print("First witness (its test case minimized by replay):")
        print(report.witnesses[0].describe())


if __name__ == "__main__":
    main()
