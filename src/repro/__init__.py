"""SOFT: Systematic OpenFlow switch interoperability Testing.

A from-scratch Python reproduction of "A SOFT Way for OpenFlow Switch
Interoperability Testing" (Kuzniar et al., CoNEXT 2012), including every
substrate the system needs:

* :mod:`repro.symbex` — a symbolic execution engine with a bit-vector
  constraint solver (the Cloud9 + STP replacement);
* :mod:`repro.wire`, :mod:`repro.openflow`, :mod:`repro.packetlib` — the
  OpenFlow 1.0 wire protocol and data-plane packets, symbolic-aware;
* :mod:`repro.agents` — three OpenFlow agent implementations to crosscheck
  (Reference Switch, Open vSwitch-style, Modified Switch);
* :mod:`repro.harness` — the emulated controller / data-plane test driver;
* :mod:`repro.core` — SOFT itself: per-agent exploration, grouping of path
  conditions by output, solver-based crosschecking, and concrete test-case
  generation with replay;
* :mod:`repro.coverage` — instruction/branch coverage of agent code;
* :mod:`repro.baselines` — an OFTest-style manual suite and a random fuzzer
  for comparison.

Quickstart::

    from repro import Campaign

    report = (Campaign()
              .with_tests("packet_out", "stats_request")
              .with_agents("reference", "ovs", "modified")
              .with_workers(4)
              .run())
    print(report.describe())

:class:`Campaign` is the one entry point to the pipeline; a single pair on
a single test is a one-pair campaign, whose one :class:`SoftReport` is the
pair's result::

    from repro import Campaign

    report = Campaign(tests=["packet_out"], pairs=[("reference", "ovs")]).run()
    print(report.reports[0].describe())
"""

from repro.version import __version__
from repro.core.soft import SoftReport
from repro.core.campaign import Campaign, CampaignReport, ExplorationCache
from repro.core.artifacts import (
    load_exploration_artifact,
    load_exploration_artifacts,
    save_exploration_artifact,
)
from repro.core.explorer import AgentExplorationReport, explore_agent
from repro.core.grouping import group_paths
from repro.core.crosscheck import find_inconsistencies
from repro.core.testcase import build_testcase, replay_testcase
from repro.core.witness import (
    DivergenceSignature,
    TriageReport,
    Witness,
    WitnessCluster,
    build_witness,
    minimize_witness,
)
from repro.core.corpus import CorpusRunReport, WitnessCorpus
from repro.core.tests_catalog import catalog, get_test
from repro.agents import agent_registry, make_agent, register_agent

__all__ = [
    "__version__",
    "SoftReport",
    "Campaign",
    "CampaignReport",
    "ExplorationCache",
    "AgentExplorationReport",
    "save_exploration_artifact",
    "load_exploration_artifact",
    "load_exploration_artifacts",
    "explore_agent",
    "group_paths",
    "find_inconsistencies",
    "build_testcase",
    "replay_testcase",
    "Witness",
    "WitnessCluster",
    "DivergenceSignature",
    "TriageReport",
    "build_witness",
    "minimize_witness",
    "WitnessCorpus",
    "CorpusRunReport",
    "catalog",
    "get_test",
    "make_agent",
    "register_agent",
    "agent_registry",
]
