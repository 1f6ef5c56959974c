"""SOFT core: the paper's primary contribution.

The pipeline has three stages, matching §3 and §4 of the paper:

1. :mod:`repro.core.explorer` — Phase 1: symbolically execute one agent with a
   test specification from :mod:`repro.core.tests_catalog`, producing one
   (path condition, normalized output trace) record per explored path.
2. :mod:`repro.core.grouping` — group path conditions by identical output
   trace (the paper's *group* tool).
3. :mod:`repro.core.crosscheck` — for every pair of differing outputs across
   two agents, ask the solver whether a common input exists (the paper's
   *inconsistency finder*), then build and replay a concrete test case
   (:mod:`repro.core.testcase`).

:class:`repro.core.campaign.Campaign` runs the stages over N tests x M agents
and returns one :class:`repro.core.soft.SoftReport` per (test, pair).
"""

from repro.core.events import (
    AgentCrashEvent,
    ControllerMessageEvent,
    DataplaneOutEvent,
    Event,
    ProbeDroppedEvent,
)
from repro.core.trace import OutputTrace, normalize_events
from repro.core.tests_catalog import TestSpec, catalog, get_test
from repro.core.explorer import AgentExplorationReport, explore_agent
from repro.core.grouping import GroupedResults, group_paths
from repro.core.crosscheck import CrosscheckReport, Inconsistency, find_inconsistencies
from repro.core.testcase import ConcreteTestCase, ReplayOutcome, build_testcase, replay_testcase
from repro.core.witness import (
    DivergenceSignature,
    TriageReport,
    Witness,
    WitnessCluster,
    build_witness,
    minimize_witness,
)
from repro.core.corpus import CorpusRunReport, WitnessCorpus
from repro.core.soft import SoftReport

__all__ = [
    "Event",
    "ControllerMessageEvent",
    "DataplaneOutEvent",
    "AgentCrashEvent",
    "ProbeDroppedEvent",
    "OutputTrace",
    "normalize_events",
    "TestSpec",
    "catalog",
    "get_test",
    "AgentExplorationReport",
    "explore_agent",
    "GroupedResults",
    "group_paths",
    "CrosscheckReport",
    "Inconsistency",
    "find_inconsistencies",
    "ConcreteTestCase",
    "ReplayOutcome",
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
    "SoftReport",
]
