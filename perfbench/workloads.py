"""The benchmark's workloads: what each runs, at which scale, and why.

Pure data, importable without ``repro``: the runner uses it to derive each
run's inputs from ``--seed``, the child process to execute them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["Workload", "WORKLOADS", "TABLE1_TESTS", "AGENTS"]

#: The Table-1 catalogue, in catalogue order (mirrors repro's TABLE1_TESTS).
TABLE1_TESTS = ("packet_out", "stats_request", "set_config", "flow_mod",
                "eth_flow_mod", "cs_flow_mods", "concrete", "short_symb")
AGENTS = ("reference", "ovs", "modified")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``campaign``: one ``Campaign.run`` over tests x agents (all pairs).
    #: ``vendor``: per (agent, test) unit, explore -> save artifact -> load.
    kind: str
    tests: Tuple[str, ...]
    agents: Tuple[str, ...]
    #: Value of ``SOFT_SCALE`` in the child process.
    scale: str
    why: str

    @property
    def cells_per_run(self) -> int:
        """Cells one child attempts (campaign: Phase-1 units plus pairs)."""

        if self.kind == "vendor":
            return len(self.tests) * len(self.agents)
        pairs = len(self.agents) * (len(self.agents) - 1) // 2
        return len(self.tests) * (len(self.agents) + pairs)

    def order(self, rng: random.Random) -> List:
        """The seeded input order of one run.

        A campaign gets its tests in a permuted order (the agent order, and
        with it each pair's orientation, stays fixed); a vendor run gets its
        (agent, test) units in a permuted order.  Neither changes what a
        correct program outputs, only the order it meets the work in.
        """

        if self.kind == "vendor":
            units = [[agent, test] for test in self.tests for agent in self.agents]
            rng.shuffle(units)
            return units
        tests = list(self.tests)
        rng.shuffle(tests)
        return tests


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="catalog", kind="campaign", tests=TABLE1_TESTS, agents=AGENTS,
            scale="small",
            why="all 8 Table-1 tests x 3 agents with soft campaign defaults; "
                "the north-star number, ~92% crosscheck on sparse pair matrices"),
        Workload(
            name="flowmods", kind="campaign",
            tests=("flow_mod", "eth_flow_mod", "cs_flow_mods"), agents=AGENTS,
            scale="small",
            why="flow-mod tests x 3 agents: small dense pair matrices (15% SAT), "
                "replay and minimization take their largest share"),
        Workload(
            name="explore-paper", kind="vendor",
            tests=("flow_mod", "eth_flow_mod"), agents=("reference", "modified"),
            scale="paper",
            why="paper-scale Phase 1 plus artifact save/load round trip, no "
                "crosscheck: moves with explorer and artifact cost only"),
    )
}
