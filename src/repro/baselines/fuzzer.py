"""Differential random fuzzing baseline.

The fuzzer generates concrete OpenFlow messages with random field values
(valid structure, arbitrary contents — comparable to structure-aware black-box
fuzzing), feeds the *same* messages to two agents, and records every pair of
divergent traces.  It needs no symbolic machinery, but it only samples the
input space: the probability of hitting, say, exactly ``OFPP_CONTROLLER`` in a
16-bit port field is 2^-16 per try.  The benchmark
``benchmarks/test_baseline_comparison.py`` quantifies this against SOFT.

One *seed* reproduces a whole run: the fuzzer draws from its own
:class:`random.Random`, with no module-global randomness anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.agents import make_agent
from repro.harness.driver import run_concrete_sequence
from repro.openflow import constants as c
from repro.openflow.actions import ActionOutput, RawAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketOut, QueueGetConfigRequest, StatsRequest
from repro.packetlib.builder import build_tcp_packet
from repro.wire.buffer import SymBuffer

__all__ = ["DifferentialFuzzer", "FuzzDivergence", "FuzzReport"]

InputSequence = List[Tuple[str, object]]


@dataclass
class FuzzDivergence:
    """One random input on which the two agents behaved differently."""

    iteration: int
    description: str
    trace_a: str
    trace_b: str


@dataclass
class FuzzReport:
    """Aggregate result of one fuzzing campaign."""

    agent_a: str
    agent_b: str
    iterations: int
    divergences: List[FuzzDivergence] = field(default_factory=list)

    @property
    def divergence_count(self) -> int:
        return len(self.divergences)

    @property
    def divergence_rate(self) -> float:
        return self.divergence_count / self.iterations if self.iterations else 0.0


class DifferentialFuzzer:
    """Feed identical random messages to two agents and compare their traces.

    *seed* seeds the random source.

    *interesting_values* is an optional pool of constants (typically mined
    from the agents' comparisons by
    :func:`repro.analysis.decision_map.build_decision_map`): with probability
    *interesting_prob* per field, a pool value (masked to the field width) is
    drawn instead of a uniform one.  Hitting a compared 16-bit constant by
    uniform chance is a 2^-16 lottery ticket; drawing it from the pool is
    how static analysis pays the fuzzer back.  With no pool, the draw
    sequence is bit-for-bit identical to the pool-less fuzzer for the same
    seed.
    """

    def __init__(self, agent_a: str, agent_b: str, seed: int = 0,
                 interesting_values: Optional[Sequence[int]] = None,
                 interesting_prob: float = 0.25) -> None:
        self.agent_a = agent_a
        self.agent_b = agent_b
        self.random = random.Random(seed)
        self.interesting_values = list(interesting_values or [])
        self.interesting_prob = interesting_prob

    # ------------------------------------------------------------------
    # Random input generation
    # ------------------------------------------------------------------

    def _field(self, bits: int) -> int:
        """One random field value, biased toward the interesting pool."""

        rng = self.random
        if self.interesting_values and rng.random() < self.interesting_prob:
            return rng.choice(self.interesting_values) & ((1 << bits) - 1)
        return rng.randrange(0, 1 << bits)

    def random_packet_out(self) -> Tuple[str, InputSequence]:
        rng = self.random
        port = self._field(16)
        buffer_id = rng.choice([c.OFP_NO_BUFFER, rng.randrange(0, 0x100000000)])
        action_type = rng.randrange(0, 13)
        action_arg = self._field(16)
        message = PacketOut(
            xid=rng.randrange(1, 1 << 31),
            buffer_id=buffer_id,
            in_port=c.OFPP_NONE,
            actions=[
                RawAction(action_type=action_type, length=8, arg16_a=action_arg, arg16_b=0),
                ActionOutput(port=port, max_len=64),
            ],
            data=build_tcp_packet().to_bytes(),
        )
        description = "packet_out(port=%#x,buffer=%#x,action=%d,arg=%#x)" % (
            port, buffer_id, action_type, action_arg)
        return description, [("control", message.pack())]

    def random_flow_mod(self) -> Tuple[str, InputSequence]:
        rng = self.random
        command = rng.randrange(0, 6)
        out_port = self._field(16)
        flags = rng.randrange(0, 8)
        wildcards = rng.choice([c.OFPFW_ALL, c.OFPFW_ALL & ~c.OFPFW_IN_PORT, 0])
        match = Match(wildcards=wildcards, in_port=rng.randrange(0, 32),
                      dl_type=c.ETH_TYPE_IP, nw_proto=c.IPPROTO_TCP,
                      dl_vlan=c.OFP_VLAN_NONE, tp_src=1234, tp_dst=80)
        message = FlowMod(
            xid=rng.randrange(1, 1 << 31), match=match, command=command, flags=flags,
            buffer_id=rng.choice([c.OFP_NO_BUFFER, rng.randrange(0, 256)]),
            out_port=c.OFPP_NONE,
            actions=[ActionOutput(port=out_port, max_len=0)],
        )
        probe = build_tcp_packet(tp_src=1234, tp_dst=80)
        description = "flow_mod(cmd=%d,out_port=%#x,flags=%d,wc=%#x)" % (
            command, out_port, flags, wildcards)
        return description, [("control", message.pack()), ("probe", (1, probe))]

    def random_stats_request(self) -> Tuple[str, InputSequence]:
        rng = self.random
        stats_type = rng.randrange(0, 8)
        body = SymBuffer()
        body.write_bytes(Match.wildcard_all().pack())
        body.write_u8(0xFF)
        body.pad(1)
        body.write_u16(c.OFPP_NONE)
        message = StatsRequest(xid=rng.randrange(1, 1 << 31), stats_type=stats_type,
                               stats_body=body)
        return "stats_request(type=%d)" % stats_type, [("control", message.pack())]

    def random_queue_config(self) -> Tuple[str, InputSequence]:
        rng = self.random
        port = rng.randrange(0, 0x10000)
        message = QueueGetConfigRequest(xid=rng.randrange(1, 1 << 31), port=port)
        return "queue_get_config(port=%#x)" % port, [("control", message.pack())]

    def random_input(self) -> Tuple[str, InputSequence]:
        generator = self.random.choice([
            self.random_packet_out,
            self.random_flow_mod,
            self.random_stats_request,
            self.random_queue_config,
        ])
        return generator()

    # ------------------------------------------------------------------
    # Campaign
    # ------------------------------------------------------------------

    def run_one(self, description: str, inputs: InputSequence,
                iteration: int = 0) -> Optional[FuzzDivergence]:
        """Replay one concrete input on both agents; a divergence or None."""

        run_a = run_concrete_sequence(make_agent(self.agent_a), inputs)
        run_b = run_concrete_sequence(make_agent(self.agent_b), inputs)
        if run_a.trace == run_b.trace:
            return None
        return FuzzDivergence(
            iteration=iteration,
            description=description,
            trace_a=run_a.trace.short(limit=4),
            trace_b=run_b.trace.short(limit=4),
        )

    def run(self, iterations: int = 100) -> FuzzReport:
        """Run a fuzzing campaign and collect trace divergences."""

        report = FuzzReport(agent_a=self.agent_a, agent_b=self.agent_b, iterations=iterations)
        for iteration in range(iterations):
            description, inputs = self.random_input()
            divergence = self.run_one(description, inputs, iteration=iteration)
            if divergence is not None:
                report.divergences.append(divergence)
        return report
