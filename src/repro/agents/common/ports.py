"""Physical port inventory of the emulated switch."""

from __future__ import annotations

from typing import List, Union

from repro.openflow.messages import PhyPort
from repro.symbex.expr import BoolExpr, bool_and, bv
from repro.wire.fields import FieldValue

__all__ = ["SwitchPortSet", "DEFAULT_PORT_COUNT"]

#: Default number of physical ports on the emulated switch.  The paper's
#: running example (Figure 1) models a switch with ports 1..24.
DEFAULT_PORT_COUNT = 24


class SwitchPortSet:
    """A contiguous range of physical ports ``1..count`` plus the local port."""

    def __init__(self, count: int = DEFAULT_PORT_COUNT, base_mac: int = 0x00_00_00_AA_00_00) -> None:
        if count < 1:
            raise ValueError("a switch needs at least one physical port")
        self.count = count
        self.base_mac = base_mac

    # -- membership --------------------------------------------------------------

    def contains(self, port: FieldValue) -> Union[bool, BoolExpr]:
        """Port is one of the physical ports (symbolic-aware)."""

        if isinstance(port, int):
            return 1 <= port <= self.count
        expr = bv(port, 16)
        return bool_and(expr >= 1, expr <= self.count)

    def first(self) -> int:
        return 1

    def all_ports(self) -> List[int]:
        return list(range(1, self.count + 1))

    # -- descriptions -----------------------------------------------------------

    def phy_ports(self) -> List[PhyPort]:
        """Port descriptions for FEATURES_REPLY / port stats."""

        return [
            PhyPort(
                port_no=number,
                hw_addr=self.base_mac + number,
                name="eth%d" % number,
                config=0,
                state=0,
                curr=0x0000_0082,        # 100 Mb full duplex + copper
                advertised=0x0000_0082,
                supported=0x0000_0082,
                peer=0,
            )
            for number in self.all_ports()
        ]
