"""Software flow table shared by the agents.

Matching follows the OpenFlow 1.0 semantics: a packet's flow key matches an
entry when every field that is *not* wildcarded by the entry equals the key's
field; IP source/destination use prefix wildcards.  Exact-match entries take
precedence over wildcarded ones; among wildcarded entries the highest priority
wins, ties broken by insertion order.

All comparisons are symbolic-aware: when an entry was installed from a
symbolic ``Flow Mod``, looking up a concrete probe packet forks execution over
the possible wildcard configurations and field values — which is exactly how
SOFT turns internal flow-table state into observable behaviour (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.openflow import constants as c
from repro.openflow.actions import Action, ActionOutput
from repro.openflow.match import Match
from repro.packetlib.flowkey import FlowKey
from repro.symbex.expr import BoolExpr, bv
from repro.wire.fields import FieldValue, field_equals

__all__ = ["FlowEntry", "FlowTable", "match_covers_key", "match_is_exact"]

BoolLike = Union[bool, BoolExpr]


@dataclass
class FlowEntry:
    """One row of the flow table."""

    match: Match
    priority: FieldValue = c.OFP_DEFAULT_PRIORITY
    actions: List[Action] = field(default_factory=list)
    cookie: FieldValue = 0
    idle_timeout: FieldValue = 0
    hard_timeout: FieldValue = 0
    flags: FieldValue = 0
    emergency: bool = False
    insert_order: int = 0
    packet_count: int = 0
    byte_count: int = 0

    def outputs_to(self, port: FieldValue) -> BoolLike:
        """True when any output action of this entry targets *port*."""

        result: BoolLike = False
        for action in self.actions:
            if isinstance(action, ActionOutput):
                hit = field_equals(action.port, port, 16)
                if isinstance(hit, bool) and hit:
                    return True
                if not isinstance(hit, bool):
                    if isinstance(result, bool):
                        result = hit if not result else True
                    else:
                        result = result | hit
        return result

    def describe(self) -> str:
        return "entry(prio=%s,%s,actions=[%s])" % (
            self.priority, self.match.describe(), ",".join(a.describe() for a in self.actions))


def _wildcard_bit_set(wildcards: FieldValue, bit: int) -> BoolLike:
    if isinstance(wildcards, int):
        return bool(wildcards & bit)
    return (wildcards & bit) != 0


def match_is_exact(match: Match) -> BoolLike:
    """The entry wildcards nothing (used for the exact-match fast path)."""

    if isinstance(match.wildcards, int):
        return (match.wildcards & c.OFPFW_ALL) == 0
    return (match.wildcards & c.OFPFW_ALL) == 0


def match_covers_key(match: Match, key: FlowKey) -> bool:
    """Does *match* cover the packet described by *key*?

    Written in short-circuit style so that symbolic wildcards / fields fork
    only where the outcome actually depends on them.  Returns a Python bool;
    inside an exploration the symbolic comparisons fork the path as a side
    effect of being used in ``if`` conditions.
    """

    w = match.wildcards

    if not _wildcard_bit_set(w, c.OFPFW_IN_PORT):
        if not field_equals(match.in_port, key.in_port, 16):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_DL_SRC):
        if not field_equals(match.dl_src, key.dl_src, 48):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_DL_DST):
        if not field_equals(match.dl_dst, key.dl_dst, 48):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_DL_VLAN):
        if not field_equals(match.dl_vlan, key.dl_vlan, 16):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_DL_VLAN_PCP):
        if not field_equals(match.dl_vlan_pcp, key.dl_vlan_pcp, 8):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_DL_TYPE):
        if not field_equals(match.dl_type, key.dl_type, 16):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_NW_TOS):
        if not field_equals(match.nw_tos, key.nw_tos, 8):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_NW_PROTO):
        if not field_equals(match.nw_proto, key.nw_proto, 8):
            return False
    if not _nw_field_matches(w, c.OFPFW_NW_SRC_SHIFT, match.nw_src, key.nw_src):
        return False
    if not _nw_field_matches(w, c.OFPFW_NW_DST_SHIFT, match.nw_dst, key.nw_dst):
        return False
    if not _wildcard_bit_set(w, c.OFPFW_TP_SRC):
        if not field_equals(match.tp_src, key.tp_src, 16):
            return False
    if not _wildcard_bit_set(w, c.OFPFW_TP_DST):
        if not field_equals(match.tp_dst, key.tp_dst, 16):
            return False
    return True


def _nw_field_matches(wildcards: FieldValue, shift: int,
                      entry_value: FieldValue, key_value: FieldValue) -> bool:
    """IPv4 prefix matching controlled by the 6-bit wildcard sub-field."""

    if isinstance(wildcards, int):
        bits = (wildcards >> shift) & 0x3F
        if bits >= 32:
            return True
        mask = (0xFFFFFFFF << bits) & 0xFFFFFFFF
    else:
        bits = (wildcards >> shift) & 0x3F
        if bits >= 32:          # symbolic comparison: forks
            return True
        mask = (bv(0xFFFFFFFF, 32) << bv(bits, 32)) & 0xFFFFFFFF

    entry_masked = (entry_value if not isinstance(entry_value, int) else entry_value)
    if isinstance(entry_value, int) and isinstance(key_value, int) and isinstance(mask, int):
        return (entry_value & mask) == (key_value & mask)
    entry_bits = bv(entry_value, 32) if not isinstance(entry_value, int) else bv(entry_value, 32)
    key_bits = bv(key_value, 32) if not isinstance(key_value, int) else bv(key_value, 32)
    if isinstance(mask, int):
        mask_bits = bv(mask, 32)
    else:
        mask_bits = mask
    return bool((entry_bits & mask_bits) == (key_bits & mask_bits))


def match_subsumes(general: Match, specific: Match) -> bool:
    """Every packet matched by *specific* is also matched by *general*.

    Used for non-strict MODIFY/DELETE: the Flow Mod's match acts as *general*
    and existing entries as *specific*.  Symbolic-aware (forks on demand).
    """

    checks = (
        (c.OFPFW_IN_PORT, "in_port", 16),
        (c.OFPFW_DL_SRC, "dl_src", 48),
        (c.OFPFW_DL_DST, "dl_dst", 48),
        (c.OFPFW_DL_VLAN, "dl_vlan", 16),
        (c.OFPFW_DL_VLAN_PCP, "dl_vlan_pcp", 8),
        (c.OFPFW_DL_TYPE, "dl_type", 16),
        (c.OFPFW_NW_TOS, "nw_tos", 8),
        (c.OFPFW_NW_PROTO, "nw_proto", 8),
        (c.OFPFW_TP_SRC, "tp_src", 16),
        (c.OFPFW_TP_DST, "tp_dst", 16),
    )
    for bit, name, width in checks:
        if _wildcard_bit_set(general.wildcards, bit):
            continue
        if _wildcard_bit_set(specific.wildcards, bit):
            return False
        if not field_equals(getattr(general, name), getattr(specific, name), width):
            return False
    for shift in (c.OFPFW_NW_SRC_SHIFT, c.OFPFW_NW_DST_SHIFT):
        general_bits = _prefix_bits(general.wildcards, shift)
        specific_bits = _prefix_bits(specific.wildcards, shift)
        name = "nw_src" if shift == c.OFPFW_NW_SRC_SHIFT else "nw_dst"
        if general_bits >= 32:
            continue
        if specific_bits > general_bits:
            return False
        mask = (0xFFFFFFFF << general_bits) & 0xFFFFFFFF
        general_value = getattr(general, name)
        specific_value = getattr(specific, name)
        if isinstance(general_value, int) and isinstance(specific_value, int):
            if (general_value & mask) != (specific_value & mask):
                return False
        else:
            if not ((bv(general_value, 32) & mask) == (bv(specific_value, 32) & mask)):
                return False
    return True


def _prefix_bits(wildcards: FieldValue, shift: int) -> int:
    value = (wildcards >> shift) & 0x3F
    if isinstance(value, int):
        return value
    # Symbolic prefix width: fork over "fully wildcarded or not" only.
    if value >= 32:
        return 32
    # For subsumption purposes a partially-symbolic prefix width is treated as
    # exact; the per-bit comparison below still forks where needed.
    return 0


class FlowTable:
    """An ordered collection of flow entries with OpenFlow 1.0 lookup rules."""

    def __init__(self, capacity: int = 1024, emergency_capacity: int = 64) -> None:
        self.capacity = capacity
        self.emergency_capacity = emergency_capacity
        self._entries: List[FlowEntry] = []
        self._emergency_entries: List[FlowEntry] = []
        self._insert_counter = 0

    # -- mutation ----------------------------------------------------------------

    def add(self, entry: FlowEntry) -> None:
        entry.insert_order = self._insert_counter
        self._insert_counter += 1
        target = self._emergency_entries if entry.emergency else self._entries
        target.append(entry)

    def remove(self, entry: FlowEntry) -> None:
        if entry.emergency:
            self._emergency_entries.remove(entry)
        else:
            self._entries.remove(entry)

    def clear(self) -> None:
        self._entries.clear()
        self._emergency_entries.clear()

    # -- queries -------------------------------------------------------------------

    def entries(self, include_emergency: bool = False) -> List[FlowEntry]:
        if include_emergency:
            return list(self._entries) + list(self._emergency_entries)
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries) + len(self._emergency_entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lookup(self, key: FlowKey) -> Optional[FlowEntry]:
        """Highest-precedence entry covering *key* (None when nothing matches)."""

        best: Optional[FlowEntry] = None
        best_priority = -1
        for entry in self._entries:
            if not match_covers_key(entry.match, key):
                continue
            if match_is_exact(entry.match):
                # Exact-match entries take precedence over any wildcarded entry.
                return entry
            priority = entry.priority if isinstance(entry.priority, int) else None
            if priority is None:
                # Symbolic priority: first matching entry wins on this path;
                # additional orderings are explored through the comparison fork.
                if best is None or bool(bv(entry.priority, 16) > bv(best.priority, 16)):
                    best, best_priority = entry, -1
                continue
            if priority > best_priority:
                best, best_priority = entry, priority
        return best

    def matching_entries(self, match: Match, strict: bool,
                         priority: FieldValue = 0,
                         out_port: FieldValue = c.OFPP_NONE,
                         emergency: bool = False) -> List[FlowEntry]:
        """Entries affected by a MODIFY/DELETE command."""

        pool = self._emergency_entries if emergency else self._entries
        selected: List[FlowEntry] = []
        for entry in pool:
            if strict:
                if not field_equals(entry.priority, priority, 16):
                    continue
                if not self._matches_strictly(entry.match, match):
                    continue
            else:
                if not match_subsumes(match, entry.match):
                    continue
            if isinstance(out_port, int) and out_port == c.OFPP_NONE:
                selected.append(entry)
                continue
            if entry.outputs_to(out_port):
                selected.append(entry)
        return selected

    @staticmethod
    def _matches_strictly(a: Match, b: Match) -> bool:
        if not field_equals(a.wildcards, b.wildcards, 32):
            return False
        for name, width in (
            ("in_port", 16), ("dl_src", 48), ("dl_dst", 48), ("dl_vlan", 16),
            ("dl_vlan_pcp", 8), ("dl_type", 16), ("nw_tos", 8), ("nw_proto", 8),
            ("nw_src", 32), ("nw_dst", 32), ("tp_src", 16), ("tp_dst", 16),
        ):
            bit = {
                "in_port": c.OFPFW_IN_PORT, "dl_src": c.OFPFW_DL_SRC,
                "dl_dst": c.OFPFW_DL_DST, "dl_vlan": c.OFPFW_DL_VLAN,
                "dl_vlan_pcp": c.OFPFW_DL_VLAN_PCP, "dl_type": c.OFPFW_DL_TYPE,
                "nw_tos": c.OFPFW_NW_TOS, "nw_proto": c.OFPFW_NW_PROTO,
                "tp_src": c.OFPFW_TP_SRC, "tp_dst": c.OFPFW_TP_DST,
            }.get(name)
            if name in ("nw_src", "nw_dst"):
                # Prefix fields compare only when fully significant on both sides.
                continue
            if bit is not None and _wildcard_bit_set(a.wildcards, bit):
                continue
            if not field_equals(getattr(a, name), getattr(b, name), width):
                return False
        return True
