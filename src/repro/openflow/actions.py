"""OpenFlow actions.

Every action type corresponds to one of the paper's *action templates*.
The composite they are collapsed into, shared across flows (Section 3.1),
is :class:`~repro.openflow.instructions.ActionTemplate`: a flow table
keeps one per distinct instruction list and points every rule that
carries the list at it.

Actions are immutable and hashable, which is what lets a table find the
list it already holds. Applying an action mutates the packet through the
parsed view (set-field) or appends to the verdict (output/controller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.openflow.fields import field_by_name
from repro.packet import headers as hdr
from repro.packet.parser import ParsedPacket

if TYPE_CHECKING:
    from repro.openflow.pipeline import Verdict

FLOOD_PORT = 0xFFFFFFFB
CONTROLLER_PORT = 0xFFFFFFFD


@dataclass(frozen=True)
class Action:
    """Base class for all actions."""

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Output(Action):
    """Forward the packet on a switch port."""

    port: int

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        verdict.output_ports.append(self.port)


@dataclass(frozen=True)
class Flood(Action):
    """Forward on all ports except the ingress port."""

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        verdict.output_ports.append(FLOOD_PORT)


@dataclass(frozen=True)
class Drop(Action):
    """Explicit drop (an empty action set drops implicitly too)."""

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        verdict.dropped = True


@dataclass(frozen=True)
class Controller(Action):
    """Punt the packet to the controller (packet-in)."""

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        verdict.to_controller = True
        verdict.output_ports.append(CONTROLLER_PORT)


@dataclass(frozen=True)
class SetField(Action):
    """Rewrite a header field (``field`` must have a registered writer)."""

    field: str
    value: int

    def __post_init__(self) -> None:
        fdef = field_by_name(self.field)
        if fdef.store is None:
            raise ValueError(f"set-field is not supported for {self.field}")
        if not 0 <= self.value <= fdef.max_value:
            raise ValueError(f"set-field value out of range for {self.field}: {self.value:#x}")
        # Resolve the field definition once; apply() runs per packet.
        object.__setattr__(self, "_store", fdef.store)
        object.__setattr__(self, "_proto_required", fdef.proto_required)

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        required = self._proto_required
        if required and not view.proto & required:
            return  # header absent: no-op, as per the spec's error-free model
        self._store(view, self.value)


@dataclass(frozen=True)
class PushVlan(Action):
    """Push an 802.1Q tag carrying ``vid``/``pcp``."""

    vid: int = 0
    pcp: int = 0

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        data = view.pkt.data
        inner_type = (data[12] << 8) | data[13]
        tci = ((self.pcp & 0x7) << 13) | (self.vid & 0xFFF)
        # Replace the 2-byte ethertype with [0x8100, TCI, inner ethertype].
        data[12:14] = bytes(
            (
                hdr.ETH_TYPE_VLAN >> 8,
                hdr.ETH_TYPE_VLAN & 0xFF,
                tci >> 8,
                tci & 0xFF,
                inner_type >> 8,
                inner_type & 0xFF,
            )
        )
        verdict.reparse_needed = True


@dataclass(frozen=True)
class PopVlan(Action):
    """Pop the outermost 802.1Q tag, if present."""

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        data = view.pkt.data
        if (data[12] << 8) | data[13] != hdr.ETH_TYPE_VLAN:
            return
        del data[12:16]
        verdict.reparse_needed = True


@dataclass(frozen=True)
class DecTtl(Action):
    """Decrement the IPv4 TTL; drop when it reaches zero."""

    def apply(self, view: ParsedPacket, verdict: "Verdict") -> None:
        from repro.packet.parser import PROTO_IPV4

        if not view.proto & PROTO_IPV4:
            return
        o = view.l3
        ttl = view.pkt.data[o + 8]
        if ttl <= 1:
            verdict.dropped = True
            verdict.output_ports.clear()
            return
        view.pkt.data[o + 8] = ttl - 1
