"""Packet substrate: wire constants, the Packet container, the builder
(the one encoder) and the parser (the one decoder)."""

from repro.packet.headers import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_VLAN,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
)
from repro.packet.packet import Packet
from repro.packet.parser import (
    PROTO_ARP,
    PROTO_ETH,
    PROTO_ICMP,
    PROTO_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    PROTO_VLAN,
    ParsedPacket,
    parse,
)
from repro.packet.builder import PacketBuilder

__all__ = [
    "ETH_TYPE_ARP",
    "ETH_TYPE_IPV4",
    "ETH_TYPE_VLAN",
    "IP_PROTO_ICMP",
    "IP_PROTO_TCP",
    "IP_PROTO_UDP",
    "Packet",
    "ParsedPacket",
    "parse",
    "PacketBuilder",
    "PROTO_ARP",
    "PROTO_ETH",
    "PROTO_ICMP",
    "PROTO_IPV4",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_VLAN",
]
