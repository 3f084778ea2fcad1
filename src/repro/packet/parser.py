"""The reference packet parser.

Mirrors the paper's parser templates (Section 3.1): parsing is incremental
per layer, a protocol bitmask (the paper keeps it in ``r15``) marks which
headers are present, and each layer's start offset is recorded (``r12``,
``r13``, ``r14`` in the paper's assembly). Malformed layers simply clear
the corresponding protocol bits — matching on absent headers then fails,
as in a real switch.

:func:`parse` performs the combined L2–L4 parse (the paper's prototype
"defaults to a combined L2–L4 packet parser"); :func:`parse_l2` and
:func:`parse_l3` stop early, modeling the per-layer parser templates.
"""

from __future__ import annotations

from repro.packet import headers as hdr
from repro.packet.packet import Packet

# Protocol bitmask bits (the paper's r15 register).
PROTO_ETH = 1 << 0
PROTO_VLAN = 1 << 1
PROTO_IPV4 = 1 << 2
PROTO_IPV6 = 1 << 3
PROTO_ARP = 1 << 4
PROTO_TCP = 1 << 5
PROTO_UDP = 1 << 6
PROTO_ICMP = 1 << 7
PROTO_SCTP = 1 << 8
PROTO_MPLS = 1 << 9

PROTO_ICMP6 = 1 << 10

PROTO_NAMES = {
    PROTO_ETH: "eth",
    PROTO_VLAN: "vlan",
    PROTO_IPV4: "ipv4",
    PROTO_IPV6: "ipv6",
    PROTO_ARP: "arp",
    PROTO_TCP: "tcp",
    PROTO_UDP: "udp",
    PROTO_ICMP: "icmp",
    PROTO_SCTP: "sctp",
    PROTO_MPLS: "mpls",
    PROTO_ICMP6: "icmpv6",
}


class ParsedPacket:
    """Layer offsets + protocol bitmask for one packet.

    Attributes mirror the registers of the paper's parser templates:

    * ``proto`` — protocol bitmask (r15);
    * ``l2`` — offset of the Ethernet header (r12), always 0 here;
    * ``l3`` — offset of the L3 (IPv4/ARP) header (r13), or -1;
    * ``l4`` — offset of the L4 (TCP/UDP/ICMP) header (r14), or -1.

    ``parsed_layers`` records how deep parsing went (2, 3, or 4), so the
    performance model can charge only the parser templates actually
    emitted for the pipeline.
    """

    __slots__ = ("pkt", "proto", "l2", "l3", "l4", "l4_proto", "parsed_layers", "eth_type")

    def __init__(self, pkt: Packet):
        self.pkt = pkt
        self.proto = 0
        self.l2 = 0
        self.l3 = -1
        self.l4 = -1
        #: the resolved IP protocol / final IPv6 next-header, or -1.
        self.l4_proto = -1
        self.parsed_layers = 0
        #: the effective (post-VLAN) ethertype resolved by the L2 parser,
        #: 0 until parsed: the value of the ``eth_type`` match field (the
        #: generated code's ``etype`` local), so no consumer walks the VLAN
        #: tags again.
        self.eth_type = 0

    def has(self, proto_bit: int) -> bool:
        return bool(self.proto & proto_bit)

    def __repr__(self) -> str:
        names = [name for bit, name in PROTO_NAMES.items() if self.proto & bit]
        return f"ParsedPacket(protos={'+'.join(names) or 'none'}, l3={self.l3}, l4={self.l4})"


def parse_l2(pkt: Packet) -> ParsedPacket:
    """L2 parser template: Ethernet (+ VLAN tags), stop before L3."""
    view = ParsedPacket(pkt)
    data = pkt.data
    if len(data) < hdr.ETH_HEADER_LEN:
        return view
    view.proto |= PROTO_ETH
    view.parsed_layers = 2
    offset = 12  # ethertype position
    ethertype = (data[offset] << 8) | data[offset + 1]
    offset += 2
    while ethertype == hdr.ETH_TYPE_VLAN:
        if len(data) < offset + hdr.VLAN_TAG_LEN:
            view.eth_type = ethertype
            return view
        view.proto |= PROTO_VLAN
        ethertype = (data[offset + 2] << 8) | data[offset + 3]
        offset += hdr.VLAN_TAG_LEN
    # Record where L3 *would* start plus the resolved ethertype so that the
    # L3 parser can compose this parser, as in the paper.
    view.eth_type = ethertype
    view.l3 = offset
    return view


def parse_l3(pkt: Packet) -> ParsedPacket:
    """L3 parser template: composes the L2 parser, parses IPv4/ARP."""
    view = parse_l2(pkt)
    if not view.proto & PROTO_ETH:
        return view
    view.parsed_layers = 3
    data = pkt.data
    ethertype = view.eth_type
    if ethertype == hdr.ETH_TYPE_IPV4:
        if len(data) < view.l3 + hdr.IPV4_MIN_HEADER_LEN or data[view.l3] >> 4 != 4:
            view.l3 = -1
            return view
        header_len = (data[view.l3] & 0xF) * 4
        if header_len < hdr.IPV4_MIN_HEADER_LEN or len(data) < view.l3 + header_len:
            view.l3 = -1
            return view
        view.proto |= PROTO_IPV4
        view.l4_proto = data[view.l3 + 9]
        view.l4 = view.l3 + header_len  # provisional; L4 parser validates
    elif ethertype == hdr.ETH_TYPE_IPV6:
        if len(data) < view.l3 + hdr.IPV6_HEADER_LEN or data[view.l3] >> 4 != 6:
            view.l3 = -1
            return view
        view.proto |= PROTO_IPV6
        view.l4_proto = data[view.l3 + 6]  # pre-extension-walk next header
        view.l4 = view.l3 + hdr.IPV6_HEADER_LEN  # provisional
    elif ethertype == hdr.ETH_TYPE_ARP:
        if len(data) >= view.l3 + hdr.ARP_IPV4_LEN:
            view.proto |= PROTO_ARP
        else:
            view.l3 = -1
    else:
        view.l3 = -1
    return view


def parse(pkt: Packet) -> ParsedPacket:
    """Combined L2–L4 parser (what the paper's prototype runs per packet)."""
    view = parse_l3(pkt)
    view.parsed_layers = 4
    data = pkt.data

    if view.proto & PROTO_IPV4:
        ip_offset = view.l3
        frag = ((data[ip_offset + 6] & 0x1F) << 8) | data[ip_offset + 7]
        if frag != 0:
            # Non-first fragments carry no L4 header.
            view.l4 = -1
            return view
        _finish_l4(view, data, view.l4, view.l4_proto)
        return view

    if view.proto & PROTO_IPV6:
        l4, nxt = _walk_ipv6_extensions(data, view.l3)
        view.l4_proto = nxt
        if l4 < 0:
            view.l4 = -1
            return view
        _finish_l4(view, data, l4, nxt)
        return view

    view.l4 = -1
    return view


def _walk_ipv6_extensions(data, l3: int) -> tuple[int, int]:
    """Follow the IPv6 next-header chain; returns (l4 offset, final proto).

    Offset -1 means no L4 header (truncated chain or a non-first fragment).
    """
    nxt = data[l3 + 6]
    offset = l3 + hdr.IPV6_HEADER_LEN
    hops = 0
    while nxt in hdr.IPV6_EXT_HEADERS:
        hops += 1
        if hops > 8 or len(data) < offset + 8:
            return -1, nxt
        if nxt == 44:  # fragment header: fixed 8 bytes
            frag_off = ((data[offset + 2] << 8) | data[offset + 3]) >> 3
            nxt_candidate = data[offset]
            if frag_off != 0:
                return -1, nxt_candidate
            nxt = nxt_candidate
            offset += 8
        elif nxt == 51:  # AH: length in 4-byte units, +2
            nxt = data[offset]
            offset += (data[offset + 1] + 2) * 4
        else:  # hop-by-hop / routing / destination options: 8-byte units, +1
            nxt = data[offset]
            offset += (data[offset + 1] + 1) * 8
    if len(data) < offset:
        return -1, nxt
    return offset, nxt


def _finish_l4(view: ParsedPacket, data, l4: int, proto: int) -> None:
    view.l4 = l4
    if proto == hdr.IP_PROTO_TCP and len(data) >= l4 + hdr.TCP_MIN_HEADER_LEN:
        view.proto |= PROTO_TCP
    elif proto == hdr.IP_PROTO_UDP and len(data) >= l4 + hdr.UDP_HEADER_LEN:
        view.proto |= PROTO_UDP
    elif proto == hdr.IP_PROTO_ICMP and view.proto & PROTO_IPV4 and len(
        data
    ) >= l4 + hdr.ICMP_HEADER_LEN:
        view.proto |= PROTO_ICMP
    elif proto == hdr.IP_PROTO_ICMPV6 and view.proto & PROTO_IPV6 and len(
        data
    ) >= l4 + hdr.ICMP_HEADER_LEN:
        view.proto |= PROTO_ICMP6
    else:
        view.l4 = -1
