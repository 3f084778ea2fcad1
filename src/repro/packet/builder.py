"""Fluent packet builder used by tests, examples, and traffic generators.

>>> pkt = (PacketBuilder(in_port=1)
...        .eth(src="00:00:00:00:00:01", dst="00:00:00:00:00:02")
...        .ipv4(src="10.0.0.1", dst="192.0.2.1")
...        .tcp(dst_port=80)
...        .build())

The builder is the repo's one frame encoder, and it is independent of the
reader: each method writes its header with its own ``struct`` format,
never with the layout rows of :mod:`repro.openflow.fields`, so
``tests/openflow/test_field_layout.py`` can pin every row against what
the builder wrote.
"""

from __future__ import annotations

import ipaddress
import struct

from repro.net.addresses import EthAddr, IPv4Addr
from repro.net.checksum import internet_checksum
from repro.packet.headers import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_IPV6,
    ETH_TYPE_VLAN,
    IP_PROTO_ICMP,
    IP_PROTO_ICMPV6,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
)
from repro.packet.packet import Packet


def _ipv6_bytes(value: "int | str") -> bytes:
    if isinstance(value, int):
        if not 0 <= value < (1 << 128):
            raise ValueError(f"IPv6 integer out of range: {value:#x}")
        return value.to_bytes(16, "big")
    return ipaddress.IPv6Address(value).packed


class PacketBuilder:
    """Accumulates headers and emits a padded :class:`Packet`.

    Each method records its header (the last L3 and the last L4 call
    win); :meth:`build` fills in what only the whole stack decides: the
    ethertypes, the IP protocol, the IP length fields and the IPv4
    checksum.
    """

    def __init__(self, in_port: int = 0, pad_to: int = 64):
        self._in_port = in_port
        self._pad_to = pad_to
        self._macs = bytes(12)  # dst, src
        self._ethertype = ETH_TYPE_IPV4
        self._tcis: list[int] = []
        #: (ethertype, header fields) of the L3 header; ARP's are its bytes.
        self._l3: "tuple[int | None, object]" = (None, None)
        #: (IP protocol, header bytes) of the L4 header.
        self._l4: "tuple[int | None, bytes]" = (None, b"")
        self._payload = b""

    def eth(
        self,
        src: int | str = "00:00:00:00:00:01",
        dst: int | str = "00:00:00:00:00:02",
        ethertype: int | None = None,
    ) -> "PacketBuilder":
        self._macs = EthAddr(dst).packed() + EthAddr(src).packed()
        self._ethertype = ethertype if ethertype is not None else ETH_TYPE_IPV4
        return self

    def vlan(self, vid: int, pcp: int = 0) -> "PacketBuilder":
        self._tcis.append((pcp & 0x7) << 13 | (vid & 0xFFF))
        return self

    def ipv4(
        self,
        src: int | str = "10.0.0.1",
        dst: int | str = "10.0.0.2",
        proto: int | None = None,
        ttl: int = 64,
        dscp: int = 0,
        ecn: int = 0,
    ) -> "PacketBuilder":
        self._l3 = (ETH_TYPE_IPV4, (
            (dscp << 2) | ecn, ttl, proto if proto is not None else IP_PROTO_TCP,
            IPv4Addr(src).value, IPv4Addr(dst).value,
        ))
        return self

    def ipv6(
        self,
        src: "int | str" = "2001:db8::1",
        dst: "int | str" = "2001:db8::2",
        hop_limit: int = 64,
        traffic_class: int = 0,
        flow_label: int = 0,
    ) -> "PacketBuilder":
        word = (6 << 28) | ((traffic_class & 0xFF) << 20) | (flow_label & 0xFFFFF)
        self._l3 = (ETH_TYPE_IPV6, (word, hop_limit, _ipv6_bytes(src) + _ipv6_bytes(dst)))
        return self

    def icmpv6(self, type: int = 128, code: int = 0) -> "PacketBuilder":
        self._l4 = (IP_PROTO_ICMPV6, struct.pack("!BBH", type, code, 0))
        return self

    def arp(
        self,
        op: int = 1,
        sha: int | str = 0,
        spa: int | str = 0,
        tha: int | str = 0,
        tpa: int | str = 0,
    ) -> "PacketBuilder":
        sha = EthAddr(sha).value if isinstance(sha, str) else sha
        spa = IPv4Addr(spa).value if isinstance(spa, str) else spa
        tha = EthAddr(tha).value if isinstance(tha, str) else tha
        tpa = IPv4Addr(tpa).value if isinstance(tpa, str) else tpa
        self._l3 = (ETH_TYPE_ARP, struct.pack("!HHBBH", 1, ETH_TYPE_IPV4, 6, 4, op)
                    + sha.to_bytes(6, "big") + spa.to_bytes(4, "big")
                    + tha.to_bytes(6, "big") + tpa.to_bytes(4, "big"))
        return self

    def tcp(self, src_port: int = 12345, dst_port: int = 80, flags: int = 0x02) -> "PacketBuilder":
        # seq, ack 0; data offset 5 words; window 65535; checksum and
        # urgent pointer 0 (not modeled in the fast path).
        self._l4 = (IP_PROTO_TCP, struct.pack(
            "!HHIIHHHH", src_port, dst_port, 0, 0, 5 << 12 | (flags & 0x1FF), 65535, 0, 0))
        return self

    def udp(self, src_port: int = 12345, dst_port: int = 53) -> "PacketBuilder":
        # build() writes the length (header and payload); checksum 0.
        self._l4 = (IP_PROTO_UDP, struct.pack("!HHHH", src_port, dst_port, 8, 0))
        return self

    def icmp(self, type: int = 8, code: int = 0) -> "PacketBuilder":
        self._l4 = (IP_PROTO_ICMP, struct.pack("!BBH", type, code, 0))
        return self

    def payload(self, data: bytes) -> "PacketBuilder":
        self._payload = data
        return self

    def build(self) -> Packet:
        """Assemble the frame, fixing up ethertypes, the IP protocol,
        the IP lengths and the IPv4 checksum, and zero-pad it to
        ``pad_to`` bytes (64, the minimum Ethernet frame of the paper's
        evaluation, by default)."""
        kind, l3 = self._l3
        proto, l4 = self._l4
        if proto == IP_PROTO_UDP:
            l4 = l4[:4] + struct.pack("!H", len(l4) + len(self._payload)) + l4[6:]
        # Each tag carries the next tag's ethertype, the last one the L3's.
        types = [ETH_TYPE_VLAN] * len(self._tcis) + [kind or ETH_TYPE_IPV4]
        if not self._tcis and kind is None:
            types = [self._ethertype]
        frame = bytearray(self._macs + struct.pack("!H", types[0]))
        for tci, ethertype in zip(self._tcis, types[1:]):
            frame += struct.pack("!HH", tci, ethertype)

        if kind == ETH_TYPE_IPV4:
            tos, ttl, own_proto, src, dst = l3
            if proto is None or proto == IP_PROTO_ICMPV6:
                proto = own_proto  # an ICMPv6 header names no IPv4 protocol
            start = len(frame)
            frame += struct.pack("!BBHHHBBHII", 0x45, tos, 20 + len(l4) + len(self._payload),
                                 0, 0, ttl, proto, 0, src, dst)
            struct.pack_into("!H", frame, start + 10, internet_checksum(frame[start:]))
            frame += l4
        elif kind == ETH_TYPE_IPV6:
            if proto == IP_PROTO_ICMP:
                raise ValueError("use icmpv6() with an IPv6 packet")
            word, hop_limit, addrs = l3
            frame += struct.pack("!IHBB", word, len(l4) + len(self._payload),
                                 proto if proto is not None else IP_PROTO_TCP, hop_limit)
            frame += addrs + l4
        elif kind == ETH_TYPE_ARP:
            frame += l3

        frame += self._payload
        if len(frame) < self._pad_to:
            frame += bytes(self._pad_to - len(frame))
        return Packet(frame, in_port=self._in_port)
