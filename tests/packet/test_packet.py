"""Tests for the Packet container."""

import pytest

from repro.packet import PacketBuilder
from repro.packet.packet import Packet
from repro.packet.parser import PROTO_NAMES, parse


def stack(pkt):
    """The header stack as the parser reports it, outermost first."""
    view = parse(pkt)
    return [name for bit, name in PROTO_NAMES.items() if view.proto & bit]


class TestPacket:
    def test_metadata_defaults(self):
        pkt = Packet(b"\x00" * 14)
        assert pkt.in_port == 0 and pkt.metadata == 0 and pkt.tunnel_id == 0

    def test_copy_preserves_metadata(self):
        pkt = Packet(b"\x00" * 14, in_port=3, metadata=7, tunnel_id=9)
        clone = pkt.copy()
        assert (clone.in_port, clone.metadata, clone.tunnel_id) == (3, 7, 9)

    def test_data_is_mutable(self):
        pkt = Packet(b"\x00" * 14)
        pkt.data[0] = 0xFF
        assert pkt.data[0] == 0xFF

    def test_repr(self):
        assert "in_port=2" in repr(Packet(b"\x00" * 14, in_port=2))

    def test_headers_stack_v4(self):
        pkt = PacketBuilder().eth().ipv4().icmp().build()
        assert stack(pkt) == ["eth", "ipv4", "icmp"]

    def test_headers_stack_v6(self):
        pkt = PacketBuilder().eth().ipv6().icmpv6().build()
        assert stack(pkt) == ["eth", "ipv6", "icmpv6"]

    def test_headers_stack_arp(self):
        pkt = PacketBuilder().eth().arp().build()
        assert stack(pkt) == ["eth", "arp"]


class TestBuilderValidation:
    def test_icmp_on_v6_rejected(self):
        with pytest.raises(ValueError):
            PacketBuilder().eth().ipv6().icmp().build()

    def test_v6_address_range(self):
        with pytest.raises(ValueError):
            PacketBuilder().eth().ipv6(src=1 << 128).build()

    def test_v6_payload_length(self):
        pkt = PacketBuilder().eth().ipv6().udp().payload(b"abcd").build()
        view = parse(pkt)
        assert int.from_bytes(pkt.data[view.l3 + 4:view.l3 + 6], "big") == 8 + 4
        assert stack(pkt) == ["eth", "ipv6", "udp"]
