"""Tests for the layered reference parser (parser templates, Section 3.1)."""

from repro.packet import (
    PacketBuilder,
    PROTO_ARP,
    PROTO_ETH,
    PROTO_ICMP,
    PROTO_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    PROTO_VLAN,
)
from repro.packet.packet import Packet
from repro.packet.parser import parse, parse_l2, parse_l3


def tcp_pkt(**kwargs):
    return PacketBuilder().eth().ipv4(**kwargs).tcp(dst_port=80).build()


class TestCombinedParse:
    def test_tcp(self):
        view = parse(tcp_pkt())
        assert view.has(PROTO_ETH) and view.has(PROTO_IPV4) and view.has(PROTO_TCP)
        assert view.l3 == 14 and view.l4 == 34

    def test_udp(self):
        view = parse(PacketBuilder().eth().ipv4().udp().build())
        assert view.has(PROTO_UDP) and not view.has(PROTO_TCP)

    def test_icmp(self):
        view = parse(PacketBuilder().eth().ipv4().icmp().build())
        assert view.has(PROTO_ICMP)

    def test_vlan_shifts_offsets(self):
        view = parse(PacketBuilder().eth().vlan(vid=7).ipv4().tcp().build())
        assert view.has(PROTO_VLAN)
        assert view.l3 == 18 and view.l4 == 38

    def test_double_vlan(self):
        view = parse(PacketBuilder().eth().vlan(vid=1).vlan(vid=2).ipv4().tcp().build())
        assert view.has(PROTO_VLAN) and view.has(PROTO_IPV4)
        assert view.l3 == 22

    def test_arp(self):
        view = parse(PacketBuilder().eth().arp(op=1, spa="10.0.0.1").build())
        assert view.has(PROTO_ARP) and not view.has(PROTO_IPV4)
        assert view.l4 == -1

    def test_unknown_ethertype(self):
        view = parse(PacketBuilder().eth(ethertype=0x88B5).build())
        assert view.has(PROTO_ETH)
        assert not view.has(PROTO_IPV4)
        assert view.l3 == -1

    def test_ip_fragment_has_no_l4(self):
        pkt = tcp_pkt()
        # Set a nonzero fragment offset in the IPv4 header.
        pkt.data[20] = 0x00
        pkt.data[21] = 0x10
        view = parse(pkt)
        assert view.has(PROTO_IPV4) and not view.has(PROTO_TCP)
        assert view.l4 == -1

    def test_ipv4_options_shift_l4(self):
        # A 24-byte IPv4 header: ihl 6, one word of options before TCP.
        pkt = PacketBuilder().eth().ipv4(src=1, dst=2).tcp(dst_port=80).build()
        pkt.data[14] = 0x46
        pkt.data[34:34] = b"\x00" * 4
        view = parse(pkt)
        assert view.has(PROTO_TCP)
        assert view.l4 == 14 + 24


class TestTruncation:
    def test_runt_frame(self):
        view = parse(Packet(b"\x00" * 6))
        assert view.proto == 0

    def test_truncated_ip(self):
        pkt = tcp_pkt()
        view = parse(Packet(bytes(pkt.data[:20]), in_port=1))
        assert view.has(PROTO_ETH) and not view.has(PROTO_IPV4)

    def test_truncated_tcp(self):
        pkt = tcp_pkt()
        view = parse(Packet(bytes(pkt.data[:40]), in_port=1))
        assert view.has(PROTO_IPV4) and not view.has(PROTO_TCP)


class TestLayeredParsers:
    def test_l2_stops_early(self):
        view = parse_l2(tcp_pkt())
        assert view.has(PROTO_ETH)
        assert not view.has(PROTO_IPV4)
        assert view.parsed_layers == 2
        # The l3 offset is recorded so the L3 parser can compose.
        assert view.l3 == 14

    def test_l3_composes_l2(self):
        view = parse_l3(tcp_pkt())
        assert view.has(PROTO_IPV4)
        assert not view.has(PROTO_TCP)
        assert view.parsed_layers == 3

    def test_full_parse_composes_all(self):
        view = parse(tcp_pkt())
        assert view.parsed_layers == 4
