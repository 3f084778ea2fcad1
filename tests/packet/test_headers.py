"""Each header's wire bytes as PacketBuilder writes them, spelled out with
``struct`` here and read back by the parser that runs (``parse`` plus the
field registry's ``extract``). There is no second decoder to round-trip
through: a header is its layout."""

import struct

from hypothesis import given, strategies as st

from repro.net.checksum import verify_checksum
from repro.openflow.fields import field_by_name
from repro.packet import PacketBuilder, headers as hdr
from repro.packet.packet import Packet
from repro.packet.parser import PROTO_ARP, PROTO_ETH, PROTO_IPV4, PROTO_TCP, parse


def field(pkt, name):
    return field_by_name(name).extract(parse(pkt))


class TestEthernet:
    def test_roundtrip(self):
        pkt = PacketBuilder().eth(dst=0x0200AB, src=0x0300CD, ethertype=0x0800).build()
        assert pkt.data[:hdr.ETH_HEADER_LEN] == struct.pack(
            "!6s6sH", (0x0200AB).to_bytes(6, "big"), (0x0300CD).to_bytes(6, "big"), 0x0800)
        assert (field(pkt, "eth_dst"), field(pkt, "eth_src")) == (0x0200AB, 0x0300CD)

    def test_truncated(self):
        view = parse(Packet(b"\x00" * 10))
        assert not view.has(PROTO_ETH)
        assert field_by_name("eth_dst").extract(view) is None

    @given(st.integers(0, (1 << 48) - 1), st.integers(0, (1 << 48) - 1),
           st.integers(0, 0xFFFF))
    def test_roundtrip_property(self, dst, src, ethertype):
        pkt = PacketBuilder().eth(dst=dst, src=src, ethertype=ethertype).build()
        assert struct.unpack_from("!H", pkt.data, 12) == (ethertype,)
        assert (field(pkt, "eth_dst"), field(pkt, "eth_src")) == (dst, src)


class TestVlan:
    def test_roundtrip(self):
        pkt = PacketBuilder().eth().vlan(vid=123, pcp=5).arp().build()
        assert pkt.data[12:14 + hdr.VLAN_TAG_LEN] == struct.pack(
            "!HHH", hdr.ETH_TYPE_VLAN, 5 << 13 | 123, hdr.ETH_TYPE_ARP)
        assert (field(pkt, "vlan_vid"), field(pkt, "vlan_pcp")) == (123, 5)
        assert parse(pkt).has(PROTO_ARP)

    @given(st.integers(0, 0xFFF), st.integers(0, 7))
    def test_vid_pcp_preserved(self, vid, pcp):
        pkt = PacketBuilder().eth().vlan(vid=vid, pcp=pcp).build()
        assert (field(pkt, "vlan_vid"), field(pkt, "vlan_pcp")) == (vid, pcp)


def v4_tcp():
    return PacketBuilder().eth().ipv4(src=0x0A000001, dst=0xC0000201, ttl=63,
                                      dscp=10, ecn=1).tcp().payload(b"abcd").build()


class TestIPv4:
    def test_roundtrip(self):
        pkt = v4_tcp()
        ver_ihl, tos, total_length, ident, frag, ttl, proto = struct.unpack_from(
            "!BBHHHBB", pkt.data, 14)
        assert (ver_ihl, tos, total_length, ident, frag, ttl, proto) == (
            0x45, 10 << 2 | 1, 20 + 20 + 4, 0, 0, 63, hdr.IP_PROTO_TCP)
        assert parse(pkt).l4 == 14 + 20
        assert [field(pkt, f) for f in ("ipv4_src", "ipv4_dst", "ip_proto", "ip_dscp",
                                         "ip_ecn")] == [0x0A000001, 0xC0000201, 6, 10, 1]

    def test_checksum_valid(self):
        pkt = PacketBuilder().eth().ipv4(src=1, dst=2).build()
        assert verify_checksum(bytes(pkt.data[14:34]))
        assert pkt.data[24:26] != b"\0\0"

    def test_rejects_ipv6_version(self):
        pkt = v4_tcp()
        pkt.data[14] = 0x60
        view = parse(pkt)
        assert not view.has(PROTO_IPV4) and view.l3 == -1

    def test_rejects_short_ihl(self):
        pkt = v4_tcp()
        pkt.data[14] = 0x44  # ihl = 4 words = 16 bytes < minimum
        assert not parse(pkt).has(PROTO_IPV4)

    def test_options_respected(self):
        pkt = v4_tcp()
        pkt.data[14] = 0x46  # ihl = 6 words: one word of options follows
        pkt.data[34:34] = b"\x01" * 4
        view = parse(pkt)
        assert view.l4 == 14 + 24 and view.has(PROTO_TCP)
        assert field_by_name("tcp_dst").extract(view) == 80


class TestTcpUdpIcmp:
    def test_tcp_roundtrip(self):
        pkt = PacketBuilder().eth().ipv4().tcp(src_port=1234, dst_port=80, flags=0x18).build()
        assert struct.unpack_from("!HHIIHHHH", pkt.data, 34) == (
            1234, 80, 0, 0, 5 << 12 | 0x18, 65535, 0, 0)
        assert (field(pkt, "tcp_src"), field(pkt, "tcp_dst")) == (1234, 80)

    def test_tcp_bad_offset(self):
        # The parser reads L4 at fixed offsets, as the paper's templates
        # do: a data offset under five words changes nothing it reports.
        pkt = PacketBuilder().eth().ipv4().tcp(dst_port=80).build()
        pkt.data[34 + 12] = 0x10  # data offset = 1 word
        view = parse(pkt)
        assert view.has(PROTO_TCP) and field_by_name("tcp_dst").extract(view) == 80

    def test_udp_roundtrip(self):
        pkt = PacketBuilder().eth().ipv4().udp(src_port=53, dst_port=5353).build()
        assert struct.unpack_from("!HHHH", pkt.data, 34) == (53, 5353, hdr.UDP_HEADER_LEN, 0)
        assert (field(pkt, "udp_src"), field(pkt, "udp_dst")) == (53, 5353)

    def test_icmp_roundtrip(self):
        pkt = PacketBuilder().eth().ipv4().icmp(type=3, code=1).build()
        assert (field(pkt, "icmpv4_type"), field(pkt, "icmpv4_code")) == (3, 1)
        assert field(pkt, "ip_proto") == hdr.IP_PROTO_ICMP


class TestArp:
    def test_roundtrip(self):
        pkt = PacketBuilder().eth().arp(op=2, sha=0xAA, spa=0x0A000001, tha=0xBB,
                                        tpa=0x0A000002).build()
        assert struct.unpack_from("!HHBBH", pkt.data, 14) == (1, hdr.ETH_TYPE_IPV4, 6, 4, 2)
        assert [field(pkt, f) for f in ("arp_op", "arp_sha", "arp_spa", "arp_tha",
                                         "arp_tpa")] == [2, 0xAA, 0x0A000001, 0xBB, 0x0A000002]
        assert len(pkt.data) >= 14 + hdr.ARP_IPV4_LEN
