"""Tests for IPv6 parsing, fields, and matching."""

import ipaddress
import struct

from repro.openflow.fields import field_by_name
from repro.openflow.match import Match
from repro.packet import PacketBuilder, headers as hdr
from repro.packet.packet import Packet
from repro.packet.parser import (
    PROTO_ICMP6,
    PROTO_IPV6,
    PROTO_TCP,
    PROTO_UDP,
    parse,
)

V6_SRC = int(ipaddress.IPv6Address("2001:db8::1"))
V6_DST = int(ipaddress.IPv6Address("2001:db8::2"))


def v6_tcp(dport=80, **kw):
    return PacketBuilder().eth().ipv6(**kw).tcp(dst_port=dport).build()


def spliced(pkt, first, ext):
    """``pkt`` (untagged, from the builder) with the IPv6 extension header
    bytes ``ext`` spliced in after its IPv6 header, whose next header
    becomes ``first``; the payload length grows to match."""
    data = pkt.data
    data[14 + 6] = first
    (length,) = struct.unpack_from("!H", data, 14 + 4)
    struct.pack_into("!H", data, 14 + 4, length + len(ext))
    data[14 + 40:14 + 40] = ext
    return pkt


class TestHeader:
    def test_roundtrip(self):
        pkt = (PacketBuilder().eth()
               .ipv6(src=V6_SRC, dst=V6_DST, hop_limit=63, traffic_class=0x2C,
                     flow_label=0x12345)
               .tcp().build())
        assert struct.unpack_from("!IHBB16s16s", pkt.data, 14) == (
            6 << 28 | 0x2C << 20 | 0x12345, 20, hdr.IP_PROTO_TCP, 63,
            V6_SRC.to_bytes(16, "big"), V6_DST.to_bytes(16, "big"))
        view = parse(pkt)
        assert view.l4 == 14 + 40
        assert field_by_name("ipv6_flabel").extract(view) == 0x12345

    def test_rejects_v4(self):
        pkt = v6_tcp()
        pkt.data[14] = 0x45
        view = parse(pkt)
        assert not view.has(PROTO_IPV6) and view.l3 == -1

    def test_truncated(self):
        eth = v6_tcp().data[:14]
        view = parse(Packet(eth + b"\x60" + b"\x00" * 20))
        assert not view.has(PROTO_IPV6)

    def test_icmpv6_roundtrip(self):
        pkt = PacketBuilder().eth().ipv6().icmpv6(type=135, code=0).build()
        assert field_by_name("icmpv6_type").extract(parse(pkt)) == 135


class TestParsing:
    def test_tcp_over_v6(self):
        view = parse(v6_tcp())
        assert view.has(PROTO_IPV6) and view.has(PROTO_TCP)
        assert view.l3 == 14 and view.l4 == 54
        assert view.l4_proto == hdr.IP_PROTO_TCP

    def test_udp_over_v6(self):
        view = parse(PacketBuilder().eth().ipv6().udp(dst_port=53).build())
        assert view.has(PROTO_UDP)

    def test_icmpv6(self):
        view = parse(PacketBuilder().eth().ipv6().icmpv6(type=135).build())
        assert view.has(PROTO_ICMP6)
        assert view.l4_proto == hdr.IP_PROTO_ICMPV6

    def test_vlan_plus_v6(self):
        view = parse(PacketBuilder().eth().vlan(vid=7).ipv6().tcp().build())
        assert view.has(PROTO_IPV6) and view.has(PROTO_TCP)
        assert view.l3 == 18

    def test_extension_header_chain(self):
        # eth + v6(next=hop-by-hop) + hbh(next=tcp, len 0 -> 8 bytes) + tcp
        hbh = bytes([hdr.IP_PROTO_TCP, 0]) + b"\x00" * 6
        pkt = spliced(v6_tcp(dport=443, src=V6_SRC, dst=V6_DST), 0, hbh)
        view = parse(pkt)
        assert view.has(PROTO_TCP)
        assert view.l4 == 14 + 40 + 8
        assert view.l4_proto == hdr.IP_PROTO_TCP
        assert field_by_name("tcp_dst").extract(view) == 443

    def test_v6_fragment_has_no_l4(self):
        frag = bytes([hdr.IP_PROTO_TCP, 0, 0x01, 0x00, 0, 0, 0, 1])  # offset != 0
        view = parse(spliced(v6_tcp(src=V6_SRC, dst=V6_DST), 44, frag))
        assert view.has(PROTO_IPV6) and not view.has(PROTO_TCP)
        assert view.l4 == -1

    def test_truncated_extension_chain(self):
        pkt = PacketBuilder(pad_to=0).eth().ipv6().build()
        pkt.data[14 + 6] = 0  # hop-by-hop, of which one byte follows
        pkt.data += b"\x06"
        view = parse(pkt)
        assert view.has(PROTO_IPV6)
        assert not view.has(PROTO_TCP)


class TestFields:
    def test_v6_addresses(self):
        view = parse(v6_tcp(src="2001:db8::aa", dst="2001:db8::bb"))
        assert field_by_name("ipv6_src").extract(view) == int(
            ipaddress.IPv6Address("2001:db8::aa")
        )
        assert field_by_name("ipv6_dst").extract(view) == int(
            ipaddress.IPv6Address("2001:db8::bb")
        )
        assert field_by_name("ipv4_dst").extract(view) is None

    def test_flow_label_and_tc(self):
        view = parse(v6_tcp(traffic_class=0xAD, flow_label=0x9BEEF))
        assert field_by_name("ipv6_flabel").extract(view) == 0x9BEEF
        assert field_by_name("ip_dscp").extract(view) == 0xAD >> 2
        assert field_by_name("ip_ecn").extract(view) == 0xAD & 3

    def test_ip_proto_dual_family(self):
        v6 = parse(v6_tcp())
        v4 = parse(PacketBuilder().eth().ipv4().udp().build())
        assert field_by_name("ip_proto").extract(v6) == 6
        assert field_by_name("ip_proto").extract(v4) == 17

    def test_l4_ports_over_v6(self):
        view = parse(PacketBuilder().eth().ipv6().tcp(src_port=1234,
                                                      dst_port=80).build())
        assert field_by_name("tcp_src").extract(view) == 1234
        assert field_by_name("tcp_dst").extract(view) == 80

    def test_icmpv6_fields(self):
        view = parse(PacketBuilder().eth().ipv6().icmpv6(type=136, code=1).build())
        assert field_by_name("icmpv6_type").extract(view) == 136
        assert field_by_name("icmpv6_code").extract(view) == 1
        assert field_by_name("icmpv4_type").extract(view) is None

    def test_v6_writers(self):
        pkt = v6_tcp()
        view = parse(pkt)
        new = int(ipaddress.IPv6Address("2001:db8::ff"))
        field_by_name("ipv6_dst").store(view, new)
        assert field_by_name("ipv6_dst").extract(view) == new
        field_by_name("ip_dscp").store(view, 21)
        assert field_by_name("ip_dscp").extract(view) == 21
        field_by_name("ip_ecn").store(view, 2)
        assert field_by_name("ip_ecn").extract(view) == 2
        assert field_by_name("ip_dscp").extract(view) == 21  # undisturbed


class TestMatching:
    def test_exact_and_masked_v6(self):
        m_exact = Match(ipv6_dst=V6_DST)
        m_prefix = Match(ipv6_dst=(V6_DST, ((1 << 64) - 1) << 64))  # /64
        view = parse(v6_tcp())
        assert m_exact.matches(view)
        assert m_prefix.matches(view)
        other = parse(v6_tcp(dst="2001:db9::2"))
        assert not m_exact.matches(other)
        assert not m_prefix.matches(other)

    def test_v4_rule_never_matches_v6(self):
        assert not Match(ipv4_dst="10.0.0.0/8").matches(parse(v6_tcp()))

    def test_ip_proto_matches_both_families(self):
        m = Match(ip_proto=6)
        assert m.matches(parse(v6_tcp()))
        assert m.matches(parse(PacketBuilder().eth().ipv4().tcp().build()))
        assert not m.matches(parse(PacketBuilder().eth().ipv6().udp().build()))
