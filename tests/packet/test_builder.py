"""Tests for the fluent packet builder."""

from hypothesis import example, given, strategies as st

from repro.net.addresses import ip_to_int, mac_to_int
from repro.net.checksum import verify_checksum
from repro.packet import PacketBuilder, headers as hdr
from repro.packet.parser import PROTO_ETH, PROTO_IPV4, PROTO_TCP, PROTO_VLAN, parse
from repro.openflow.fields import field_by_name


def field(view, name):
    return field_by_name(name).extract(view)


class TestBuilder:
    def test_minimum_frame_padding(self):
        pkt = PacketBuilder().eth().build()
        assert len(pkt) == 64

    def test_custom_padding(self):
        pkt = PacketBuilder(pad_to=128).eth().ipv4().build()
        assert len(pkt) == 128

    def test_in_port(self):
        assert PacketBuilder(in_port=7).eth().build().in_port == 7

    def test_fields_land_where_expected(self):
        pkt = (
            PacketBuilder()
            .eth(src="02:00:00:00:00:0a", dst="02:00:00:00:00:0b")
            .ipv4(src="10.1.2.3", dst="192.0.2.9", ttl=17, dscp=3)
            .tcp(src_port=4444, dst_port=80)
            .build()
        )
        view = parse(pkt)
        assert field(view, "eth_src") == mac_to_int("02:00:00:00:00:0a")
        assert field(view, "eth_dst") == mac_to_int("02:00:00:00:00:0b")
        assert field(view, "eth_type") == hdr.ETH_TYPE_IPV4
        assert field(view, "ipv4_src") == ip_to_int("10.1.2.3")
        assert field(view, "ipv4_dst") == ip_to_int("192.0.2.9")
        assert field(view, "ip_dscp") == 3
        assert field(view, "tcp_src") == 4444
        assert field(view, "tcp_dst") == 80

    def test_vlan_tagging_fixes_ethertypes(self):
        pkt = PacketBuilder().eth().vlan(vid=42, pcp=6).ipv4().udp(dst_port=53).build()
        view = parse(pkt)
        assert field(view, "vlan_vid") == 42
        assert field(view, "vlan_pcp") == 6
        # The *effective* eth_type skips the tag per the OF spec.
        assert field(view, "eth_type") == hdr.ETH_TYPE_IPV4
        assert field(view, "udp_dst") == 53

    def test_arp_packet(self):
        pkt = PacketBuilder().eth().arp(op=2, spa="10.0.0.1", tpa="10.0.0.2").build()
        view = parse(pkt)
        assert field(view, "eth_type") == hdr.ETH_TYPE_ARP
        assert field(view, "arp_op") == 2
        assert field(view, "arp_spa") == ip_to_int("10.0.0.1")
        assert field(view, "arp_tpa") == ip_to_int("10.0.0.2")

    def test_proto_autoset_from_l4(self):
        view = parse(PacketBuilder().eth().ipv4().udp().build())
        assert field(view, "ip_proto") == hdr.IP_PROTO_UDP
        view = parse(PacketBuilder().eth().ipv4().icmp().build())
        assert field(view, "ip_proto") == hdr.IP_PROTO_ICMP

    def test_headers_stack_roundtrip(self):
        view = parse(PacketBuilder().eth().vlan(vid=5).ipv4().tcp().build())
        assert view.proto == PROTO_ETH | PROTO_VLAN | PROTO_IPV4 | PROTO_TCP
        assert (view.l3, view.l4) == (18, 38)

    def test_payload(self):
        pkt = PacketBuilder().eth().ipv4().udp().payload(b"hello").build()
        assert b"hello" in bytes(pkt.data)

    def test_copy_is_independent(self):
        pkt = PacketBuilder(in_port=3).eth().ipv4().tcp().build()
        clone = pkt.copy()
        clone.data[0] = 0xFF
        clone.in_port = 9
        assert pkt.data[0] != 0xFF
        assert pkt.in_port == 3


# -- pack -> parse: the builder writes, the parser that runs reads ----------

#: The fields the builder writes.
WRITTEN = (
    "in_port", "eth_src", "eth_dst", "eth_type", "vlan_vid", "vlan_pcp",
    "ipv4_src", "ipv4_dst", "ip_dscp", "ip_ecn", "ip_proto",
    "ipv6_src", "ipv6_dst", "ipv6_flabel", "tcp_src", "tcp_dst", "udp_src", "udp_dst",
    "icmpv4_type", "icmpv4_code", "icmpv6_type", "icmpv6_code",
    "arp_op", "arp_sha", "arp_spa", "arp_tha", "arp_tpa",
)
VALUES = st.fixed_dictionaries({
    name: st.integers(0, field_by_name(name).max_value) for name in WRITTEN
}).filter(lambda v: v["eth_type"] != hdr.ETH_TYPE_VLAN)

#: The L4 headers the builder writes after each L3 (None: no L4).
L4_AFTER = {None: [None], "arp": [None], "v4": [None, "tcp", "udp", "icmpv4"],
            "v6": ["tcp", "udp", "icmpv6"]}
L4_PROTO = {"tcp": hdr.IP_PROTO_TCP, "udp": hdr.IP_PROTO_UDP,
            "icmpv4": hdr.IP_PROTO_ICMP, "icmpv6": hdr.IP_PROTO_ICMPV6}
#: hop-by-hop, routing, fragment (offset 0: the first), AH, destination options.
IPV6_EXTS = [0, 43, 44, 51, 60]


@st.composite
def stacks(draw):
    """(L3, L4, VLAN tags, IPv4 option words, IPv6 extension chain)."""
    l3 = draw(st.sampled_from([None, "v4", "v6", "arp"]))
    return (l3, draw(st.sampled_from(L4_AFTER[l3])), draw(st.integers(0, 2)),
            draw(st.integers(0, 10)) if l3 == "v4" else 0,
            draw(st.lists(st.sampled_from(IPV6_EXTS), max_size=4)) if l3 == "v6" else [])


def ipv6_chain(exts, last):
    """Extension header bytes, each naming the next and the last ``last``."""
    out = b""
    for ext, nxt in zip(exts, [*exts[1:], last]):
        if ext == 51:  # AH: (1 + 2) 4-byte units
            out += bytes([nxt, 1]) + bytes(10)
        elif ext == 44:  # the first fragment (offset 0) of several (M set)
            out += bytes([nxt, 0, 0, 1]) + bytes(4)
        else:  # 8-byte units: (0 + 1) of them
            out += bytes([nxt, 0]) + bytes(6)
    return out


class TestParseRoundTrip:
    @given(stack=stacks(), v=VALUES)
    @example(stack=("v6", "tcp", 0, 0, [0]), v=dict.fromkeys(WRITTEN, 1))
    def test_parse_reads_what_the_builder_was_given(self, stack, v):
        """Every frame kind the builder writes (L2, VLAN, IPv4 with and
        without options, IPv6 behind an extension chain, ARP; TCP, UDP,
        ICMP, ICMPv6): each field extracts the value the builder was
        given. The example is hop-by-hop before TCP."""
        l3, l4, tags, opt_words, exts = stack
        want = {k: v[k] for k in ("in_port", "eth_src", "eth_dst")}
        b = PacketBuilder(in_port=v["in_port"]).eth(
            src=v["eth_src"], dst=v["eth_dst"], ethertype=v["eth_type"])
        for _ in range(tags):
            b.vlan(vid=v["vlan_vid"], pcp=v["vlan_pcp"])
            want.update(vlan_vid=v["vlan_vid"], vlan_pcp=v["vlan_pcp"])
        # An untagged L2 frame keeps its ethertype; a tag stack without an
        # L3 header announces IPv4, as the builder documents.
        want["eth_type"] = v["eth_type"] if not tags else hdr.ETH_TYPE_IPV4
        if l3 == "v4":
            b.ipv4(src=v["ipv4_src"], dst=v["ipv4_dst"], proto=v["ip_proto"],
                   dscp=v["ip_dscp"], ecn=v["ip_ecn"])
            want.update({k: v[k] for k in ("ipv4_src", "ipv4_dst", "ip_dscp", "ip_ecn")},
                        eth_type=hdr.ETH_TYPE_IPV4, ip_proto=L4_PROTO.get(l4, v["ip_proto"]))
        elif l3 == "v6":
            b.ipv6(src=v["ipv6_src"], dst=v["ipv6_dst"], flow_label=v["ipv6_flabel"],
                   traffic_class=v["ip_dscp"] << 2 | v["ip_ecn"])
            want.update({k: v[k] for k in ("ipv6_src", "ipv6_dst", "ipv6_flabel", "ip_dscp",
                                           "ip_ecn")},
                        eth_type=hdr.ETH_TYPE_IPV6, ip_proto=L4_PROTO[l4])
        elif l3 == "arp":
            b.arp(op=v["arp_op"], sha=v["arp_sha"], spa=v["arp_spa"], tha=v["arp_tha"],
                  tpa=v["arp_tpa"])
            want.update({k: v[k] for k in v if k.startswith("arp_")},
                        eth_type=hdr.ETH_TYPE_ARP)
        if l4 in ("tcp", "udp"):
            getattr(b, l4)(src_port=v[f"{l4}_src"], dst_port=v[f"{l4}_dst"])
            want.update({f"{l4}_src": v[f"{l4}_src"], f"{l4}_dst": v[f"{l4}_dst"]})
        elif l4 is not None:
            getattr(b, "icmp" if l4 == "icmpv4" else l4)(
                type=v[f"{l4}_type"], code=v[f"{l4}_code"])
            want.update({f"{l4}_type": v[f"{l4}_type"], f"{l4}_code": v[f"{l4}_code"]})
        pkt = b.build()

        at = hdr.ETH_HEADER_LEN + tags * hdr.VLAN_TAG_LEN
        if l3 == "v4":
            assert verify_checksum(bytes(pkt.data[at:at + 20]))
            pkt.data[at] = 0x45 + opt_words  # ihl grows by the option words
            pkt.data[at + 20:at + 20] = bytes(4 * opt_words)
        elif exts:
            pkt.data[at + 6] = exts[0]
            pkt.data[at + 40:at + 40] = ipv6_chain(exts, L4_PROTO[l4])

        view = parse(pkt)
        assert {name: field_by_name(name).extract(view) for name in want} == want
