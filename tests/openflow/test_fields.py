"""Tests for the OXM field registry."""

import pytest

from repro.openflow.fields import FIELDS, field_by_name, max_layer
from repro.packet import PacketBuilder
from repro.packet.parser import parse


class TestRegistry:
    def test_forty_fields(self):
        # OpenFlow 1.3 defines 40 OXM basic fields (the paper's "40+").
        assert len(FIELDS) == 40

    def test_unique_names_and_ids(self):
        assert len({f.name for f in FIELDS}) == len(FIELDS)
        assert len({f.oxm_id for f in FIELDS}) == len(FIELDS)

    def test_lookup_error_mentions_candidates(self):
        with pytest.raises(KeyError, match="ipv4_dst"):
            field_by_name("bogus")

    def test_max_layer(self):
        assert max_layer(["eth_dst"]) == 2
        assert max_layer(["eth_dst", "ipv4_dst"]) == 3
        assert max_layer(["tcp_dst"]) == 4
        assert max_layer(["in_port"]) == 2  # metadata floor is L2

    def test_expr_exists_for_wire_fields(self):
        for name in ("eth_dst", "ipv4_src", "tcp_dst", "udp_src", "vlan_vid",
                     "arp_tpa", "icmpv4_type", "in_port", "metadata"):
            assert field_by_name(name).expr is not None

    def test_unsupported_fields_extract_none(self):
        view = parse(PacketBuilder().eth().ipv4().tcp().build())
        for name in ("ipv6_src", "mpls_label", "sctp_dst", "pbb_isid"):
            assert field_by_name(name).extract(view) is None


class TestExtractors:
    def test_metadata_fields(self):
        pkt = PacketBuilder(in_port=4).eth().build()
        pkt.metadata = 0xDEAD
        pkt.tunnel_id = 99
        view = parse(pkt)
        assert field_by_name("in_port").extract(view) == 4
        assert field_by_name("metadata").extract(view) == 0xDEAD
        assert field_by_name("tunnel_id").extract(view) == 99

    def test_l4_fields_none_for_udp_packet(self):
        view = parse(PacketBuilder().eth().ipv4().udp(dst_port=53).build())
        assert field_by_name("tcp_dst").extract(view) is None
        assert field_by_name("udp_dst").extract(view) == 53

    def test_fields_have_sane_widths(self):
        assert field_by_name("eth_dst").width == 48
        assert field_by_name("ipv4_dst").width == 32
        assert field_by_name("tcp_dst").width == 16
        assert field_by_name("vlan_vid").width == 12
        assert field_by_name("ip_dscp").width == 6
        assert field_by_name("metadata").width == 64
