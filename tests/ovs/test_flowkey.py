"""Tests for flow-key and EMC-key extraction."""

from repro.openflow.fields import FIELDS
from repro.ovs.flowkey import EMC_KEY_FIELDS, KEY_FIELDS, emc_key, extract_key
from repro.packet import PacketBuilder
from repro.packet.parser import parse


class TestExtractKey:
    def test_all_key_fields_present(self):
        view = parse(PacketBuilder().eth().ipv4().tcp().build())
        key = extract_key(view)
        assert set(key) == set(KEY_FIELDS)

    def test_columns_are_the_registry_fields_with_a_position(self):
        # Derived, not listed: a column per field that can be read at all,
        # in registry order — in_phy_port included, layout-less ones not.
        assert KEY_FIELDS == tuple(f.name for f in FIELDS if f.expr is not None)
        assert "in_phy_port" in KEY_FIELDS
        assert not {"sctp_dst", "mpls_label", "pbb_isid"} & set(KEY_FIELDS)

    def test_in_phy_port_is_the_ingress_port(self):
        key = extract_key(parse(PacketBuilder(in_port=4).eth().build()))
        assert key["in_phy_port"] == key["in_port"] == 4

    def test_absent_layers_are_none(self):
        view = parse(PacketBuilder().eth().build())
        key = extract_key(view)
        assert key["ipv4_dst"] is None
        assert key["tcp_dst"] is None
        assert key["eth_dst"] is not None

    def test_values_match_packet(self):
        view = parse(
            PacketBuilder(in_port=4).eth().vlan(vid=9)
            .ipv4(src="10.0.0.1", dst="10.0.0.2").udp(dst_port=53).build()
        )
        key = extract_key(view)
        assert key["in_port"] == 4
        assert key["vlan_vid"] == 9
        assert key["udp_dst"] == 53
        assert key["tcp_dst"] is None


class TestEmcKey:
    def test_includes_ttl(self):
        assert len(EMC_KEY_FIELDS) == len(KEY_FIELDS) + 1
        a = PacketBuilder().eth().ipv4(ttl=64).tcp().build()
        b = PacketBuilder().eth().ipv4(ttl=63).tcp().build()
        assert emc_key(parse(a)) != emc_key(parse(b))

    def test_same_packet_same_key(self):
        a = PacketBuilder().eth().ipv4().tcp().build()
        assert emc_key(parse(a)) == emc_key(parse(a.copy()))

    def test_key_is_hashable(self):
        view = parse(PacketBuilder().eth().ipv4().tcp().build())
        hash(emc_key(view))

    def test_precomputed_key_reused(self):
        view = parse(PacketBuilder().eth().ipv4().tcp().build())
        key = extract_key(view)
        assert emc_key(view, key) == emc_key(view)
