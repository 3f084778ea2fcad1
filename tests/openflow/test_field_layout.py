"""Every row of the field registry, pinned against an independent encoder.

``extract``, ``expr`` and ``store`` of a field are all emitted from its
one layout row, so they cannot disagree with each other — and the
differential fuzzer can no longer catch a wrong offset. What pins the row
is the repo's one encoder, :class:`PacketBuilder`, which writes each
header with its own ``struct`` format and never reads this registry (CI
keeps ``repro.openflow`` out of ``packet/builder.py``). Every test
here is parametrised over :data:`FIELDS`, so a new row is pinned (or
fails for want of a frame that carries it) without touching this file's
parameter lists.
"""

import pytest

from repro.core.analysis import CompileConfig
from repro.core.eswitch import ESwitch
from repro.openflow.actions import Output, SetField
from repro.openflow.fields import FIELDS
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.packet import headers as hdr
from repro.packet.parser import PROTO_IPV4, parse

V6_SRC = 0x20010DB8A1B2C3D4E5F60718293A4B5C
V6_DST = 0x20010DB85C4B3A29180716F5E4D3C2B1

#: One value per field, no two bytes of a frame alike where it can be
#: helped. ``frame`` turns them into header arguments; the registry never
#: sees this table, only the bytes the packers made of it.
DEFAULTS = {
    "in_port": 0x01020304, "metadata": 0xA1B2C3D4E5F60718, "tunnel_id": 0x1827364554637281,
    "eth_dst": 0x02A1B2C3D4E5, "eth_src": 0x06F7E8D9CABB,
    "vlan_vid": 0xA5C, "vlan_pcp": 5,
    "ip_dscp": 0x2B, "ip_ecn": 2,
    "ipv4_src": 0x0A1B2C3D, "ipv4_dst": 0xC6336445,
    "ipv6_src": V6_SRC, "ipv6_dst": V6_DST, "ipv6_flabel": 0xA5C3E,
    "tcp_src": 0x1357, "tcp_dst": 0x2468, "udp_src": 0x369C, "udp_dst": 0x48AE,
    "icmpv4_type": 0x0B, "icmpv4_code": 0x5D, "icmpv6_type": 0x87, "icmpv6_code": 0x3E,
    "arp_op": 0x0102, "arp_sha": 0x0A1B2C3D4E5F, "arp_spa": 0xC0A81764,
    "arp_tha": 0x0E6F7A8B9CAD, "arp_tpa": 0xAC1F2E3D,
}

#: frame kind -> (L3, L4) headers; every kind but "l2" is VLAN-tagged, so
#: no L3/L4 field sits where an untagged frame would have it.
KINDS = {
    "l2": (None, None),
    "v4tcp": ("v4", "tcp"), "v4udp": ("v4", "udp"), "v4icmp": ("v4", "icmp"),
    "v4gre": ("v4", None),
    "v6tcp": ("v6", "tcp"), "v6udp": ("v6", "udp"), "v6icmp": ("v6", "icmp6"),
    "arp": ("arp", None),
}


def frame(kind, **override):
    """``(packet, values)``: a frame of ``kind`` through PacketBuilder and
    the value every field it carries was given."""
    v = {**DEFAULTS, **override}
    l3, l4 = KINDS[kind]
    b = PacketBuilder(in_port=v["in_port"])
    if l3 is None:
        v["eth_type"] = override.get("eth_type", 0x88B5)
        b.eth(src=v["eth_src"], dst=v["eth_dst"], ethertype=v["eth_type"])
    else:
        b.eth(src=v["eth_src"], dst=v["eth_dst"]).vlan(vid=v["vlan_vid"], pcp=v["vlan_pcp"])
    if l3 == "v4":
        v["eth_type"] = hdr.ETH_TYPE_IPV4
        v["ip_proto"] = override.get("ip_proto", 47)  # overwritten when an L4 follows
        b.ipv4(src=v["ipv4_src"], dst=v["ipv4_dst"], proto=v["ip_proto"],
               dscp=v["ip_dscp"], ecn=v["ip_ecn"])
    elif l3 == "v6":
        v["eth_type"] = hdr.ETH_TYPE_IPV6
        b.ipv6(src=v["ipv6_src"], dst=v["ipv6_dst"],
               traffic_class=(v["ip_dscp"] << 2) | v["ip_ecn"], flow_label=v["ipv6_flabel"])
    elif l3 == "arp":
        v["eth_type"] = hdr.ETH_TYPE_ARP
        b.arp(op=v["arp_op"], sha=v["arp_sha"], spa=v["arp_spa"],
              tha=v["arp_tha"], tpa=v["arp_tpa"])
    if l4 == "tcp":
        v["ip_proto"] = hdr.IP_PROTO_TCP
        b.tcp(src_port=v["tcp_src"], dst_port=v["tcp_dst"])
    elif l4 == "udp":
        v["ip_proto"] = hdr.IP_PROTO_UDP
        b.udp(src_port=v["udp_src"], dst_port=v["udp_dst"])
    elif l4 == "icmp":
        v["ip_proto"] = hdr.IP_PROTO_ICMP
        b.icmp(type=v["icmpv4_type"], code=v["icmpv4_code"])
    elif l4 == "icmp6":
        v["ip_proto"] = hdr.IP_PROTO_ICMPV6
        b.icmpv6(type=v["icmpv6_type"], code=v["icmpv6_code"])
    pkt = b.build()
    pkt.metadata, pkt.tunnel_id = v["metadata"], v["tunnel_id"]
    v["in_phy_port"] = v["in_port"]
    return pkt, v


def carried_by(fdef):
    """The frame kinds whose parse shows ``fdef``'s header present."""
    return [
        kind for kind in KINDS
        if not fdef.proto_required or parse(frame(kind)[0]).proto & fdef.proto_required
    ]


def fast_path_locals(pkt):
    view = parse(pkt)
    return {"data": pkt.data, "pkt": pkt, "l3": view.l3, "l4": view.l4,
            "proto": view.proto, "etype": view.eth_type, "nxt": view.l4_proto}


def other(fdef, value):
    """A second value for the field: every bit flipped."""
    return value ^ fdef.max_value


def sans_ipv4_checksum(pkt):
    """Frame bytes with the IPv4 header checksum blanked: the packers
    compute it, set-field leaves it alone."""
    data, view = bytearray(pkt.data), parse(pkt)
    if view.proto & PROTO_IPV4:
        data[view.l3 + 10:view.l3 + 12] = b"\0\0"
    return bytes(data)


def ids(fields):
    return [f.name for f in fields]


LAID_OUT = [f for f in FIELDS if f.expr is not None]
SETTABLE = [f for f in FIELDS if f.store is not None]


class TestRegistryShape:
    def test_settable_set_is_unchanged(self):
        # Deriving writers from rows must not widen what SetField accepts.
        assert {f.name for f in SETTABLE} == {
            "metadata", "eth_dst", "eth_src", "vlan_vid", "vlan_pcp", "ip_dscp",
            "ip_ecn", "ipv4_src", "ipv4_dst", "tcp_src", "tcp_dst", "udp_src",
            "udp_dst", "ipv6_src", "ipv6_dst",
        }

    def test_layout_less_fields_have_nothing(self):
        view = parse(frame("v6icmp")[0])
        for fdef in FIELDS:
            if fdef.expr is None:
                assert fdef.store is None and fdef.extract(view) is None, fdef.name

    @pytest.mark.parametrize("fdef", SETTABLE, ids=ids(SETTABLE))
    def test_set_field_survives_pickling(self, fdef):
        import pickle
        # Pipelines travel to shard workers pickled, writers included.
        action = pickle.loads(pickle.dumps(SetField(fdef.name, 1)))
        assert action._store is fdef.store


@pytest.mark.parametrize("fdef", LAID_OUT, ids=ids(LAID_OUT))
class TestRead:
    def test_extract_and_expr_read_what_the_packers_wrote(self, fdef):
        kinds = carried_by(fdef)
        assert kinds, f"no frame kind carries {fdef.name}: teach frame() its header"
        for kind in kinds:
            pkt, values = frame(kind)
            assert fdef.extract(parse(pkt)) == values[fdef.name], kind
            assert eval(fdef.expr, {}, fast_path_locals(pkt)) == values[fdef.name], kind

    def test_absent_header_extracts_none(self, fdef):
        for kind in set(KINDS) - set(carried_by(fdef)):
            assert fdef.extract(parse(frame(kind)[0])) is None, kind


@pytest.mark.parametrize("fdef", SETTABLE, ids=ids(SETTABLE))
class TestStore:
    def test_store_writes_the_frame_the_packers_would(self, fdef):
        """Round trip, and every other bit of the frame untouched: the
        rewritten frame equals one built with the new value outright —
        which covers the neighbours sharing a byte (``vlan_pcp`` beside
        ``vlan_vid`` and the DEI bit; ``ip_dscp`` beside ``ip_ecn``, on
        IPv6 also beside the version nibble and the flow label)."""
        for kind in carried_by(fdef):
            pkt, values = frame(kind)
            new = other(fdef, values[fdef.name])
            view = parse(pkt)
            fdef.store(view, new)
            assert fdef.extract(view) == new, kind
            want, _ = frame(kind, **{fdef.name: new})
            assert sans_ipv4_checksum(pkt) == sans_ipv4_checksum(want), kind
            assert (pkt.metadata, pkt.tunnel_id) == (want.metadata, want.tunnel_id)


def one_rule(fdef, value):
    table = FlowTable(0)
    table.add(FlowEntry(Match(**{fdef.name: value}), priority=10, actions=[Output(2)]))
    return Pipeline([table])


BACKENDS = {
    "reference": lambda p: p,
    "fused": ESwitch,
    "trampoline": lambda p: ESwitch(p, config=CompileConfig(fuse=False)),
    "linked_list": lambda p: ESwitch(p, config=CompileConfig(force_linked_list=True)),
    "ovs": OvsSwitch,
}


@pytest.mark.parametrize("fdef", FIELDS, ids=ids(FIELDS))
def test_one_rule_pipeline_agrees_on_every_backend(fdef):
    """All 40 fields: hit and miss verdicts of ``Pipeline.process`` hold on
    every backend. A layout-less field never hits, anywhere."""
    kind = (carried_by(fdef) or ["v4tcp"])[0]
    value = frame(kind)[1].get(fdef.name, 1)
    hit, _ = frame(kind)
    if fdef.name in ("eth_type", "ip_proto"):  # the frame kind decides these
        miss, _ = frame("arp")
    else:  # a field frame() cannot set is left as it was: still no hit
        port = "in_port" if fdef.name == "in_phy_port" else fdef.name
        miss, _ = frame(kind, **{port: other(fdef, value)})
    want_hit = one_rule(fdef, value).process(hit.copy())
    want_miss = one_rule(fdef, value).process(miss.copy())
    assert want_hit.forwarded == (fdef.expr is not None)
    assert not want_miss.forwarded
    for name, make in BACKENDS.items():
        switch = make(one_rule(fdef, value))
        assert switch.process(hit.copy()).summary() == want_hit.summary(), name
        assert switch.process(miss.copy()).summary() == want_miss.summary(), name
