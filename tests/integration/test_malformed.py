"""Failure injection: malformed and hostile packets must never crash a
datapath, and all three datapaths must agree on their fate."""

import itertools
import random

import pytest

from repro.core import CompileConfig, ESwitch
from repro.openflow import FlowEntry, FlowTable, Match, Output, Pipeline
from repro.openflow.fields import field_by_name
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.packet.packet import Packet
from repro.packet.parser import PROTO_ARP, parse
from repro.usecases import firewall, gateway


def switches():
    return (
        ESwitch.from_pipeline(firewall.build_single_stage()),
        OvsSwitch(firewall.build_single_stage()),
        firewall.build_single_stage(),
    )


def agree(pkt):
    es, ovs, ref = switches()
    expected = ref.process(pkt.copy()).summary()
    assert es.process(pkt.copy()).summary() == expected
    assert ovs.process(pkt.copy()).summary() == expected
    return expected


class TestMalformedPackets:
    def test_runt_frame(self):
        agree(Packet(b"\x00" * 10, in_port=1))

    def test_empty_frame(self):
        agree(Packet(b"", in_port=1))

    def test_truncated_ip_header(self):
        full = PacketBuilder(in_port=1).eth().ipv4().tcp().build()
        agree(Packet(bytes(full.data[:18]), in_port=1))

    def test_truncated_l4(self):
        full = PacketBuilder(in_port=1).eth().ipv4().tcp().build()
        agree(Packet(bytes(full.data[:36]), in_port=1))

    def test_bogus_ihl(self):
        pkt = PacketBuilder(in_port=1).eth().ipv4().tcp().build()
        pkt.data[14] = 0x4F  # ihl = 15 words = 60 bytes > frame remainder
        agree(pkt)

    def test_ipv6_version_nibble(self):
        pkt = PacketBuilder(in_port=1).eth().ipv4().tcp().build()
        pkt.data[14] = 0x60
        agree(pkt)

    def test_vlan_tag_without_payload(self):
        raw = bytes.fromhex("02000000000202000000000181000064")  # eth + tag only
        agree(Packet(raw, in_port=1))

    def test_random_garbage_never_crashes(self):
        rng = random.Random(5)
        es, ovs, ref = switches()
        for _ in range(200):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
            pkt = Packet(raw, in_port=rng.choice([1, 2, 9]))
            expected = ref.process(pkt.copy()).summary()
            assert es.process(pkt.copy()).summary() == expected
            assert ovs.process(pkt.copy()).summary() == expected

    def test_bitflip_fuzzing(self):
        """Flip every byte of a valid packet, one at a time."""
        base = (PacketBuilder(in_port=firewall.EXTERNAL).eth()
                .ipv4(dst=firewall.SERVER_IP).tcp(dst_port=80).build())
        es, ovs, ref = switches()
        for pos in range(len(base.data)):
            pkt = base.copy()
            pkt.data[pos] ^= 0xFF
            expected = ref.process(pkt.copy()).summary()
            assert es.process(pkt.copy()).summary() == expected, pos
            assert ovs.process(pkt.copy()).summary() == expected, pos


class TestHostileGatewayTraffic:
    def test_garbage_into_complex_pipeline(self):
        rng = random.Random(6)
        p, _fib = gateway.build(n_ce=2, users_per_ce=2, n_prefixes=100)
        es = ESwitch.from_pipeline(gateway.build(n_ce=2, users_per_ce=2,
                                                 n_prefixes=100)[0])
        ovs = OvsSwitch(gateway.build(n_ce=2, users_per_ce=2, n_prefixes=100)[0])
        for _ in range(150):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 96)))
            pkt = Packet(raw, in_port=rng.choice([1, 2]))
            expected = p.process(pkt.copy()).summary()
            assert es.process(pkt.copy()).summary() == expected
            assert ovs.process(pkt.copy()).summary() == expected


# -- every builder frame kind, cut at every header boundary ------------------

V6_DST = "2001:db8::2"

#: frame kind -> (builder calls, header lengths in wire order).
FRAME_KINDS = {
    "l2": (lambda b: b.eth(ethertype=0x88B5), [14]),
    "vlan": (lambda b: b.eth().vlan(vid=100).vlan(vid=7).ipv4(dst="192.0.2.1").tcp(),
             [14, 4, 4, 20, 20]),
    "v4tcp": (lambda b: b.eth().ipv4(dst="192.0.2.1").tcp(dst_port=80), [14, 20, 20]),
    "v4udp": (lambda b: b.eth().ipv4().udp(dst_port=53), [14, 20, 8]),
    "v4icmp": (lambda b: b.eth().ipv4().icmp(type=8), [14, 20, 4]),
    "v6tcp": (lambda b: b.eth().ipv6(dst=V6_DST).tcp(dst_port=80), [14, 40, 20]),
    "v6udp": (lambda b: b.eth().ipv6().udp(dst_port=53), [14, 40, 8]),
    "v6icmp": (lambda b: b.eth().ipv6().icmpv6(type=128), [14, 40, 4]),
    "arp": (lambda b: b.eth().arp(op=2), [14, 28]),
}

CUTS = [
    (kind, end + delta)
    for kind, (_, lengths) in FRAME_KINDS.items()
    for end in itertools.accumulate(lengths)
    for delta in (-1, 0, 1)
]


def every_layer():
    """One rule per header a kind carries (deeper layers win), so a cut
    that drops a header changes which rule a frame hits."""
    table = FlowTable(0)
    for port, (priority, match) in enumerate([
        (10, Match(eth_dst="00:00:00:00:00:02")),
        (20, Match(vlan_vid=100)),
        (30, Match(eth_type=0x0806, arp_op=2)),
        (30, Match(ipv4_dst="192.0.2.1")),
        (30, Match(ipv6_dst=V6_DST)),
        (40, Match(tcp_dst=80)),
        (40, Match(udp_dst=53)),
        (40, Match(icmpv4_type=8)),
        (40, Match(icmpv6_type=128)),
    ], start=2):
        table.add(FlowEntry(match, priority=priority, actions=[Output(port)]))
    return Pipeline([table])


@pytest.fixture(scope="module")
def every_backend():
    return {
        "fused": ESwitch.from_pipeline(every_layer()),
        "trampoline": ESwitch.from_pipeline(every_layer(), config=CompileConfig(fuse=False)),
        "ovs": OvsSwitch(every_layer()),
    }


@pytest.mark.parametrize("kind, cut", CUTS, ids=[f"{k}-{c}" for k, c in CUTS])
def test_cut_at_header_boundary(every_backend, kind, cut):
    """A builder frame cut one byte short of, at, and one byte past each
    header's end: every backend agrees with the reference, and a frame
    cut short of its last header's end is not forwarded as the whole
    frame is."""
    build, lengths = FRAME_KINDS[kind]
    full = build(PacketBuilder(in_port=1)).build()
    pkt = Packet(bytes(full.data[:cut]), in_port=1)
    expected = every_layer().process(pkt.copy()).summary()
    for name, switch in every_backend.items():
        assert switch.process(pkt.copy()).summary() == expected, name
    if cut < sum(lengths):
        assert expected != every_layer().process(full.copy()).summary()


def test_arp_of_another_hardware_type_has_no_arp_fields(every_backend):
    """ARP is read only as Ethernet/IPv4 (htype 1, ptype 0x0800, hlen 6,
    plen 4), as OVS reads it: a builder ARP frame edited to htype 99
    extracts no ``arp_*`` field and misses the ``arp_op`` rule on every
    backend, landing on the ``eth_dst`` rule instead."""
    pkt = PacketBuilder(in_port=1).eth().arp(op=2).build()
    assert every_layer().process(pkt.copy()).output_ports == [4]
    pkt.data[14:16] = (99).to_bytes(2, "big")
    view = parse(pkt)
    assert not view.has(PROTO_ARP)
    for name in ("arp_op", "arp_spa", "arp_tpa", "arp_sha", "arp_tha"):
        assert field_by_name(name).extract(view) is None, name
    assert field_by_name("eth_type").extract(view) == 0x0806
    expected = every_layer().process(pkt.copy()).summary()
    assert every_layer().process(pkt.copy()).output_ports == [2]
    for name, switch in every_backend.items():
        assert switch.process(pkt.copy()).summary() == expected, name
