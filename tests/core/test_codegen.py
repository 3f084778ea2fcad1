"""Tests for template specialization: every emitter, differentially."""

import random

import pytest
from hypothesis import given, settings

import strategies as sts

from repro.core.analysis import CompileConfig, TemplateKind
from repro.core.codegen import CompileError, compile_table
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.match import Match
from repro.packet import PacketBuilder
from repro.packet.parser import parse
from repro.simcpu.recorder import NULL_METER


def run_compiled(compiled, pkt):
    """Drive one compiled table function directly."""
    view = parse(pkt)
    from repro.openflow.fields import field_by_name

    etype = field_by_name("eth_type").extract(view) or 0
    return compiled.fn(pkt.data, pkt, view.l3, view.l4, view.proto, etype, view.l4_proto, NULL_METER)


def assert_equiv(table, compiled, pkt):
    """The compiled function must agree with a priority scan."""
    view = parse(pkt)
    expected = table.lookup(view)
    hit = run_compiled(compiled, pkt)
    assert isinstance(hit, FlowEntry)
    if expected is None:
        assert hit.instructions.is_miss
    else:
        assert hit is expected


def mac_table(n):
    t = FlowTable(0)
    for i in range(n):
        t.add(FlowEntry(Match(eth_dst=0x2000 + i), priority=1, actions=[Output(i)]))
    return t


class TestDirectCode:
    def table(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(in_port=1), priority=30, actions=[Output(2)]))
        t.add(FlowEntry(Match(ipv4_dst="192.0.2.0/24", tcp_dst=80), priority=20,
                        actions=[Output(1)]))
        return t

    def test_kind(self):
        assert compile_table(self.table()).kind is TemplateKind.DIRECT

    def test_keys_patched_into_source(self):
        src = compile_table(self.table()).source
        assert "0xc0000200" in src  # 192.0.2.0 as a literal constant
        assert "0x50" in src        # port 80

    def test_protocol_guard_emitted(self):
        src = compile_table(self.table()).source
        assert "proto &" in src  # the paper's `bt r15d, IP` analogue

    def test_match_and_miss(self):
        t = self.table()
        compiled = compile_table(t)
        hit = PacketBuilder(in_port=9).eth().ipv4(dst="192.0.2.7").tcp(dst_port=80).build()
        miss = PacketBuilder(in_port=9).eth().ipv4(dst="192.0.2.7").tcp(dst_port=22).build()
        assert_equiv(t, compiled, hit)
        assert run_compiled(compiled, miss).instructions.is_miss

    def test_udp_packet_guarded_from_tcp_matcher(self):
        t = self.table()
        compiled = compile_table(t)
        udp = PacketBuilder(in_port=9).eth().ipv4(dst="192.0.2.7").udp(dst_port=80).build()
        assert run_compiled(compiled, udp).instructions.is_miss

    def test_miss_policy_controller(self):
        t = self.table()
        t.miss_policy = TableMissPolicy.CONTROLLER
        out = run_compiled(compile_table(t), PacketBuilder(in_port=5).eth().build()).instructions
        assert out.is_miss and out.to_controller

    def test_empty_table(self):
        out = run_compiled(compile_table(FlowTable(0)), PacketBuilder().eth().build()).instructions
        assert out.is_miss


class TestCompoundHash:
    def test_kind_and_store(self):
        compiled = compile_table(mac_table(20))
        assert compiled.kind is TemplateKind.HASH
        assert compiled.hash_store is not None and len(compiled.hash_store) == 20

    def test_lookup_correct(self):
        t = mac_table(50)
        compiled = compile_table(t)
        for i in (0, 17, 49):
            pkt = PacketBuilder().eth(dst=0x2000 + i).ipv4().tcp().build()
            out = run_compiled(compiled, pkt).instructions
            assert not out.is_miss
            assert out.apply_actions[0] == Output(i)

    def test_miss_without_catch_all(self):
        compiled = compile_table(mac_table(10))
        pkt = PacketBuilder().eth(dst=0xBEEF).build()
        assert run_compiled(compiled, pkt).instructions.is_miss

    def test_catch_all_becomes_default(self):
        t = mac_table(10)
        t.add(FlowEntry(Match(), priority=0, actions=[Output(99)]))
        compiled = compile_table(t)
        pkt = PacketBuilder().eth(dst=0xBEEF).build()
        out = run_compiled(compiled, pkt).instructions
        assert not out.is_miss and out.apply_actions[0] == Output(99)

    def test_compound_multi_field_key(self):
        t = FlowTable(0)
        for i in range(8):
            t.add(FlowEntry(
                Match(ipv4_dst=(0xC0000200 + (i << 8), 0xFFFFFF00), tcp_dst=80),
                priority=1, actions=[Output(i)],
            ))
        compiled = compile_table(t)
        assert compiled.kind is TemplateKind.HASH
        pkt = PacketBuilder().eth().ipv4(dst="192.0.5.66").tcp(dst_port=80).build()
        out = run_compiled(compiled, pkt).instructions
        assert not out.is_miss and out.apply_actions[0] == Output(3)

    def test_shadowed_duplicate_keeps_highest_priority(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(eth_dst=1), priority=9, actions=[Output(1)]))
        t.add(FlowEntry(Match(eth_dst=1), priority=3, actions=[Output(2)]))
        for i in range(5):
            t.add(FlowEntry(Match(eth_dst=10 + i), priority=1, actions=[Output(5)]))
        compiled = compile_table(t)
        pkt = PacketBuilder().eth(dst=1).build()
        assert run_compiled(compiled, pkt).instructions.apply_actions[0] == Output(1)

    def test_forced_hash_on_bad_table_raises(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(1)]))
        t.add(FlowEntry(Match(udp_dst=53), priority=1, actions=[Output(2)]))
        with pytest.raises(CompileError):
            compile_table(t, kind=TemplateKind.HASH)


class TestLpmTemplate:
    def table(self):
        t = FlowTable(0)
        specs = [("10.0.0.0", 8), ("10.1.0.0", 16), ("10.1.2.0", 24),
                 ("172.16.0.0", 12), ("192.0.2.128", 25)]
        for addr, depth in specs:
            t.add(FlowEntry(Match(ipv4_dst=f"{addr}/{depth}"), priority=depth,
                            actions=[Output(depth)]))
        return t

    def test_kind(self):
        assert compile_table(self.table()).kind is TemplateKind.LPM

    def test_longest_prefix_wins(self):
        compiled = compile_table(self.table())
        cases = {
            "10.1.2.3": 24,
            "10.1.99.1": 16,
            "10.200.0.1": 8,
            "172.17.0.1": 12,
            "192.0.2.200": 25,
        }
        for dst, port in cases.items():
            pkt = PacketBuilder().eth().ipv4(dst=dst).tcp().build()
            out = run_compiled(compiled, pkt).instructions
            assert out.apply_actions[0] == Output(port), dst

    def test_miss(self):
        compiled = compile_table(self.table())
        pkt = PacketBuilder().eth().ipv4(dst="8.8.8.8").tcp().build()
        assert run_compiled(compiled, pkt).instructions.is_miss

    def test_non_ip_guarded(self):
        compiled = compile_table(self.table())
        pkt = PacketBuilder().eth().arp().build()
        assert run_compiled(compiled, pkt).instructions.is_miss

    def test_default_route_via_catch_all(self):
        t = self.table()
        t.add(FlowEntry(Match(), priority=0, actions=[Output(77)]))
        compiled = compile_table(t)
        pkt = PacketBuilder().eth().ipv4(dst="8.8.8.8").tcp().build()
        assert run_compiled(compiled, pkt).instructions.apply_actions[0] == Output(77)


class TestLinkedList:
    def table(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=50, actions=[Output(1)]))
        t.add(FlowEntry(Match(ipv4_dst="10.0.0.0/8"), priority=40, actions=[Output(2)]))
        t.add(FlowEntry(Match(eth_dst=0x99), priority=30, actions=[Output(3)]))
        t.add(FlowEntry(Match(udp_dst=53), priority=20, actions=[Output(4)]))
        t.add(FlowEntry(Match(in_port=7), priority=10, actions=[Output(5)]))
        return t

    def test_kind(self):
        assert compile_table(self.table()).kind is TemplateKind.LINKED_LIST

    def test_matchers_shared_per_signature(self):
        t = self.table()
        t.add(FlowEntry(Match(tcp_dst=443), priority=45, actions=[Output(9)]))
        compiled = compile_table(t)
        # 6 entries but only 5 distinct mask signatures -> 5 matcher fns.
        assert len(compiled.ll_matchers) == 5

    def test_priority_order_respected(self):
        compiled = compile_table(self.table())
        pkt = (PacketBuilder(in_port=7).eth(dst=0x99)
               .ipv4(dst="10.1.1.1").tcp(dst_port=80).build())
        out = run_compiled(compiled, pkt).instructions
        assert out.apply_actions[0] == Output(1)  # priority 50 wins

    def test_differential_bulk(self):
        rng = random.Random(11)
        t = self.table()
        compiled = compile_table(t)
        for _ in range(100):
            assert_equiv(t, compiled, sts.random_packet(rng))


class TestPropertyDifferential:
    @settings(max_examples=80, deadline=None)
    @given(sts.flow_tables(max_entries=10), sts.packets())
    def test_any_table_any_template(self, table, pkt):
        compiled = compile_table(table)
        assert_equiv(table, compiled, pkt)

    @settings(max_examples=40, deadline=None)
    @given(sts.flow_tables(max_entries=10), sts.packets())
    def test_forced_linked_list_always_works(self, table, pkt):
        compiled = compile_table(table, kind=TemplateKind.LINKED_LIST)
        assert_equiv(table, compiled, pkt)


class TestAblation:
    def test_keys_outside_code_adds_touches(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(1)]))
        in_code = compile_table(t, CompileConfig(keys_in_code=True)).source
        in_data = compile_table(t, CompileConfig(keys_in_code=False)).source
        assert "es_keys" not in in_code
        assert "es_keys" in in_data
