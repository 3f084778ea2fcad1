"""Tests for actions and the composite action set (the shared template)."""

import pickle

import pytest

from repro.openflow.actions import (
    Controller,
    DecTtl,
    Drop,
    Flood,
    Output,
    PopVlan,
    PushVlan,
    SetField,
    FLOOD_PORT,
)
from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ActionTemplate, ApplyActions
from repro.openflow.match import Match
from repro.openflow.meters import MeterInstruction
from repro.openflow.pipeline import Pipeline, Verdict
from repro.packet import PacketBuilder
from repro.packet.parser import parse


def apply_one(action, pkt):
    view = parse(pkt)
    verdict = Verdict()
    action.apply(view, verdict)
    return view, verdict


class TestBasicActions:
    def test_output(self):
        _, v = apply_one(Output(3), PacketBuilder().eth().build())
        assert v.output_ports == [3]

    def test_flood(self):
        _, v = apply_one(Flood(), PacketBuilder().eth().build())
        assert v.output_ports == [FLOOD_PORT]

    def test_drop(self):
        _, v = apply_one(Drop(), PacketBuilder().eth().build())
        assert v.dropped

    def test_controller(self):
        _, v = apply_one(Controller(), PacketBuilder().eth().build())
        assert v.to_controller


class TestSetField:
    def test_rewrites_bytes(self):
        pkt = PacketBuilder().eth().ipv4(dst="10.0.0.1").tcp().build()
        view, _ = apply_one(SetField("ipv4_dst", 0x01020304), pkt)
        assert field_by_name("ipv4_dst").extract(view) == 0x01020304

    def test_absent_header_is_noop(self):
        pkt = PacketBuilder().eth().build()  # no IPv4 header
        before = bytes(pkt.data)
        apply_one(SetField("ipv4_dst", 0x01020304), pkt)
        assert bytes(pkt.data) == before

    def test_rejects_unwritable_field(self):
        with pytest.raises(ValueError):
            SetField("eth_type", 0x0800)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SetField("tcp_dst", 1 << 16)


class TestVlanOps:
    def test_push_then_fields_visible(self):
        pkt = PacketBuilder().eth().ipv4().tcp(dst_port=80).build()
        view, v = apply_one(PushVlan(vid=55, pcp=3), pkt)
        assert v.reparse_needed
        view = parse(pkt)
        assert field_by_name("vlan_vid").extract(view) == 55
        assert field_by_name("vlan_pcp").extract(view) == 3
        assert field_by_name("tcp_dst").extract(view) == 80  # shifted, still right

    def test_pop_restores_original(self):
        pkt = PacketBuilder().eth().vlan(vid=55).ipv4(dst="192.0.2.1").tcp().build()
        apply_one(PopVlan(), pkt)
        view = parse(pkt)
        assert field_by_name("vlan_vid").extract(view) is None
        assert field_by_name("ipv4_dst").extract(view) == 0xC0000201

    def test_pop_untagged_is_noop(self):
        pkt = PacketBuilder().eth().ipv4().build()
        before = bytes(pkt.data)
        apply_one(PopVlan(), pkt)
        assert bytes(pkt.data) == before

    def test_push_pop_roundtrip(self):
        pkt = PacketBuilder().eth().ipv4().udp().build()
        original = bytes(pkt.data)
        apply_one(PushVlan(vid=1), pkt)
        apply_one(PopVlan(), pkt)
        assert bytes(pkt.data) == original


class TestDecTtl:
    def test_decrements(self):
        pkt = PacketBuilder().eth().ipv4(ttl=5).tcp().build()
        view, v = apply_one(DecTtl(), pkt)
        assert pkt.data[14 + 8] == 4
        assert not v.dropped

    def test_expiry_drops(self):
        pkt = PacketBuilder().eth().ipv4(ttl=1).tcp().build()
        _, v = apply_one(DecTtl(), pkt)
        assert v.dropped

    def test_non_ip_noop(self):
        pkt = PacketBuilder().eth().arp().build()
        _, v = apply_one(DecTtl(), pkt)
        assert not v.dropped


class TestActionSet:
    """The paper's composite action set, shared across flows, is the
    table-owned :class:`ActionTemplate`."""

    @staticmethod
    def table(*action_lists):
        table = FlowTable(0)
        for port, actions in enumerate(action_lists, 1):
            table.add(FlowEntry(Match(in_port=port), priority=1, actions=actions))
        return table

    def test_interning_shares_objects(self):
        a, b = self.table([Output(1), Drop()], [Output(1), Drop()]).entries
        assert a.instructions is b.instructions
        assert type(a.instructions) is ActionTemplate

    def test_different_sets_distinct(self):
        a, b = self.table([Output(1)], [Output(2)]).entries
        assert a.instructions is not b.instructions

    def test_is_drop(self):
        pipeline = Pipeline([self.table([], [Drop()], [Output(1)])])
        forwarded = [
            pipeline.process(PacketBuilder(in_port=port).eth().build()).forwarded
            for port in (1, 2, 3)
        ]
        assert forwarded == [False, False, True]
        assert ActionTemplate().apply_actions == ()

    def test_apply_runs_in_order(self):
        pkt = PacketBuilder().eth().ipv4().tcp().build()
        view = parse(pkt)
        verdict = Verdict()
        template = ActionTemplate(
            (ApplyActions([SetField("ipv4_dst", 7)]), ApplyActions([Output(2)]))
        )
        assert template.apply_actions == (SetField("ipv4_dst", 7), Output(2))
        for action in template.apply_actions:
            action.apply(view, verdict)
        assert verdict.output_ports == [2]
        assert field_by_name("ipv4_dst").extract(view) == 7

    def test_sharing_survives_pickling(self):
        """A meter instruction hashes by the identity of the table it
        binds, so a template that crossed a process boundary must hash
        afresh for the next equal rule to find it."""
        def metered(pipeline, port):
            instructions = (MeterInstruction(pipeline.meters, 1),
                            ApplyActions([Output(1)]))
            return FlowEntry(Match(in_port=port), priority=1,
                             instructions=instructions)

        pipeline = Pipeline([FlowTable(0)])
        pipeline.meters.add(1, rate_pps=1.0)
        pipeline.table(0).add(metered(pipeline, 1))
        clone = pickle.loads(pickle.dumps(pipeline))
        clone.table(0).add(metered(clone, 2))
        a, b = clone.table(0).entries
        assert a.instructions is b.instructions
        assert clone.table(0).template_count == 1

    def test_hashable_and_len(self):
        instructions = (ApplyActions([Output(1), Output(2)]),)
        template = ActionTemplate(instructions)
        assert len(template) == 1
        assert template == instructions
        assert hash(template) == hash(instructions)
