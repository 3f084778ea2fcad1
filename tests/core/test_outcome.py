"""What a lookup returns: the installed rule itself.

Every rung stores and returns the table's own ``FlowEntry``, and that
rule's ``instructions`` is the table's shared action template, so the action
fields are read there. A miss returns the process-wide miss rule of the
table's policy, and the verdict's path records ``None`` for it.
"""

import pytest

from repro.core import CompileConfig, ESwitch
from repro.core.analysis import TemplateKind
from repro.core.codegen import MISS_RULES, compile_table
from repro.openflow.actions import Output, SetField
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline
from repro.packet import PacketBuilder, parser


def lookup(compiled, pkt) -> FlowEntry:
    view = parser.parse(pkt)
    return compiled.fn(pkt.data, pkt, view.l3, view.l4, view.proto,
                       view.eth_type, view.l4_proto, None)


def hit_of(*instructions):
    """The template of the rule a lookup hits in a table whose two rules
    carry ``instructions``: the installed rule, on the table's one shared
    template."""
    table = FlowTable(0)
    first = table.add(FlowEntry(Match(in_port=1), priority=1,
                                instructions=instructions))
    table.add(FlowEntry(Match(in_port=2), priority=1, instructions=instructions))
    hit = lookup(compile_table(table), PacketBuilder(in_port=1).eth().build())
    assert hit is first
    (shared,) = table.action_templates()
    assert hit.instructions is shared
    assert not hit.instructions.is_miss
    return hit.instructions


class TestOutcomeOf:
    """A hit returns the installed rule; its actions are its template's."""

    def test_apply_and_goto(self):
        out = hit_of(ApplyActions([Output(3)]), GotoTable(9))
        assert out.apply_actions == (Output(3),)
        assert out.goto == 9

    def test_write_actions_accumulate(self):
        out = hit_of(WriteActions([Output(1)]), WriteActions([Output(2)]))
        assert out.write_actions == (Output(1), Output(2))

    def test_clear_wipes_earlier_writes(self):
        out = hit_of(WriteActions([Output(1)]), ClearActions(),
                     WriteActions([Output(2)]))
        assert out.clear_actions
        assert out.write_actions == (Output(2),)

    def test_metadata(self):
        assert hit_of(WriteMetadata(value=0xAB, mask=0xFF)).metadata_write == (
            0xAB, 0xFF)

    def test_multiple_apply_merge(self):
        out = hit_of(ApplyActions([SetField("ipv4_dst", 1)]),
                     ApplyActions([Output(2)]))
        assert out.apply_actions == (SetField("ipv4_dst", 1), Output(2))

    @pytest.mark.parametrize("kind", list(TemplateKind), ids=lambda k: k.value)
    def test_every_rung_returns_the_installed_rule(self, kind):
        table = FlowTable(0)
        for i in range(4):
            table.add(FlowEntry(Match(ipv4_dst=0x0A000001 + i), priority=32,
                                actions=[Output(i % 2)]))
        compiled = compile_table(table, kind=kind)
        assert compiled.kind is kind
        for entry in table.entries:
            pkt = PacketBuilder().eth().ipv4(dst=entry.match.value_of("ipv4_dst")).build()
            assert lookup(compiled, pkt) is entry
        assert {id(rule) for rule in compiled.rules()[1:]} == set(map(id, table.entries))


class TestMissOutcome:
    """A miss returns the per-policy miss rule, which no path records."""

    def test_drop_policy(self):
        table = FlowTable(0, miss_policy=TableMissPolicy.DROP)
        table.add(FlowEntry(Match(ipv4_dst=0x0A000001), priority=32,
                            actions=[Output(1)]))
        pkt = PacketBuilder().eth().ipv4(dst="10.9.9.9").build()
        for kind in TemplateKind:  # every rung's miss arm
            compiled = compile_table(table, kind=kind)
            miss = lookup(compiled, pkt)
            assert miss is compiled.miss is MISS_RULES[TableMissPolicy.DROP]
        assert miss.instructions.is_miss and not miss.instructions.to_controller

    def test_controller_policy(self):
        compiled = compile_table(FlowTable(0, miss_policy=TableMissPolicy.CONTROLLER))
        miss = lookup(compiled, PacketBuilder().eth().build())
        assert miss is MISS_RULES[TableMissPolicy.CONTROLLER]
        assert miss.instructions.is_miss and miss.instructions.to_controller

    @pytest.mark.parametrize("fuse", [True, False], ids=["fused", "trampoline"])
    def test_the_path_records_none_and_counts_nothing(self, fuse):
        table = FlowTable(0, miss_policy=TableMissPolicy.CONTROLLER)
        rule = table.add(FlowEntry(Match(in_port=1), priority=1,
                                   instructions=(GotoTable(1),)))
        switches = [
            ESwitch(Pipeline([table, FlowTable(1)]), CompileConfig(fuse=fuse)),
            ESwitch(Pipeline([FlowTable(0)]), CompileConfig(fuse=fuse)),
        ]
        assert all(switch.warm() for switch in switches) == fuse
        verdict = switches[0].process(PacketBuilder(in_port=1).eth().build())
        assert verdict.path == [(0, rule), (1, None)] and verdict.dropped
        assert rule.packets == 1
        verdict = switches[0].process(PacketBuilder(in_port=2).eth().build())
        assert verdict.path == [(0, None)] and verdict.to_controller
        # Both switches' tables answer a miss with the same process-wide
        # rule, which stays uncounted.
        assert (switches[0].compiled_table(1).miss is switches[1].compiled_table(0).miss
                is MISS_RULES[TableMissPolicy.DROP])
        assert all(miss.packets == 0 for miss in MISS_RULES.values())
