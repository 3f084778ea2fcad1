"""Tests for instruction types and FlowEntry instruction accessors."""

import pytest

from repro.openflow.actions import Output, SetField
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import Match


class TestInstructionTypes:
    def test_apply_actions_tuple_coercion(self):
        instr = ApplyActions([Output(1), Output(2)])
        assert isinstance(instr.actions, tuple)
        assert len(instr.actions) == 2

    def test_write_actions_tuple_coercion(self):
        assert isinstance(WriteActions([Output(1)]).actions, tuple)

    def test_goto_validates(self):
        with pytest.raises(ValueError):
            GotoTable(-1)

    def test_write_metadata_default_mask(self):
        assert WriteMetadata(value=5).mask == (1 << 64) - 1

    def test_instructions_hashable(self):
        a = ApplyActions([Output(1)])
        b = ApplyActions([Output(1)])
        assert a == b and hash(a) == hash(b)
        assert hash(GotoTable(3)) == hash(GotoTable(3))
        assert ClearActions() == ClearActions()


class TestFlowEntryAccessors:
    def test_goto_table_property(self):
        e = FlowEntry(Match(), priority=1,
                      instructions=(ApplyActions([Output(1)]), GotoTable(7)))
        assert e.goto_table == 7

    def test_no_goto(self):
        assert FlowEntry(Match(), priority=1, actions=[Output(1)]).goto_table is None

    def test_apply_and_write_accessors(self):
        e = FlowEntry(
            Match(),
            priority=1,
            instructions=(
                ApplyActions([SetField("ipv4_dst", 1)]),
                WriteActions([Output(2)]),
            ),
        )
        assert e.apply_actions == (SetField("ipv4_dst", 1),)
        assert e.write_actions == (Output(2),)

    def test_actions_shorthand_wraps_apply(self):
        e = FlowEntry(Match(), priority=1, actions=[Output(4)])
        assert isinstance(e.instructions[0], ApplyActions)

    def test_actions_and_instructions_mutually_exclusive(self):
        with pytest.raises(ValueError):
            FlowEntry(Match(), priority=1, actions=[Output(1)],
                      instructions=(GotoTable(1),))

    def test_same_rule(self):
        a = FlowEntry(Match(tcp_dst=80), priority=5, actions=[Output(1)])
        b = FlowEntry(Match(tcp_dst=80), priority=5, actions=[Output(9)])
        c = FlowEntry(Match(tcp_dst=80), priority=6, actions=[Output(1)])
        assert a.same_rule(b)
        assert not a.same_rule(c)

    def test_entry_ids_unique(self):
        """Ids are unique within a pipeline after install: every table
        mints its own, every install (ADD-replace included) a new one,
        and each id resolves to the live rule that holds it."""
        from repro.openflow.messages import FlowMod, FlowModCommand
        from repro.openflow.pipeline import Pipeline

        loose = FlowEntry(Match(), priority=1, actions=[])
        assert loose.entry_id == 0  # no table has installed it
        pipeline = Pipeline()
        mods = [
            FlowMod(FlowModCommand.ADD, tid, Match(tcp_dst=port), priority=prio)
            for tid in (0, 1, 3)
            for port in (80, 443)
            for prio in (1, 2)
        ]
        pipeline.apply_flow_mods(mods)
        pipeline.apply_flow_mods(mods[:3])  # replaces: fresh ids
        live = [e for table in pipeline for e in table.entries]
        ids = [e.entry_id for e in live]
        assert len(live) == 12 and 0 not in ids
        assert len(set(ids)) == len(ids)
        assert all(pipeline.rule(e.entry_id) is e for e in live)
        assert pipeline.rule(0) is None
