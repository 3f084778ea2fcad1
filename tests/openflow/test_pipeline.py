"""Tests for the pipeline and the reference interpreter."""

import pytest

from repro.openflow.actions import Controller, Drop, Output, SetField
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
from repro.openflow.pipeline import Pipeline, PipelineError
from repro.packet import PacketBuilder


def http_pkt(in_port=1):
    return PacketBuilder(in_port=in_port).eth().ipv4(dst="192.0.2.1").tcp(dst_port=80).build()


class TestConstruction:
    def test_duplicate_table_id(self):
        with pytest.raises(PipelineError):
            Pipeline([FlowTable(0), FlowTable(0)])

    def test_missing_table(self):
        with pytest.raises(PipelineError):
            Pipeline([FlowTable(0)]).table(5)

    def test_validate_rejects_bad_goto(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(), priority=1, instructions=(GotoTable(9),)))
        with pytest.raises(PipelineError):
            Pipeline([t]).validate()

    def test_validate_rejects_backward_goto(self):
        t0, t1 = FlowTable(0), FlowTable(1)
        t1.add(FlowEntry(Match(), priority=1, instructions=(GotoTable(0),)))
        with pytest.raises(PipelineError):
            Pipeline([t0, t1]).validate()

    @pytest.mark.parametrize("target", [9, 0], ids=["missing", "backward"])
    def test_validate_reads_the_census_not_the_rules(self, target, monkeypatch):
        """One bad goto among 10^4 rules still raises, and neither the
        failing nor the passing check walks the table's entries."""
        rules = FlowTable(1)
        rules.add_bulk([
            FlowEntry(Match(tcp_dst=port), priority=1, instructions=(GotoTable(2),))
            for port in range(10_000)
        ])
        bad = FlowEntry(Match(tcp_dst=5_000), priority=2,
                        instructions=(GotoTable(target),))
        rules.add(bad)
        pipeline = Pipeline([FlowTable(0), rules, FlowTable(2)])
        reads = []
        live = FlowTable.entries.fget
        monkeypatch.setattr(
            FlowTable, "entries", property(lambda t: reads.append(t) or live(t))
        )
        with pytest.raises(PipelineError):
            pipeline.validate()
        rules.remove(bad.match, priority=bad.priority)
        pipeline.validate()
        assert not reads

    def test_first_table_is_lowest_id(self):
        p = Pipeline([FlowTable(3), FlowTable(1)])
        assert p.first_table.table_id == 1


class TestInterpreter:
    def test_apply_actions_immediate(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(2)]))
        v = Pipeline([t]).process(http_pkt())
        assert v.output_ports == [2] and v.forwarded

    def test_goto_chains_tables(self):
        t0 = FlowTable(0)
        t0.add(FlowEntry(Match(in_port=1), priority=1, instructions=(GotoTable(1),)))
        t1 = FlowTable(1)
        t1.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(7)]))
        v = Pipeline([t0, t1]).process(http_pkt())
        assert v.output_ports == [7]
        assert [tid for tid, _ in v.path] == [0, 1]

    def test_miss_drop_policy(self):
        t = FlowTable(0, miss_policy=TableMissPolicy.DROP)
        v = Pipeline([t]).process(http_pkt())
        assert v.dropped and v.table_miss

    def test_miss_controller_policy(self):
        t = FlowTable(0, miss_policy=TableMissPolicy.CONTROLLER)
        v = Pipeline([t]).process(http_pkt())
        assert v.to_controller and not v.dropped

    def test_write_actions_deferred_to_end(self):
        t0 = FlowTable(0)
        t0.add(
            FlowEntry(
                Match(),
                priority=1,
                instructions=(WriteActions([Output(5)]), GotoTable(1)),
            )
        )
        t1 = FlowTable(1)
        t1.add(FlowEntry(Match(), priority=1, instructions=()))
        v = Pipeline([t0, t1]).process(http_pkt())
        assert v.output_ports == [5]

    def test_clear_actions_wipes_write_set(self):
        t0 = FlowTable(0)
        t0.add(
            FlowEntry(
                Match(), priority=1,
                instructions=(WriteActions([Output(5)]), GotoTable(1)),
            )
        )
        t1 = FlowTable(1)
        t1.add(FlowEntry(Match(), priority=1, instructions=(ClearActions(),)))
        v = Pipeline([t0, t1]).process(http_pkt())
        assert v.output_ports == []

    def test_write_set_outputs_last(self):
        t = FlowTable(0)
        t.add(
            FlowEntry(
                Match(),
                priority=1,
                instructions=(
                    WriteActions([Output(5), SetField("ipv4_dst", 0x01020304)]),
                ),
            )
        )
        pkt = http_pkt()
        Pipeline([t]).process(pkt)
        # SetField executed before output despite being written after.
        assert bytes(pkt.data[30:34]) == b"\x01\x02\x03\x04"

    def test_write_metadata_visible_downstream(self):
        t0 = FlowTable(0)
        t0.add(
            FlowEntry(
                Match(), priority=1,
                instructions=(WriteMetadata(value=0xAB, mask=0xFF), GotoTable(1)),
            )
        )
        t1 = FlowTable(1)
        t1.add(FlowEntry(Match(metadata=0xAB), priority=1, actions=[Output(4)]))
        t1.add(FlowEntry(Match(), priority=0, actions=[Drop()]))
        v = Pipeline([t0, t1]).process(http_pkt())
        assert v.output_ports == [4]

    def test_drop_short_circuits(self):
        t = FlowTable(0)
        t.add(
            FlowEntry(
                Match(), priority=1,
                instructions=(ApplyActions([Drop()]), GotoTable(1)),
            )
        )
        p = Pipeline([t, FlowTable(1)])
        v = p.process(http_pkt())
        assert v.dropped
        assert [tid for tid, _ in v.path] == [0]

    def test_counters_update(self):
        t = FlowTable(0)
        e = FlowEntry(Match(), priority=1, actions=[Output(1)])
        t.add(e)
        p = Pipeline([t])
        p.process(http_pkt())
        p.process(http_pkt())
        assert e.packets == 2
        assert e.bytes == 128

    def test_trace_collects_probes(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=443), priority=2, actions=[Output(1)]))
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(2)]))
        v = Pipeline([t]).process(http_pkt(), trace=True)
        assert len(v.probed) == 1
        _tid, probed = v.probed[0]
        assert len(probed) == 2  # the 443 rule was probed and missed

    def test_controller_punt_from_explicit_action(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(), priority=1, actions=[Controller()]))
        v = Pipeline([t]).process(http_pkt())
        assert v.to_controller

    def test_empty_pipeline_raises(self):
        with pytest.raises(PipelineError):
            Pipeline([]).process(http_pkt())
