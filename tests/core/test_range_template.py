"""Tests for the optional range-search table template (Section 3.1's
"can easily be added in the future" extension)."""

import random

import pytest

from repro.core import CompileConfig, ESwitch
from repro.core.analysis import TemplateKind, port_runs, select_template
from repro.core.codegen import CompileError, compile_table
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline
from repro.packet import PacketBuilder

RANGE_ON = CompileConfig(enable_range=True)


def port_block_table(blocks):
    """``blocks``: [(lo, hi, port)] — one exact rule per port in each block."""
    t = FlowTable(0)
    for lo, hi, out in blocks:
        for p in range(lo, hi + 1):
            t.add(FlowEntry(Match(tcp_dst=p), priority=1, actions=[Output(out)]))
    t.add(FlowEntry(Match(), priority=0, actions=[]))
    return t


class TestAnalysis:
    def test_runs_coalesce(self):
        _field, runs = port_runs(
            port_block_table([(1000, 1063, 1), (2000, 2031, 2)]).entries
        )
        assert [(lo, hi) for lo, hi, _e in runs] == [(1000, 1063), (2000, 2031)]

    def test_different_outcomes_split_runs(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(1)]))
        t.add(FlowEntry(Match(tcp_dst=81), priority=1, actions=[Output(2)]))
        _field, runs = port_runs(t.entries)
        assert len(runs) == 2

    def test_disabled_by_default(self):
        table = port_block_table([(1000, 1200, 1)])
        assert port_runs(table.entries, CompileConfig()) is None
        assert select_template(table.entries) is TemplateKind.HASH

    def test_enabled_selects_range_when_compressive(self):
        table = port_block_table([(1000, 1200, 1)])
        assert select_template(table.entries, RANGE_ON) is TemplateKind.RANGE

    def test_uncompressive_stays_hash(self):
        # Scattered ports: runs ~ rules, hash stays the better template.
        t = FlowTable(0)
        for i in range(20):
            t.add(FlowEntry(Match(tcp_dst=1000 + 7 * i), priority=1,
                            actions=[Output(i % 3)]))
        assert select_template(t.entries, RANGE_ON) is TemplateKind.HASH

    def test_non_port_field_rejected(self):
        t = FlowTable(0)
        for i in range(10):
            t.add(FlowEntry(Match(eth_dst=i), priority=1, actions=[Output(1)]))
        assert port_runs(t.entries) is None


class TestCompiledRange:
    def probe(self, compiled, dport):
        from repro.openflow.fields import field_by_name
        from repro.packet.parser import parse
        from repro.simcpu.recorder import NULL_METER

        pkt = PacketBuilder().eth().ipv4().tcp(dst_port=dport).build()
        view = parse(pkt)
        etype = field_by_name("eth_type").extract(view) or 0
        return compiled.fn(pkt.data, pkt, view.l3, view.l4, view.proto, etype,
                           view.l4_proto, NULL_METER)

    def test_interval_lookup(self):
        table = port_block_table([(1000, 1063, 1), (2000, 2031, 2)])
        compiled = compile_table(table, RANGE_ON)
        assert compiled.kind is TemplateKind.RANGE
        assert self.probe(compiled, 1000).apply_actions[0] == Output(1)
        assert self.probe(compiled, 1063).apply_actions[0] == Output(1)
        assert self.probe(compiled, 2010).apply_actions[0] == Output(2)

    def test_gaps_hit_catch_all(self):
        table = port_block_table([(1000, 1063, 1), (2000, 2031, 2)])
        compiled = compile_table(table, RANGE_ON)
        for dport in (999, 1064, 1999, 2032, 40000):
            out = self.probe(compiled, dport)
            assert not out.apply_actions  # the drop catch-all

    def test_udp_packet_guarded(self):
        table = port_block_table([(1000, 1063, 1)])
        compiled = compile_table(table, RANGE_ON)
        from repro.openflow.fields import field_by_name
        from repro.packet.parser import parse
        from repro.simcpu.recorder import NULL_METER

        pkt = PacketBuilder().eth().ipv4().udp(dst_port=1000).build()
        view = parse(pkt)
        etype = field_by_name("eth_type").extract(view) or 0
        out = compiled.fn(pkt.data, pkt, view.l3, view.l4, view.proto, etype,
                          view.l4_proto, NULL_METER)
        assert not out.apply_actions  # catch-all, not the TCP rule

    def test_memory_compression(self):
        table = port_block_table([(1000, 2023, 1)])  # 1024 rules
        compiled = compile_table(table, RANGE_ON)
        assert len(compiled.namespace["_STARTS"]) == 1

    def test_forced_on_bad_table_raises(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(eth_dst=1), priority=1, actions=[Output(1)]))
        with pytest.raises(CompileError):
            compile_table(t, RANGE_ON, kind=TemplateKind.RANGE)


class TestEndToEnd:
    def test_differential_vs_interpreter(self):
        pipeline = Pipeline([port_block_table([(1000, 1100, 1), (5000, 5050, 2)])])
        sw = ESwitch.from_pipeline(
            Pipeline([port_block_table([(1000, 1100, 1), (5000, 5050, 2)])]),
            config=RANGE_ON,
        )
        assert sw.table_kinds()[0] == "range"
        rng = random.Random(3)
        for _ in range(200):
            dport = rng.choice([rng.randrange(1, 65535), rng.randrange(1000, 1101),
                                rng.randrange(5000, 5051)])
            pkt = PacketBuilder().eth().ipv4().tcp(dst_port=dport).build()
            assert (sw.process(pkt.copy()).summary()
                    == pipeline.process(pkt.copy()).summary()), dport

    def test_update_rebuilds_range(self):
        sw = ESwitch.from_pipeline(
            Pipeline([port_block_table([(1000, 1100, 1)])]), config=RANGE_ON
        )
        from repro.openflow.instructions import ApplyActions
        from repro.openflow.messages import FlowMod, FlowModCommand

        sw.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, 0, Match(tcp_dst=1101), priority=1,
                    instructions=(ApplyActions([Output(1)]),))
        )
        assert sw.table_kinds()[0] == "range"
        pkt = PacketBuilder().eth().ipv4().tcp(dst_port=1101).build()
        assert sw.process(pkt).forwarded

    def test_autoderive_knows_range(self):
        from repro.core.autoderive import derive_model

        sw = ESwitch.from_pipeline(
            Pipeline([port_block_table([(1000, 1100, 1)])]), config=RANGE_ON
        )
        model = derive_model(sw)
        assert any("range template" in s.name for s in model.stages)
