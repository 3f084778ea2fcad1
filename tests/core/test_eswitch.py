"""Tests for the ESwitch facade: compilation, dispatch, parser layers."""

import pytest
from hypothesis import given, settings

import strategies as sts

from repro.core import CompileConfig, ESwitch
from repro.core.datapath import required_layer
from repro.openflow.actions import DecTtl, Output, SetField
from repro.openflow.fields import FIELDS, field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline, PipelineError
from repro.packet import PacketBuilder
from repro.usecases import acl, firewall, gateway, l2, l3, loadbalancer


class TestCompilation:
    def test_l2_compiles_to_hash(self):
        """Section 4.1: 'the L2 pipeline compiles into the hash table
        template, effectively reducing into a conventional Ethernet
        software switch'."""
        p, _macs = l2.build(100)
        assert ESwitch.from_pipeline(p).table_kinds() == {0: "hash"}

    def test_l3_compiles_to_lpm(self):
        """'the L3 pipeline is compiled into the LPM template yielding a
        datapath identical to that of an IP softrouter'."""
        p, _fib = l3.build(100)
        assert ESwitch.from_pipeline(p).table_kinds() == {0: "lpm"}

    def test_lb_single_table_decomposed(self):
        sw = ESwitch.from_pipeline(loadbalancer.build_single_table(10))
        kinds = sw.table_kinds()
        assert kinds[0].startswith("decomposed[")
        assert sw.compiled_table_count > 1

    def test_decomposed_kind_reports_live_rules(self):
        """Rules shadowed by an earlier rule show up in table_kinds()."""
        from repro.usecases import acl

        kinds = ESwitch.from_pipeline(acl.build(369)).table_kinds()
        assert kinds == {0: "decomposed[16 tables, 12/370 rules]"}

    def test_decomposition_can_be_disabled(self):
        sw = ESwitch.from_pipeline(
            loadbalancer.build_single_table(10), config=CompileConfig(decompose=False)
        )
        assert sw.table_kinds() == {0: "linked_list"}

    def test_gateway_template_mix(self):
        """Section 4.1: 'the hash template for each table except for Table
        110 that is mapped to the LPM store'."""
        p, _fib = gateway.build(n_ce=10, users_per_ce=20, n_prefixes=500)
        kinds = ESwitch.from_pipeline(p).table_kinds()
        assert kinds[gateway.ROUTING_TABLE] == "lpm"
        assert kinds[gateway.REVERSE_TABLE] == "hash"
        for ce in range(10):
            assert kinds[gateway.CE_TABLE_BASE + ce] == "hash"

    def test_invalid_pipeline_rejected(self):
        from repro.openflow.instructions import GotoTable

        t = FlowTable(0)
        t.add(FlowEntry(Match(), priority=1, instructions=(GotoTable(42),)))
        with pytest.raises(PipelineError):
            ESwitch.from_pipeline(Pipeline([t]))


class TestParserSpecialization:
    def test_pure_l2_skips_upper_layers(self):
        p, _macs = l2.build(10)
        sw = ESwitch.from_pipeline(p)
        assert sw.datapath.parser_layer == 2

    def test_l3_pipeline_parses_to_l3(self):
        p, _fib = l3.build(10)
        assert ESwitch.from_pipeline(p).datapath.parser_layer == 3

    def test_l4_matches_force_full_parse(self):
        assert (
            ESwitch.from_pipeline(firewall.build_single_stage()).datapath.parser_layer
            == 4
        )

    def test_actions_count_toward_parser_depth(self):
        t = FlowTable(0)
        t.add(
            FlowEntry(
                Match(eth_dst=1),
                priority=1,
                actions=[SetField("tcp_dst", 8080), Output(1)],
            )
        )
        assert required_layer(Pipeline([t])) == 4

    def test_dec_ttl_needs_l3(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(eth_dst=1), priority=1, actions=[DecTtl(), Output(1)]))
        assert required_layer(Pipeline([t])) == 3

    def test_l2_switch_still_forwards_ip_traffic(self):
        p, macs = l2.build(5)
        sw = ESwitch.from_pipeline(p)
        pkt = PacketBuilder().eth(dst=macs[0]).ipv4().tcp().build()
        assert sw.process(pkt).forwarded


class TestProcessing:
    @settings(max_examples=60, deadline=None)
    @given(sts.pipelines(), sts.packets())
    def test_differential_vs_interpreter(self, pipeline, pkt):
        sw = ESwitch.from_pipeline(pipeline)
        assert sw.process(pkt.copy()).summary() == pipeline.process(pkt.copy()).summary()

    @settings(max_examples=30, deadline=None)
    @given(sts.pipelines(), sts.packets())
    def test_differential_without_decomposition(self, pipeline, pkt):
        sw = ESwitch.from_pipeline(pipeline, config=CompileConfig(decompose=False))
        assert sw.process(pkt.copy()).summary() == pipeline.process(pkt.copy()).summary()

    def test_counters_recorded(self):
        p = firewall.build_single_stage()
        sw = ESwitch.from_pipeline(p)
        pkt = (PacketBuilder(in_port=firewall.INTERNAL).eth().ipv4().tcp().build())
        sw.process(pkt)
        assert p.table(0).entries[0].packets == 1

    def test_packet_in_handler_called(self):
        from repro.openflow.flow_table import TableMissPolicy

        t = FlowTable(0, miss_policy=TableMissPolicy.CONTROLLER)
        punted = []
        sw = ESwitch.from_pipeline(Pipeline([t]), packet_in_handler=punted.append)
        sw.process(PacketBuilder().eth().build())
        assert len(punted) == 1

    def test_packet_in_from_a_decomposed_group_names_the_logical_table(self):
        """A miss inside a sub-table reports the table it was cut from,
        as the interpreter does — on the scalar and burst paths, and from
        a session's punt synthesized off a sharded engine's verdict."""
        from repro.controller import ControllerSession, LossyChannel
        from repro.openflow.flow_table import TableMissPolicy
        from repro.parallel import ShardedESwitch

        def build():
            table = FlowTable(0, miss_policy=TableMissPolicy.CONTROLLER)
            for priority, match in ((9, Match(in_port=1, tcp_dst=80)),
                                    (8, Match(in_port=2)),
                                    (7, Match(tcp_dst=443))):
                table.add(FlowEntry(match, priority=priority,
                                    instructions=(ApplyActions([Output(3)]),)))
            return Pipeline([table])

        config = CompileConfig(direct_threshold=0)
        pkt = PacketBuilder(in_port=1).eth().ipv4().tcp(dst_port=22).build()
        assert build().process(pkt.copy()).path[-1][0] == 0
        punted = []
        sw = ESwitch.from_pipeline(build(), config=config,
                                   packet_in_handler=punted.append)
        assert sw.table_kinds()[0].startswith("decomposed[")
        missed_in = sw.process(pkt.copy()).path[-1][0]
        sw.process_burst([pkt.copy()])
        assert missed_in >= 256 and sw.logical_table_id(missed_in) == 0
        assert [p.table_id for p in punted] == [0, 0]
        with ShardedESwitch(build(), workers=1, config=config) as engine:
            session = ControllerSession(engine, channel=LossyChannel())
            session.controller = punted.append
            assert session.process(pkt.copy()).path[-1][0] == missed_in
        assert [p.table_id for p in punted] == [0, 0, 0]

    def test_a_created_table_never_lands_on_a_sub_table_id(self):
        """Sub-tables take compiled ids past OpenFlow's table ids: a
        logical table a flow-mod creates later keeps its own slot through
        the group's next rebuild."""
        sw = ESwitch.from_pipeline(acl.build(40))
        assert sw.table_kinds()[0].startswith("decomposed[")
        assert min(set(sw.datapath.trampoline) - {0}) >= 256
        add = FlowMod(FlowModCommand.ADD, 1, Match(in_port=3), priority=5,
                      instructions=(ApplyActions([Output(2)]),))
        assert sw.submit_flow_mods([add]).accepted
        rule = sw.pipeline.table(0).entries[0]
        assert sw.submit_flow_mods([FlowMod(
            FlowModCommand.DELETE, 0, rule.match, priority=rule.priority,
            strict=True)]).accepted
        kinds = sw.table_kinds()
        assert kinds[0].startswith("decomposed[") and kinds[1] == "direct"
        pkt = PacketBuilder(in_port=3).eth().ipv4().tcp().build()
        pipeline = sw.pipeline
        assert sw.process(pkt.copy()).summary() == pipeline.process(
            pkt.copy()).summary()

    def test_gateway_nat_rewrites_packet(self):
        p, fib = gateway.build(n_ce=1, users_per_ce=1, n_prefixes=100)
        sw = ESwitch.from_pipeline(p)
        pkt = gateway.traffic(fib, 1, n_ce=1, users_per_ce=1)[0].copy()
        verdict = sw.process(pkt)
        if verdict.forwarded:
            src = int.from_bytes(pkt.data[26:30], "big")
            assert src == gateway.public_ip(0, 0)
            # The VLAN tag was popped on the way out.
            assert (pkt.data[12] << 8) | pkt.data[13] != 0x8100


def _probes():
    return [
        b.build()
        for port in (1, 3, 7)
        for b in (
            PacketBuilder(in_port=port).eth().ipv4().tcp(),
            PacketBuilder(in_port=port).eth().ipv6().icmpv6(type=135),
            PacketBuilder(in_port=port).eth(ethertype=0x8847),
        )
    ]


def _rules(name, shape):
    """Rule sets on field ``name`` that land on each rung of the chain."""
    fdef = field_by_name(name)
    mask = 0xFF if fdef.maskable else fdef.max_value
    on = lambda value, **more: Match(**{name: (value & mask, mask)}, **more)  # noqa: E731
    if shape == "direct":
        return [on(3), on(1)]
    if shape == "hash":
        return [on(v) for v in range(1, 8)]
    if shape == "compound_hash":
        return [on(v, eth_type=0x0800) for v in range(1, 8)]
    # mixed shapes: decomposed when allowed, one linked list otherwise
    return [on(3, in_port=3), on(1), Match(in_port=3), on(3, eth_type=0x86DD),
            Match(in_port=7, eth_type=0x0800), on(7, in_port=1)]


def _pipeline(matches):
    table = FlowTable(0)
    for i, match in enumerate(matches):
        table.add(FlowEntry(match, priority=100 - i, actions=[Output(10 + i)]))
    return Pipeline([table])


class TestEveryFieldOnEveryRung:
    """A field the parsers here carry no header for never matches — it
    does not fail to compile — and ``in_phy_port`` reads ``in_port``:
    on every rung the switch answers as ``Pipeline.process`` does."""

    FIELDS = ["in_phy_port"] + [f.name for f in FIELDS if f.expr is None]

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize(
        "shape,config,kind",
        [
            ("direct", CompileConfig(), "direct"),
            ("hash", CompileConfig(), "hash"),
            ("compound_hash", CompileConfig(), "hash"),
            ("mixed", CompileConfig(), "decomposed["),
            ("mixed", CompileConfig(decompose=False), "linked_list"),
            ("hash", CompileConfig(fuse=False), "hash"),
        ],
    )
    def test_compiles_and_agrees(self, name, shape, config, kind):
        matches = _rules(name, shape)
        sw = ESwitch(_pipeline(matches), config=config)
        assert sw.table_kinds()[0].startswith(kind)
        assert not sw.health().quarantined
        reference = _pipeline(matches)
        for pkt in _probes():
            assert sw.process(pkt.copy()).summary() == reference.process(pkt.copy()).summary()

    @pytest.mark.parametrize("name", FIELDS)
    def test_flow_mods_are_accepted(self, name):
        matches = _rules(name, "hash")
        sw, reference = ESwitch(_pipeline(matches)), _pipeline(matches)
        for match in (_rules(name, "hash")[0], _rules(name, "mixed")[0]):
            mod = FlowMod(FlowModCommand.ADD, 0, match, priority=200,
                          instructions=(ApplyActions([Output(9)]),))
            reply = sw.submit_flow_mods([mod])
            assert reply.accepted, reply.errors
            reference.table(0).add(mod.to_entry())
            for pkt in _probes():
                assert sw.process(pkt.copy()).summary() == reference.process(pkt.copy()).summary()
