"""Tests for whole-pipeline fusion (repro.core.fuse).

The contract under test is the one the module banner promises: the fused
driver is an *optimization*, never a semantic — verdicts are identical to
the trampoline's and modeled cycles are **bit-identical**, across random
pipelines, mid-stream flow-mods (which force a lazy re-fuse), and
transactional rollback.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts

from repro.core import CompileConfig, ESwitch, templates
from repro.core.datapath import CompiledDatapath
from repro.core.fuse import FuseError, fuse_datapath
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.packet import PacketBuilder
from repro.simcpu.costs import DEFAULT_COSTS
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, Meter, NULL_METER, NullMeter
from repro.usecases import acl, gateway, l2


FUSED = CompileConfig(fuse=True)
TRAMPOLINE = CompileConfig(fuse=False)


def _pair(pipeline):
    """(fused switch, trampoline switch) over the same logical pipeline."""
    return (
        ESwitch.from_pipeline(pipeline, config=FUSED),
        ESwitch.from_pipeline(pipeline, config=TRAMPOLINE),
    )


def _hash_and_list_pipeline(first=0):
    """Table ``first``: sixteen exact ports (the hash) into the next table:
    three mask shapes, no common one (the linked list)."""
    ports, mixed = FlowTable(first), FlowTable(first + 1)
    for port in range(80, 96):
        ports.add(FlowEntry(Match(tcp_dst=port), priority=1,
                            instructions=(GotoTable(first + 1),)))
    ports.add(FlowEntry(Match(), priority=0,
                        instructions=(ApplyActions([Output(9)]),)))
    for i, match in enumerate((Match(in_port=1), Match(tcp_dst=80),
                               Match(ipv4_src=(0x0A000000, 0xFFFFFF00)))):
        mixed.add(FlowEntry(match, priority=9 - i,
                            instructions=(ApplyActions([Output(1 + i)]),)))
    return Pipeline([ports, mixed])


_HASH_AND_LIST = CompileConfig(direct_threshold=0, decompose=False)


def _hash_and_list_switch(config=_HASH_AND_LIST):
    return ESwitch.from_pipeline(_hash_and_list_pipeline(), config=config)


def _hash_and_list_traffic():
    return [
        PacketBuilder(in_port=in_port).eth().ipv4(src=src).tcp(dst_port=dport)
        .build()
        for in_port in (1, 2)
        for src in ("10.0.0.7", "192.0.2.1")
        for dport in (79, 80, 88, 95, 96)
    ]


def _run_metered(sw, pkts):
    """Verdict summaries + exact modeled cycles for a packet sequence."""
    meter = CycleMeter(XEON_E5_2620)
    summaries = []
    for pkt in pkts:
        meter.begin_packet()
        summaries.append(sw.process(pkt.copy(), meter).summary())
        meter.end_packet()
    return summaries, meter.total_cycles


class TestParity:
    """Fused ≡ trampoline: verdicts and bit-identical modeled cycles."""

    @settings(max_examples=60, deadline=None)
    @given(sts.pipelines(), st.lists(sts.packets(), min_size=1, max_size=6))
    def test_verdicts_and_cycles_match(self, pipeline, pkts):
        sw_f, sw_t = _pair(pipeline)
        got_f, cycles_f = _run_metered(sw_f, pkts)
        got_t, cycles_t = _run_metered(sw_t, pkts)
        assert got_f == got_t
        assert cycles_f == cycles_t  # exact, not approx: the model may not drift
        # The parity must come from the fused driver actually running.
        assert sw_f.datapath.fused is not None
        assert sw_t.datapath.fused is None

    @settings(max_examples=40, deadline=None)
    @given(sts.pipelines(), st.lists(sts.packets(), min_size=1, max_size=8))
    def test_null_meter_verdicts_match(self, pipeline, pkts):
        sw_f, sw_t = _pair(pipeline)
        got_f = [sw_f.process(pkt.copy()).summary() for pkt in pkts]
        got_t = [sw_t.process(pkt.copy()).summary() for pkt in pkts]
        assert got_f == got_t

    @settings(max_examples=30, deadline=None)
    @given(sts.pipelines(), st.lists(sts.packets(), min_size=1, max_size=8))
    def test_burst_parity(self, pipeline, pkts):
        sw_f, sw_t = _pair(pipeline)
        meter_f = CycleMeter(XEON_E5_2620)
        meter_t = CycleMeter(XEON_E5_2620)
        got_f = [
            v.summary()
            for v in sw_f.process_burst([p.copy() for p in pkts], meter_f)
        ]
        got_t = [
            v.summary()
            for v in sw_t.process_burst([p.copy() for p in pkts], meter_t)
        ]
        assert got_f == got_t
        assert meter_f.total_cycles == meter_t.total_cycles

    def test_gateway_packet_rewrites_match(self):
        """Fusion must also leave identical bytes on the wire."""
        p1, fib = gateway.build(n_ce=2, users_per_ce=4, n_prefixes=64)
        p2, _ = gateway.build(n_ce=2, users_per_ce=4, n_prefixes=64)
        sw_f = ESwitch.from_pipeline(p1, config=FUSED)
        sw_t = ESwitch.from_pipeline(p2, config=TRAMPOLINE)
        for base in gateway.traffic(fib, 64, n_ce=2, users_per_ce=4):
            a, b = base.copy(), base.copy()
            assert sw_f.process(a).summary() == sw_t.process(b).summary()
            assert a.data == b.data


class TestFlowModsAndRollback:
    """Re-fuse after updates; rollback leaves a consistent fused driver."""

    def _gateway_pair(self, users_per_ce=2):
        shape = dict(n_ce=2, users_per_ce=users_per_ce)
        p1, fib = gateway.build(n_prefixes=32, **shape)
        p2, _ = gateway.build(n_prefixes=32, **shape)
        sw_f = ESwitch.from_pipeline(p1, config=FUSED)
        sw_t = ESwitch.from_pipeline(p2, config=TRAMPOLINE)
        pkts = gateway.traffic(fib, 48, **shape)
        return sw_f, sw_t, pkts

    def _assert_parity(self, sw_f, sw_t, pkts):
        got_f, cycles_f = _run_metered(sw_f, pkts)
        got_t, cycles_t = _run_metered(sw_t, pkts)
        assert got_f == got_t
        assert cycles_f == cycles_t

    def test_mid_stream_flow_mods_refuse(self):
        sw_f, sw_t, pkts = self._gateway_pair()
        self._assert_parity(sw_f, sw_t, pkts)
        gen_before = sw_f.datapath.fused.generation
        # Admit a user that build() did not provision. At two users a CE
        # both tables are direct code, whose keys are the instruction
        # stream: each mod rebuilds its table (one outgrows the template)
        # and re-installs it, which is structure, so the fused driver
        # must be invalidated and rebuilt before the next packet.
        for mod in gateway.nat_flow_mods(ce=1, user=3):
            sw_f.apply_flow_mod(mod)
            sw_t.apply_flow_mod(mod)
        stats = sw_f.update_stats
        assert (stats.incremental, stats.rebuilds + stats.fallbacks) == (0, 2)
        assert sw_f.datapath.generation > gen_before
        self._assert_parity(sw_f, sw_t, pkts)
        assert sw_f.datapath.fused.generation > gen_before

    def test_content_only_flow_mods_keep_the_driver(self):
        """The same admission into hash tables is content: both stores
        take the rule in place, inside the fact sets their tables already
        hold, and the standing driver — which closes over the stores —
        serves the new user without a re-fuse."""
        sw_f, sw_t, pkts = self._gateway_pair(users_per_ce=8)
        self._assert_parity(sw_f, sw_t, pkts)
        fused, generation = sw_f.datapath.fused, sw_f.datapath.generation
        for mod in gateway.nat_flow_mods(ce=1, user=9):
            sw_f.apply_flow_mod(mod)
            sw_t.apply_flow_mod(mod)
        assert sw_f.update_stats.incremental == 2
        assert sw_f.datapath.generation == generation
        admitted = (
            PacketBuilder(in_port=gateway.NETWORK_PORT)
            .eth()
            .ipv4(dst=gateway.public_ip(1, 9))
            .tcp(dst_port=80)
            .build()
        )
        self._assert_parity(sw_f, sw_t, [*pkts, admitted])
        assert sw_f.process(admitted.copy()).forwarded
        assert sw_f.datapath.fused is fused

    def test_flow_mod_between_bursts(self):
        """The lazy re-fuse happens off the update path, on the next packet."""
        sw_f, sw_t, pkts = self._gateway_pair()
        batch = [p.copy() for p in pkts[:16]]
        assert [v.summary() for v in sw_f.process_burst(batch)] == [
            v.summary() for v in sw_t.process_burst([p.copy() for p in pkts[:16]])
        ]
        for mod in gateway.nat_flow_mods(ce=0, user=2):
            sw_f.apply_flow_mod(mod)
            sw_t.apply_flow_mod(mod)
        # Direct-code tables were rebuilt and re-installed (structure). No
        # packet has run yet: the stale driver is still cached but no
        # longer matches the generation, so it must not be used.
        assert sw_f.datapath.fused.generation != sw_f.datapath.generation
        self._assert_parity(sw_f, sw_t, pkts)
        assert sw_f.datapath.fused.generation == sw_f.datapath.generation

    def test_transactional_rollback_keeps_parity(self):
        sw_f, sw_t, pkts = self._gateway_pair()
        self._assert_parity(sw_f, sw_t, pkts)
        good = gateway.nat_flow_mods(ce=0, user=3)
        bad = FlowMod(
            FlowModCommand.ADD,
            gateway.REVERSE_TABLE,
            Match(eth_dst=1),
            priority=-1,  # invalid: the batch must roll back atomically
        )
        for sw in (sw_f, sw_t):
            with pytest.raises(ValueError):
                sw.apply_flow_mods([*good, bad])
        self._assert_parity(sw_f, sw_t, pkts)
        # The rolled-back user must not have become reachable.
        probe = (
            PacketBuilder(in_port=gateway.NETWORK_PORT)
            .eth()
            .ipv4(dst=gateway.public_ip(0, 3))
            .tcp(dst_port=80)
            .build()
        )
        assert sw_f.process(probe.copy()).summary() == sw_t.process(
            probe.copy()
        ).summary()


class TestGenerationContract:
    """install/uninstall/set_parser_layer/bump_generation invalidate."""

    def _switch(self):
        p, _macs = l2.build(16)
        return ESwitch.from_pipeline(p, config=FUSED)

    def _pkt(self):
        return PacketBuilder().eth(dst=0x0200_0000_0001).ipv4().build()

    def test_lazy_fuse_on_first_packet(self):
        sw = self._switch()
        dp = sw.datapath
        assert dp.fused is None  # nothing fused before traffic
        sw.process(self._pkt())
        assert dp.fused is not None
        assert dp.fused.generation == dp.generation

    def test_fused_driver_cached_across_packets(self):
        sw = self._switch()
        sw.process(self._pkt())
        first = sw.datapath.fused
        sw.process(self._pkt())
        assert sw.datapath.fused is first

    def test_bump_generation_forces_refuse(self):
        sw = self._switch()
        sw.process(self._pkt())
        stale = sw.datapath.fused
        sw.datapath.bump_generation()
        sw.process(self._pkt())
        assert sw.datapath.fused is not stale

    def test_set_parser_layer_bumps(self):
        sw = self._switch()
        gen = sw.datapath.generation
        sw.datapath.set_parser_layer(4)
        assert sw.datapath.generation == gen + 1

    def test_install_uninstall_bump(self):
        dp = CompiledDatapath(first_table=0)
        gen = dp.generation
        table = FlowTable(0)
        table.add(
            FlowEntry(Match(), priority=1, instructions=(ApplyActions([Output(1)]),))
        )
        sw = ESwitch.from_pipeline(Pipeline([table]))
        compiled = sw.compiled_table(0)
        dp.install(compiled)
        assert dp.generation == gen + 1
        dp.uninstall(0)
        assert dp.generation == gen + 2

    def test_fusion_disabled_never_fuses(self):
        p, _macs = l2.build(16)
        sw = ESwitch.from_pipeline(p, config=TRAMPOLINE)
        for _ in range(3):
            sw.process(self._pkt())
        assert sw.datapath.fused is None

    def test_empty_datapath_fuse_fails_and_memoizes(self):
        dp = CompiledDatapath(first_table=0)
        with pytest.raises(FuseError):
            fuse_datapath(dp)
        # The lazy path memoizes the failure for this generation instead of
        # retrying the fuse on every packet.
        assert dp._fused_fresh() is None
        assert dp._fuse_failed_gen == dp.generation


class TestSpecialization:
    """The fused source really is specialized to the pipeline's facts."""

    def _fused_source(self, pipeline):
        sw = ESwitch.from_pipeline(pipeline, config=FUSED)
        sw.process(PacketBuilder().eth(dst=0x0200_0000_0001).ipv4().build())
        assert sw.datapath.fused is not None
        return sw, sw.datapath.fused.source

    def test_acyclic_pipeline_drops_hop_guard(self):
        p, _macs = l2.build(16)
        _, source = self._fused_source(p)
        assert "hops" not in source

    def test_machinery_elided_when_unreachable(self):
        """l2 outcomes carry no write-sets, metadata, or flow meters."""
        p, _macs = l2.build(16)
        _, source = self._fused_source(p)
        assert "write_set" not in source
        assert "metadata_write" not in source
        assert "out.meter" not in source

    def test_stock_etype_extractor_reads_cached_slot(self):
        p, _fib = gateway.build(n_ce=1, users_per_ce=1, n_prefixes=16)
        _, source = self._fused_source(p)
        assert "etype = view.eth_type" in source

    def test_one_driver_for_both_meter_modes(self):
        p, _fib = gateway.build(n_ce=1, users_per_ce=1, n_prefixes=16)
        _, source = self._fused_source(p)
        assert re.findall(r"^def (\w+)", source, re.M) == ["_run", "_burst"]

    def test_gateway_tables_inlined(self):
        """Hash and LPM inline (their text is fixed by fields and
        masks); direct code is called, so its entry count is no part of
        the driver text."""
        p, _fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
        seen = set()
        for sw in (ESwitch.from_pipeline(p), _hash_and_list_switch()):
            kinds = {tid: ct.kind.value
                     for tid, ct in sw.datapath.trampoline.items()}
            seen.update(kinds.values())
            assert sw.warm()
            fused = sw.datapath.fused
            inlined = {tid for tid, kind in kinds.items()
                       if kind in ("hash", "lpm")}
            assert set(fused.inlined_ids) == inlined
            assert set(fused.called_ids) == set(kinds) - inlined
            for tid in fused.called_ids:
                assert fused.namespace[f"_t{tid}_fn"] is sw.datapath.table(tid).fn
        assert seen == {"direct", "hash", "lpm", "linked_list"}


class TestOneHopText:
    """The trampoline is the fuser's hop text with dispatch left dynamic:
    one text for every pipeline, loaded before any pipeline existed."""

    def test_trampoline_text_is_independent_of_the_pipeline(self):
        shape = dict(n_ce=2, users_per_ce=2)
        gw_fib = gateway.build(n_prefixes=16, **shape)[1]
        l2_macs = l2.build(16)[1]
        dearer = dataclasses.replace(
            DEFAULT_COSTS, table_miss=71.0, goto_trampoline=3.5, pkt_out=44.0,
            parser_l2=9.0)
        cases = [  # (pipeline maker, traffic, cost book)
            (lambda: l2.build(16)[0], l2.traffic(l2_macs, 24), DEFAULT_COSTS),
            (lambda: gateway.build(n_prefixes=16, **shape)[0],
             gateway.traffic(gw_fib, 24, **shape), dearer),
            (lambda: _hash_and_list_pipeline(first=5), _hash_and_list_traffic(),
             DEFAULT_COSTS),
        ]
        compiles = templates.stats()["compiles_by_label"]["trampoline"]
        switches = [
            ESwitch(make(), config=TRAMPOLINE, costs=costs)
            for make, _pkts, costs in cases
        ]
        assert templates.stats()["compiles_by_label"]["trampoline"] == compiles
        datapaths = [sw.datapath for sw in switches]
        assert {dp.parser_layer for dp in datapaths} == {2, 3, 4}
        assert {dp.first_table for dp in datapaths} == {0, 5}
        assert {(dp._run.__code__, dp._burst.__code__) for dp in datapaths} == {
            (datapaths[0]._run.__code__, datapaths[0]._burst.__code__)
        }
        for sw, (make, pkts, costs) in zip(switches, cases):
            reference = make()
            expected = [reference.process(p.copy()).summary() for p in pkts]
            assert [sw.process(p.copy()).summary() for p in pkts] == expected
            assert [v.summary() for v in sw.process_burst(
                [p.copy() for p in pkts])] == expected
            # The cost book reaches the shared text: the fused driver,
            # which bakes each constant in as a literal, charges the same.
            fused = ESwitch(make(), config=FUSED, costs=costs)
            assert _run_metered(sw, pkts) == _run_metered(fused, pkts)
            assert sw.datapath.fused is None and fused.datapath.fused is not None


class _AtomLog(Meter):
    """A meter that logs every atom in order: ``("charge", cycles)`` and
    ``("touch", line)``, a walk as the atoms it stands for. Equal totals
    can hide a reordered pair; equal logs cannot."""

    def __init__(self):
        self.events = []

    def charge(self, cycles):
        self.events.append(("charge", cycles))

    def touch(self, line):
        self.events.append(("touch", line))

    def lines(self):
        return [line for kind, line in self.events if kind == "touch"]


class _Refusing(NullMeter):
    """A meter that records nothing and may not be called: a datapath
    must treat every NullMeter, not just the shared one, as no meter."""

    def charge(self, cycles):
        raise AssertionError("charged a NullMeter")

    def touch(self, line):
        raise AssertionError("touched a NullMeter")


def _atom_logs(sw, pkts):
    """Verdicts and atom logs of ``pkts`` run scalar, then as one burst."""
    scalar, burst = _AtomLog(), _AtomLog()
    verdicts = [sw.process(p.copy(), scalar).summary() for p in pkts]
    verdicts += [v.summary()
                 for v in sw.process_burst([p.copy() for p in pkts], burst)]
    return verdicts, scalar.events, burst.events


_FIXED = ["gateway", "hash_and_list", "keys_in_data"]


def _fixed_pair(name):
    """(fused, trampoline, traffic) on gateway, the hash + linked-list
    pipeline, or gateway with its keys in data memory: every rung, each
    called table kind, and the ablation's key touches."""
    if name == "hash_and_list":
        return (_hash_and_list_switch(),
                _hash_and_list_switch(_HASH_AND_LIST.with_(fuse=False)),
                _hash_and_list_traffic())
    shape = dict(n_ce=2, users_per_ce=2)
    config = CompileConfig(keys_in_code=name == "gateway")
    switches = [
        ESwitch.from_pipeline(gateway.build(n_prefixes=16, **shape)[0],
                              config=config.with_(fuse=fuse))
        for fuse in (True, False)
    ]
    fib = gateway.build(n_prefixes=16, **shape)[1]
    return (*switches, gateway.traffic(fib, 48, **shape))


class TestAtomParity:
    """Fused ≡ trampoline atom for atom: the same charges and touches in
    the same order, so the one body each rung emits is the model."""

    @settings(max_examples=40, deadline=None)
    @given(sts.pipelines(), st.lists(sts.packets(), min_size=1, max_size=6))
    def test_random_pipelines_log_the_same_atoms(self, pipeline, pkts):
        sw_f, sw_t = _pair(pipeline)
        assert _atom_logs(sw_f, pkts) == _atom_logs(sw_t, pkts)
        assert sw_f.datapath.fused is not None

    @pytest.mark.parametrize("name", _FIXED)
    def test_fixed_switches_log_the_same_atoms(self, name):
        sw_f, sw_t, pkts = _fixed_pair(name)
        assert sw_f.warm() and sw_f.datapath.fused.called_ids
        fused = _atom_logs(sw_f, pkts)
        assert fused == _atom_logs(sw_t, pkts)
        lines = {line[0] for kind, line in fused[1] + fused[2] if kind == "touch"}
        assert lines and (name != "keys_in_data" or "es_keys" in lines)

    @pytest.mark.parametrize("name", _FIXED)
    def test_any_null_meter_is_no_meter(self, name):
        """Scalar and burst, fused and trampoline: a NullMeter subclass is
        never called, and answers as the shared NULL_METER does."""
        sw_f, sw_t, pkts = _fixed_pair(name)
        expected = [sw_t.process(p.copy(), NULL_METER).summary() for p in pkts]
        for sw in (sw_f, sw_t):
            assert [sw.process(p.copy(), _Refusing()).summary()
                    for p in pkts] == expected
            assert [v.summary() for v in sw.process_burst(
                [p.copy() for p in pkts], _Refusing())] == expected
        assert sw_f.datapath.fused is not None and sw_t.datapath.fused is None


class TestCalledTables:
    """Direct code and the linked list are linked by call, the driver
    text none the wiser."""

    def test_same_shape_hash_tables_share_code_and_keep_their_lines(self):
        """Per-CE hash tables share one text; equal ids (the same table
        on two switches) share the patched code object itself; a metered
        run still touches each table's own cache lines."""
        shape = dict(n_ce=2, users_per_ce=8)
        p, fib = gateway.build(n_prefixes=16, **shape)
        a = ESwitch.from_pipeline(p)
        b = ESwitch.from_pipeline(gateway.build(n_prefixes=16, **shape)[0])
        ce0, ce1 = a.compiled_table(10), a.compiled_table(11)
        assert ce0.kind.value == "hash" and ce0.text == ce1.text
        assert ce0.fn.__code__ is not ce1.fn.__code__
        assert ce0.fn.__code__ is b.compiled_table(10).fn.__code__
        assert "('es_hash', 10, _ln)" in ce0.source
        assert "('es_hash', 11, _ln)" in ce1.source
        for sw in (a, ESwitch.from_pipeline(p, config=TRAMPOLINE)):
            meter = _AtomLog()
            for pkt in gateway.traffic(fib, 32, **shape):
                sw.process(pkt.copy(), meter)
            hashed = {line[1] for line in meter.lines() if line[0] == "es_hash"}
            assert {10, 11} <= hashed

    def test_a_decomposed_group_inlines_its_direct_tables(self):
        """A group is rebuilt whole under fresh sub-table ids, so the
        driver text over it moves on every rebuild anyway: its direct
        tables are inlined, not called a frame per hop."""
        sw = ESwitch.from_pipeline(acl.build(40))
        assert sw.table_kinds()[0].startswith("decomposed[") and sw.warm()
        direct = {tid for tid, ct in sw.datapath.trampoline.items()
                  if ct.kind.value == "direct"}
        assert direct and direct <= set(sw.datapath.fused.inlined_ids)
        assert sw.datapath.fused.called_ids == ()

    @pytest.mark.parametrize("build", ["gateway", "hash_and_list"])
    def test_called_tables_keep_parity_in_both_meter_modes(self, build):
        if build == "gateway":
            shape = dict(n_ce=2, users_per_ce=2)
            p, fib = gateway.build(n_prefixes=16, **shape)
            pkts = gateway.traffic(fib, 48, **shape)
            pair = _pair(p)
        else:
            pkts = _hash_and_list_traffic()
            pair = (_hash_and_list_switch(),
                    _hash_and_list_switch(_HASH_AND_LIST.with_(fuse=False)))
        sw_f, sw_t = pair
        assert sw_f.warm() and sw_f.datapath.fused.called_ids
        kinds = {sw_f.datapath.table(tid).kind.value
                 for tid in sw_f.datapath.fused.called_ids}
        assert kinds == ({"direct"} if build == "gateway" else {"linked_list"})
        got_f, cycles_f = _run_metered(sw_f, pkts)
        got_t, cycles_t = _run_metered(sw_t, pkts)
        assert got_f == got_t and cycles_f == cycles_t
        assert [sw_f.process(p.copy()).summary() for p in pkts] == [
            sw_t.process(p.copy()).summary() for p in pkts
        ]
        null_f = sw_f.process_burst([p.copy() for p in pkts])
        null_t = sw_t.process_burst([p.copy() for p in pkts])
        assert [v.summary() for v in null_f] == [v.summary() for v in null_t]
