"""Tests for the ESWITCH update engine (Section 3.4)."""

import pytest

from repro.core import CompileConfig, ESwitch
from repro.core.analysis import TemplateKind
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.usecases import l2, l3


def add(table_id, priority=1, port=1, **match):
    return FlowMod(
        FlowModCommand.ADD,
        table_id,
        Match(**match),
        priority=priority,
        instructions=(ApplyActions([Output(port)]),),
    )


def delete(table_id, priority=0, **match):
    return FlowMod(FlowModCommand.DELETE, table_id, Match(**match), priority=priority)


def mac_pkt(dst):
    return PacketBuilder().eth(dst=dst).ipv4().tcp().build()


class TestIncrementalHash:
    def setup_method(self):
        p, self.macs = l2.build(50)
        self.sw = ESwitch.from_pipeline(p)

    def test_add_is_incremental(self):
        self.sw.apply_flow_mod(add(0, eth_dst=0xABCD))
        assert self.sw.update_stats.incremental == 1
        assert self.sw.update_stats.rebuilds == 0
        assert self.sw.process(mac_pkt(0xABCD)).forwarded

    def test_delete_is_incremental(self):
        self.sw.apply_flow_mod(delete(0, priority=1, eth_dst=self.macs[0]))
        assert self.sw.update_stats.incremental == 1
        assert not self.sw.process(mac_pkt(self.macs[0])).forwarded

    def test_same_code_object_after_incremental(self):
        fn_before = self.sw.compiled_table(0).fn
        self.sw.apply_flow_mod(add(0, eth_dst=0xABCD))
        assert self.sw.compiled_table(0).fn is fn_before  # non-destructive

    def test_catch_all_update_incremental(self):
        self.sw.apply_flow_mod(add(0, priority=0, port=7))
        assert self.sw.update_stats.incremental == 1
        assert self.sw.process(mac_pkt(0xDEAD)).output_ports == [7]

    def test_prereq_violation_falls_back(self):
        """Adding a differently-shaped rule breaks the global mask: the
        table falls back with a rebuild — and because the fallen-back
        table is decomposable, ESWITCH promotes it straight back to fast
        templates via table decomposition (Section 3.2)."""
        self.sw.apply_flow_mod(add(0, priority=5, tcp_dst=80))
        assert self.sw.update_stats.fallbacks == 1
        assert self.sw.table_kinds()[0].startswith("decomposed[")
        # And it still forwards correctly, on both rule shapes.
        assert self.sw.process(mac_pkt(self.macs[3])).forwarded
        http = PacketBuilder().eth(dst=0x123456).ipv4().tcp(dst_port=80).build()
        assert self.sw.process(http).forwarded

    def test_fallback_without_decomposition_is_linked_list(self):
        p, macs = l2.build(50)
        sw = ESwitch.from_pipeline(p, config=CompileConfig(decompose=False))
        sw.apply_flow_mod(add(0, priority=5, tcp_dst=80))
        assert sw.compiled_table(0).kind is TemplateKind.LINKED_LIST
        assert sw.process(mac_pkt(macs[3])).forwarded


class TestIncrementalLpm:
    def setup_method(self):
        p, self.fib = l3.build(100)
        self.sw = ESwitch.from_pipeline(p)

    def test_route_add_incremental(self):
        self.sw.apply_flow_mod(add(0, priority=24, port=9, ipv4_dst="203.0.113.0/24"))
        assert self.sw.update_stats.incremental == 1
        pkt = PacketBuilder().eth().ipv4(dst="203.0.113.55").udp().build()
        assert self.sw.process(pkt).output_ports == [9]

    def test_route_delete_incremental(self):
        value, depth, _port = self.fib[0]
        from repro.net.addresses import int_to_ip

        self.sw.apply_flow_mod(delete(0, priority=depth,
                                      ipv4_dst=f"{int_to_ip(value)}/{depth}"))
        assert self.sw.update_stats.incremental == 1

    def test_lpm_kind_stable_across_updates(self):
        for i in range(5):
            self.sw.apply_flow_mod(
                add(0, priority=24, port=i, ipv4_dst=f"203.0.{i}.0/24")
            )
        assert self.sw.compiled_table(0).kind is TemplateKind.LPM


class TestDirectRebuild:
    def test_direct_always_rebuilds(self):
        """'Complete rebuilding happens only for the direct code template
        (unconditionally)'."""
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(1)]))
        sw = ESwitch.from_pipeline(Pipeline([t]))
        assert sw.compiled_table(0).kind is TemplateKind.DIRECT
        sw.apply_flow_mod(add(0, priority=2, tcp_dst=443))
        assert sw.update_stats.rebuilds == 1
        assert sw.update_stats.incremental == 0

    def test_direct_upgrades_to_hash_when_growing(self):
        t = FlowTable(0)
        for i in range(3):
            t.add(FlowEntry(Match(eth_dst=i), priority=1, actions=[Output(1)]))
        sw = ESwitch.from_pipeline(Pipeline([t]))
        assert sw.compiled_table(0).kind is TemplateKind.DIRECT
        for i in range(3, 8):
            sw.apply_flow_mod(add(0, eth_dst=i))
        assert sw.compiled_table(0).kind is TemplateKind.HASH


class TestNewTables:
    def test_flow_mod_creates_table(self):
        t = FlowTable(0)
        t.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(1)]))
        sw = ESwitch.from_pipeline(Pipeline([t]))
        sw.apply_flow_mod(add(3, eth_dst=5))
        assert 3 in sw.table_kinds()


class TestTransactions:
    def setup_method(self):
        p, self.macs = l2.build(20)
        self.sw = ESwitch.from_pipeline(p)

    def test_batch_applies_atomically(self):
        mods = [add(0, eth_dst=0x9000 + i) for i in range(5)]
        self.sw.apply_flow_mods(mods)
        for i in range(5):
            assert self.sw.process(mac_pkt(0x9000 + i)).forwarded

    def test_failed_batch_rolls_back(self):
        bad = FlowMod(
            FlowModCommand.ADD, 0, Match(eth_dst=1), priority=-1  # invalid
        )
        mods = [add(0, eth_dst=0x9000), bad]
        with pytest.raises(ValueError):
            self.sw.apply_flow_mods(mods)
        # The first mod must have been rolled back too.
        assert not self.sw.process(mac_pkt(0x9000)).forwarded
        assert len(self.sw.pipeline.table(0)) == 20

    def test_rollback_restores_datapath_behavior(self):
        victim = self.macs[0]
        bad = FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=2), priority=-1)
        with pytest.raises(ValueError):
            self.sw.apply_flow_mods(
                [delete(0, priority=1, eth_dst=victim), bad]
            )
        assert self.sw.process(mac_pkt(victim)).forwarded

    def test_rollback_removes_created_tables(self):
        bad = FlowMod(FlowModCommand.ADD, 7, Match(eth_dst=2), priority=-1)
        with pytest.raises(ValueError):
            self.sw.apply_flow_mods([add(7, eth_dst=1), bad])
        assert 7 not in self.sw.table_kinds()

    def test_rollback_created_table_clears_deferred_rebuild(self):
        """Regression: a table created *and* made decomposed inside a failed
        batch left its id in the deferred-rebuild queue after rollback, so
        the next packet's flush crashed looking up the vanished table."""
        mods = [add(7, eth_dst=0x7000 + i) for i in range(8)]
        mods.append(add(7, priority=5, tcp_dst=80))  # mixed shape: decomposes
        mods.append(add(7, eth_dst=0x7FFF))  # decomposed group: deferred rebuild
        mods.append(FlowMod(FlowModCommand.ADD, 7, Match(eth_dst=2), priority=-1))
        with pytest.raises(ValueError):
            self.sw.apply_flow_mods(mods)
        # The scenario must actually have queued a deferred group rebuild.
        assert self.sw.update_stats.group_rebuilds >= 1
        # Processing (which flushes deferred rebuilds) must not crash, and
        # the rolled-back table must be gone.
        assert self.sw.process(mac_pkt(self.macs[0])).forwarded
        assert 7 not in self.sw.table_kinds()


def test_accepted_batch_never_materializes_the_table(monkeypatch):
    """The undo record is read off the rule index: with 1e5 rules and a
    standing tombstone (so the live tuple is not a free alias of the slot
    list), the churn batch builds ``FlowTable.entries`` not once."""
    pipeline, macs = l2.build(100_000)
    sw = ESwitch.from_pipeline(pipeline)
    assert sw.warm()
    sw.apply_flow_mod(
        FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=macs[0]), priority=1,
                strict=True)
    )
    assert sw.pipeline.table(0).tombstones == 1
    reads = []
    live = FlowTable.entries.fget
    monkeypatch.setattr(
        FlowTable, "entries", property(lambda t: reads.append(t) or live(t))
    )
    reply = sw.submit_flow_mods([
        add(0, eth_dst=0x0600_0000_0001),
        FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=macs[1]), priority=1,
                strict=True),
    ])
    assert reply.accepted and not reads
    assert sw.update_stats.incremental == 3
    assert sw.process(mac_pkt(0x0600_0000_0001)).forwarded
    assert not sw.process(mac_pkt(macs[1])).forwarded


class TestStrictDelete:
    """OFPFC_DELETE_STRICT, including the falsy priority-0 regression: a
    strict delete at priority 0 used to degrade to a non-strict delete and
    wipe matching entries at *every* priority."""

    def _switch_with_duplicates(self, make):
        """Same match at priorities 5 and 0, forwarding to ports 5 and 9."""
        sw = make(l2.build(20)[0])
        sw.apply_flow_mod(add(0, priority=5, port=5, eth_dst=0xAA))
        sw.apply_flow_mod(add(0, priority=0, port=9, eth_dst=0xAA))
        return sw

    @pytest.mark.parametrize(
        "make", [ESwitch.from_pipeline, OvsSwitch], ids=["eswitch", "ovs"]
    )
    def test_strict_priority_zero_deletes_only_that_priority(self, make):
        sw = self._switch_with_duplicates(make)
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=0xAA),
                    priority=0, strict=True)
        )
        # The priority-5 entry survives and still forwards.
        assert sw.process(mac_pkt(0xAA)).output_ports == [5]
        assert len([e for e in sw.pipeline.table(0) if e.match == Match(eth_dst=0xAA)]) == 1

    @pytest.mark.parametrize(
        "make", [ESwitch.from_pipeline, OvsSwitch], ids=["eswitch", "ovs"]
    )
    def test_strict_delete_of_shadowing_entry_reinstates_survivor(self, make):
        sw = self._switch_with_duplicates(make)
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=0xAA),
                    priority=5, strict=True)
        )
        # The shadowed priority-0 duplicate takes over on the fast path.
        assert sw.process(mac_pkt(0xAA)).output_ports == [9]

    @pytest.mark.parametrize(
        "make", [ESwitch.from_pipeline, OvsSwitch], ids=["eswitch", "ovs"]
    )
    def test_nonstrict_delete_ignores_priority(self, make):
        sw = self._switch_with_duplicates(make)
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=0xAA), priority=0)
        )
        assert not sw.process(mac_pkt(0xAA)).forwarded

    def test_noop_strict_delete_is_free_and_harmless(self):
        sw = self._switch_with_duplicates(ESwitch.from_pipeline)
        before = len(sw.pipeline.table(0))
        # Wrong priority: nothing matches, nothing changes, nothing charged.
        cost = sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=0xAA),
                    priority=3, strict=True)
        )
        assert cost == 0.0
        assert len(sw.pipeline.table(0)) == before
        assert sw.process(mac_pkt(0xAA)).output_ports == [5]


class TestLpmSlotRecycling:
    """Regression: incremental LPM deletes leaked their ``_OUT`` outcome
    slot, so route add/delete churn grew the namespace list forever."""

    def test_route_churn_keeps_outcome_list_bounded(self):
        p, _fib = l3.build(100)
        sw = ESwitch.from_pipeline(p)
        compiled = sw.compiled_table(0)
        baseline = len(compiled.namespace["_OUT"])
        pkt = PacketBuilder().eth().ipv4(dst="203.0.113.55").udp().build()
        miss_ports = sw.process(pkt.copy()).output_ports
        for i in range(50):
            sw.apply_flow_mod(
                add(0, priority=24, port=9, ipv4_dst="203.0.113.0/24")
            )
            assert sw.process(pkt.copy()).output_ports == [9]
            sw.apply_flow_mod(delete(0, priority=24, ipv4_dst="203.0.113.0/24"))
            assert sw.process(pkt.copy()).output_ports == miss_ports
        # Every delete recycled its slot: at most one slot of growth, not 50.
        assert len(compiled.namespace["_OUT"]) <= baseline + 1
        assert sw.update_stats.incremental == 100
        assert sw.update_stats.rebuilds == 0

    def test_churned_table_equals_recompiled_oracle(self):
        p, _fib = l3.build(60)
        sw = ESwitch.from_pipeline(p)
        for i in range(10):
            sw.apply_flow_mod(add(0, priority=24, port=i + 1,
                                  ipv4_dst=f"203.0.{i}.0/24"))
        for i in range(0, 10, 2):
            sw.apply_flow_mod(delete(0, ipv4_dst=f"203.0.{i}.0/24"))
        fresh = FlowTable(0)
        for e in sw.pipeline.table(0).entries:
            fresh.add(FlowEntry(e.match, priority=e.priority,
                                instructions=e.instructions))
        oracle = ESwitch.from_pipeline(Pipeline([fresh]))
        for i in range(10):
            pkt = PacketBuilder().eth().ipv4(dst=f"203.0.{i}.77").udp().build()
            assert (sw.process(pkt.copy()).summary()
                    == oracle.process(pkt.copy()).summary())


class TestUpdateCosts:
    def test_incremental_cheaper_than_rebuild(self):
        p, _ = l2.build(50)
        sw = ESwitch.from_pipeline(p)
        inc = sw.apply_flow_mod(add(0, eth_dst=0xAA))
        reb = sw.apply_flow_mod(add(0, priority=5, tcp_dst=80))  # fallback
        assert inc < reb

    def test_no_cache_invalidation_concept(self):
        """ESWITCH has no flow cache: updates never flush datapath state
        for other tables."""
        p, fib = l3.build(30)
        sw = ESwitch.from_pipeline(p)
        before = sw.compiled_table(0).fn
        sw.apply_flow_mod(add(0, priority=24, port=3, ipv4_dst="203.0.113.0/24"))
        assert sw.compiled_table(0).fn is before
