"""Tests for idle/hard flow timeouts and the expiry manager."""

import sys

import pytest

from repro.core import ESwitch
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.openflow.timeouts import ExpiryManager
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder


def mac_pkt(dst=0xAA):
    return PacketBuilder().eth(dst=dst).ipv4().tcp().build()


def build_switch(kind="es", **entry_kw):
    t = FlowTable(0)
    t.add(FlowEntry(Match(eth_dst=0xAA), priority=1, actions=[Output(1)], **entry_kw))
    t.add(FlowEntry(Match(), priority=0, actions=[]))
    pipeline = Pipeline([t])
    if kind == "es":
        return ESwitch.from_pipeline(pipeline)
    return OvsSwitch(pipeline)


class TestEntryFields:
    def test_defaults_permanent(self):
        e = FlowEntry(Match(), priority=1, actions=[])
        assert e.idle_timeout == 0 and e.hard_timeout == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FlowEntry(Match(), priority=1, actions=[], idle_timeout=-1)

    def test_flow_mod_carries_timeouts(self):
        mod = FlowMod(FlowModCommand.ADD, 0, Match(), idle_timeout=5, hard_timeout=9)
        entry = mod.to_entry()
        assert entry.idle_timeout == 5 and entry.hard_timeout == 9

    def test_timeouts_are_read_only(self):
        entry = FlowEntry(Match(), priority=1, actions=[], idle_timeout=5)
        with pytest.raises(AttributeError):
            entry.idle_timeout = 7
        assert (entry.idle_timeout, entry.hard_timeout) == (5, 0)

    def test_entry_fits_a_112_byte_block(self):
        """A million-rule table holds a million entries: one slot more
        moves each into pymalloc's next (128-byte) size class."""
        assert sys.getsizeof(FlowEntry(Match(in_port=1))) <= 112


class TestHardTimeout:
    @pytest.mark.parametrize("kind", ["es", "ovs"])
    def test_expires_regardless_of_traffic(self, kind):
        sw = build_switch(kind, hard_timeout=10)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        for t in (3.0, 6.0, 9.0):
            sw.process(mac_pkt())  # active, but hard timeout ignores that
            assert mgr.tick(t) == []
        expired = mgr.tick(10.0)
        assert len(expired) == 1 and expired[0][2] == "hard"
        assert not sw.process(mac_pkt()).forwarded  # rule gone
        assert mgr.expired_hard == 1

    def test_permanent_entries_untouched(self):
        sw = build_switch("es")
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        assert mgr.tick(1e9) == []
        assert sw.process(mac_pkt()).forwarded


class TestIdleTimeout:
    @pytest.mark.parametrize("kind", ["es", "ovs"])
    def test_traffic_keeps_entry_alive(self, kind):
        sw = build_switch(kind, idle_timeout=10)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        for t in (5.0, 10.0, 15.0, 20.0):
            sw.process(mac_pkt())
            assert mgr.tick(t) == [], t
        # Now go quiet: expires 10s after the last activity tick.
        assert mgr.tick(29.0) == []
        expired = mgr.tick(30.5)
        assert len(expired) == 1 and expired[0][2] == "idle"
        assert mgr.expired_idle == 1

    def test_idle_expiry_without_any_traffic(self):
        sw = build_switch("es", idle_timeout=4)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        assert len(mgr.tick(4.0)) == 1


class TestManagerMechanics:
    def test_tracks_only_timed_entries(self):
        sw = build_switch("es", idle_timeout=5)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        assert mgr.tracked_count == 1  # the catch-all is permanent

    def test_new_flows_observed_later(self):
        sw = build_switch("es")
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=0xBB), priority=1,
                    instructions=(ApplyActions([Output(2)]),), hard_timeout=3)
        )
        mgr.observe(10.0)  # installed at t=10
        assert mgr.tick(12.0) == []
        assert len(mgr.tick(13.0)) == 1

    def test_clock_cannot_go_backwards(self):
        mgr = ExpiryManager(build_switch("es"))
        mgr.tick(5.0)
        with pytest.raises(ValueError):
            mgr.tick(4.0)

    def test_externally_removed_entries_forgotten(self):
        sw = build_switch("es", hard_timeout=5)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=0xAA), priority=1)
        )
        assert mgr.tick(100.0) == []  # nothing to expire; no crash

    def test_callback_invoked(self):
        events = []
        sw = build_switch("es", hard_timeout=1)
        mgr = ExpiryManager(sw, on_expired=lambda tid, e, r: events.append((tid, r)))
        mgr.observe(0.0)
        mgr.tick(2.0)
        assert events == [(0, "hard")]

    def test_gateway_nat_entry_expiry_end_to_end(self):
        """Reactive NAT rules with an idle timeout age out and re-punt."""
        from repro.controller import GatewayController
        from repro.usecases import gateway

        pipeline, fib = gateway.build(n_ce=1, users_per_ce=1, n_prefixes=30,
                                      provision_users=False)
        sw = ESwitch.from_pipeline(pipeline)
        ctrl = GatewayController(sw, n_ce=1, users_per_ce=1)
        sw.packet_in_handler = ctrl
        mgr = ExpiryManager(sw)
        flows = gateway.traffic(fib, 1, n_ce=1, users_per_ce=1)

        sw.process(flows[0].copy())          # punt -> admitted
        assert sw.process(flows[0].copy()).forwarded
        # Re-install the NAT rules with an idle timeout.
        for mod in gateway.nat_flow_mods(0, 0):
            mod.idle_timeout = 30
            sw.apply_flow_mod(mod)
        mgr.observe(0.0)
        assert mgr.tick(29.0) == []
        assert len(mgr.tick(60.0)) == 2      # both NAT rules aged out
        ctrl.admitted.clear()
        verdict = sw.process(flows[0].copy())
        assert verdict.to_controller         # back to admission control


class TestEntryIdentityTracking:
    """Tracking is by entry_id: a flow is one object from ADD to removal."""

    @pytest.mark.parametrize("kind", ["es", "ovs"])
    def test_rolled_back_batch_keeps_the_tracked_flow(self, kind):
        """A failed batch that deleted a timed rule puts the very object
        back, so its clock neither restarts nor stops."""
        sw = build_switch(kind, idle_timeout=10)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        table = sw.pipeline.table(0)
        live = table.find_rule(Match(eth_dst=0xAA), 1)
        with pytest.raises(ValueError):
            sw.apply_flow_mods([
                FlowMod(FlowModCommand.DELETE, 0, live.match, priority=1,
                        strict=True),
                FlowMod(FlowModCommand.ADD, 0, Match(), priority=-1),
            ])
        assert table.find_rule(Match(eth_dst=0xAA), 1) is live
        assert mgr.tick(5.0) == [] and mgr.tracked_count == 1
        # Idle since t=0, not since the rollback re-entered it.
        assert [r for _, _, r in mgr.tick(10.0)] == ["idle"]

    def test_vanished_entry_is_dropped_not_deleted_by_match(self):
        """A reused (match, priority) slot must survive the sweep."""
        sw = build_switch("es", idle_timeout=5)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        # The timed rule goes away; an unrelated permanent rule takes
        # the exact same (match, priority) slot.
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=0xAA), priority=1)
        )
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=0xAA), priority=1,
                    instructions=(ApplyActions([Output(4)]),))
        )
        assert mgr.tick(100.0) == []  # tracked id dropped, nothing deleted
        assert sw.process(mac_pkt()).forwarded  # the usurper lives on


class TestTimeoutPrecedence:
    """OpenFlow 1.3 §5.5: the hard timeout bounds total lifetime."""

    def test_hard_wins_when_both_fire_same_tick(self):
        sw = build_switch("es", idle_timeout=5, hard_timeout=10)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        expired = mgr.tick(10.0)  # idle due since t=5, hard due now
        assert [r for _, _, r in expired] == ["hard"]
        assert mgr.expired_hard == 1 and mgr.expired_idle == 0

    def test_busy_flow_still_expires_hard_not_idle(self):
        sw = build_switch("es", idle_timeout=5, hard_timeout=10)
        mgr = ExpiryManager(sw)
        mgr.observe(0.0)
        for t in (3.0, 6.0, 9.0):
            sw.process(mac_pkt())
            assert mgr.tick(t) == []
        sw.process(mac_pkt())  # active right up to the deadline
        expired = mgr.tick(10.0)
        assert [r for _, _, r in expired] == ["hard"]


class TestShardedExpiry:
    """ExpiryManager over a ShardedESwitch: counters live in workers."""

    def test_sweep_syncs_cross_shard_counters_first(self):
        from repro.openflow.pipeline import Pipeline
        from repro.parallel import ShardedESwitch

        t = FlowTable(0)
        t.add(FlowEntry(Match(eth_dst=0xAA), priority=1,
                        actions=[Output(1)], idle_timeout=10))
        t.add(FlowEntry(Match(), priority=0, actions=[]))
        with ShardedESwitch(Pipeline([t]), workers=2,
                            backend="thread") as eng:
            mgr = ExpiryManager(eng)
            mgr.observe(0.0)
            # All traffic is remote: the gather adds each acked count onto
            # the shadow's rule, which is what the manager reads.
            for tick_at in (5.0, 10.0, 15.0):
                eng.process_burst([mac_pkt()])
                assert mgr.tick(tick_at) == [], tick_at
            # Quiet now: ages out 10s after the last credited activity,
            # and the expiry DELETE broadcasts to every worker.
            expired = mgr.tick(25.0)
            assert [r for _, _, r in expired] == ["idle"]
            assert eng.epoch == 1  # the delete crossed the barrier
            assert not eng.process_burst([mac_pkt()])[0].forwarded

    def test_sharded_hard_expiry(self):
        from repro.openflow.pipeline import Pipeline
        from repro.parallel import ShardedESwitch

        t = FlowTable(0)
        t.add(FlowEntry(Match(eth_dst=0xAA), priority=1,
                        actions=[Output(1)], hard_timeout=4))
        t.add(FlowEntry(Match(), priority=0, actions=[]))
        with ShardedESwitch(Pipeline([t]), workers=2,
                            backend="thread") as eng:
            mgr = ExpiryManager(eng)
            mgr.observe(0.0)
            eng.process_burst([mac_pkt()])
            assert mgr.tick(3.0) == []
            assert len(mgr.tick(4.0)) == 1
            assert mgr.expired_hard == 1
