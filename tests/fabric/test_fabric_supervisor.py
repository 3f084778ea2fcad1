"""The fabric supervisor: scoring, outage attribution, upgrades.

Health scores fold session + engine health into [0, 1]; outages and
resyncs become attributed events with degraded-time and convergence
windows; rolling upgrades walk the fabric behind epoch barriers and an
abort rolls every touched leaf back to the old epoch.
"""

import random
from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strategies as sts

from repro.controller.channels import LossyChannel
from repro.fabric import (
    Fabric,
    FabricFaultPlan,
    FabricFaultSpec,
    FabricSupervisor,
    UPGRADE_MARKER_PORT,
    default_upgrade_mods,
)
from repro.net.addresses import int_to_ip
from repro.openflow.match import Match
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.traffic.nfpa import DirectSwitch
from repro.packet import PacketBuilder
from repro.usecases import gateway


def reliable(role, name, index):
    return LossyChannel(loss=0.0, delay_s=1e-3, seed=9000 + index)


def make(n_leaves=2, faults=None, **kwargs):
    fabric = Fabric(
        n_leaves=n_leaves, n_spines=1, n_ce=max(4, n_leaves),
        users_per_ce=2, n_prefixes=32, channel_for=reliable, **kwargs,
    )
    armed = faults.arm(fabric) if faults is not None else None
    return fabric, FabricSupervisor(fabric, faults=armed)


def subscriber_pkt(ce, user, fib, rng):
    value, depth, _port = fib[rng.randrange(len(fib))]
    host_bits = 32 - depth
    dst = value | (rng.getrandbits(host_bits) if host_bits else 0)
    return (
        PacketBuilder(in_port=gateway.ACCESS_PORT)
        .eth()
        .vlan(vid=gateway.ce_vlan(ce))
        .ipv4(
            src=int_to_ip(gateway.private_ip(ce, user)),
            dst=int_to_ip(dst),
        )
        .tcp(src_port=1024 + rng.randrange(60000), dst_port=443)
        .build()
    )


class TestScoring:
    def test_healthy_fabric_scores_one(self):
        fabric, sup = make()
        with fabric:
            for _ in range(4):
                sup.tick(0.5)
            assert all(s == 1.0 for s in sup.health_scores().values())
            assert sup.degraded_leaves() == []

    def test_down_session_scores_zero_and_accrues_degraded_time(self):
        plan = FabricFaultPlan((
            FabricFaultSpec(at_s=1.0, target="leaf0", kind="blackout",
                            duration_s=4.0),
        ))
        fabric, sup = make(faults=plan)
        with fabric:
            declared = False
            for _ in range(12):
                sup.tick(0.5)
                if "leaf0" in sup.degraded_leaves():
                    declared = True
                    assert sup.health_scores()["leaf0"] == 0.0
            assert declared, "liveness never declared the blackout"
            status = sup.status["leaf0"]
            assert status.outages == 1
            assert status.degraded_time_s > 0.0
            assert sup.status["leaf1"].degraded_time_s == 0.0
            kinds = [(name, what) for _t, name, what in sup.events]
            assert ("leaf0", "outage") in kinds
            assert ("leaf0", "resync") in kinds

    def test_convergence_window_measured_by_workload(self):
        plan = FabricFaultPlan((
            FabricFaultSpec(at_s=1.0, target="leaf0", kind="blackout",
                            duration_s=3.0),
        ))
        fabric, sup = make(faults=plan)
        with fabric:
            for _ in range(12):
                sup.tick(0.5)
            assert sup.awaiting_convergence() == ["leaf0"]
            sup.tick(0.5)
            window = sup.note_converged("leaf0")
            assert window is not None and window > 0.0
            assert sup.status["leaf0"].convergence_s == window
            assert sup.awaiting_convergence() == []
            # Idempotent: no pending resync -> no window.
            assert sup.note_converged("leaf0") is None


class TestRollingUpgrade:
    def test_completes_and_is_verdict_invisible(self):
        fabric, sup = make()
        with fabric:
            rng = random.Random(3)
            pkts = [subscriber_pkt(0, u, fabric.fib, rng) for u in range(2)]
            fabric.inject("leaf0", pkts)  # admit some reactive state
            probe = [subscriber_pkt(0, u, fabric.fib, rng) for u in range(2)]
            before = [
                v.summary()
                for v in fabric.leaf("leaf0").switch.process_burst(
                    [p.copy() for p in probe]
                )
            ]
            report = sup.rolling_upgrade()
            assert report.completed
            assert report.epoch == sup.epoch == 1
            assert report.upgraded == [l.name for l in fabric.leaves]
            assert all(
                s.epoch == 1 for s in sup.status.values()
            )
            after = [
                v.summary()
                for v in fabric.leaf("leaf0").switch.process_burst(
                    [p.copy() for p in probe]
                )
            ]
            assert before == after
            # The marker rule is present at the new epoch's priority.
            marker = [
                e
                for e in fabric.leaf("leaf0").switch.pipeline
                .get_or_create(0).entries
                if e.match == Match(in_port=UPGRADE_MARKER_PORT)
            ]
            assert len(marker) == 1
            assert marker[0].priority == 2  # 1 + epoch

    def test_abort_rolls_back_every_touched_leaf(self):
        fabric, sup = make(n_leaves=3)
        with fabric:
            report = sup.rolling_upgrade(fail_refuse_on="leaf1")
            assert not report.completed
            assert report.aborted_at == "leaf1"
            assert "re-fuse failed" in report.abort_reason
            assert report.upgraded == ["leaf0"]
            # Newest-first rollback: the aborted leaf, then the
            # already-upgraded ones.
            assert report.rolled_back == ["leaf1", "leaf0"]
            assert sup.epoch == 0
            assert all(s.epoch == 0 for s in sup.status.values())
            assert sup.deadlocks == 0
            # No marker rule survives anywhere.
            for leaf in fabric.leaves:
                table = leaf.switch.pipeline.get_or_create(0)
                assert not [
                    e for e in table.entries
                    if e.match == Match(in_port=UPGRADE_MARKER_PORT)
                ]
            # And the fabric still fuses + serves on the old epoch.
            assert fabric.leaves[1].switch.warm()

    def test_abort_restores_what_the_rule_carried_and_drops_created_tables(self):
        fabric, sup = make()
        with fabric:
            switch = fabric.leaf("leaf0").switch
            rule = dict(table_id=0, match=Match(in_port=4242), priority=7)
            installed = FlowMod(
                FlowModCommand.ADD, instructions=(ApplyActions([Output(1)]),),
                cookie=42, hard_timeout=30.0, **rule,
            )
            assert switch.submit_flow_mods([installed]).accepted
            tables = sorted(switch.table_kinds())
            assert 250 not in tables
            mods = [
                FlowMod(FlowModCommand.ADD,
                        instructions=(ApplyActions([Output(2)]),), **rule),
                FlowMod(FlowModCommand.ADD, 250, Match(in_port=4242),
                        priority=1),
            ]
            report = sup.rolling_upgrade(
                mods_for_leaf=lambda _leaf: mods, fail_refuse_on="leaf0"
            )
            assert not report.completed
            assert report.rolled_back == ["leaf0"]
            assert sup.deadlocks == 0
            back = switch.pipeline.table(0).find_rule(rule["match"], 7)
            assert (back.cookie, back.hard_timeout) == (42, 30.0)
            assert tuple(back.instructions) == (ApplyActions([Output(1)]),)
            assert sorted(switch.table_kinds()) == tables
            assert [t.table_id for t in switch.pipeline] == tables
            assert switch.warm()

    def test_dark_leaf_refuses_barrier_and_aborts(self):
        fabric, sup = make()
        with fabric:
            fabric.session_of("leaf0").disconnect()
            fabric.advance(10.0)  # liveness declares the outage
            report = sup.rolling_upgrade()
            assert not report.completed
            assert report.aborted_at == "leaf0"
            assert "barrier" in report.abort_reason
            assert sup.epoch == 0

    def test_upgrade_goes_through_the_leaf_session(self):
        fabric, sup = make()
        with fabric:
            sent_before = fabric.leaf("leaf0").session.health().sends
            assert sup.rolling_upgrade().completed
            assert fabric.leaf("leaf0").session.health().sends > sent_before

    def test_custom_mods_and_inverse(self):
        fabric, sup = make()
        with fabric:
            leaf = fabric.leaf("leaf0")
            mods = [
                FlowMod(
                    FlowModCommand.ADD, 0, Match(in_port=4242),
                    priority=7, instructions=(),
                )
            ]
            inverse = leaf.switch.pipeline.undo_record(mods).wire_mods()
            assert len(inverse) == 1
            assert inverse[0].command is FlowModCommand.DELETE
            assert inverse[0].strict

            report = sup.rolling_upgrade(mods_for_leaf=lambda _leaf: mods)
            assert report.completed
            table = leaf.switch.pipeline.get_or_create(0)
            assert [
                e for e in table.entries if e.match == Match(in_port=4242)
            ]

    def test_telemetry_shape(self):
        fabric, sup = make()
        with fabric:
            sup.tick(0.5)
            sup.rolling_upgrade()
            doc = sup.telemetry()
            assert doc["epoch"] == 1
            assert doc["deadlocks"] == 0
            assert set(doc["leaves"]) == {l.name for l in fabric.leaves}
            assert any("epoch 1" in e[2] for e in doc["events"])


class TestDefaultUpgradeMods:
    def test_marker_is_verdict_invisible_port(self):
        mods = default_upgrade_mods(3)
        assert len(mods) == 1
        assert mods[0].match == Match(in_port=UPGRADE_MARKER_PORT)
        assert mods[0].priority == 4
        assert UPGRADE_MARKER_PORT not in (
            gateway.ACCESS_PORT, gateway.NETWORK_PORT,
        )


def _rules(pipeline):
    return {
        table.table_id: [
            (e.match, e.priority, tuple(e.instructions)) for e in table.entries
        ]
        for table in pipeline
        if len(table)
    }


def _apply_then_invert(pipeline, mods):
    """Submit ``mods``, then the wire form of the undo record taken
    beforehand; returns the rule sequences (before, between, after)."""
    door = DirectSwitch(pipeline)
    before = _rules(pipeline)
    inverse = pipeline.undo_record(mods).wire_mods()
    assert _rules(pipeline) == before  # taking the record reads only
    assert door.submit_flow_mods(mods).accepted
    between = _rules(pipeline)
    assert door.submit_flow_mods(inverse).accepted
    return before, between, _rules(pipeline)


class TestInverseMods:
    """Rollback identity over the wire: a batch followed by the wire form
    of its undo record is a no-op."""

    def _pipeline(self):
        table = FlowTable(0)
        for priority, port in ((9, 1), (5, 2), (0, 3)):
            table.add(FlowEntry(Match(in_port=7), priority=priority,
                                instructions=(ApplyActions([Output(port)]),)))
        table.add(FlowEntry(Match(in_port=8), priority=5,
                            instructions=(ApplyActions([Output(4)]),)))
        return Pipeline([table])

    def test_add_replace_restores_the_old_entry_in_place(self):
        replace = FlowMod(FlowModCommand.ADD, 0, Match(in_port=7), priority=5,
                          instructions=(ApplyActions([Output(99)]),))
        before, between, after = _apply_then_invert(self._pipeline(), [replace])
        assert between != before
        assert after == before

    def test_non_strict_delete_restores_every_priority(self):
        wipe = FlowMod(FlowModCommand.DELETE, 0, Match(in_port=7), priority=5)
        before, between, after = _apply_then_invert(self._pipeline(), [wipe])
        assert [p for _m, p, _i in between[0]] == [5]
        assert Counter(after[0]) == Counter(before[0])
        assert [p for _m, p, _i in after[0]] == [9, 5, 5, 0]

    def test_unknown_table_inverts_to_strict_deletes_and_creates_nothing(self):
        pipeline = self._pipeline()
        add = FlowMod(FlowModCommand.ADD, 4, Match(in_port=1), priority=3)
        undo = pipeline.undo_record([add])
        inverse = undo.wire_mods()
        assert undo.created == {4}
        assert [t.table_id for t in pipeline] == [0]
        assert [(m.command, m.strict) for m in inverse] == [
            (FlowModCommand.DELETE, True)
        ]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batch_then_inverse_is_identity(self, data):
        pipeline = data.draw(sts.pipelines())
        mods = [
            m for m in data.draw(sts.flow_mod_batches(pipeline, max_mods=8))
            if m.table_id != 300  # the poison mod: rejected, nothing to undo
        ]
        assume(mods)
        before, _between, after = _apply_then_invert(pipeline, mods)
        # Every table holds the same rules again, priority-ordered ...
        assert after.keys() == before.keys()
        for tid, rules in after.items():
            assert Counter(rules) == Counter(before[tid])
            priorities = [p for _m, p, _i in rules]
            assert priorities == sorted(priorities, reverse=True)
        # ... and exactly in place unless a DELETE took a rule out: a
        # re-ADDed rule re-enters at the end of its priority class.
        if not any(m.command is FlowModCommand.DELETE for m in mods):
            assert after == before
