"""Compile-failure containment (ISSUE 5 tentpole).

Template selection or codegen raising must never crash the control path
or the datapath: the offending table is quarantined onto the linked-list
universal template, reported through health(), and healed by the next
clean rebuild. Whole-pipeline fusion failures degrade to the trampoline.
"""

import pickle

import repro.core.eswitch as eswitch_mod
import repro.core.fuse as fuse_mod
from repro.core import ESwitch, templates
from repro.core.analysis import TemplateKind
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.parallel import ShardedESwitch
from repro.usecases import l2


def add_mod(table_id=0, priority=9, port=7, **match):
    return FlowMod(FlowModCommand.ADD, table_id, Match(**match),
                   priority=priority,
                   instructions=(ApplyActions([Output(port)]),))


def fused_fails(src, name, mode):
    """A ``compile`` that cannot load a fused driver."""
    if "fused" in name:
        raise SyntaxError("synthetic codegen corruption")
    return compile(src, name, mode)


def reference_summaries(pipeline_blob, pkts):
    ref = pickle.loads(pipeline_blob)
    return [ref.process(p.copy()).summary() for p in pkts]


class TestQuarantine:
    def test_select_template_failure_pins_linked_list(self, monkeypatch):
        pipeline, macs = l2.build(16)
        blob = pickle.dumps(pipeline)

        def boom(entries, config):
            raise RuntimeError("synthetic template-selection fault")

        monkeypatch.setattr(eswitch_mod, "select", boom)
        sw = ESwitch(pipeline)  # must not raise: containment, not crash

        health = sw.health()
        assert health.degraded
        assert health.compile_failures == len(sw.pipeline.tables)
        assert dict(health.quarantined).keys() == {
            t.table_id for t in sw.pipeline.tables
        }
        assert all("RuntimeError" in why for _, why in health.quarantined)
        assert set(sw.table_kinds().values()) == {
            TemplateKind.LINKED_LIST.value
        }
        # The quarantined switch still answers correctly — degraded in
        # speed, never in semantics.
        probe = l2.traffic(macs, 24)
        got = [sw.process(p.copy()).summary() for p in probe]
        assert got == reference_summaries(blob, probe)

    def test_codegen_failure_pins_linked_list(self, monkeypatch):
        pipeline, macs = l2.build(16)
        blob = pickle.dumps(pipeline)
        real = eswitch_mod.compile_table

        def flaky(table, config, costs, kind=None, plan=None):
            if kind is not TemplateKind.LINKED_LIST:
                raise ValueError("synthetic codegen fault")
            return real(table, config, costs, kind=kind, plan=plan)

        monkeypatch.setattr(eswitch_mod, "compile_table", flaky)
        sw = ESwitch(pipeline)
        assert sw.health().degraded
        assert len(sw.quarantined) >= 1
        probe = l2.traffic(macs, 16)
        got = [sw.process(p.copy()).summary() for p in probe]
        assert got == reference_summaries(blob, probe)

    def test_clean_rebuild_heals_the_quarantine(self, monkeypatch):
        pipeline, macs = l2.build(16)

        def boom(entries, config):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(eswitch_mod, "select", boom)
        sw = ESwitch(pipeline)
        assert 0 in sw.quarantined
        monkeypatch.undo()  # the "bug" is fixed

        # The next update to table 0 sees a template-kind change
        # (linked list -> the real selection) and rebuilds cleanly.
        sw.apply_flow_mod(add_mod(0, eth_dst=0x02_0000_BEEF))
        assert 0 not in sw.quarantined
        health = sw.health()
        assert 0 not in dict(health.quarantined)
        assert sw.table_kinds()[0] == TemplateKind.HASH.value
        # The failure history stays on the books.
        assert health.compile_failures >= 1

    def test_update_time_failure_is_contained_too(self, monkeypatch):
        # A healthy switch whose codegen starts failing *at update time*:
        # the rebuild the update triggers is contained the same way.
        t0 = FlowTable(0)
        t0.add(FlowEntry(Match(in_port=1), priority=5,
                         instructions=(ApplyActions([Output(2)]),)))
        sw = ESwitch(Pipeline([t0]))  # tiny table -> DIRECT, rebuilds on add
        assert not sw.health().degraded
        real = eswitch_mod.compile_table

        def flaky(table, config, costs, kind=None, plan=None):
            if kind is not TemplateKind.LINKED_LIST:
                raise ValueError("synthetic codegen fault at update time")
            return real(table, config, costs, kind=kind, plan=plan)

        monkeypatch.setattr(eswitch_mod, "compile_table", flaky)
        # submit path: the batch is *accepted* (degrade, don't refuse) and
        # the failing table lands in quarantine on the linked-list rung.
        reply = sw.submit_flow_mods([add_mod(0, port=8, in_port=3)])
        assert reply.accepted
        assert 0 in sw.quarantined
        assert sw.table_kinds()[0] == TemplateKind.LINKED_LIST.value
        monkeypatch.undo()
        from repro.packet import PacketBuilder

        verdict = sw.process(PacketBuilder(in_port=3).eth().ipv4().udp()
                             .build())
        assert verdict.output_ports == [8]  # the new rule is live


class TestFuseContainment:
    def test_fuse_failure_degrades_to_trampoline(self, monkeypatch):
        pipeline, macs = l2.build(16)
        blob = pickle.dumps(pipeline)
        sw = ESwitch(pipeline)

        def boom(dp):
            raise RuntimeError("synthetic fusion fault")

        monkeypatch.setattr(fuse_mod, "fuse_datapath", boom)
        assert sw.warm() is False  # no fused driver came up
        health = sw.health()
        assert health.fuse_failures >= 1
        assert "RuntimeError" in health.last_fuse_error
        assert not health.fused_active
        # The trampoline serves the exact same answers.
        probe = l2.traffic(macs, 24)
        got = [sw.process(p.copy()).summary() for p in probe]
        assert got == reference_summaries(blob, probe)

    def test_fusion_recovers_on_next_generation(self, monkeypatch):
        pipeline, _ = l2.build(8)
        sw = ESwitch(pipeline)

        def boom(dp):
            raise RuntimeError("synthetic fusion fault")

        monkeypatch.setattr(fuse_mod, "fuse_datapath", boom)
        assert sw.warm() is False
        monkeypatch.undo()
        sw.apply_flow_mod(add_mod(0, eth_dst=0x02_0000_BEEF))
        assert sw.warm() is True
        health = sw.health()
        assert health.fused_active
        assert health.fuse_failures >= 1  # history preserved

    def test_generated_driver_load_failure_is_a_fuse_error(self, monkeypatch):
        # fuse_datapath wraps the load of its generated text: a driver
        # that fails to load raises FuseError (and the datapath then
        # degrades to the trampoline), never a bare SyntaxError.
        pipeline, macs = l2.build(8)
        reference = pickle.loads(pickle.dumps(pipeline))
        sw = ESwitch(pipeline)
        templates.clear()  # an earlier test may have loaded this shape
        monkeypatch.setattr(templates, "compile", fused_fails, raising=False)
        assert sw.warm() is False
        assert "synthetic codegen corruption" in sw.health().last_fuse_error
        # The trampoline's text loaded with its module, before any
        # pipeline existed: neither the cleared cache nor the failing
        # compile reaches it, and it serves with the reference's verdicts
        # and per-entry counters.
        probe = l2.traffic(macs, 12)
        assert [sw.process(p.copy()).summary() for p in probe] == [
            reference.process(p.copy()).summary() for p in probe]
        assert sw.datapath.fused is None

        def counters(pipe):
            return [(e.packets, e.bytes)
                    for table in pipe.tables for e in table.entries]

        assert counters(sw.pipeline) == counters(reference)
        assert any(packets for packets, _bytes in counters(reference))

    def test_failed_load_is_not_cached_and_the_next_generation_retries(
        self, monkeypatch
    ):
        pipeline, _ = l2.build(8)
        sw = ESwitch(pipeline)
        templates.clear()
        resident = templates.stats()["templates"]
        monkeypatch.setattr(templates, "compile", fused_fails, raising=False)
        assert sw.warm() is False
        assert "FuseError" in sw.health().last_fuse_error
        assert templates.stats()["templates"] == resident  # nothing cached
        monkeypatch.undo()
        # Same generation: the failure is pinned, not retried per packet.
        assert sw.warm() is False
        sw.datapath.bump_generation()
        calls = templates.stats()["compile_calls"]
        assert sw.warm() is True
        assert templates.stats()["compile_calls"] == calls + 1

    def test_one_switch_degrading_leaves_the_shared_template_loadable(self):
        a = ESwitch(l2.build(8)[0])
        assert a.warm() is True
        a.datapath.force_fuse_failure()
        assert a.warm() is False and a.health().degraded
        # Same shape, another switch: a hit on the template A loaded.
        calls = templates.stats()["compile_calls"]
        b = ESwitch(l2.build(8, seed=8)[0])
        assert b.warm() is True
        assert templates.stats()["compile_calls"] == calls
        assert not b.health().degraded


class TestShardedContainment:
    def test_quarantined_compile_is_consistent_across_shards(self, monkeypatch):
        # Workers fork after the patch and inherit it: every replica (and
        # the shadow) quarantines the same tables the same way, the engine
        # reports it through health(), and the answers stay correct.
        pipeline, macs = l2.build(16)
        blob = pickle.dumps(pipeline)

        def boom(entries, config):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(eswitch_mod, "select", boom)
        with ShardedESwitch(pipeline, workers=2) as eng:
            health = eng.health()
            assert health.degraded
            assert health.switch_health is not None
            assert health.switch_health.quarantined
            assert health.as_dict()["switch"]["quarantined"]
            probe = l2.traffic(macs, 24)
            got = [v.summary() for v in
                   eng.process_burst([p.copy() for p in probe])]
            assert got == reference_summaries(blob, probe)

    def test_engine_health_carries_worker_error_counter(self):
        pipeline, _ = l2.build(8)
        with ShardedESwitch(pipeline, workers=2) as eng:
            health = eng.health()
            assert health.worker_errors == 0
            assert not health.degraded
            d = health.as_dict()
            assert d["worker_errors"] == 0
            assert d["switch"]["quarantined"] == {}
