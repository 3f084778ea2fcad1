"""Flow-mod admission control and batch invisibility (ISSUE 5).

The contract: a rejected batch is answered with typed ErrorMsgs and is
*bit-invisible* — logical tables, compiled artifacts, the fused driver
object, flow counters, modeled cycles, and (for the sharded engine) the
epoch are exactly as if the batch had never been sent.
"""

import pickle

import pytest

from repro.core import ESwitch
from repro.openflow.actions import Output
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import (
    ErrorType,
    FlowMod,
    FlowModCommand,
    FlowModFailed,
    FlowModFailedCode,
)
from repro.openflow.pipeline import MAX_TABLES
from repro.openflow.stats import collect_flow_stats
from repro.packet import PacketBuilder
from repro.parallel import ShardedESwitch
from repro.usecases import l2


def mod(command=FlowModCommand.ADD, table_id=0, priority=5, port=3,
        instructions=None, **match):
    if instructions is None:
        instructions = (ApplyActions([Output(port)]),)
    return FlowMod(command, table_id, Match(**match), priority=priority,
                   instructions=instructions)


def capped_switch(cap=3):
    """An L2 switch whose table 0 advertises ``max_entries=cap``."""
    pipeline, macs = l2.build(8)
    sw = ESwitch(pipeline)
    table = sw.pipeline.table(0)
    table.max_entries = len(table.entries) + cap
    return sw, macs


def codes(errors):
    return [e.code for e in errors]


class TestStaticValidation:
    """The stateless half of admission (validate_flow_mod)."""

    def setup_method(self):
        self.sw = ESwitch(l2.build(8)[0])

    def test_bad_command(self):
        errs = self.sw.admit_flow_mods([mod(command="increment")])
        assert codes(errs) == [FlowModFailedCode.BAD_COMMAND]

    @pytest.mark.parametrize("tid", [-1, MAX_TABLES, MAX_TABLES + 7])
    def test_bad_table_id(self, tid):
        errs = self.sw.admit_flow_mods([mod(table_id=tid)])
        assert codes(errs) == [FlowModFailedCode.BAD_TABLE_ID]

    def test_bad_priority(self):
        errs = self.sw.admit_flow_mods([mod(priority=1 << 17)])
        assert codes(errs) == [FlowModFailedCode.BAD_COMMAND]

    def test_bad_timeout(self):
        bad = mod()
        bad.idle_timeout = -3.0
        errs = self.sw.admit_flow_mods([bad])
        assert codes(errs) == [FlowModFailedCode.BAD_TIMEOUT]

    def test_bad_match_type(self):
        bad = mod()
        bad.match = {"eth_dst": 5}
        errs = self.sw.admit_flow_mods([bad])
        assert [e.etype for e in errs] == [ErrorType.BAD_MATCH]

    def test_goto_must_move_forward(self):
        errs = self.sw.admit_flow_mods(
            [mod(table_id=3, instructions=(GotoTable(3),))]
        )
        assert [e.etype for e in errs] == [ErrorType.BAD_INSTRUCTION]

    def test_dangling_goto_target(self):
        errs = self.sw.admit_flow_mods([mod(instructions=(GotoTable(9),))])
        assert [e.etype for e in errs] == [ErrorType.BAD_INSTRUCTION]
        assert errs[0].code == "OFPBIC_BAD_TABLE_ID"

    def test_goto_target_created_by_the_batch_is_fine(self):
        batch = [
            mod(instructions=(GotoTable(9),)),
            mod(table_id=9, port=2, eth_dst=0xBEEF),
        ]
        assert self.sw.admit_flow_mods(batch) == []
        assert self.sw.submit_flow_mods(batch).accepted

    def test_every_error_is_reported_not_just_the_first(self):
        errs = self.sw.admit_flow_mods(
            [mod(command="bogus"), mod(table_id=-2), mod(priority=9)]
        )
        assert codes(errs) == [
            FlowModFailedCode.BAD_COMMAND, FlowModFailedCode.BAD_TABLE_ID,
        ]


class TestCapacity:
    """Per-table max_entries, simulated exactly as apply would act."""

    def test_overflow_is_rejected_with_table_full(self):
        sw, _ = capped_switch(cap=2)
        assert sw.submit_flow_mods([mod(eth_dst=0xA1)]).accepted
        assert sw.submit_flow_mods([mod(eth_dst=0xA2)]).accepted
        reply = sw.submit_flow_mods([mod(eth_dst=0xA3)])
        assert not reply.accepted
        assert codes(reply.errors) == [FlowModFailedCode.TABLE_FULL]

    def test_replace_in_place_is_exempt(self):
        sw, _ = capped_switch(cap=1)
        assert sw.submit_flow_mods([mod(eth_dst=0xA1)]).accepted
        # Same (match, priority): replaces, no growth, admissible at cap.
        assert sw.submit_flow_mods([mod(eth_dst=0xA1, port=9)]).accepted

    def test_interleaved_delete_frees_capacity(self):
        sw, _ = capped_switch(cap=1)
        assert sw.submit_flow_mods([mod(eth_dst=0xA1)]).accepted
        batch = [
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=0xA1),
                    priority=5, strict=True),
            mod(eth_dst=0xA2),
        ]
        assert sw.admit_flow_mods(batch) == []
        assert sw.submit_flow_mods(batch).accepted

    def test_batch_created_tables_are_unbounded(self):
        sw, _ = capped_switch(cap=0)
        batch = [mod(table_id=7, eth_dst=i, port=2) for i in range(20)]
        assert sw.admit_flow_mods(batch) == []

    def test_direct_apply_raises_typed_table_full(self):
        sw, _ = capped_switch(cap=1)
        sw.apply_flow_mod(mod(eth_dst=0xA1))
        with pytest.raises(FlowModFailed) as exc:
            sw.apply_flow_mod(mod(eth_dst=0xA2))
        assert exc.value.error.code is FlowModFailedCode.TABLE_FULL

    def test_transactional_batch_rolls_back_on_overflow(self):
        sw, _ = capped_switch(cap=1)
        entries_before = list(sw.pipeline.table(0).entries)
        cycles_before = sw.update_stats.cycles
        with pytest.raises(FlowModFailed):
            sw.apply_flow_mods([mod(eth_dst=0xA1), mod(eth_dst=0xA2)])
        assert list(sw.pipeline.table(0).entries) == entries_before
        assert sw.update_stats.cycles == cycles_before


def delete(strict, priority=5, **match):
    return FlowMod(FlowModCommand.DELETE, 0, Match(**match),
                   priority=priority, strict=strict)


FULL = (ErrorType.FLOW_MOD_FAILED, FlowModFailedCode.TABLE_FULL)
DANGLING = (ErrorType.BAD_INSTRUCTION, "OFPBIC_BAD_TABLE_ID")

#: Batches against a table 0 that is exactly full and holds 0xA1 at
#: priorities 5, 6 and 7 -> the (position in batch, type, code) of every
#: error, in order. Recorded from the set-of-all-rules simulation this
#: overlay replaced; the two must never differ.
AT_CAPACITY = {
    "add": ([mod(eth_dst=0xB1)], [(0, *FULL)]),
    "add-replace": ([mod(eth_dst=0xA1, priority=6, port=9)], []),
    "strict-delete-frees-one": (
        [delete(True, eth_dst=0xA1), mod(eth_dst=0xB1), mod(eth_dst=0xB2)],
        [(2, *FULL)],
    ),
    "strict-delete-of-absent-priority-frees-none": (
        [delete(True, priority=9, eth_dst=0xA1), mod(eth_dst=0xB1)],
        [(1, *FULL)],
    ),
    "strict-delete-twice-frees-one": (
        [delete(True, eth_dst=0xA1), delete(True, eth_dst=0xA1),
         mod(eth_dst=0xB1), mod(eth_dst=0xB2)],
        [(3, *FULL)],
    ),
    "delete-then-re-add-same-rule": (
        [delete(True, eth_dst=0xA1), mod(eth_dst=0xA1), mod(eth_dst=0xB1)],
        [(2, *FULL)],
    ),
    "non-strict-delete-frees-every-priority": (
        [delete(False, priority=99, eth_dst=0xA1), mod(eth_dst=0xB1),
         mod(eth_dst=0xB2), mod(eth_dst=0xA1, priority=7), mod(eth_dst=0xB3)],
        [(4, *FULL)],
    ),
    "non-strict-delete-takes-rules-the-batch-added": (
        [delete(True, eth_dst=0xA1), mod(eth_dst=0xA1, priority=8),
         delete(False, eth_dst=0xA1), mod(eth_dst=0xB1), mod(eth_dst=0xB2),
         mod(eth_dst=0xB3), mod(eth_dst=0xB4)],
        [(6, *FULL)],
    ),
    "rejected-add-holds-no-seat": (
        [mod(eth_dst=0xB1), delete(True, eth_dst=0xA1), mod(eth_dst=0xB1)],
        [(0, *FULL)],
    ),
    "batch-created-table-is-unbounded": (
        [mod(table_id=7, eth_dst=i) for i in range(20)] + [mod(eth_dst=0xB1)],
        [(20, *FULL)],
    ),
    "dangling-goto": (
        [mod(eth_dst=0xA1, instructions=(GotoTable(9),))], [(0, *DANGLING)],
    ),
    "dangling-goto-on-an-overflowing-add": (
        [mod(eth_dst=0xB1, instructions=(GotoTable(9),))],
        [(0, *DANGLING), (0, *FULL)],
    ),
    "dangling-goto-and-overflow": (
        [mod(eth_dst=0xB1, instructions=(GotoTable(9),)),
         mod(table_id=9, eth_dst=0xB2, instructions=(GotoTable(11),))],
        [(0, *FULL), (1, *DANGLING)],
    ),
}


class TestAdmissionAtCapacity:
    @pytest.mark.parametrize("case", sorted(AT_CAPACITY))
    def test_errors_and_invisibility(self, case):
        batch, expected = AT_CAPACITY[case]
        sw, _ = capped_switch(cap=3)
        assert sw.submit_flow_mods(
            [mod(eth_dst=0xA1, priority=p) for p in (5, 6, 7)]).accepted
        table = sw.pipeline.table(0)
        assert table.full
        sw.warm()
        before = fingerprint(sw), table.version, vars(sw.update_stats).copy()

        errors = sw.admit_flow_mods(batch)
        position = {id(m): i for i, m in enumerate(batch)}
        assert [
            (position[id(e.data)], e.etype, e.code) for e in errors
        ] == expected
        for err in errors:
            if err.code is FlowModFailedCode.TABLE_FULL:
                assert err.message == (
                    f"table 0 at capacity ({table.max_entries} entries)")
        assert (fingerprint(sw), table.version, vars(sw.update_stats)) == before

        reply = sw.submit_flow_mods(batch)
        assert reply.accepted == (not expected)
        assert list(reply.errors) == errors
        if expected:
            assert (fingerprint(sw), table.version,
                    vars(sw.update_stats)) == before
        else:
            assert len(table) <= table.max_entries


def fingerprint(sw):
    """Everything a rejected batch must leave untouched, by value."""
    return (
        sw.datapath.generation,
        sw.update_stats.cycles,
        sorted((s.table_id, s.priority, s.packets, s.bytes)
               for s in collect_flow_stats(sw.pipeline)),
        [
            (t.table_id, sorted((repr(e.match), e.priority)
                                for e in t.entries))
            for t in sw.pipeline
        ],
        sw.table_kinds(),
    )


BAD_BATCHES = {
    "dangling-goto": lambda: [mod(eth_dst=0xC0FE),
                              mod(instructions=(GotoTable(200),))],
    "backward-goto": lambda: [mod(eth_dst=0xC0FE),
                              mod(table_id=1, instructions=(GotoTable(0),))],
    "bad-priority": lambda: [mod(eth_dst=0xC0FE), mod(priority=-4)],
    "table-full": lambda: [mod(eth_dst=0xC0FE), mod(eth_dst=0xC0FF)],
}


class TestBatchInvisibility:
    """One poisoned mod rejects the batch wholesale — and the reject must
    be invisible down to the fused driver's object identity."""

    @pytest.mark.parametrize("reason", sorted(BAD_BATCHES))
    def test_eswitch_rejected_batch_is_bit_invisible(self, reason):
        pipeline, macs = l2.build(16)
        sw = ESwitch(pipeline)
        control = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        if reason == "table-full":
            table = sw.pipeline.table(0)
            table.max_entries = len(table.entries) + 1
        probe = l2.traffic(macs, 24)
        sw.warm()
        sw.process_burst([p.copy() for p in probe])
        control.warm()
        control.process_burst([p.copy() for p in probe])

        fused_before = sw.datapath._fused
        assert fused_before is not None
        before = fingerprint(sw)

        reply = sw.submit_flow_mods(BAD_BATCHES[reason]())
        assert not reply.accepted
        assert reply.errors and reply.cycles == 0.0

        assert fingerprint(sw) == before
        # Not just equal state: the very same compiled driver object is
        # still installed at the same generation — nothing recompiled.
        assert sw.datapath._fused is fused_before
        # And the switch keeps answering exactly like one that never saw
        # the batch.
        sv = sw.process_burst([p.copy() for p in probe])
        cv = control.process_burst([p.copy() for p in probe])
        assert [v.summary() for v in sv] == [v.summary() for v in cv]

    @pytest.mark.parametrize("reason", sorted(BAD_BATCHES))
    def test_sharded_rejected_batch_is_bit_invisible(self, reason):
        pipeline, macs = l2.build(16)
        if reason == "table-full":
            # Set before the engine snapshots the pipeline: the capacity
            # pickles across to the shadow and to every forked replica.
            table = pipeline.table(0)
            table.max_entries = len(table.entries) + 1
        probe = l2.traffic(macs, 24)
        control = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        with ShardedESwitch(pipeline, workers=2) as eng:
            eng.process_burst([p.copy() for p in probe])
            control.process_burst([p.copy() for p in probe])
            epoch_before = eng.epoch

            reply = eng.submit_flow_mods(BAD_BATCHES[reason]())
            assert not reply.accepted and reply.errors

            # The epoch did not advance: nothing was broadcast, every
            # worker keeps serving the prior generation.
            assert eng.epoch == epoch_before
            ev = eng.process_burst([p.copy() for p in probe])
            cv = control.process_burst([p.copy() for p in probe])
            assert [v.summary() for v in ev] == [v.summary() for v in cv]
            assert all(e == epoch_before for e in eng.last_gather_epochs)
            counts = sorted((s.table_id, s.priority, s.packets, s.bytes)
                            for s in collect_flow_stats(eng.pipeline))
            control_counts = sorted(
                (s.table_id, s.priority, s.packets, s.bytes)
                for s in collect_flow_stats(control.pipeline))
            assert counts == control_counts

    def test_sharded_capacity_reject_leaves_epoch_alone(self):
        pipeline, _ = l2.build(8)
        with ShardedESwitch(pipeline, workers=2) as eng:
            table = eng.shadow.pipeline.table(0)
            table.max_entries = len(table.entries)
            reply = eng.submit_flow_mods([mod(eth_dst=0xA1)])
            assert not reply.accepted
            assert codes(reply.errors) == [FlowModFailedCode.TABLE_FULL]
            assert eng.epoch == 0

    def test_accepted_batch_still_applies_normally(self):
        sw = ESwitch(l2.build(8)[0])
        assert sw.warm()
        generation, fused = sw.datapath.generation, sw.datapath.fused
        reply = sw.submit_flow_mods([mod(eth_dst=0x0BB0, port=4)])
        assert reply.accepted
        assert reply.cycles > 0.0
        assert sw.pipeline.table(0).has_rule(Match(eth_dst=0x0BB0), 5)
        # An insert into the standing hash store is content, not
        # structure: the driver object stands and already serves the rule.
        assert sw.datapath.generation == generation
        assert sw.datapath.fused is fused
        hit = PacketBuilder().eth(dst=0x0BB0).build()
        assert sw.process(hit).output_ports == [4]
        assert sw.datapath.fused is fused
        # The table's first goto target is structure: the generation moves.
        reply = sw.submit_flow_mods([
            mod(table_id=1, eth_dst=0x0BB1),
            mod(eth_dst=0x0BB1, instructions=(GotoTable(1),)),
        ])
        assert reply.accepted
        assert sw.datapath.generation != generation


class TestGatewayTableFullSplit:
    """Regression: a TABLE_FULL reject used to retry the whole batch
    verbatim, so one full table wedged a subscriber's admissible rules
    forever. The controller must split the batch — land the admissible
    complement, park only the overflow — and retry just the overflow on
    the next punt."""

    def make(self, ce_cap):
        from repro.controller import GatewayController
        from repro.usecases import gateway

        pipeline, fib = gateway.build(
            n_ce=2, users_per_ce=3, n_prefixes=50, provision_users=False
        )
        sw = ESwitch.from_pipeline(pipeline)
        ctrl = GatewayController(sw, n_ce=2, users_per_ce=3)
        sw.packet_in_handler = ctrl
        # Fill-block the forward (per-CE) table so its NAT mod bounces
        # TABLE_FULL while the reverse mod has room.
        table = sw.pipeline.table(gateway.CE_TABLE_BASE)
        table.max_entries = len(table.entries) + ce_cap
        return sw, ctrl, fib

    def punt(self, sw, fib):
        from repro.usecases import gateway

        flow = gateway.traffic(fib, 1, n_ce=2, users_per_ce=3)[0]
        verdict = sw.process(flow.copy())
        return flow, verdict

    def test_admissible_complement_lands_overflow_is_parked(self):
        from repro.usecases import gateway

        sw, ctrl, fib = self.make(ce_cap=0)
        rev_before = len(sw.pipeline.table(gateway.REVERSE_TABLE).entries)
        _, verdict = self.punt(sw, fib)
        assert verdict.to_controller
        assert ctrl.table_full_splits == 1
        assert ctrl.install_failures == 1
        assert not ctrl.admitted
        # The reverse-NAT rule landed despite the reject...
        assert (
            len(sw.pipeline.table(gateway.REVERSE_TABLE).entries)
            == rev_before + 1
        )
        # ...and only the forward mod is parked for retry.
        (pending,) = ctrl.pending_overflow.values()
        assert [m.table_id for m in pending] == [gateway.CE_TABLE_BASE]

    def test_retry_resubmits_only_the_overflow(self):
        from repro.usecases import gateway

        sw, ctrl, fib = self.make(ce_cap=0)
        flow, _ = self.punt(sw, fib)
        rev_after_split = len(sw.pipeline.table(gateway.REVERSE_TABLE).entries)
        # Still full: the retry must bounce again WITHOUT re-sending the
        # already-landed reverse mod (no duplicate growth, no new split).
        assert sw.process(flow.copy()).to_controller
        assert ctrl.overflow_retries == 1
        assert ctrl.table_full_splits == 1
        assert (
            len(sw.pipeline.table(gateway.REVERSE_TABLE).entries)
            == rev_after_split
        )
        assert not ctrl.admitted

    def test_freed_capacity_completes_admission(self):
        from repro.usecases import gateway

        sw, ctrl, fib = self.make(ce_cap=0)
        flow, _ = self.punt(sw, fib)
        sw.pipeline.table(gateway.CE_TABLE_BASE).max_entries += 1
        assert sw.process(flow.copy()).to_controller
        assert ctrl.overflow_retries == 1
        assert len(ctrl.admitted) == 1
        assert not ctrl.pending_overflow
        # Fully admitted: the retransmission takes the fast path.
        assert sw.process(flow.copy()).forwarded

    def test_uncapped_admission_never_splits(self):
        sw, ctrl, fib = self.make(ce_cap=8)
        _, verdict = self.punt(sw, fib)
        assert verdict.to_controller
        assert len(ctrl.admitted) == 1
        assert ctrl.table_full_splits == 0
        assert not ctrl.pending_overflow

    def test_via_installs_into_the_punting_switch(self):
        from repro.controller import GatewayController
        from repro.openflow.messages import PacketIn
        from repro.usecases import gateway

        pipeline_a, fib = gateway.build(
            n_ce=2, users_per_ce=3, n_prefixes=50, provision_users=False
        )
        pipeline_b, _ = gateway.build(
            n_ce=2, users_per_ce=3, n_prefixes=50, provision_users=False
        )
        sw_a = ESwitch.from_pipeline(pipeline_a)
        sw_b = ESwitch.from_pipeline(pipeline_b)
        ctrl = GatewayController(sw_a, n_ce=2, users_per_ce=3)
        flow = gateway.traffic(fib, 1, n_ce=2, users_per_ce=3)[0]
        ctrl.handle(PacketIn(pkt=flow, table_id=gateway.CE_TABLE_BASE),
                    via=sw_b)
        assert len(ctrl.admitted) == 1
        assert len(sw_b.pipeline.table(gateway.CE_TABLE_BASE).entries) == 1
        assert len(sw_a.pipeline.table(gateway.CE_TABLE_BASE).entries) == 0
