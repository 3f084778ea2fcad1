"""ShardedESwitch ≡ ESwitch: the shard count must be unobservable.

The contract under test (ISSUE 3): for ANY worker count, the sharded
engine yields bit-identical verdicts, modeled cycles, merged burst
telemetry, and flow counters versus a single sequential :class:`ESwitch`
over the same bursts — including when flow-mod broadcasts land between
bursts on an epoch boundary. Thread backend does the heavy property
lifting (cheap to spawn, identical code path — channels pickle both
ways, so thread workers are equally shared-nothing); one integration
test exercises the real forked-process backend end to end.
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import strategies as sts

from repro.core import ESwitch
from repro.openflow.actions import Output
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.stats import BurstStats, collect_flow_stats
from repro.parallel import ShardedESwitch, ShardWorkerError, shard_of
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.usecases import gateway, l2


def summarize(verdicts, pipeline):
    """Verdicts as comparable values: entry refs become logical positions.

    A hop holds a logical rule (a decomposition leaf compiles to the rule
    it stands for) or a synthetic dispatch entry, which has no logical
    identity and summarizes as None — exactly how the wire encodes them.
    """
    pos = {}
    for table in pipeline:
        for i, entry in enumerate(table.entries):
            pos[id(entry)] = i

    def resolve(e):
        if e is not None and id(e) not in pos:
            # dispatch: no origin, and nothing but a goto
            assert e.origin is None
            assert list(e.instructions) == [GotoTable(e.goto_table)]
        return pos.get(id(e))

    return [
        (
            tuple(v.output_ports),
            v.dropped,
            v.to_controller,
            v.table_miss,
            tuple((tid, resolve(e)) for tid, e in v.path),
        )
        for v in verdicts
    ]


def flow_counts(pipeline):
    return sorted(
        (s.table_id, s.priority, s.packets, s.bytes)
        for s in collect_flow_stats(pipeline)
    )


def add_mod(table_id=0, priority=5, port=3, **match):
    return FlowMod(
        FlowModCommand.ADD,
        table_id,
        Match(**match),
        priority=priority,
        instructions=(ApplyActions([Output(port)]),),
    )


class TestShardSequentialEquivalence:
    """The property at the heart of the engine."""

    @settings(max_examples=15, deadline=None)
    @given(
        pipeline=sts.pipelines(),
        workers=st.integers(1, 8),
        data=st.data(),
    )
    def test_any_worker_count_is_unobservable(self, pipeline, workers, data):
        n_bursts = data.draw(st.integers(1, 3))
        bursts = [
            [data.draw(sts.packets()) for _ in range(data.draw(st.integers(1, 12)))]
            for _ in range(n_bursts)
        ]
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        with ShardedESwitch(pipeline, workers=workers, backend="thread") as eng:
            for pkts in bursts:
                seq_meter, eng_meter = CycleMeter(XEON_E5_2620), CycleMeter(XEON_E5_2620)
                sv = seq.process_burst([p.copy() for p in pkts], seq_meter)
                ev = eng.process_burst([p.copy() for p in pkts], eng_meter)
                assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
                # Each gather is whole: every shard answered at the engine epoch.
                assert all(e == eng.epoch for e in eng.last_gather_epochs)
            assert flow_counts(eng.pipeline) == flow_counts(seq.pipeline)
            merged = eng.merged_burst_stats()
            assert merged.packets == sum(len(b) for b in bursts)
            assert eng.burst_stats.bursts == n_bursts

    @settings(max_examples=10, deadline=None)
    @given(pipeline=sts.pipelines(), data=st.data())
    def test_single_worker_cycles_bit_identical(self, pipeline, data):
        pkts = [data.draw(sts.packets()) for _ in range(data.draw(st.integers(1, 16)))]
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        seq_meter, eng_meter = CycleMeter(XEON_E5_2620), CycleMeter(XEON_E5_2620)
        seq.process_burst([p.copy() for p in pkts], seq_meter)
        with ShardedESwitch(pipeline, workers=1, backend="thread") as eng:
            eng.process_burst([p.copy() for p in pkts], eng_meter)
        assert eng_meter.total_cycles == seq_meter.total_cycles  # bit-exact

    def test_multiworker_cycles_equal_per_shard_replays(self):
        """The modeled total is exactly the fsum of per-core sequential runs."""
        pipeline, macs = l2.build(32)
        flows = l2.traffic(macs, 48)
        bursts = [[flows[i + 16 * b] for i in range(16)] for b in range(3)]
        workers = 3
        eng_meter = CycleMeter(XEON_E5_2620)
        with ShardedESwitch(pipeline, workers=workers, backend="thread") as eng:
            for pkts in bursts:
                eng.process_burst([p.copy() for p in pkts], eng_meter)
        replicas = [ESwitch(pickle.loads(pickle.dumps(pipeline))) for _ in range(workers)]
        meters = [CycleMeter(XEON_E5_2620) for _ in range(workers)]
        for pkts in bursts:
            lanes = [[] for _ in range(workers)]
            for pkt in pkts:
                lanes[shard_of(pkt.data, workers)].append(pkt.copy())
            for replica, meter, lane in zip(replicas, meters, lanes):
                if lane:
                    replica.process_burst(lane, meter)
        expected = math.fsum(m.total_cycles for m in meters)
        assert eng_meter.total_cycles == expected  # bit-exact


class TestEpochSync:
    """Flow-mod broadcasts: atomic per epoch, transactional on failure."""

    @settings(max_examples=10, deadline=None)
    @given(workers=st.integers(1, 8), data=st.data())
    def test_midstream_flow_mods_stay_equivalent(self, workers, data):
        pipeline, macs = l2.build(16)
        flows = l2.traffic(macs, 24)
        pkts = [flows[i] for i in range(24)]
        new_mac = 0x02_0000_BEEF
        mods_between = [
            [add_mod(0, priority=9, port=7, eth_dst=new_mac)],
            [FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=new_mac), priority=9)],
        ]
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        with ShardedESwitch(pipeline, workers=workers, backend="thread") as eng:
            for round_no, mods in enumerate(mods_between):
                sv = seq.process_burst([p.copy() for p in pkts])
                ev = eng.process_burst([p.copy() for p in pkts])
                assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
                seq.apply_flow_mods(mods)
                eng.apply_flow_mods(mods)
                assert eng.epoch == round_no + 1
                # The first burst after the barrier runs entirely on the
                # new generation — every shard gathers at the new epoch.
                sv = seq.process_burst([p.copy() for p in pkts])
                ev = eng.process_burst([p.copy() for p in pkts])
                assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
                assert eng.last_gather_epochs == tuple(
                    eng.epoch for _ in eng.last_gather_epochs
                )

    def test_failed_batch_never_broadcast(self):
        pipeline, macs = l2.build(8)
        flows = l2.traffic(macs, 8)
        pkts = [flows[i] for i in range(8)]
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        bad_batch = [
            add_mod(0, priority=4, eth_dst=0x02_0000_0042),
            FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=2), priority=-1),
        ]
        with ShardedESwitch(pipeline, workers=2, backend="thread") as eng:
            with pytest.raises(Exception):
                seq.apply_flow_mods(list(bad_batch))
            with pytest.raises(Exception):
                eng.apply_flow_mods(list(bad_batch))
            # Shadow rolled back, nothing broadcast: epoch unchanged and
            # the datapath still matches a sequential switch that also
            # rejected (and rolled back) the same batch.
            assert eng.epoch == 0
            ev = eng.process_burst([p.copy() for p in pkts])
            sv = seq.process_burst([p.copy() for p in pkts])
            assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
            assert eng.last_gather_epochs == (0,) * len(eng.last_gather_epochs)

    def test_forced_epoch_desync_is_refused(self):
        pipeline, macs = l2.build(8)
        flows = l2.traffic(macs, 4)
        with ShardedESwitch(pipeline, workers=1, backend="thread") as eng:
            eng.epoch += 1  # simulate a burst racing past the barrier
            with pytest.raises(ShardWorkerError, match="epoch desync"):
                eng.process_burst([flows[0].copy()])


class TestLifecycle:
    def test_closed_engine_refuses_work(self):
        pipeline, macs = l2.build(8)
        eng = ShardedESwitch(pipeline, workers=1, backend="thread")
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(RuntimeError):
            eng.process_burst([l2.traffic(macs, 1)[0]])
        with pytest.raises(RuntimeError):
            eng.apply_flow_mod(add_mod(0, eth_dst=1))

    def test_engine_never_mutates_caller_pipeline(self):
        pipeline, macs = l2.build(8)
        before = [len(t.entries) for t in pipeline]
        with ShardedESwitch(pipeline, workers=2, backend="thread") as eng:
            eng.apply_flow_mod(add_mod(0, priority=3, eth_dst=0x02_0000_0077))
            flows = l2.traffic(macs, 8)
            eng.process_burst([f.copy() for f in flows])
        assert [len(t.entries) for t in pipeline] == before

    def test_bad_worker_count(self):
        pipeline, _ = l2.build(8)
        with pytest.raises(ValueError):
            ShardedESwitch(pipeline, workers=0, backend="thread")
        with pytest.raises(ValueError):
            ShardedESwitch(pipeline, workers=2, backend="carrier-pigeon")


class TestProcessBackend:
    """End-to-end over real forked worker processes (the fast path)."""

    def test_gateway_equivalence_over_processes(self):
        pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
        flows = gateway.traffic(fib, 48, n_ce=2, users_per_ce=8)
        pkts = [flows[i] for i in range(48)]
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        with ShardedESwitch(pipeline, workers=2) as eng:
            if eng.backend != "process":
                pytest.skip("platform cannot fork worker processes")
            seq_meter, eng_meter = CycleMeter(XEON_E5_2620), CycleMeter(XEON_E5_2620)
            sv = seq.process_burst([p.copy() for p in pkts], seq_meter)
            ev = eng.process_burst([p.copy() for p in pkts], eng_meter)
            assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
            # Flow-mod broadcast crosses the process boundary too.
            mod = add_mod(0, priority=99, port=9, in_port=1)
            seq.apply_flow_mods([mod])
            eng.apply_flow_mods([mod])
            sv = seq.process_burst([p.copy() for p in pkts])
            ev = eng.process_burst([p.copy() for p in pkts])
            assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
            assert eng.last_gather_epochs == tuple(
                eng.epoch for _ in eng.last_gather_epochs
            )
            assert flow_counts(eng.pipeline) == flow_counts(seq.pipeline)
            merged = eng.merged_burst_stats()
            assert merged.packets == 2 * len(pkts)
            assert isinstance(merged, BurstStats)

    def test_unfaulted_run_stays_clean(self):
        """No injector armed: bursts and a flow-mod batch over two real
        process workers leave the supervisor with nothing to report — a
        fault, respawn or lost worker here is a transport bug the
        supervisor papered over."""
        pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
        flows = gateway.traffic(fib, 96, n_ce=2, users_per_ce=8)
        bursts = [flows[i:i + 16] for i in range(0, len(flows), 16)]
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        with ShardedESwitch(pipeline, workers=2, backend="process") as eng:
            for burst in bursts:
                sv = seq.process_burst([p.copy() for p in burst])
                ev = eng.process_burst([p.copy() for p in burst])
                assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
            mods = [add_mod(0, priority=99, port=9, in_port=1),
                    add_mod(0, priority=98, port=7, in_port=2)]
            seq.apply_flow_mods(mods)
            eng.apply_flow_mods(mods)
            for burst in bursts:
                sv = seq.process_burst([p.copy() for p in burst])
                ev = eng.process_burst([p.copy() for p in burst])
                assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
            assert flow_counts(eng.pipeline) == flow_counts(seq.pipeline)
            health = eng.health()
            assert health.faults_detected == 0
            assert health.respawns == 0
            assert health.live_workers == 2

    def test_workers1_process_cycles_bit_identical(self):
        """One process worker over its pipe: verdicts and modeled cycles
        equal a sequential switch's, bit for bit."""
        pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
        flows = gateway.traffic(fib, 96, n_ce=2, users_per_ce=8)
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        sm, em = CycleMeter(XEON_E5_2620), CycleMeter(XEON_E5_2620)
        with ShardedESwitch(pipeline, workers=1, backend="process") as eng:
            for i in range(0, len(flows), 16):
                burst = flows[i:i + 16]
                sv = seq.process_burst([p.copy() for p in burst], sm)
                ev = eng.process_burst([p.copy() for p in burst], em)
                assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
        assert em.total_cycles == sm.total_cycles
