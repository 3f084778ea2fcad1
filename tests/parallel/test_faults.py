"""Supervision under fire: faults must be unobservable in the answers.

The contract (ISSUE 4 tentpole): with a :class:`FaultInjector` killing,
hanging, or delaying workers at precisely chosen points, the sharded
engine still returns verdicts, modeled cycles, flow counters, and merged
burst telemetry identical to a sequential :class:`ESwitch` replay of the
same bursts — and a worker killed *inside* a flow-mod broadcast leaves
every surviving and respawned worker on the same epoch with the full
batch applied. Every worker is a forked process, so an armed ``kill`` is
a real ``os._exit(13)`` and a ``hang`` a real sleeping process.
"""

import math
import multiprocessing
import os
import pickle
import signal

import pytest

from repro.core import ESwitch
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.parallel import (
    FaultInjector,
    FaultSpec,
    ShardedESwitch,
    ShardWorkerError,
)
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.usecases import l2

from test_sharded import add_mod, flow_counts, summarize


def l2_setup(n_macs=32, n_flows=48):
    pipeline, macs = l2.build(n_macs)
    flows = l2.traffic(macs, n_flows)
    return pipeline, flows


def engine(pipeline, injector, workers=2, **kw):
    kw.setdefault("retry_backoff", 0.001)
    return ShardedESwitch(pipeline, workers=workers,
                          fault_injector=injector, **kw)


def assert_equivalent(eng, seq, bursts, counts=True):
    """Drive both switches; the shard/fault structure must not show."""
    for pkts in bursts:
        sv = seq.process_burst([p.copy() for p in pkts])
        ev = eng.process_burst([p.copy() for p in pkts])
        assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
    if counts:
        assert flow_counts(eng.pipeline) == flow_counts(seq.pipeline)


class TestKillMidBurst:
    """A worker dying inside a burst: retried, exactly-once everywhere."""

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_kill_is_unobservable(self, when):
        # "after" is the nastier placement: the sub-burst executed and
        # counted on the dead replica, but the reply (and its counter
        # deltas) never shipped — the retry must re-earn it all, once.
        pipeline, flows = l2_setup()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(FaultSpec(shard=0, cmd="burst", when=when))
        with engine(pipeline, inj) as eng:
            bursts = [flows[i * 16:(i + 1) * 16] for i in range(3)]
            assert_equivalent(eng, seq, bursts)
            health = eng.health()
            assert health.faults_detected == 1
            assert health.respawns == 1
            assert health.retries == 1
            assert health.live_workers == 2
            assert not health.degraded
            merged = eng.merged_burst_stats()
            assert merged.packets == sum(len(b) for b in bursts)

    def test_kill_both_workers_same_burst(self):
        pipeline, flows = l2_setup()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", when="before"),
            FaultSpec(shard=1, cmd="burst", when="after"),
        )
        with engine(pipeline, inj) as eng:
            assert_equivalent(eng, seq, [flows[:32], flows[32:48]])
            health = eng.health()
            assert health.faults_detected == 2
            assert health.respawns == 2
            assert health.live_workers == 2


class TestKillMidBroadcast:
    """The epoch barrier must not wedge and must not half-apply."""

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_barrier_survives_worker_death(self, when):
        # "after" means the replica applied the batch, re-fused, and died
        # holding the un-sent ack — the half-acked generation must not
        # leak; the replacement is born from the shadow at the new epoch.
        pipeline, flows = l2_setup(16, 24)
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(FaultSpec(shard=1, cmd="mods", when=when))
        mods = [add_mod(0, priority=9, port=7, eth_dst=0x02_0000_BEEF)]
        with engine(pipeline, inj) as eng:
            assert_equivalent(eng, seq, [flows[:24]], counts=False)
            seq.apply_flow_mods(mods)
            eng.apply_flow_mods(mods)
            assert eng.epoch == 1
            # Every surviving AND respawned worker sits at the new epoch
            # with the full batch applied (the acceptance criterion).
            assert eng.ping() == {0: 1, 1: 1}
            assert_equivalent(eng, seq, [flows[:24]], counts=False)
            assert all(e == 1 for e in eng.last_gather_epochs)
            health = eng.health()
            assert health.faults_detected == 1
            assert health.respawns == 1
            assert health.live_workers == 2

    def test_delete_broadcast_with_casualty(self):
        pipeline, flows = l2_setup(16, 24)
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        new_mac = 0x02_0000_BEEF
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="mods", occurrence=2, when="after")
        )
        with engine(pipeline, inj) as eng:
            for mods in (
                [add_mod(0, priority=9, port=7, eth_dst=new_mac)],
                [FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=new_mac),
                         priority=9)],
            ):
                seq.apply_flow_mods(mods)
                eng.apply_flow_mods(mods)
                assert_equivalent(eng, seq, [flows[:24]], counts=False)
            assert eng.epoch == 2
            assert eng.ping() == {0: 2, 1: 2}


class TestHangsAndDelays:
    def test_hang_past_deadline_is_a_fault(self):
        """The deadline bounds every wait of the burst, not just the hung
        shard's: the healthy shard's reply, the replacement's ready
        handshake and the retried sub-burst race it too, and on a loaded
        host those take up to ~0.3 s. So the deadline sits far above
        them, and the hang 100x past the deadline."""
        pipeline, flows = l2_setup()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", kind="hang", seconds=100.0)
        )
        with engine(pipeline, inj, rpc_deadline=1.0) as eng:
            assert_equivalent(eng, seq, [flows[:32]], counts=False)
            health = eng.health()
            assert health.faults_detected == 1
            assert health.respawns == 1
            assert health.live_workers == 2

    def test_delay_below_deadline_is_not_a_fault(self):
        pipeline, flows = l2_setup()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", kind="delay", seconds=0.01)
        )
        with engine(pipeline, inj, rpc_deadline=5.0) as eng:
            assert_equivalent(eng, seq, [flows[:32]])
            health = eng.health()
            assert health.faults_detected == 0
            assert health.respawns == 0
            assert health.retries == 0


class TestDegradation:
    def test_dead_shard_remaps_to_survivors(self):
        pipeline, flows = l2_setup()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(FaultSpec(shard=0, cmd="burst", when="before"))
        with engine(pipeline, inj, workers=3, max_respawns=0) as eng:
            bursts = [flows[i * 16:(i + 1) * 16] for i in range(3)]
            assert_equivalent(eng, seq, bursts)
            health = eng.health()
            assert health.degraded_shards == (0,)
            assert health.liveness == (False, True, True)
            assert health.live_workers == 2
            assert health.faults_detected == 1
            assert health.respawns == 0
            merged = eng.merged_burst_stats()
            assert merged.packets == sum(len(b) for b in bursts)

    def test_degraded_engine_survives_flow_mods(self):
        pipeline, flows = l2_setup(16, 24)
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(FaultSpec(shard=1, cmd="burst", when="after"))
        with engine(pipeline, inj, workers=3, max_respawns=0) as eng:
            assert_equivalent(eng, seq, [flows[:24]], counts=False)
            assert eng.health().degraded_shards == (1,)
            mods = [add_mod(0, priority=9, port=7, eth_dst=0x02_0000_BEEF)]
            seq.apply_flow_mods(mods)
            eng.apply_flow_mods(mods)
            assert eng.ping() == {0: 1, 2: 1}  # the dead slot stays dead
            assert_equivalent(eng, seq, [flows[:24]])

    def test_respawn_that_keeps_failing_degrades(self):
        pipeline, flows = l2_setup()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", when="before"),
            # Every replacement is stillborn: killed before its ready
            # handshake, so respawn burns down to degradation.
            FaultSpec(shard=0, cmd="spawn", when="before",
                      generation="respawn"),
        )
        with engine(pipeline, inj, workers=2, max_respawns=2) as eng:
            assert_equivalent(eng, seq, [flows[:32]])
            health = eng.health()
            assert health.degraded_shards == (0,)
            assert health.respawns == 2
            # original death + two stillborn replacements
            assert health.faults_detected == 3

    def test_slow_replacement_is_not_stillborn(self):
        """A replacement that takes longer to come up than one RPC may
        take is waited for, as the first spawn is: building a replica is
        not a round-trip."""
        pipeline, flows = l2_setup()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", when="before"),
            FaultSpec(shard=0, cmd="spawn", kind="delay", seconds=0.5,
                      generation="respawn"),
        )
        with engine(pipeline, inj, rpc_deadline=0.2) as eng:
            assert_equivalent(eng, seq, [flows[:32]])
            health = eng.health()
            assert health.respawns == 1
            assert health.faults_detected == 1
            assert health.degraded_shards == ()

    def test_losing_every_worker_raises(self):
        pipeline, flows = l2_setup()
        inj = FaultInjector(FaultSpec(shard=0, cmd="burst", when="before"))
        with engine(pipeline, inj, workers=1, max_respawns=0) as eng:
            with pytest.raises(ShardWorkerError, match="cannot degrade"):
                eng.process_burst([flows[0].copy()])


class TestMeteringExactness:
    def test_only_the_successful_attempt_is_absorbed(self):
        """A killed attempt's cycles never reach the caller's meter.

        With one worker, kill-after-execute on the second burst: the
        replica ran the burst and metered it, but the reply was lost.
        The replacement (fresh per-core meter — a freshly booted core)
        re-runs it. Expected total = burst 1 on the original replica +
        bursts 2 and 3 on a fresh replica, absorbed per-burst in order —
        bit-exact, with the killed attempt contributing nothing.
        """
        pipeline, flows = l2_setup()
        bursts = [flows[i * 16:(i + 1) * 16] for i in range(3)]
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", occurrence=2, when="after")
        )
        eng_meter = CycleMeter(XEON_E5_2620)
        with engine(pipeline, inj, workers=1, max_respawns=1) as eng:
            for pkts in bursts:
                eng.process_burst([p.copy() for p in pkts], eng_meter)
            assert eng.health().respawns == 1

        gen0 = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        gen1 = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        m0, m1 = CycleMeter(XEON_E5_2620), CycleMeter(XEON_E5_2620)
        expected = CycleMeter(XEON_E5_2620)
        plan = [(gen0, m0, bursts[0]), (gen1, m1, bursts[1]),
                (gen1, m1, bursts[2])]
        for replica, meter, pkts in plan:
            c0, l0 = meter.total_cycles, meter.cache.stats.llc_misses
            replica.process_burst([p.copy() for p in pkts], meter)
            expected.absorb(
                math.fsum([meter.total_cycles - c0]),
                packets=len(pkts),
                llc_misses=meter.cache.stats.llc_misses - l0,
            )
        assert eng_meter.total_cycles == expected.total_cycles  # bit-exact


class TestProcessBackend:
    """Real forked processes: os._exit(13) mid-run, engine unfazed."""

    def test_process_worker_kill_and_broadcast(self):
        pipeline, flows = l2_setup(16, 32)
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=1, cmd="burst", when="after"),
            FaultSpec(shard=0, cmd="mods", when="after"),
        )
        with ShardedESwitch(pipeline, workers=2, fault_injector=inj,
                            retry_backoff=0.001, rpc_deadline=30.0) as eng:
            assert_equivalent(eng, seq, [flows[:32]], counts=False)
            mods = [add_mod(0, priority=9, port=7, eth_dst=0x02_0000_BEEF)]
            seq.apply_flow_mods(mods)
            eng.apply_flow_mods(mods)
            assert eng.ping() == {0: 1, 1: 1}
            assert_equivalent(eng, seq, [flows[:32]])
            health = eng.health()
            assert health.faults_detected == 2
            assert health.respawns == 2
            assert health.live_workers == 2

    def test_ping_survives_the_death_it_probes_for(self):
        """SIGKILL a worker behind the engine's back: the probe's *send*
        is the first thing to fail, and must be supervised like any
        other fault — not escape as a BrokenPipeError."""
        pipeline, _flows = l2_setup(16, 32)
        with ShardedESwitch(pipeline, workers=2, retry_backoff=0.001) as eng:
            victim = eng._slots[1].shard.proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            assert eng.ping() == {0: 0}  # proven live right now
            health = eng.health()
            assert health.faults_detected == 1
            assert health.respawns == 1
            assert eng.ping() == {0: 0, 1: 0}  # the replacement serves


def shard_children():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-shard-")]


#: case -> (planned fault or None, engine knobs, expected health fields)
ORPHAN_CASES = {
    "clean": (None, {}, {"faults_detected": 0, "respawns": 0}),
    "killed-respawned": (
        FaultSpec(shard=0, cmd="burst"), {},
        {"faults_detected": 1, "respawns": 1},
    ),
    "hung-past-deadline": (
        FaultSpec(shard=0, cmd="burst", kind="hang", seconds=100.0),
        {"rpc_deadline": 1.0},
        {"faults_detected": 1, "respawns": 1},
    ),
    "degraded": (
        FaultSpec(shard=0, cmd="burst"), {"max_respawns": 0},
        {"faults_detected": 1, "degraded_shards": (0,)},
    ),
}


class TestNoOrphans:
    @pytest.mark.parametrize("case", sorted(ORPHAN_CASES))
    def test_close_leaves_no_shard_worker(self, case):
        """Every worker an engine forked — serving, reaped after a kill,
        put down after a hang, or given up on — is gone once ``close``
        returns."""
        spec, knobs, want = ORPHAN_CASES[case]
        pipeline, flows = l2_setup(16, 32)
        inj = FaultInjector(spec) if spec is not None else None
        eng = engine(pipeline, inj, **knobs)
        try:
            eng.process_burst([p.copy() for p in flows])
            health = eng.health()
            assert {k: getattr(health, k) for k in want} == want
            assert shard_children()  # the survivors are still serving
        finally:
            eng.close()
        assert shard_children() == []


class TestFaultSpecValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(shard=0, cmd="teleport")
        with pytest.raises(ValueError):
            FaultSpec(shard=0, kind="maim")
        with pytest.raises(ValueError):
            FaultSpec(shard=0, when="during")
        with pytest.raises(ValueError):
            FaultSpec(shard=0, occurrence=0)
        with pytest.raises(ValueError):
            FaultSpec(shard=0, seconds=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(shard=0, generation="sometimes")

    def test_generation_selectors(self):
        assert FaultSpec(shard=0).applies_to_generation(0)
        assert not FaultSpec(shard=0).applies_to_generation(1)
        respawn = FaultSpec(shard=0, generation="respawn")
        assert not respawn.applies_to_generation(0)
        assert respawn.applies_to_generation(1)
        assert respawn.applies_to_generation(3)
        every = FaultSpec(shard=0, generation=None)
        assert every.applies_to_generation(0)
        assert every.applies_to_generation(2)

    def test_arm_filters_by_shard_and_generation(self):
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst"),
            FaultSpec(shard=1, cmd="mods"),
            FaultSpec(shard=0, cmd="spawn", generation="respawn"),
        )
        assert len(inj.arm(0, 0)._specs) == 1
        assert len(inj.arm(0, 1)._specs) == 1
        assert len(inj.arm(1, 0)._specs) == 1
        assert len(inj.arm(2, 0)._specs) == 0


class TestHealthSnapshot:
    def test_healthy_engine_health(self):
        pipeline, flows = l2_setup(8, 8)
        with ShardedESwitch(pipeline, workers=2) as eng:
            eng.process_burst([p.copy() for p in flows[:8]])
            health = eng.health()
            assert health.workers == 2
            assert health.live_workers == 2
            assert health.liveness == (True, True)
            assert health.faults_detected == 0
            assert not health.degraded
            d = health.as_dict()
            assert d["live_workers"] == 2 and d["degraded_shards"] == []
            assert d["epoch"] == 0

    def test_supervision_knob_validation(self):
        pipeline, _ = l2_setup(8, 8)
        with pytest.raises(ValueError):
            ShardedESwitch(pipeline, workers=1, rpc_deadline=0.0)
        with pytest.raises(ValueError):
            ShardedESwitch(pipeline, workers=1, max_retries=-1)
