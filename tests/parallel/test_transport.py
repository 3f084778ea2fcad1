"""The transport contract: one wire, zero pickle per burst, any carrier.

* a storm of bursts crosses the shard boundary with **zero** pickle
  calls on the datapath, on every backend and every carrier (pickle
  remains only for the one-time snapshot at spawn and rare control
  messages);
* the carrier is the platform's business: with shared memory taken
  away the same engine runs over its connection, bit-identical in
  verdicts, counters, and modeled cycles;
* the double-buffered path (``submit_burst``/``collect``) returns
  exactly what the sequential path returns, in order — through an
  oversize frame that cannot ride the ring, and through a full ring;
* shards are shared-nothing whatever carries the frames: caller packets
  are never mutated.
"""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.core import ESwitch
from repro.parallel import ShardedESwitch, frames, rings
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.usecases import gateway

from test_sharded import add_mod, flow_counts, summarize

needs_shm = pytest.mark.skipif(
    not rings.shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


def scenario():
    pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
    pkts = gateway.traffic(fib, 96, n_ce=2, users_per_ce=8)
    return pipeline, pkts


def bursts_of(pkts, size=16):
    return [pkts[i:i + size] for i in range(0, len(pkts), size)]


def frame_bytes(pkts):
    return len(frames.request_from_packets(0, 0, "null", pkts))


class _PickleTap:
    """Counts every route into pickle the transports can take: the
    stdlib module functions, and ``multiprocessing.reduction.
    ForkingPickler`` — the class ``Connection.send``/``recv`` actually
    ride (its ``dumps``/``loads`` class attributes are looked up at
    call time, so patching the class intercepts every pipe message)."""

    def __init__(self, monkeypatch):
        from multiprocessing import reduction

        self.calls = 0

        def count(fn):
            def wrapped(*a, **k):
                self.calls += 1
                return fn(*a, **k)
            return wrapped

        monkeypatch.setattr(pickle, "dumps", count(pickle.dumps))
        monkeypatch.setattr(pickle, "loads", count(pickle.loads))
        monkeypatch.setattr(
            reduction.ForkingPickler, "dumps",
            count(reduction.ForkingPickler.dumps),
        )
        monkeypatch.setattr(
            reduction.ForkingPickler, "loads",
            staticmethod(count(reduction.ForkingPickler.loads)),
        )


def no_shared_memory(monkeypatch):
    monkeypatch.setattr(rings, "shared_memory_available", lambda: False)


def drive(eng, pkts, meter=None):
    """Bursts, a flow-mod, more bursts; everything a carrier could skew."""
    sums = []
    args = () if meter is None else (meter,)
    for burst in bursts_of(pkts):
        verdicts = eng.process_burst([p.copy() for p in burst], *args)
        sums.append(summarize(verdicts, eng.pipeline))
    # An epoch barrier mid-run: access-port traffic now leaves on port 9.
    eng.apply_flow_mod(add_mod(0, priority=99, port=9, in_port=1))
    for burst in bursts_of(pkts, 24):
        verdicts = eng.process_burst([p.copy() for p in burst], *args)
        sums.append(summarize(verdicts, eng.pipeline))
    eng.sync_flow_stats()
    return sums, flow_counts(eng.pipeline)


class TestZeroPickleDatapath:
    def _storm(self, monkeypatch, backend, transport):
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend=backend) as eng:
            assert eng.transport == transport
            eng.process_burst([p.copy() for p in pkts[:16]])  # warm lanes
            tap = _PickleTap(monkeypatch)
            for burst in bursts_of(pkts):
                eng.process_burst([p.copy() for p in burst])
            assert tap.calls == 0, (
                f"{tap.calls} pickle call(s) on the per-burst datapath"
            )
            eng.ping()
            assert tap.calls > 0  # the tap itself works: control pickles

    def test_burst_storm_never_pickles(self, monkeypatch):
        """The thread backend puts both halves of the conversation in
        this process: if either the scatter or the gather side touched
        pickle, the tap would see it."""
        self._storm(monkeypatch, "thread", "pipe")

    @needs_shm
    def test_process_engine_side_never_pickles(self, monkeypatch):
        """Process backend: the engine half of the ring conversation
        (this process) stays pickle-free per burst too."""
        self._storm(monkeypatch, "process", "ring")

    def test_frames_on_the_connection_never_pickle(self, monkeypatch):
        """Without shared memory a process shard's frames ride its pipe
        — as bytes, not as pickled objects."""
        no_shared_memory(monkeypatch)
        self._storm(monkeypatch, "process", "pipe")


class TestTransportParity:
    @needs_shm
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_ring_equals_pipe(self, monkeypatch, backend):
        """Carrier parity without a knob: take shared memory away and
        the engine runs over its connection, same answers."""
        pipeline, pkts = scenario()
        results = {}
        for shm in (True, False):
            if not shm:
                no_shared_memory(monkeypatch)
            meter = CycleMeter(XEON_E5_2620)
            with ShardedESwitch(pickle.loads(pickle.dumps(pipeline)),
                                workers=2, backend=backend) as eng:
                if not shm:
                    assert eng.transport == "pipe"
                elif backend == "process":
                    assert eng.transport == "ring"
                results[shm] = (drive(eng, pkts, meter), meter.total_cycles)
        assert results[True] == results[False]

    @needs_shm
    def test_workers1_ring_matches_sequential(self):
        pipeline, pkts = scenario()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        sm = CycleMeter(XEON_E5_2620)
        em = CycleMeter(XEON_E5_2620)
        with ShardedESwitch(pipeline, workers=1, backend="process") as eng:
            assert eng.transport == "ring"
            for burst in bursts_of(pkts):
                sv = seq.process_burst([p.copy() for p in burst], sm)
                ev = eng.process_burst([p.copy() for p in burst], em)
                assert summarize(ev, eng.pipeline) == summarize(sv, seq.pipeline)
            assert em.total_cycles == sm.total_cycles  # bit-exact, Fraction


class TestDoubleBuffer:
    @needs_shm
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_submit_collect_matches_sequential(self, backend):
        """Depth-2 pipelining (submit N+1 before collecting N) returns
        the same verdicts in the same order as one-at-a-time."""
        pipeline, pkts = scenario()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        want = [
            summarize(seq.process_burst([p.copy() for p in b]), seq.pipeline)
            for b in bursts_of(pkts)
        ]
        with ShardedESwitch(pipeline, workers=2, backend=backend) as eng:
            handles = []
            got = []
            for burst in bursts_of(pkts):
                handle = eng.submit_burst([p.copy() for p in burst])
                handles.append(handle)
                if len(handles) > 1:  # keep two in flight
                    got.append(summarize(
                        eng.collect(handles.pop(0)), eng.pipeline
                    ))
            while handles:
                got.append(summarize(eng.collect(handles.pop(0)), eng.pipeline))
            assert got == want
            eng.sync_flow_stats()
        assert flow_counts(eng.pipeline) == flow_counts(seq.pipeline)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_oversize_burst_keeps_its_place(self, backend):
        """A frame past the ring's margin rides the connection, between
        two ordinary bursts that ride the ring — and still arrives
        second."""
        pipeline, pkts = scenario()
        big = []
        for i in range(200):
            pkt = pkts[i % len(pkts)].copy()
            pkt.data.extend(bytes(1500 - len(pkt.data)))
            big.append(pkt)
        bursts = [pkts[:16], big, pkts[16:32]]
        assert frame_bytes(big) > rings.DEFAULT_CAPACITY // 4
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        want = [
            summarize(seq.process_burst([p.copy() for p in b]), seq.pipeline)
            for b in bursts
        ]
        with ShardedESwitch(pipeline, workers=1, backend=backend) as eng:
            handles = [eng.submit_burst([p.copy() for p in b]) for b in bursts]
            got = [summarize(eng.collect(h), eng.pipeline) for h in handles]
            assert got == want
            assert eng.health().faults_detected == 0

    @needs_shm
    def test_full_ring_is_backpressure_not_a_fault(self):
        """1 500 submits, no collect: the request ring fills long before
        the last one. The engine takes its oldest reply and carries on —
        the healthy worker is not reaped, nothing re-executes."""
        pipeline, pkts = scenario()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        bursts = [pkts[(i * 16) % 96:(i * 16) % 96 + 16] for i in range(1500)]
        with ShardedESwitch(pipeline, workers=1, backend="process") as eng:
            assert eng.transport == "ring"
            handles = [eng.submit_burst([p.copy() for p in b]) for b in bursts]
            for handle, burst in zip(handles, bursts):
                want = seq.process_burst([p.copy() for p in burst])
                assert (summarize(eng.collect(handle), eng.pipeline)
                        == summarize(want, seq.pipeline))
            health = eng.health()
            assert (health.faults_detected, health.respawns, health.retries) \
                == (0, 0, 0)
            eng.sync_flow_stats()
        assert flow_counts(eng.pipeline) == flow_counts(seq.pipeline)

    def test_collect_is_idempotent_and_out_of_order(self):
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend="thread") as eng:
            h1 = eng.submit_burst([p.copy() for p in pkts[:16]])
            h2 = eng.submit_burst([p.copy() for p in pkts[16:32]])
            v2 = eng.collect(h2)      # out of order: forces FIFO drain of h1
            v1 = eng.collect(h1)
            assert eng.collect(h1) is v1   # idempotent
            assert eng.collect(h2) is v2
            assert len(v1) == 16 and len(v2) == 16


class TestThreadByReference:
    def test_caller_packets_never_mutated(self):
        """A thread worker shares the caller's address space and runs
        packets through replicas that rewrite headers — the caller's own
        packets must come back byte-identical anyway."""
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend="thread") as eng:
            originals = [bytes(p.data) for p in pkts]
            for burst in bursts_of(pkts):
                eng.process_burst(burst)   # no defensive copies by caller
            assert [bytes(p.data) for p in pkts] == originals

    def test_thread_matches_process_backend(self):
        pipeline, pkts = scenario()
        results = {}
        for backend in ("thread", "process"):
            eng = ShardedESwitch(
                pickle.loads(pickle.dumps(pipeline)), workers=2,
                backend=backend,
            )
            try:
                meter = CycleMeter(XEON_E5_2620)
                sums = [
                    summarize(
                        eng.process_burst([p.copy() for p in b], meter),
                        eng.pipeline,
                    )
                    for b in bursts_of(pkts)
                ]
                results[backend] = (sums, meter.total_cycles)
            finally:
                eng.close()
        assert results["thread"] == results["process"]


def _numbered_frame(i: int) -> bytes:
    return i.to_bytes(8, "little") * 8


def _produce(names, count):
    """Forked producer: ``count`` numbered 64-byte frames, spinning on a
    full ring (the consumer's acks are the only thing it waits for)."""
    ring = rings.attach_pair(names, untrack=False).req
    for i in range(count):
        frame = _numbered_frame(i)
        while True:
            try:
                ring.push(frame)
                break
            except rings.RingFull:
                pass
    ring.close()


@needs_shm
class TestCursorPublication:
    """The cursors are the only words both processes write and read
    concurrently; a cursor that can be *seen* mid-store breaks the ring
    silently — the stale record one lap behind is a well-formed frame."""

    FRAMES = 300_000
    CAPACITY = 16 << 10
    DEADLINE_S = 120.0

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="needs the producer and the consumer on separate CPUs",
    )
    def test_two_process_sequence_is_exact(self):
        pair = rings.RingPair.create(self.CAPACITY)
        producer = multiprocessing.get_context("fork").Process(
            target=_produce, args=(pair.names, self.FRAMES), daemon=True
        )
        producer.start()
        try:
            ring = pair.req
            deadline = time.monotonic() + self.DEADLINE_S
            expected = 0
            while expected < self.FRAMES:
                frame = ring.pop()
                if frame is None:
                    ring.commit_reads()
                    assert time.monotonic() < deadline, (
                        f"stalled at frame {expected} of {self.FRAMES}"
                    )
                    continue
                assert frame == _numbered_frame(expected), (
                    f"expected frame {expected}, popped "
                    f"{int.from_bytes(frame[:8], 'little')} "
                    f"(a lap is {self.CAPACITY // 68} frames)"
                )
                expected += 1
            producer.join(10.0)
            assert producer.exitcode == 0
        finally:
            if producer.is_alive():
                producer.kill()
                producer.join(10.0)
            pair.destroy()

    def test_cursor_that_moved_backwards_is_not_yet(self):
        pair = rings.RingPair.create(4096)
        try:
            ring = pair.req
            shared = ring._seg.buf[:128].cast("Q")
            for i in range(3):
                ring.push(_numbered_frame(i))
            assert [ring.pop() for _ in range(3)] == [
                _numbered_frame(i) for i in range(3)
            ]
            ring.commit_reads()
            head = shared[0]
            # A head behind the consumer's own tail is not a record.
            shared[0] = 0
            assert not ring.readable()
            assert ring.pop() is None
            shared[0] = head
            # A tail behind the one the producer already saw frees nothing.
            big = bytes(ring.capacity // 4 - 4)
            pushed = 0
            with pytest.raises(rings.RingFull):
                while True:
                    ring.push(big)
                    pushed += 1
            assert ring.pop() == big
            ring.commit_reads()
            released = shared[8]
            shared[8] = 0
            with pytest.raises(rings.RingFull):
                ring.push(big)
            shared[8] = released
            ring.push(big)
            assert [ring.pop() for _ in range(pushed)] == [big] * pushed
            shared.release()
        finally:
            pair.destroy()
