"""Shared-memory ring mechanics and teardown hygiene.

The ring is the persistent per-worker channel (ISSUE 7): a SPSC byte
ring over one ``multiprocessing.shared_memory`` segment, sequence-number
cursors, wrap marker, batched read-acks. These tests exercise the
mechanics the engine relies on — wraparound, backpressure via
:meth:`Ring.fits`, typed errors — and the hygiene rule: **segments never
outlive their owner**, whether the engine closes cleanly or a worker is
killed and respawned mid-run.
"""

import pickle

import pytest

from multiprocessing import shared_memory

from repro.core import ESwitch
from repro.parallel import (
    FaultInjector,
    FaultSpec,
    ShardedESwitch,
    rings,
)
from repro.usecases import gateway

from test_sharded import summarize

pytestmark = pytest.mark.skipif(
    not rings.shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


def make_pair(capacity=4096):
    pair = rings.RingPair.create(capacity)
    return pair


class TestRingMechanics:
    def test_byte_round_trip(self):
        pair = make_pair()
        try:
            ring = pair.req
            ring.push(b"hello")
            ring.push(b"world!!")
            assert ring.pop() == b"hello"
            assert ring.pop() == b"world!!"
            ring.commit_reads()
            assert not ring.readable()
        finally:
            pair.destroy()

    def test_wraparound_many_records(self):
        """Thousands of variable-size records through a small ring —
        every wrap boundary crossed, every record intact."""
        pair = make_pair(capacity=2048)
        try:
            ring = pair.req
            for i in range(5000):
                frame = bytes([i % 251]) * (1 + (i * 37) % 300)
                assert ring.fits(len(frame))
                ring.push(frame)
                got = ring.pop()
                ring.commit_reads()
                assert got == frame, f"record {i} damaged across wrap"
        finally:
            pair.destroy()

    def test_interleaved_backlog_across_wrap(self):
        """A reader lagging the writer by a few records stays coherent
        through wrap points (the engine's depth-2 pipelining shape)."""
        pair = make_pair(capacity=4096)
        try:
            ring = pair.req
            sent = []
            seq = 0
            for round_ in range(400):
                while len(sent) < 3:
                    frame = seq.to_bytes(4, "little") * (5 + seq % 40)
                    if not ring.fits(len(frame)):
                        break
                    ring.push(frame)
                    sent.append(frame)
                    seq += 1
                assert ring.pop() == sent.pop(0)
                ring.commit_reads()
        finally:
            pair.destroy()

    def test_fits_is_static_and_push_is_occupancy_checked(self):
        """``fits`` answers the *static* question (could this frame ever
        fit, with margin for the engine's two-in-flight worst case);
        ``push`` enforces live occupancy with :class:`RingFull`."""
        pair = make_pair(capacity=1024)
        try:
            ring = pair.req
            big = b"x" * 2048
            assert not ring.fits(len(big))       # never fits: reject early
            with pytest.raises(rings.RingFull):
                ring.push(big)
            frame = b"y" * 64
            assert ring.fits(len(frame))          # statically fine...
            pushed = 0
            with pytest.raises(rings.RingFull):   # ...until occupancy says no
                for _ in range(1024):
                    ring.push(frame)
                    pushed += 1
            assert pushed > 0
            assert ring.fits(len(frame))          # static answer unchanged
            # Draining and acking restores push capacity.
            while ring.readable():
                ring.pop()
            ring.commit_reads()
            ring.push(frame)
        finally:
            pair.destroy()

    def test_closed_ring_raises_typed(self):
        pair = make_pair()
        pair.destroy()
        with pytest.raises(rings.RingClosed):
            pair.req.push(b"late")
        with pytest.raises(rings.RingClosed):
            pair.req.pop()

    def test_attach_sees_writes(self):
        pair = make_pair()
        try:
            peer = rings.attach_pair(pair.names, untrack=True)
            try:
                pair.req.push(b"cross-mapping")
                assert peer.req.pop() == b"cross-mapping"
                peer.req.commit_reads()
                assert pair.req.fits(pair.req.capacity // 8)
            finally:
                peer.close()
        finally:
            pair.destroy()

    def test_destroy_is_idempotent_and_unlinks(self):
        pair = make_pair()
        names = pair.names
        pair.destroy()
        pair.destroy()  # second destroy is a no-op, not an error
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


def _segment_gone(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


def _shard_ring_names(eng) -> "list[str]":
    return [name for slot in eng._slots
            if slot.shard is not None and slot.shard.rings is not None
            for name in slot.shard.rings.names]


class TestTeardownHygiene:
    def _scenario(self):
        pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
        pkts = gateway.traffic(fib, 48, n_ce=2, users_per_ce=8)
        return pipeline, pkts

    def test_close_unlinks_all_segments(self):
        pipeline, pkts = self._scenario()
        eng = ShardedESwitch(pipeline, workers=2, backend="process")
        names = _shard_ring_names(eng)
        assert len(names) == 4  # two segments per worker
        eng.process_burst(pkts)
        eng.close()
        assert all(_segment_gone(n) for n in names)

    def test_respawn_does_not_accumulate_segments(self):
        """Kill a ring-transport worker repeatedly: each respawn must
        unlink the dead generation's segments before creating its own."""
        pipeline, pkts = self._scenario()
        seq = ESwitch(pickle.loads(pickle.dumps(pipeline)))
        inj = FaultInjector(
            FaultSpec(shard=0, cmd="burst", when="before", generation=0),
            FaultSpec(shard=0, cmd="burst", when="before", generation=1),
        )
        eng = ShardedESwitch(pipeline, workers=2, backend="process",
                             fault_injector=inj, retry_backoff=0.001)
        try:
            generations = [set(_shard_ring_names(eng))]
            for i in range(4):
                burst = [p.copy() for p in pkts[i * 12:(i + 1) * 12]]
                want = summarize(
                    seq.process_burst([p.copy() for p in burst]),
                    seq.pipeline,
                )
                got = summarize(eng.process_burst(burst), eng.pipeline)
                assert got == want
                generations.append(set(_shard_ring_names(eng)))
            assert eng.health().respawns == 2
            assert not eng.health().degraded
            live = generations[-1]
            retired = set().union(*generations[:-1]) - live
            assert retired, "respawns should have rotated ring segments"
            assert all(_segment_gone(n) for n in retired)
        finally:
            eng.close()
        assert all(_segment_gone(n) for n in set().union(*generations))
