"""The transport contract: one wire, zero pickle per burst, either backend.

* a storm of bursts crosses the shard boundary with **zero** pickle
  calls on the datapath, over a thread's queue and a process's pipe
  (pickle remains only for the one-time snapshot at spawn and rare
  control messages);
* shards are shared-nothing whatever carries the frames: caller packets
  are never mutated, and the thread and process backends agree in
  verdicts and modeled cycles;
* a deadline means the same on both carriers: a thread's queue end,
  like a pipe's ``select``, refuses a message sent after it.
"""

import pickle
import queue

from repro.parallel import ShardedESwitch, channel
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.usecases import gateway

from test_sharded import summarize


def scenario():
    pipeline, fib = gateway.build(n_ce=2, users_per_ce=8, n_prefixes=16)
    pkts = gateway.traffic(fib, 96, n_ce=2, users_per_ce=8)
    return pipeline, pkts


def bursts_of(pkts, size=16):
    return [pkts[i:i + size] for i in range(0, len(pkts), size)]


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


class TestZeroPickleDatapath:
    def _storm(self, monkeypatch, backend):
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend=backend) as eng:
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
        self._storm(monkeypatch, "thread")

    def test_process_engine_side_never_pickles(self, monkeypatch):
        """Process backend: the engine half of the pipe conversation
        (this process) stays pickle-free per burst too."""
        self._storm(monkeypatch, "process")

    def test_frames_on_the_connection_never_pickle(self, monkeypatch):
        """A process shard's bursts ride its pipe as frames: every
        message the engine sends or takes during a storm carries the
        frame magic, none is a pickled object."""
        from multiprocessing.connection import Connection

        from repro.parallel import frames

        magic = frames.MAGIC.to_bytes(2, "little")
        seen = []

        def tap(fn, of_result):
            def wrapped(self, *a, **k):
                out = fn(self, *a, **k)
                seen.append(bytes((out if of_result else a[0])[:2]))
                return out
            return wrapped

        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2, backend="process") as eng:
            eng.process_burst([p.copy() for p in pkts[:16]])  # warm lanes
            monkeypatch.setattr(Connection, "send_bytes",
                                tap(Connection.send_bytes, False))
            monkeypatch.setattr(Connection, "recv_bytes",
                                tap(Connection.recv_bytes, True))
            for burst in bursts_of(pkts):
                eng.process_burst([p.copy() for p in burst])
            monkeypatch.undo()
        assert seen, "the tap saw no traffic on the connection"
        assert all(head == magic for head in seen), (
            f"{sum(h != magic for h in seen)} non-frame message(s) per burst"
        )


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


class TestQueueDeadline:
    def test_a_message_sent_past_the_deadline_is_late(self, monkeypatch):
        """The waiting thread wakes at t=1.0, long after its 50 ms
        deadline: the message sent at t=0.01 is on time, the one sent at
        t=0.5 is late and stays queued for the next poll."""
        now = [0.0]
        monkeypatch.setattr(channel, "monotonic", lambda: now[0])
        sends = iter([(0.01, b"early"), (0.5, b"late")])

        class Starved(queue.Queue):
            def get(self, block=True, timeout=None):
                if self.empty():  # the peer sends while this thread sleeps
                    now[0], buf = next(sends)
                    far.send_bytes(buf)
                    now[0] = 1.0
                return super().get(block, timeout)

        inbox = Starved()
        near = channel._QueueEnd(inbox, queue.Queue())
        far = channel._QueueEnd(queue.Queue(), inbox)
        now[0] = 0.0
        assert near.poll(0.05)
        assert near.recv_bytes() == b"early"
        now[0] = 0.0
        assert not near.poll(0.05)
        assert near.poll(0.0)  # at t=1.0 it has long arrived
        assert near.recv_bytes() == b"late"
