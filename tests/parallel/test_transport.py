"""The transport contract: one wire, zero pickle per burst.

* a storm of bursts crosses each worker's pipe with **zero** pickle
  calls on either side of the datapath, and every message on the pipe
  is a frame (pickle remains only for the one-time snapshot at spawn
  and rare control messages);
* shards are shared-nothing: caller packets are never mutated.
"""

import multiprocessing
import pickle

from repro.parallel import ShardedESwitch
from repro.usecases import gateway


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
    call time, so patching the class intercepts every pipe message).

    The count lives in shared memory and runs only while ``armed``: a
    tap installed before the engine forks counts the calls of every
    worker too."""

    def __init__(self, monkeypatch):
        from multiprocessing import reduction

        self._calls = multiprocessing.RawValue("i", 0)
        self._armed = multiprocessing.RawValue("b", 0)

        def count(fn):
            def wrapped(*a, **k):
                if self._armed.value:
                    self._calls.value += 1
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

    @property
    def calls(self) -> int:
        return self._calls.value

    def arm(self) -> None:
        self._armed.value = 1


class TestZeroPickleDatapath:
    def test_burst_storm_never_pickles(self, monkeypatch):
        """Both halves of the pipe conversation stay pickle-free per
        burst: the tap is in place before the engine forks, so the
        scatter and gather in this process and each worker's loop all
        count into it."""
        pipeline, pkts = scenario()
        tap = _PickleTap(monkeypatch)
        with ShardedESwitch(pipeline, workers=2) as eng:
            eng.process_burst([p.copy() for p in pkts[:16]])  # warm lanes
            tap.arm()
            for burst in bursts_of(pkts):
                eng.process_burst([p.copy() for p in burst])
            assert tap.calls == 0, (
                f"{tap.calls} pickle call(s) on the per-burst datapath"
            )
            eng.ping()
            assert tap.calls > 0  # the tap itself works: control pickles

    def test_process_engine_side_never_pickles(self, monkeypatch):
        """A tap installed after the fork sees the engine half of the
        pipe conversation (this process) alone: it stays pickle-free
        per burst too."""
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2) as eng:
            eng.process_burst([p.copy() for p in pkts[:16]])  # warm lanes
            tap = _PickleTap(monkeypatch)
            tap.arm()
            for burst in bursts_of(pkts):
                eng.process_burst([p.copy() for p in burst])
            assert tap.calls == 0, (
                f"{tap.calls} pickle call(s) on the engine's per-burst path"
            )
            eng.ping()
            assert tap.calls > 0  # the tap itself works: control pickles

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
        with ShardedESwitch(pipeline, workers=2) as eng:
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


class TestCallerPackets:
    def test_caller_packets_never_mutated(self):
        """Replicas rewrite headers on their own copies of each packet:
        the caller's packets come back byte-identical."""
        pipeline, pkts = scenario()
        with ShardedESwitch(pipeline, workers=2) as eng:
            originals = [bytes(p.data) for p in pkts]
            for burst in bursts_of(pkts):
                eng.process_burst(burst)   # no defensive copies by caller
            assert [bytes(p.data) for p in pkts] == originals
