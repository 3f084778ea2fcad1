"""The shard worker: one datapath replica, one channel.

Each worker owns a **private** fused :class:`ESwitch` replica built from
a pickled pipeline snapshot — shared-nothing by construction, whether
the worker is a forked process or (fallback) a thread. The loop serves
what arrives on its :class:`~repro.parallel.channel.Channel`:

a burst request **frame** (:mod:`repro.parallel.frames`)
    Run one RSS sub-burst through the replica. ``mode`` is ``"null"``
    (functional, :data:`NULL_METER`) or ``"cycle"`` (the worker's
    persistent per-core :class:`CycleMeter` — private caches, exactly
    the per-core meters :func:`repro.traffic.measure_multicore` models).
    The reply frame carries the verdicts, path hops named by rule id,
    the meter deltas (no cycles in null mode) and the counters of every
    rule the burst touched, which the worker then zeroes (see
    :func:`repro.parallel.wire.counter_deltas` — what makes engine-side
    flow stats exact across worker deaths).
    It echoes the worker's *applied* epoch so the engine can prove no
    gathered burst mixed pipeline generations, and the engine's ``seq``
    tag so the gather can pair each reply with its request.

``("mods", epoch, flow_mods)``
    Apply a flow-mod batch transactionally, then **stand the new
    generation up** (flush deferred rebuilds, re-fuse) before acking —
    the ack is the worker's half of the epoch barrier, so by the time
    the engine releases the next burst every replica is already serving
    the new fused datapath.

``("ping",)`` / ``("stop",)``
    Housekeeping; ``ping`` echoes the applied epoch (the engine's
    deadline-bounded liveness probe).

Any exception is caught and reported as ``("error", message, traceback)``
— the loop keeps serving, the engine decides whether to raise.

Supervision hooks: a worker is spawned with its shard ``index``, a
``start_epoch`` (a respawned replacement is forked from the engine's
shadow snapshot *at the current epoch*, so it never replays history;
whichever snapshot it boots from, it zeroes the counters in it, which
are the shadow's to keep),
and an optional :class:`~repro.parallel.faults.FaultInjector` whose
armed plan fires deterministically before/after each command — a
``kill`` there ends the worker the way a crash would: process workers
``os._exit`` (no cleanup, no reply), thread workers close their channel
and return, and in both cases the engine observes a dead channel.
"""

from __future__ import annotations

import os
import pickle
import traceback

from repro.core.analysis import CompileConfig
from repro.core.eswitch import ESwitch
from repro.parallel import frames
from repro.parallel.channel import Channel, ShardWorkerError
from repro.parallel.faults import NO_FAULTS, WorkerKilled
from repro.parallel.wire import EntryIndexCache, counter_deltas, encode_verdicts
from repro.simcpu.recorder import CycleMeter, NULL_METER


def _die(chan: Channel) -> None:
    """End this worker the way a crash would (no reply, dead channel)."""
    if chan.in_process:
        chan.close()  # the engine's next recv on its end sees EOF
        return
    os._exit(13)  # a process worker dies for real: no atexit, no flush


def _zero_counters(entries) -> None:
    for entry in entries:
        if entry is not None:
            entry.packets = entry.bytes = 0


def _run_burst(switch, meter, cache, pkts, mode):
    """Execute one sub-burst; returns the reply frame's body (the
    arguments of :func:`frames.reply_from_wires` after epoch and seq)."""
    if mode == "null":
        verdicts = switch.process_burst(pkts, NULL_METER)
        cycles = None
        llc = 0
    else:
        cycles0 = meter.total_cycles
        llc0 = meter.cache.stats.llc_misses
        verdicts = switch.process_burst(pkts, meter)
        cycles = meter.total_cycles - cycles0
        llc = meter.cache.stats.llc_misses - llc0
    deltas = counter_deltas(verdicts, cache)
    _zero_counters(entry for v in verdicts for _tid, entry in v.path)
    return cycles, len(pkts), llc, encode_verdicts(verdicts, cache), deltas


def shard_worker_main(
    conn,
    pipeline_blob: bytes,
    config: CompileConfig,
    costs,
    platform,
    index: int = 0,
    start_epoch: int = 0,
    injector=None,
    generation: int = 0,
) -> None:
    """Entry point of one shard worker (process target or thread body).

    ``conn`` is the connection end :meth:`Channel.open` made for this
    worker.
    """
    faults = injector.arm(index, generation) if injector is not None else NO_FAULTS
    chan = Channel(conn, peer="engine")
    try:
        faults.fire("spawn", "before")
        pipeline = pickle.loads(pipeline_blob)
        for table in pipeline:
            _zero_counters(table.entries)
        switch = ESwitch(pipeline, config=config, costs=costs)
        switch.warm()  # replica construction includes the fused driver
        cache = EntryIndexCache(switch.pipeline)
        meter = CycleMeter(platform)
        epoch = start_epoch
        faults.fire("spawn", "after")
        chan.send(("ready", epoch))
    except WorkerKilled:
        _die(chan)
        return
    except Exception as exc:  # pragma: no cover - construction failures
        chan.send(("error", repr(exc), traceback.format_exc()))
        return

    try:
        _serve(chan, faults, switch, meter, cache, epoch)
    finally:
        chan.close()


def _serve(chan, faults, switch, meter, cache, epoch):
    """The worker's command loop."""
    while True:
        try:
            msg = chan.recv(None)
        except ShardWorkerError:
            return  # the engine is gone (or reaped this worker)
        try:
            if isinstance(msg, bytes):
                faults.fire("burst", "before")
                req, _ = frames.unpack_request(msg)
                if req.epoch != epoch:
                    chan.send((
                        "error",
                        f"epoch desync: burst tagged {req.epoch}, "
                        f"replica at {epoch}",
                        "",
                    ))
                    continue
                body = _run_burst(switch, meter, cache, req.packets(), req.mode)
                faults.fire("burst", "after")
                chan.send_frame(frames.reply_from_wires(epoch, req.seq, *body))
                continue
            cmd = msg[0]
            faults.fire(cmd, "before")
            if cmd == "mods":
                _, new_epoch, mods = msg
                cycles = switch.apply_flow_mods(mods)
                # Swap in the new generation *inside* the barrier: the
                # ack promises the replica's fused datapath is current.
                switch.warm()
                cache = EntryIndexCache(switch.pipeline)
                epoch = new_epoch
                faults.fire(cmd, "after")
                chan.send(("mods", epoch, cycles))
            elif cmd == "ping":
                faults.fire(cmd, "after")
                chan.send(("pong", epoch))
            elif cmd == "stop":
                chan.send(("ok",))
                return
            else:
                chan.send(("error", f"unknown command {cmd!r}", ""))
        except WorkerKilled:
            _die(chan)
            return
        except Exception as exc:
            # A hung worker may wake after the engine reaped its channel;
            # reporting then fails too, and the worker just winds down.
            try:
                chan.send(("error", repr(exc), traceback.format_exc()))
            except ShardWorkerError:
                return
