"""ShardedESwitch: N replicas, one facade — scatter, gather, epoch-sync,
and a supervision layer that keeps the facade standing when replicas die.

The engine owns:

* **N shard worker processes**, each running a private fused
  :class:`ESwitch` replica (:mod:`repro.parallel.worker`) behind one
  pipe;
* a **shadow replica** in the engine's own process — the authoritative
  control-plane state. Flow-mods apply to the shadow *first* (its
  transactional semantics validate the batch before anything is
  broadcast), inspection (``table_kinds``, flow stats) reads it, and
  gathered verdict paths re-bind to its entries;
* the **RSS scatter** (:mod:`repro.parallel.rss`): each packet of a
  burst hashes through an indirection table to a shard, sub-bursts ship
  to the workers, and verdicts gather back **in input order** — callers
  see exactly the ``process_burst`` contract of a single switch;
* the **epoch barrier**: every ``apply_flow_mod(s)`` broadcast bumps the
  engine epoch and blocks until all workers ack — and a worker only
  acks after its replica has applied the batch, flushed deferred
  rebuilds, and re-fused. Bursts are tagged with the engine epoch and
  workers refuse mismatched tags, so **no gathered burst can mix
  verdicts from two pipeline generations** (Section 3.4's atomic
  non-destructive update story, extended across cores).

Supervision (what makes the facade *fault-tolerant*):

* every round-trip — burst, flow-mod broadcast, liveness ping — is
  **deadline-bounded** (``rpc_deadline`` seconds);
  a worker that neither answers nor dies within the deadline is
  treated exactly like a dead one: reaped and never spoken to again
  (a late reply from a zombie must never poison the stream);
* a dead or deadline-blown worker is **respawned** from a snapshot of
  the shadow pipeline *at the engine's current epoch* — replacements
  are born current and never replay history. A replacement's ready
  handshake is not a round-trip: like the first spawn's, it waits
  until the replica is built or its worker dies. During a flow-mod
  broadcast the shadow has already applied the batch, so a worker that
  dies *inside* the barrier is replaced by one born at the new epoch
  with the full batch applied: the barrier cannot wedge and no
  half-applied generation can ack;
* a sub-burst lost to a fault is **retried with bounded backoff** —
  re-scattered through the (possibly remapped) RSS table onto the
  respawned worker or the survivors — so callers still see the
  single-switch contract. Metering stays exact: a failed attempt never
  sent its meter delta, so only the successful attempt is absorbed;
* after ``max_respawns`` failed resurrections a shard slot **degrades**:
  its RSS slots remap over the survivors
  (:class:`~repro.parallel.rss.RssIndirection`) and the engine keeps
  serving, surfacing the state through :meth:`health`.

Fault-exactness of the numbers (why a kill is unobservable in them):

* **flow counters** — every burst reply carries, by rule id, the counts
  the sub-burst earned (:func:`repro.parallel.wire.counter_deltas`), and
  the gather adds them onto the shadow's rules. A worker that dies
  holding an unsent reply takes exactly its unacked counts with it, and
  the retry re-earns them — so the shadow's counters are exact across
  deaths, read like any switch's, with no RPC and no fault path;
* **burst telemetry** — the engine records every *acked* sub-burst into
  a per-slot :class:`BurstStats` ledger, so :meth:`merged_burst_stats`
  survives worker loss bit for bit;
* **modeled cycles** — each worker meters on its own persistent
  per-core :class:`CycleMeter`; the gather folds the acked shard deltas
  into the caller's meter via :meth:`CycleMeter.absorb`, summing with
  ``math.fsum`` so the merged total is exact and independent of shard
  enumeration order. A respawned replica starts a fresh per-core meter
  (cold private caches — a freshly booted core), and for ``workers=1``
  without faults the total is bit-identical to a single ``ESwitch``.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.analysis import CompileConfig, DEFAULT_CONFIG
from repro.core.eswitch import ESwitch, SwitchHealth
from repro.openflow.messages import (
    ErrorMsg,
    FlowMod,
    FlowModReply,
    reply_to_flow_mods,
)
from repro.openflow.pipeline import Pipeline, Verdict
from repro.openflow.stats import BurstStats
from repro.packet.packet import Packet
from repro.parallel import frames
from repro.parallel.channel import (
    Channel,
    ShardWorkerError,
    WorkerDied,
    WorkerTimeout,
)
from repro.parallel.rss import RssIndirection
from repro.parallel.wire import EntryIndexCache, decode_verdicts
from repro.parallel.worker import shard_worker_main
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.platform import Platform, XEON_E5_2620
from repro.simcpu.recorder import Meter, NULL_METER, active_meter


class EpochSyncError(RuntimeError):
    """A gathered burst spanned two pipeline generations (should be
    impossible: the broadcast barrier exists to prevent exactly this)."""


@dataclass(frozen=True)
class EngineHealth:
    """A point-in-time snapshot of the engine's supervision telemetry."""

    workers: int                       #: configured shard count
    live_workers: int                  #: shards currently serving
    faults_detected: int               #: deaths + blown deadlines observed
    respawns: int                      #: replacement workers forked
    retries: int                       #: sub-burst re-execution rounds
    degraded_shards: tuple[int, ...]   #: slots permanently remapped away
    liveness: tuple[bool, ...]         #: per-slot: is a worker serving it
    epoch: int                         #: current pipeline generation
    #: workers that answered a broadcast with a logic error (e.g. an
    #: injected compile fault) and were replaced from the shadow.
    worker_errors: int = 0
    #: the shadow replica's own fail-static snapshot (quarantines,
    #: contained compile/fuse failures) — the control-plane half of the
    #: engine's health.
    switch_health: "SwitchHealth | None" = None

    @property
    def degraded(self) -> bool:
        # Quarantined tables degrade the whole engine (every replica runs
        # the same quarantined build); the shadow's fused_active does not —
        # the shadow is control-plane-only, no packet runs its driver.
        return bool(self.degraded_shards) or bool(
            self.switch_health is not None and self.switch_health.quarantined
        )

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "live_workers": self.live_workers,
            "faults_detected": self.faults_detected,
            "respawns": self.respawns,
            "retries": self.retries,
            "degraded_shards": list(self.degraded_shards),
            "liveness": list(self.liveness),
            "epoch": self.epoch,
            "worker_errors": self.worker_errors,
            "switch": (
                self.switch_health.as_dict()
                if self.switch_health is not None
                else None
            ),
        }


class _Shard:
    """One worker process plus the engine's end of its pipe."""

    def __init__(self, index, blob, config, costs, platform,
                 start_epoch, injector, generation):
        import multiprocessing as mp  # only an engine pays the import

        near, far = mp.Pipe(duplex=True)
        self.chan = Channel(near, peer=f"shard {index}")
        ctx = mp.get_context("fork" if hasattr(os, "fork") else None)
        self.proc = ctx.Process(
            target=shard_worker_main, name=f"repro-shard-{index}", daemon=True,
            args=(far, blob, config, costs, platform,
                  index, start_epoch, injector, generation),
        )
        try:
            self.proc.start()
        except BaseException:
            self.chan.close()
            raise
        finally:
            far.close()  # the worker's end lives in the worker now

    def stop(self) -> None:
        try:
            self.chan.send(("stop",))
            self.chan.recv(5.0)
        except ShardWorkerError:
            pass
        self.reap(grace=5.0)

    def reap(self, grace: float = 0.0) -> None:
        """Close the pipe and put the worker down if it has not exited
        within ``grace`` seconds (none: a dead or unresponsive worker)."""
        self.chan.close()
        proc = self.proc
        proc.join(grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.kill()
            proc.join(timeout=5)


class _ShardSlot:
    """Engine-side state of one RSS shard position.

    The slot outlives any single worker: its :class:`BurstStats` ledger
    accumulates every sub-burst the engine successfully gathered for
    this position, across respawns, and survives degradation.
    """

    __slots__ = ("index", "shard", "respawns", "stats", "degraded")

    def __init__(self, index: int, shard) -> None:
        self.index = index
        self.shard = shard          # None once degraded
        self.respawns = 0
        self.stats = BurstStats()
        self.degraded = False


class ShardedESwitch:
    """An OpenFlow switch whose datapath is N parallel fused replicas.

    Duck-type compatible with :class:`ESwitch` where the measurement
    harnesses care (``process``, ``process_burst``, ``apply_flow_mod``,
    ``apply_flow_mods``, ``burst_stats``, ``pipeline``, ``table_kinds``)
    — :func:`repro.traffic.measure` drives it unchanged. Reactive
    ``packet_in_handler`` callbacks are deliberately unsupported: a
    controller callback would have to preempt remote replicas mid-burst;
    punted packets still come back with ``to_controller`` set for the
    caller to handle at the gather.

    Supervision knobs (see the module docstring for semantics):

    * ``rpc_deadline`` — seconds any worker round-trip may take
      (``None`` disables deadlines: block forever, pre-supervision
      behavior);
    * ``max_retries`` — re-execution rounds for a faulted sub-burst
      before the burst errors out;
    * ``retry_backoff`` — base seconds slept before a retry round,
      doubling each round (bounded exponential backoff);
    * ``max_respawns`` — replacement workers per shard slot before the
      slot degrades (0 disables respawn: first fault degrades);
    * ``fault_injector`` — a :class:`~repro.parallel.faults.
      FaultInjector` test hook wired into every worker.

    Bursts cross to the worker processes as packed frames
    (:mod:`repro.parallel.frames`) over each shard's :class:`~repro.
    parallel.channel.Channel` (one pipe), one burst in flight per worker.
    A platform where a worker process cannot start raises
    :class:`ShardWorkerError` naming the cause.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        workers: "int | None" = None,
        *,
        config: CompileConfig = DEFAULT_CONFIG,
        costs: CostBook = DEFAULT_COSTS,
        platform: Platform = XEON_E5_2620,
        rpc_deadline: "float | None" = 30.0,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
        max_respawns: int = 2,
        fault_injector=None,
    ):
        if workers is None:
            workers = max(1, (os.cpu_count() or 2) - 1)
        if workers < 1:
            raise ValueError("need at least one shard worker")
        if rpc_deadline is not None and rpc_deadline <= 0:
            raise ValueError("rpc_deadline must be positive (or None)")
        if max_retries < 0 or max_respawns < 0 or retry_backoff < 0:
            raise ValueError("supervision knobs must be non-negative")
        pipeline.validate()
        self.workers = workers
        self.rpc_deadline = rpc_deadline
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.max_respawns = max_respawns
        self.fault_injector = fault_injector
        self.epoch = 0
        self.burst_stats = BurstStats()
        self.faults_detected = 0
        self.respawns = 0
        self.retries = 0
        self.worker_errors = 0
        #: epochs reported by the shards of the most recent gather — the
        #: atomicity witness (all equal, and equal to ``self.epoch``).
        self.last_gather_epochs: tuple[int, ...] = ()
        blob = pickle.dumps(pipeline)
        # The shadow is built from its own snapshot: the engine never
        # mutates the caller's pipeline object.
        self.shadow = ESwitch(pickle.loads(blob), config=config, costs=costs)
        # Linked before any replica starts: every template the replicas
        # need is then loaded (repro.core.templates), so a forked worker
        # inherits them and compiles none.
        self.shadow.warm()
        self._config, self._costs, self._platform = config, costs, platform
        self._decode_cache = EntryIndexCache(self.shadow.pipeline)
        self._rss = RssIndirection(workers)
        self._slots: list[_ShardSlot] = []
        #: the engine-global sequence counter that pairs each reply with
        #: its request (a reply out of step is a worker fault).
        self._seq = 0
        self._spawn(blob)
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def _make_shard(self, index, blob, start_epoch, generation) -> _Shard:
        """Spawn one shard on a fresh pipe: a replacement never reads
        what a dead worker left behind."""
        return _Shard(index, blob, self._config, self._costs,
                      self._platform, start_epoch, self.fault_injector,
                      generation)

    def _spawn(self, blob) -> None:
        """Start every shard and take its ready handshake; sets
        ``self._slots``. A worker that cannot start raises
        :class:`ShardWorkerError` naming the cause."""
        shards: list = []
        try:
            for i in range(self.workers):
                shards.append(self._make_shard(i, blob, 0, 0))
            for shard in shards:
                shard.chan.recv(None)  # the ready handshake
        except Exception as exc:
            for shard in shards:
                shard.reap()
            if isinstance(exc, ShardWorkerError):
                raise
            raise ShardWorkerError(
                f"could not start a shard worker process: {exc!r}"
            ) from exc
        self._slots = [_ShardSlot(i, s) for i, s in enumerate(shards)]

    def close(self) -> None:
        """Stop all shard workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.shard is not None:
                slot.shard.stop()
                slot.shard = None

    def __enter__(self) -> "ShardedESwitch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- supervision -------------------------------------------------------

    def health(self) -> EngineHealth:
        """The engine's current supervision telemetry snapshot."""
        liveness = tuple(slot.shard is not None for slot in self._slots)
        return EngineHealth(
            workers=self.workers,
            live_workers=sum(liveness),
            faults_detected=self.faults_detected,
            respawns=self.respawns,
            retries=self.retries,
            degraded_shards=tuple(
                slot.index for slot in self._slots if slot.degraded
            ),
            liveness=liveness,
            epoch=self.epoch,
            worker_errors=self.worker_errors,
            switch_health=self.shadow.health(),
        )

    def ping(self) -> dict[int, int]:
        """Deadline-bounded liveness probe: ``{slot index: applied epoch}``.

        A shard that fails the probe is handled like any other fault
        (respawn or degrade), so the returned map covers exactly the
        workers that are *proven* responsive right now.
        """
        out: dict[int, int] = {}
        for slot in self._live_slots():
            chan = slot.shard.chan
            try:
                chan.send(("ping",))
                out[slot.index] = chan.recv(self.rpc_deadline)[1]
            except (WorkerDied, WorkerTimeout):
                self._handle_fault(slot, self.epoch)
        return out

    def _live_slots(self) -> list[_ShardSlot]:
        return [slot for slot in self._slots if slot.shard is not None]

    def _handle_fault(self, slot: _ShardSlot, epoch: int) -> bool:
        """Reap a faulted worker; respawn it at ``epoch`` or degrade.

        Returns True when a replacement is serving the slot, False when
        the slot degraded (its RSS slots now route to survivors).
        """
        self.faults_detected += 1
        if slot.shard is not None:
            slot.shard.reap()
            slot.shard = None
        blob = None
        while slot.respawns < self.max_respawns:
            slot.respawns += 1
            self.respawns += 1
            if blob is None:
                blob = pickle.dumps(self.shadow.pipeline)
            shard = None
            try:
                shard = self._make_shard(slot.index, blob, epoch, slot.respawns)
                # The ready handshake waits as the first spawn's does, until
                # ready or dead: it covers unpickling, compiling and warming
                # a whole replica, which no one RPC's deadline bounds.
                shard.chan.recv(None)
            except Exception as exc:
                if shard is not None:
                    shard.reap()
                if not isinstance(exc, (WorkerDied, WorkerTimeout, OSError)):
                    raise
                # The replacement itself failed to come up: count it and
                # spend another respawn (or fall through to degradation).
                self.faults_detected += 1
                continue
            slot.shard = shard
            return True
        self._degrade(slot)
        return False

    def _degrade(self, slot: _ShardSlot) -> None:
        """Remap a dead slot's RSS slots over the survivors — for good."""
        slot.degraded = True
        slot.shard = None
        survivors = [s.index for s in self._live_slots()]
        if not survivors:
            raise ShardWorkerError(
                "every shard worker is lost; the engine cannot degrade further"
            )
        self._rss.remap(slot.index, survivors)

    # -- the fast path -----------------------------------------------------

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        """Run one packet through its RSS shard (a burst of one)."""
        return self.process_burst([pkt], meter)[0]

    def process_burst(
        self, pkts: "Sequence[Packet]", meter: Meter = NULL_METER
    ) -> list[Verdict]:
        """Scatter one burst over the shards, gather in input order.

        Survives worker faults mid-burst: lost sub-bursts are retried
        (on a respawned worker or rerouted to survivors) under bounded
        backoff, and only successfully gathered attempts contribute
        verdicts, cycles, counters, and telemetry.
        """
        if self._closed:
            raise RuntimeError("ShardedESwitch is closed")
        if not pkts:
            return []
        mode = "null" if active_meter(meter) is None else "cycle"
        verdicts: list = [None] * len(pkts)
        deltas: list = []          #: acked (cycles, packets, llc)
        epochs: list[int] = []     #: the atomicity witness
        pending = self._round(pkts, range(len(pkts)), mode, verdicts,
                              deltas, epochs)
        attempt = 0
        while pending:
            attempt += 1
            if attempt > self.max_retries:
                raise ShardWorkerError(
                    f"burst lost {len(pending)} packets to worker faults and "
                    f"exhausted {self.max_retries} retries"
                )
            self.retries += 1
            if self.retry_backoff:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            pending = self._round(pkts, pending, mode, verdicts, deltas, epochs)

        self.last_gather_epochs = tuple(epochs)
        epoch = self.epoch
        if any(e != epoch for e in epochs):
            raise EpochSyncError(
                f"gather saw epochs {epochs}, engine at {epoch}"
            )
        total = math.fsum(d for d, _n, _l in deltas) if deltas else 0.0
        if deltas:
            metered_packets = sum(n for _d, n, _l in deltas)
            llc = sum(l for _d, _n, l in deltas)
            absorb = getattr(meter, "absorb", None)
            if absorb is not None:
                absorb(total, packets=metered_packets, llc_misses=llc)
            else:  # a plain Meter: cycles arrive pre-factored
                meter.charge(total)
        self.burst_stats.record(len(pkts), total)
        return verdicts

    def _round(self, pkts, positions, mode, verdicts, deltas, epochs) -> list[int]:
        """One scatter/gather round over ``positions``: fills ``verdicts``
        and extends ``deltas``/``epochs``; returns the positions lost to
        faults."""
        shard_for = self._rss.shard_for
        lanes: dict[int, list[int]] = {}
        if len(self._slots) == 1 and not self._slots[0].degraded:
            lanes[0] = list(positions)
        else:
            for i in positions:
                lanes.setdefault(shard_for(pkts[i].data), []).append(i)
        epoch = self.epoch
        failed: list[int] = []
        sent = []
        # All sends before any receive: the workers run their sub-bursts
        # genuinely in parallel, one burst in flight each.
        for sidx, lane in lanes.items():
            slot = self._slots[sidx]
            seq = self._seq
            self._seq += 1
            frame = frames.request_from_packets(
                epoch, seq, mode, [pkts[i] for i in lane]
            )
            try:
                slot.shard.chan.send_frame(frame)
            except WorkerDied:
                self._handle_fault(slot, epoch)
                failed.extend(lane)
                continue
            sent.append((slot, lane, seq))
        cache = self._decode_cache
        for slot, lane, seq in sent:
            try:
                rep = self._recv_reply(slot, seq)
            except (WorkerDied, WorkerTimeout):
                self._handle_fault(slot, epoch)
                failed.extend(lane)
                continue
            epochs.append(rep.epoch)
            for i, verdict in zip(lane, decode_verdicts(rep.verdicts, cache)):
                verdicts[i] = verdict
            self._absorb_counters(rep.deltas)
            cycles = rep.cycles
            slot.stats.record(len(lane), cycles if cycles is not None else 0.0)
            if cycles is not None:
                deltas.append((cycles, rep.packets, rep.llc))
        return failed

    def _recv_reply(self, slot: _ShardSlot, seq: int) -> frames.BurstReply:
        """One deadline-bounded burst reply, paired to ``seq``.

        A desynchronized sequence number or a corrupt frame is treated
        as a worker fault: the replica's stream can no longer be trusted.
        """
        msg = slot.shard.chan.recv(self.rpc_deadline)
        try:
            if not isinstance(msg, bytes):
                raise frames.FrameCorrupt(f"control message {msg[0]!r}")
            rep, _ = frames.unpack_reply(msg)
        except frames.FrameError as exc:
            raise WorkerDied(
                f"shard {slot.index} sent no valid reply frame: {exc!r}"
            )
        if rep.seq != seq:
            raise WorkerDied(
                f"shard {slot.index} desynchronized: reply seq {rep.seq}, "
                f"expected {seq}"
            )
        return rep

    def _absorb_counters(self, wire_deltas) -> None:
        """Add one acked sub-burst's counts onto the shadow's rules."""
        rules = self._decode_cache.rules
        for rule_id, d_packets, d_bytes in wire_deltas:
            entry = rules[rule_id]
            if entry is None:  # replicas name every rule alike, or none
                raise EpochSyncError(f"a shard counted unknown rule {rule_id:#x}")
            entry.packets += d_packets
            entry.bytes += d_bytes

    # -- control plane -----------------------------------------------------

    def apply_flow_mod(self, mod: FlowMod) -> float:
        """Apply one flow-mod everywhere; one epoch, one barrier."""
        return self.apply_flow_mods([mod])

    def apply_flow_mods(self, mods: Sequence[FlowMod]) -> float:
        """Transactional batch broadcast under the epoch barrier.

        The shadow validates first: a failing batch raises here, rolls
        back locally, and is **never broadcast** — replicas cannot
        diverge through a rejected update. On success every worker
        applies the same batch, swaps its fused datapath, and acks; only
        then does the engine epoch advance and the next burst flow.

        A worker that dies or hangs *inside* the barrier cannot wedge
        it: the deadline bounds the wait, and the replacement is forked
        from the shadow — which already holds the full batch — at the
        new epoch. Every surviving and respawned worker therefore ends
        the call on the same epoch with the whole batch applied; a
        half-applied replica can only ever be a corpse.

        Returns the shadow's modeled update cost in cycles (one core's
        control-plane work, comparable to ``ESwitch.apply_flow_mods``);
        per-replica costs are summed in ``update_stats`` terms on each
        worker.
        """
        if self._closed:
            raise RuntimeError("ShardedESwitch is closed")
        mods = list(mods)
        if not mods:
            return 0.0
        cycles = self.shadow.apply_flow_mods(mods)  # validates; may raise
        self.shadow.warm()
        self._decode_cache = EntryIndexCache(self.shadow.pipeline)
        new_epoch = self.epoch + 1
        waiting: list[_ShardSlot] = []
        for slot in self._live_slots():
            try:
                slot.shard.chan.send(("mods", new_epoch, mods))
            except WorkerDied:
                # Died before the batch even arrived: the replacement is
                # born from the shadow at the new epoch, nothing to ack.
                self._handle_fault(slot, new_epoch)
                continue
            waiting.append(slot)
        for slot in waiting:
            try:
                reply = slot.shard.chan.recv(self.rpc_deadline)
            except (WorkerDied, WorkerTimeout):
                self._handle_fault(slot, new_epoch)
                continue
            except ShardWorkerError:
                # The replica errored applying a batch the shadow already
                # accepted (e.g. an injected compile fault): it is
                # logically diverged and must not serve another burst.
                # Replace it from the shadow — which holds the batch — at
                # the new epoch; the barrier still ends with every live
                # shard on the same generation.
                self.worker_errors += 1
                self._handle_fault(slot, new_epoch)
                continue
            if reply[0] != "mods" or reply[1] != new_epoch:
                raise EpochSyncError(
                    f"worker acked {reply[:2]}, expected ('mods', {new_epoch})"
                )
        self.epoch = new_epoch
        return cycles

    def admit_flow_mods(self, mods: Sequence[FlowMod]) -> list[ErrorMsg]:
        """Validate a batch against the shadow replica without touching it."""
        return self.shadow.admit_flow_mods(mods)

    def submit_flow_mods(self, mods: Sequence[FlowMod]) -> FlowModReply:
        """Admission-controlled broadcast: the control-plane entry point.

        Admission runs on the shadow replica first; a rejected batch is
        answered with typed errors, never broadcast, and leaves the
        engine bit-untouched — the epoch does not advance and every
        worker keeps serving the prior pipeline generation, so batch
        invisibility extends across shards. An accepted batch runs the
        epoch-barrier broadcast of :meth:`apply_flow_mods`.
        """
        return reply_to_flow_mods(
            self.admit_flow_mods, self.apply_flow_mods, list(mods)
        )

    # -- statistics --------------------------------------------------------

    def shard_burst_stats(self) -> list[BurstStats]:
        """Each shard slot's :class:`BurstStats` ledger (engine-side).

        The ledgers count every sub-burst the engine successfully
        gathered, so they are complete even across worker deaths,
        respawns, and degradation — a killed worker's unacked attempt
        was retried elsewhere and is counted exactly once.
        """
        return [BurstStats.merged([slot.stats]) for slot in self._slots]

    def merged_burst_stats(self) -> BurstStats:
        """All shards' burst telemetry, merged order-independently."""
        return BurstStats.merged(self.shard_burst_stats())

    # -- inspection (delegated to the shadow) ------------------------------

    @property
    def pipeline(self) -> Pipeline:
        return self.shadow.pipeline

    @property
    def update_stats(self):
        return self.shadow.update_stats

    def table_kinds(self) -> dict[int, str]:
        return self.shadow.table_kinds()

    def logical_table_id(self, compiled_id: int) -> int:
        # Every replica compiles the shadow's pipeline through the same
        # mods, so their compiled ids are the shadow's (the verdict paths
        # they return say so hop for hop).
        return self.shadow.logical_table_id(compiled_id)

    def __repr__(self) -> str:
        health = self.health()
        degraded = (
            f", degraded={health.degraded_shards}" if health.degraded else ""
        )
        return (
            f"ShardedESwitch(workers={self.workers}, "
            f"epoch={self.epoch}, live={health.live_workers}{degraded})"
        )
