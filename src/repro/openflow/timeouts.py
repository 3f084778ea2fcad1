"""Flow-entry expiry: OpenFlow idle and hard timeouts.

The fast paths are never burdened with clock reads; instead an
:class:`ExpiryManager` polls the pipeline — the way production switches run
periodic expiry sweeps — comparing per-entry packet counters between ticks
to detect idleness, and wall-positions to detect hard expiry. Expired
entries are removed through the owning switch's ``apply_flow_mod`` so all
of its datapath invalidation/update machinery engages (ESWITCH recompiles
or incrementally updates the table; OVS flushes its caches).

Tracking is by **flow identity**: entries are keyed by their
``entry_id`` and re-resolved against the live pipeline whenever a table
changes. A rule lives and dies as one :class:`FlowEntry` object — an
ADD-replace mints a new id, a rolled-back batch puts the same object
back — so a tracked id either resolves to the object already held or
its flow is gone. A flow that no longer resolves is simply dropped —
never deleted by a stale match, which could take out an unrelated entry
that now occupies the same (match, priority) slot.

Two structures keep the sweep off the million-flow wall:

* **Version-gated observation.** :meth:`ExpiryManager.observe` rescans a
  table only when its ``version`` moved since the last sweep, and then
  reads :meth:`~repro.openflow.flow_table.FlowTable.timed_entries` —
  O(timed entries of changed tables), not O(all flows in the pipeline).
* **A deadline heap.** Each tracked flow carries its next decisive
  instant — ``min(installed_at + hard, last_active + idle)`` — in a lazy
  min-heap of ``(deadline, seq, entry_id)`` nodes. A tick pops only the
  due prefix; refreshed deadlines simply push a new node and the stale
  one is discarded on pop (its deadline no longer equals the flow's
  ``next_deadline``). Expiry work is O(expiring), not O(tracked).

One pass per tick does stay O(idle-tracked): comparing each flow's packet
counter against the last sweep. That is load-bearing semantics, not a
leftover — activity must be credited *at the tick that observes it*, so
a flow busy at tick 15 with a 10 s idle timeout expires at 25, not at
whenever a later pop happens to look. The compare is two int reads per
flow; the heap is what removes the per-tick deadline arithmetic and the
expiry scan.

When both timeouts are due on the same sweep, **hard wins**: the hard
timeout bounds the entry's total lifetime regardless of traffic
(OpenFlow 1.3 §5.5), so it takes precedence over idle expiry — and
activity observed on a sweep refreshes idleness *before* the idle check,
so a flow that was busy right up to its hard deadline still expires
``"hard"``.

Driving a :class:`~repro.parallel.ShardedESwitch`, the manager reads the
shadow's rules, onto which every gather adds the shards' counts, so
idleness is judged on the cross-shard totals like any switch's.

The clock is caller-supplied seconds (floats): simulations advance it
explicitly, deterministic tests included.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from repro.openflow.flow_entry import FlowEntry
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline

_INF = float("inf")


@dataclass
class _Tracked:
    table_id: int
    entry: FlowEntry  # entry_id is the key
    installed_at: float
    last_active: float
    last_packets: int
    #: the exact deadline of this flow's current heap node; a popped node
    #: whose deadline differs is stale and is discarded.
    next_deadline: float
    #: insertion order — expiry reporting stays in tracking order even
    #: though the heap yields due flows deadline-first.
    seq: int


class ExpiryManager:
    """Polls a switch's pipeline and removes timed-out entries.

    Args:
        switch: anything with ``pipeline`` and ``apply_flow_mod`` (ESwitch,
            OvsSwitch, ShardedESwitch, or a bare pipeline in a
            :class:`~repro.traffic.nfpa.DirectSwitch`).
        on_expired: optional callback ``(table_id, entry, reason)`` with
            reason ``"idle"`` or ``"hard"`` (e.g. to emit flow-removed
            messages to a controller).
    """

    def __init__(
        self,
        switch,
        on_expired: "Callable[[int, FlowEntry, str], None] | None" = None,
    ):
        self.switch = switch
        self.on_expired = on_expired
        self._tracked: dict[int, _Tracked] = {}
        #: (deadline, seq, entry_id) min-heap; lazily pruned.
        self._heap: list[tuple[float, int, int]] = []
        #: per-table ``version`` as of the last rescan.
        self._table_versions: dict[int, int] = {}
        self._seq = 0
        self.expired_idle = 0
        self.expired_hard = 0
        self._now = 0.0

    @property
    def pipeline(self) -> Pipeline:
        """The switch's live pipeline (never cached: it may be rebuilt)."""
        return self.switch.pipeline

    # -- deadline bookkeeping -------------------------------------------------

    def _deadline_of(self, tracked: _Tracked) -> float:
        entry = tracked.entry
        deadline = _INF
        if entry.hard_timeout:
            deadline = tracked.installed_at + entry.hard_timeout
        if entry.idle_timeout:
            idle_at = tracked.last_active + entry.idle_timeout
            if idle_at < deadline:
                deadline = idle_at
        return deadline

    def _schedule(self, entry_id: int, tracked: _Tracked) -> None:
        deadline = self._deadline_of(tracked)
        if deadline != tracked.next_deadline or deadline is _INF:
            tracked.next_deadline = deadline
            if deadline != _INF:
                heapq.heappush(self._heap, (deadline, tracked.seq, entry_id))

    # -- observation ----------------------------------------------------------

    def observe(self, now: float) -> None:
        """Register new timed entries and re-resolve tracked ones.

        Call after installing flows. Only tables whose ``version`` moved
        since the last sweep are rescanned — and the rescan reads the
        table's timed-entry index, so the cost is O(timed entries of
        changed tables). Tracked ids that no longer resolve in their
        table are dropped — their flow is already gone, and deleting by
        the stale object's (match, priority) could hit an unrelated entry
        that now owns the slot.
        """
        self._now = max(self._now, now)
        tracked_map = self._tracked
        versions = self._table_versions
        present: set[int] = set()
        for table in self.pipeline:
            tid = table.table_id
            present.add(tid)
            if versions.get(tid) == table.version:
                continue
            versions[tid] = table.version
            seen: set[int] = set()
            for entry in table.timed_entries():
                entry_id = entry.entry_id
                seen.add(entry_id)
                if entry_id not in tracked_map:
                    self._seq += 1
                    tracked = tracked_map[entry_id] = _Tracked(
                        table_id=tid,
                        entry=entry,
                        installed_at=now,
                        last_active=now,
                        last_packets=entry.packets,
                        next_deadline=_INF,
                        seq=self._seq,
                    )
                    self._schedule(entry_id, tracked)
            for entry_id, tracked in list(tracked_map.items()):
                if tracked.table_id == tid and entry_id not in seen:
                    # Removed out from under us (or its timeouts were
                    # stripped): forget it, never delete by stale match.
                    del tracked_map[entry_id]
        vanished = [
            entry_id
            for entry_id, tracked in tracked_map.items()
            if tracked.table_id not in present
        ]
        for entry_id in vanished:
            del tracked_map[entry_id]
        for tid in list(versions):
            if tid not in present:
                del versions[tid]

    # -- the sweep ------------------------------------------------------------

    def tick(self, now: float) -> list[tuple[int, FlowEntry, str]]:
        """Advance to ``now``; expire and remove due entries."""
        if now < self._now:
            raise ValueError("the clock cannot move backwards")
        self.observe(now)
        self._now = now
        # Activity pass: counter progress since the last tick proves
        # activity, credited BEFORE the expiry pops — a flow active this
        # sweep can only expire hard, never idle. Credited *now*, at the
        # tick that observes it: idleness is measured from the sweep that
        # last saw traffic, not from whenever a deadline pop looks back.
        for entry_id, tracked in self._tracked.items():
            entry = tracked.entry
            if not entry.idle_timeout:
                continue
            packets = entry.packets
            if packets > tracked.last_packets:
                tracked.last_packets = packets
                tracked.last_active = now
                self._schedule(entry_id, tracked)
            elif packets < tracked.last_packets:
                tracked.last_packets = packets  # reset, not activity
        # Pop the due prefix; stale nodes (their flow's deadline moved or
        # the flow is gone) are discarded here, lazily.
        heap = self._heap
        due: list[_Tracked] = []
        due_ids: list[int] = []
        while heap and heap[0][0] <= now:
            deadline, _seq, entry_id = heapq.heappop(heap)
            tracked = self._tracked.get(entry_id)
            if tracked is None or deadline != tracked.next_deadline:
                continue
            due.append(tracked)
            due_ids.append(entry_id)
        # Report in tracking order — the heap's deadline order is an
        # implementation detail, not an observable.
        order = sorted(range(len(due)), key=lambda i: due[i].seq)
        expired: list[tuple[int, FlowEntry, str]] = []
        for i in order:
            tracked = due[i]
            entry = tracked.entry
            # Hard before idle: when both are due the same sweep, the
            # lifetime bound outranks idleness (OpenFlow 1.3 §5.5).
            if (
                entry.hard_timeout
                and now - tracked.installed_at >= entry.hard_timeout
            ):
                reason = "hard"
            elif (
                entry.idle_timeout
                and now - tracked.last_active >= entry.idle_timeout
            ):
                reason = "idle"
            else:
                # Defensive: not due after all. Re-arm unconditionally —
                # the popped node is gone, so a skipped push here would
                # leave the flow unscheduled forever.
                deadline = self._deadline_of(tracked)
                tracked.next_deadline = deadline
                if deadline != _INF:
                    heapq.heappush(heap, (deadline, tracked.seq, due_ids[i]))
                continue
            del self._tracked[due_ids[i]]
            self.switch.apply_flow_mod(
                FlowMod(
                    FlowModCommand.DELETE,
                    tracked.table_id,
                    entry.match,
                    priority=entry.priority,
                    strict=True,  # expire exactly this rule, nothing else
                )
            )
            if reason == "idle":
                self.expired_idle += 1
            else:
                self.expired_hard += 1
            expired.append((tracked.table_id, entry, reason))
            if self.on_expired is not None:
                self.on_expired(tracked.table_id, entry, reason)
        return expired

    @property
    def tracked_count(self) -> int:
        return len(self._tracked)
