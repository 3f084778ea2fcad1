"""The microflow (exact-match) cache — OVS's EMC.

"The microflow cache stores the forwarding decisions for the least recently
seen transport connections in a very fast collision-free hash … the
microflow cache indexes into the megaflow cache and megaflow cache hits
trigger a microflow cache update." (Section 2.2)

Entries map full exact keys to megaflow-entry references; capacity-bounded
with LRU replacement (the real EMC evicts per hash slot — LRU preserves the
property that matters here: a bounded working set that thrashes once the
active flow count exceeds capacity).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:
    from repro.ovs.megaflow import MegaflowEntry

#: OVS's EMC holds 8192 entries per datapath thread.
DEFAULT_CAPACITY = 8192


class MicroflowCache:
    """Exact-match key -> megaflow entry, LRU-bounded."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: key -> (insertion generation, megaflow ref). A whole-cache
        #: invalidation bumps ``_gen`` instead of clearing the map, so a
        #: reinstall batch of N flow-mods costs N integer increments; the
        #: stale slots die lazily at their next lookup (or at the
        #: telemetry-rate prune in ``__len__``).
        self._entries: "OrderedDict[Hashable, tuple[int, MegaflowEntry]]" = (
            OrderedDict()
        )
        self._gen = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def lookup(self, key: Hashable) -> "MegaflowEntry | None":
        slot = self._entries.get(key)
        if slot is None:
            self.misses += 1
            return None
        gen, entry = slot
        if gen != self._gen or entry.dead:
            del self._entries[key]  # lazy invalidation of dead refs
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, key: Hashable, entry: "MegaflowEntry") -> None:
        self._entries[key] = (self._gen, entry)
        self._entries.move_to_end(key)
        self.insertions += 1
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def slot_of(self, key: Hashable) -> int:
        """Abstract slot index for the cache-line model. ``key`` must hash
        alike in every process (a flow key goes through
        :func:`~repro.ovs.flowkey.line_key` first)."""
        return hash(key) % self.capacity

    def invalidate(self) -> None:
        """Flush everything (flow-table revalidation) — O(1), see
        ``_entries``; dead slots are reaped lazily."""
        self._gen += 1

    def __len__(self) -> int:
        """Live occupancy.

        Lazy invalidation leaves dead megaflow references in the map until
        the next lookup touches them; counting those corpses over-reported
        EMC occupancy at exactly the moments the Fig. 3 saturation points
        sample it (right after a flow-mod killed the megaflow generation).
        Prune them here — ``__len__`` runs at telemetry rate, not on the
        packet path.
        """
        entries = self._entries
        gen = self._gen
        dead = [
            key for key, (igen, entry) in entries.items()
            if igen != gen or entry.dead
        ]
        for key in dead:
            del entries[key]
        return len(entries)

    def __repr__(self) -> str:
        return f"MicroflowCache(entries={len(self)}/{self.capacity})"
