"""Per-table tuple-space-search classifier (the vswitchd lookup engine).

``vswitchd`` is "a fully blown realization of the OpenFlow pipeline" using
tuple space search with *tuple priority sorting* "to cut down on pipeline
stage iterations" (Section 2.2). This classifier implements exactly that:

* entries are grouped into **subtables** by mask signature (the combination
  of ``(field, mask)`` pairs they match on);
* each subtable is a hash from masked key values to its best entry;
* lookup probes subtables in decreasing order of their maximum priority and
  stops early once the best match found outranks everything remaining.

Besides being how OVS actually classifies, this is what makes the Python
slow path tractable for large tables: an LPM table of 10K prefixes has at
most 32 subtables (one per prefix length), not 10K linear probes.

The lookup reports which subtables were probed — their mask signatures are
precisely the wildcards megaflow generation must unwildcard ("all header
fields from all flow entries a packet traverses, those that caused a match
as well as those higher priority ones that did not").
"""

from __future__ import annotations

from typing import Mapping

from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable

#: A mask signature: sorted ``(field, mask)`` pairs.
MaskSig = tuple[tuple[str, int], ...]


class Subtable:
    """All entries of one table sharing a mask signature."""

    __slots__ = ("sig", "entries", "positions", "max_priority", "hits")

    def __init__(self, sig: MaskSig):
        self.sig = sig
        # masked key tuple -> best (highest-priority, earliest) entry
        self.entries: dict[tuple, FlowEntry] = {}
        self.positions: dict[tuple, int] = {}
        self.max_priority = 0
        self.hits = 0

    def key_of(self, key: Mapping[str, "int | None"]) -> "tuple | None":
        """Mask the flow key down to this subtable's fields.

        Returns None when a required header is absent (the subtable cannot
        match the packet at all).
        """
        out = []
        for name, mask in self.sig:
            value = key.get(name)
            if value is None:
                return None
            out.append(value & mask)
        return tuple(out)

    def add(self, entry: FlowEntry, position: int) -> None:
        """Insert an entry at its table ``position`` (ties: earlier wins).

        Entries within a table are priority-descending, so the first entry
        seen for a masked key is automatically the winner.
        """
        masked = entry.match.values  # the entry's shape is ``sig``
        if masked not in self.entries:
            self.entries[masked] = entry
            self.positions[masked] = position
        self.max_priority = max(self.max_priority, entry.priority)

    def __len__(self) -> int:
        return len(self.entries)


class TssClassifier:
    """Tuple space search over one flow table, rebuilt when the table changes."""

    def __init__(self, table: FlowTable):
        self.table = table
        self._version = -1
        self._subtables: list[Subtable] = []
        self._rebuild()

    def _rebuild(self) -> None:
        by_sig: dict[MaskSig, Subtable] = {}
        # Table position resolves priority ties exactly like the linear
        # interpreter's stable scan does.
        for position, entry in enumerate(self.table):
            sig: MaskSig = entry.match.shape
            sub = by_sig.get(sig)
            if sub is None:
                sub = by_sig[sig] = Subtable(sig)
            sub.add(entry, position)
        # Tuple priority sorting: probe high-priority subtables first.
        self._subtables = sorted(by_sig.values(), key=lambda s: -s.max_priority)
        self._version = self.table.version

    def refresh(self) -> None:
        if self._version != self.table.version:
            self._rebuild()

    @property
    def subtables(self) -> list[Subtable]:
        self.refresh()
        return self._subtables

    def lookup(
        self, key: Mapping[str, "int | None"]
    ) -> tuple["FlowEntry | None", list[Subtable]]:
        """Best-match entry plus the subtables probed along the way."""
        self.refresh()
        best: FlowEntry | None = None
        best_pos = 1 << 60
        probed: list[Subtable] = []
        for sub in self._subtables:
            # Tuple priority sorting: stop once nothing better remains.
            # Equal-priority subtables must still be probed — the linear
            # interpreter resolves priority ties by table order, and a
            # tied entry in a later subtable may precede the current best.
            if best is not None and best.priority > sub.max_priority:
                break
            probed.append(sub)
            masked = sub.key_of(key)
            if masked is None:
                continue
            entry = sub.entries.get(masked)
            if entry is None:
                continue
            position = sub.positions[masked]
            if best is None or entry.priority > best.priority or (
                entry.priority == best.priority and position < best_pos
            ):
                # key_of already guarantees header presence, so the dict
                # hit is a true match.
                best = entry
                best_pos = position
                sub.hits += 1
        return best, probed
