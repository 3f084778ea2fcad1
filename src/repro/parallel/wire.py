"""Wire forms: what verdicts and counters mean on the far side of a shard.

A :class:`~repro.openflow.pipeline.Verdict` is a runtime object: it
holds live :class:`FlowEntry` references that mean nothing in another
replica. Before :mod:`repro.parallel.frames` packs a reply, the worker
therefore reduces it to position-addressed tuples, and the engine
re-binds them after unpacking (packets need no such step: a request
frame packs straight from :class:`~repro.packet.packet.Packet`):

* a verdict is ``(ports, flags, path)`` where every path hop keeps its
  table id verbatim (hop ids through decomposition-internal tables
  included — the last hop's id is what packet-ins report) and replaces
  the entry reference by its **logical pipeline position**
  ``(ltid, idx)`` — stable across replicas because every replica
  applies the same flow-mods in the same epoch order, so logical
  ``entries`` tuples are identical everywhere.

A hop through a decomposition-internal table holds what that table's
lookup returned: a logical rule (a decomposition leaf compiles to the
rule it stands for) or a synthetic *dispatch* entry. Dispatch entries
have no logical identity at all; they carry the ``(-1, -1)`` position
and decode to ``None``.

The engine re-binds positions to its own shadow pipeline's entries on
gather, giving callers real ``Verdict`` objects whose ``path`` points at
the authoritative control-plane state.
"""

from __future__ import annotations

from typing import Sequence

from repro.openflow.pipeline import Verdict

_DROPPED = 1
_TO_CONTROLLER = 2
_TABLE_MISS = 4


class EntryIndexCache:
    """Logical entry ↔ position maps, invalidated by table versions.

    Both sides of the channel keep one over *their* pipeline: the worker to
    *encode* the entries its replica's verdicts reference, the engine to
    *decode* positions back into its shadow pipeline's entries. The maps
    rebuild lazily whenever any table's ``version`` moves (every
    flow-mod bumps it), so one rebuild per epoch in steady state.

    Positions index the table's **live** entry order (``table.entries``
    skips tombstones), and the tombstone store's compaction neither
    reorders live entries nor bumps ``version`` — so a cached position
    map stays correct across a compaction on either side of the channel,
    even when worker and engine compact at different times.
    """

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self._versions: "tuple | None" = None
        self._index: dict = {}    # id(entry) -> (ltid, idx)
        self._entries: dict = {}  # ltid -> entries sequence

    def maps(self) -> tuple[dict, dict]:
        versions = tuple(t.version for t in self.pipeline)
        if versions != self._versions:
            index: dict = {}
            entries_by: dict = {}
            for table in self.pipeline:
                entries = table.entries
                entries_by[table.table_id] = entries
                for i, entry in enumerate(entries):
                    index[id(entry)] = (table.table_id, i)
            self._index, self._entries = index, entries_by
            self._versions = versions
        return self._index, self._entries


def encode_verdicts(
    verdicts: Sequence[Verdict], cache: EntryIndexCache
) -> list[tuple]:
    """The worker's per-burst reply path (position maps bound once)."""
    index, _ = cache.maps()
    out = []
    for verdict in verdicts:
        flags = (
            (_DROPPED if verdict.dropped else 0)
            | (_TO_CONTROLLER if verdict.to_controller else 0)
            | (_TABLE_MISS if verdict.table_miss else 0)
        )
        path = []
        for tid, entry in verdict.path:
            # a miss (None) and a dispatch entry are in no table
            path.append((tid,) + index.get(id(entry), (-1, -1)))
        out.append((tuple(verdict.output_ports), flags, tuple(path)))
    return out


def decode_verdicts(
    wires: Sequence[tuple], cache: EntryIndexCache
) -> list[Verdict]:
    """The engine's per-gather path (entry tuples bound once)."""
    _, entries_by = cache.maps()
    out = []
    for ports, flags, path in wires:
        verdict = Verdict()
        verdict.output_ports = list(ports)
        verdict.dropped = bool(flags & _DROPPED)
        verdict.to_controller = bool(flags & _TO_CONTROLLER)
        verdict.table_miss = bool(flags & _TABLE_MISS)
        bound = verdict.path
        for tid, ltid, idx in path:
            entry = None
            if ltid >= 0:
                entries = entries_by.get(ltid)
                if entries is not None and idx < len(entries):
                    entry = entries[idx]
            bound.append((tid, entry))
        out.append(verdict)
    return out


def counter_deltas(
    verdicts: Sequence[Verdict],
    cache: EntryIndexCache,
    shipped: dict,
) -> list[tuple]:
    """Per-entry flow-counter deltas for the entries this burst touched.

    The worker ships, with every burst reply, how much each touched
    logical entry's counters advanced since the last reply —
    ``(ltid, idx, d_packets, d_bytes)`` — and tracks what it already
    reported in ``shipped`` (``id(entry) -> (packets, bytes)``). The
    engine folds the deltas into its own ledger keyed by shadow entry,
    which makes flow statistics *fault-exact*: a worker that dies holding
    an unsent reply takes exactly its unacked deltas to the grave, and
    the retried sub-burst re-earns them on whichever replica re-executes
    it. A rule's counters advance only where the hop loop appends it to
    the verdict path (the hop text in :mod:`repro.core.fuse`), so walking
    the paths finds every touched entry.

    ``shipped`` MUST be pruned when entry objects are swapped by a
    flow-mod (see the worker's ``mods`` handler): ``id()`` values can be
    recycled, and a stale baseline under a recycled id would corrupt the
    deltas.
    """
    index, _ = cache.maps()
    touched = {id(entry): entry for v in verdicts for _tid, entry in v.path}
    out = []
    for eid, entry in touched.items():
        pos = index.get(eid)
        if pos is None:
            continue  # a miss (None) or a dispatch entry: no logical counters
        prev = shipped.get(eid, (0, 0))
        d_packets, d_bytes = entry.packets - prev[0], entry.bytes - prev[1]
        if d_packets or d_bytes:
            shipped[eid] = (entry.packets, entry.bytes)
            out.append((pos[0], pos[1], d_packets, d_bytes))
    return out
