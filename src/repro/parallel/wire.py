"""Wire forms: what verdicts and counters mean on the far side of a shard.

A :class:`~repro.openflow.pipeline.Verdict` is a runtime object: it
holds live :class:`FlowEntry` references that mean nothing in another
replica. Before :mod:`repro.parallel.frames` packs a reply, the worker
therefore names each entry by its **rule id** (``entry_id``), and the
engine resolves the ids against its own shadow pipeline after unpacking
(packets need no such step: a request frame packs straight from
:class:`~repro.packet.packet.Packet`):

* a verdict is ``(ports, flags, path)`` where every path hop keeps its
  table id verbatim (hop ids through decomposition-internal tables
  included — the last hop's id is what packet-ins report) and replaces
  the entry reference by its rule id — the same on every replica,
  because a table mints ids as it installs rules and every replica
  applies the same flow-mods in the same epoch order (an undone batch
  sets the minting back, :class:`~repro.openflow.pipeline.BatchUndo`);
* a counter delta is ``(rule_id, d_packets, d_bytes)``.

A hop through a decomposition-internal table holds what that table's
lookup returned: a logical rule (a decomposition leaf compiles to the
rule it stands for) or a synthetic *dispatch* entry. A dispatch entry is
no rule of the pipeline — its id, minted by an internal table, may even
equal a logical rule's — so only an entry the pipeline's rule index
holds under its own id is named; a miss and a dispatch hop carry 0,
which names no rule, and decode to ``None``.

Rule ids never move when a table compacts or another rule comes or
goes, so no side rebuilds anything when a flow-mod lands: each asks its
pipeline's rule index (:meth:`~repro.openflow.pipeline.Pipeline.rule`),
which every install and removal keeps, the first time it meets an entry
or an id.
"""

from __future__ import annotations

from typing import Sequence

from repro.openflow.pipeline import Verdict

_DROPPED = 1
_TO_CONTROLLER = 2
_TABLE_MISS = 4


class _Memo(dict):
    """Answers of ``fn``, each asked once per key."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class EntryIndexCache:
    """One side's rule names over one pipeline: ``names`` (entry -> rule
    id; 0 for a miss, and for an entry that is no rule of the pipeline)
    on the worker, ``rules`` (rule id -> entry) on the engine, each
    filled by its first question to the pipeline's rule index
    (:meth:`~repro.openflow.pipeline.Pipeline.rule`). An id names one
    rule for as long as a verdict can carry it (an undone batch hands its
    ids out again, but no burst runs inside a batch), so no answer goes
    stale; each side starts a fresh cache per epoch only so as not to
    keep removed rules alive.
    """

    def __init__(self, pipeline):
        rule = pipeline.rule
        self.names = _Memo(
            lambda e: e.entry_id if e is not None and rule(e.entry_id) is e else 0
        )
        self.rules = _Memo(rule)


def encode_verdicts(
    verdicts: Sequence[Verdict], cache: EntryIndexCache
) -> list[tuple]:
    """The worker's per-burst reply path."""
    names = cache.names
    out = []
    for verdict in verdicts:
        flags = (
            (_DROPPED if verdict.dropped else 0)
            | (_TO_CONTROLLER if verdict.to_controller else 0)
            | (_TABLE_MISS if verdict.table_miss else 0)
        )
        path = []
        for tid, entry in verdict.path:
            path.append((tid, names[entry]))
        out.append((tuple(verdict.output_ports), flags, tuple(path)))
    return out


def decode_verdicts(
    wires: Sequence[tuple], cache: EntryIndexCache
) -> list[Verdict]:
    """The engine's per-gather path: ids resolve to the shadow's rules."""
    rules = cache.rules
    out = []
    for ports, flags, path in wires:
        verdict = Verdict()
        verdict.output_ports = list(ports)
        verdict.dropped = bool(flags & _DROPPED)
        verdict.to_controller = bool(flags & _TO_CONTROLLER)
        verdict.table_miss = bool(flags & _TABLE_MISS)
        bound = verdict.path
        for tid, rid in path:
            bound.append((tid, rules[rid]))
        out.append(verdict)
    return out


def counter_deltas(
    verdicts: Sequence[Verdict],
    cache: EntryIndexCache,
    unused: object = None,
) -> list[tuple]:
    """``(rule_id, packets, bytes)`` for every rule this burst touched.

    A worker zeroes each rule's counters once it has sent them (see
    :func:`repro.parallel.worker._run_burst`), so a rule's counters are
    exactly what it earned since the last reply, and the engine adds
    them onto the shadow's rule. That makes flow statistics
    *fault-exact*: a worker that dies holding an unsent reply takes
    exactly its unacked counts to the grave, and the retried sub-burst
    re-earns them on whichever replica re-executes it. A rule's counters
    advance only where the hop loop appends it to the verdict path (the
    hop text in :mod:`repro.core.fuse`), so walking the paths finds
    every touched rule.

    The third parameter has no job: it stays for callers that still pass
    a baseline dict there.
    """
    names = cache.names
    out = []
    for entry in dict.fromkeys(entry for v in verdicts for _tid, entry in v.path):
        rid = names[entry]
        if rid and (entry.packets or entry.bytes):
            out.append((rid, entry.packets, entry.bytes))
    return out
