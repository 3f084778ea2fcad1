"""The megaflow cache: disjoint wildcard entries + their generation.

"The second-level megaflow cache allows to bundle multiple microflows into
a single megaflow aggregate … The megaflow cache uses a tuple space search
strategy … Since the megaflow cache does not 'know' about flow priorities,
matches can never overlap and so megaflows must be disjoint." (Section 2.2)

Two wildcard-generation modes are provided:

* :attr:`WildcardMode.FIELD` — the production algorithm: every subtable the
  slow-path classifier probed contributes its whole mask signature. This
  drives all the performance experiments.
* :attr:`WildcardMode.BIT_TRACKING` — per-bit proofs in the style of OVS
  prefix/port tracking ([29], "Flow caching for high entropy packet
  fields"): a rule the packet *misses* is disproven by a single bit — the
  lowest-order bit where the packet diverges from the rule — while a rule
  it *matches* pins all its match bits. This mode reproduces Fig. 3's
  arrival-order anomaly: the same table and packets yield 7 megaflows under
  one arrival order and 1 under another.

Megaflow entries cache the *action program* of the whole pipeline
traversal; a hit replays it without touching any flow table.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Mapping

from repro.net.bits import lowest_differing_bit
from repro.openflow.actions import Action
from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.instructions import ApplyActions, ClearActions, WriteActions
from repro.openflow.pipeline import Verdict
from repro.packet import parser as pp

#: Default megaflow capacity (the OVS flow limit is configurable; the DPDK
#: datapath defaults to the order of tens of thousands of flows).
DEFAULT_CAPACITY = 65536


class WildcardMode(enum.Enum):
    FIELD = "field"
    BIT_TRACKING = "bit"


#: A megaflow mask: sorted ``(field, mask_bits)`` pairs.
MaskSig = tuple[tuple[str, int], ...]


#: One replay step: (meter or None, actions, the rule to credit or None).
#: Steps mirror the flow entries the slow path traversed, so replay can
#: stop exactly where the interpreter would (drop mid-path, fired meter).
ProgramStep = tuple

class MegaflowEntry:
    """One disjoint wildcard entry: mask + masked key + a replay program.

    The program's per-step rule references keep per-rule statistics and
    idle timeouts truthful on cache hits (as OVS's revalidators push
    datapath flow stats up to the rules), and per-step meters enforce
    current rate limits at replay time.
    """

    __slots__ = (
        "sig",
        "masked_key",
        "program",
        "dropped",
        "hits",
        "_dead",
        "generation",
        "gen_cell",
        "entry_id",
    )

    _next_id = 0

    def __init__(
        self,
        sig: MaskSig,
        masked_key: tuple,
        program: tuple[ProgramStep, ...] = (),
        dropped: bool = False,
        actions: "tuple[Action, ...] | None" = None,
        stat_entries: tuple = (),
    ):
        if actions is not None:
            # Convenience: a flat action list becomes a single step.
            program = program + ((None, tuple(actions), None),)
            if stat_entries:
                program = tuple(
                    (None, (), e) for e in stat_entries
                ) + program
        self.sig = sig
        self.masked_key = masked_key
        self.program = tuple(program)
        self.dropped = dropped
        self.hits = 0
        self._dead = False
        #: generation stamp + the owning cache's shared generation cell.
        #: The entry is dead once the cell advances past its stamp — a
        #: whole-cache invalidation is then one integer increment, not a
        #: walk marking every entry (the O(cache) loop the collapse sweep
        #: paid per flow-mod).
        self.generation = 0
        self.gen_cell: "list[int] | None" = None
        MegaflowEntry._next_id += 1
        self.entry_id = MegaflowEntry._next_id

    @property
    def dead(self) -> bool:
        cell = self.gen_cell
        return self._dead or (cell is not None and cell[0] != self.generation)

    @dead.setter
    def dead(self, value: bool) -> None:
        # Individual kills (eviction, revalidation) stay per-entry flags.
        self._dead = bool(value)

    @property
    def actions(self) -> tuple[Action, ...]:
        """The flattened action list (inspection/cost accounting)."""
        return tuple(a for _m, acts, _e in self.program for a in acts)

    @property
    def stat_entries(self) -> tuple:
        return tuple(e for _m, _a, e in self.program if e is not None)

    def __repr__(self) -> str:
        fields = ",".join(f"{n}/{m:#x}" for n, m in self.sig)
        return f"MegaflowEntry({fields} -> {len(self.actions)} actions)"


class _MegaSubtable:
    """All megaflow entries sharing one mask."""

    __slots__ = ("sig", "entries", "hits")

    def __init__(self, sig: MaskSig):
        self.sig = sig
        self.entries: dict[tuple, MegaflowEntry] = {}
        self.hits = 0

    def key_of(self, key: Mapping[str, "int | None"]) -> tuple:
        # None (absent header) is part of the masked key: a megaflow built
        # from a TCP packet must not cover a UDP packet.
        return tuple(
            (key.get(name) & mask) if key.get(name) is not None else None
            for name, mask in self.sig
        )


class MegaflowCache:
    """Tuple-space-search cache over disjoint megaflow entries."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: shared one-element generation cell; every inserted entry holds
        #: a reference, so ``invalidate()`` kills them all in O(1).
        self._gen_cell: list[int] = [0]
        self._subtables: dict[MaskSig, _MegaSubtable] = {}
        self._lru: "OrderedDict[tuple[MaskSig, tuple], MegaflowEntry]" = OrderedDict()
        #: a whole-cache invalidation happened and the container clear is
        #: still owed: swept at the next packet-path touch, so N flow-mods
        #: between packets cost N generation bumps + ONE sweep.
        self._sweep_pending = False
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.invalidations = 0

    def _sweep(self) -> None:
        if self._sweep_pending:
            self._subtables.clear()
            self._lru.clear()
            self._sweep_pending = False

    def __len__(self) -> int:
        self._sweep()
        return len(self._lru)

    @property
    def subtable_count(self) -> int:
        self._sweep()
        return len(self._subtables)

    def lookup(
        self, key: Mapping[str, "int | None"]
    ) -> tuple["MegaflowEntry | None", int]:
        """Search every subtable; returns (entry, subtables_probed).

        Entries are disjoint so the search cannot early-exit on priority —
        it stops at the first hit (ordering subtables by hit count keeps
        frequently used masks near the front, as OVS does).
        """
        self._sweep()
        probed = 0
        found: MegaflowEntry | None = None
        for sub in self._subtables.values():
            probed += 1
            entry = sub.entries.get(sub.key_of(key))
            if entry is not None:
                sub.hits += 1
                entry.hits += 1
                found = entry
                break
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
            self._lru.move_to_end((found.sig, found.masked_key))
        return found, probed

    def insert(self, entry: MegaflowEntry) -> None:
        self._sweep()
        entry.gen_cell = self._gen_cell
        entry.generation = self._gen_cell[0]
        entry._dead = False  # re-insertion after invalidation revives
        sub = self._subtables.get(entry.sig)
        if sub is None:
            sub = self._subtables[entry.sig] = _MegaSubtable(entry.sig)
        sub.entries[entry.masked_key] = entry
        self._lru[(entry.sig, entry.masked_key)] = entry
        self._lru.move_to_end((entry.sig, entry.masked_key))
        self.insertions += 1
        if len(self._lru) > self.capacity:
            (old_sig, old_key), old = self._lru.popitem(last=False)
            old.dead = True
            old_sub = self._subtables.get(old_sig)
            if old_sub is not None:
                old_sub.entries.pop(old_key, None)
                if not old_sub.entries:
                    del self._subtables[old_sig]
            self.evictions += 1

    def invalidate(self) -> None:
        """The brute-force flush OVS performs on essentially any change.

        Generation-tagged: advancing the shared cell marks every issued
        entry dead at once (external holders — the EMC's microflow refs —
        observe it through :attr:`MegaflowEntry.dead`), so the flush is
        O(1) instead of a walk over the whole cache per flow-mod. The
        container clear is *deferred* to the next packet-path touch: a
        reinstall batch of N mods pays N integer bumps plus one sweep,
        not N × O(occupancy) dict clears — the reactive install path's
        per-collapse-sweep cost the ROADMAP flagged at 10⁶ flows.
        """
        self._gen_cell[0] += 1
        self._sweep_pending = bool(self._lru)
        self.invalidations += 1

    def invalidate_overlapping(self, match) -> int:
        """Revalidation-style partial flush: kill only megaflows whose key
        region intersects ``match`` (a changed rule can only affect those).

        Models the cheaper end of OVS cache maintenance; the paper's
        critique targets the brute-force default, but revalidators that
        narrow the damage are the natural comparison point for Fig. 18's
        update-intensity sweep.
        """
        self._sweep()
        pairs = dict(match.items())
        killed = 0
        for (sig, masked_key), entry in list(self._lru.items()):
            if any(  # some field's common bits differ: disjoint, keep it
                value is not None and name in pairs
                and (value ^ pairs[name][0]) & mask & pairs[name][1]
                for (name, mask), value in zip(sig, masked_key)
            ):
                continue
            entry.dead = True
            del self._lru[(sig, masked_key)]
            sub = self._subtables.get(sig)
            if sub is not None:
                sub.entries.pop(masked_key, None)
                if not sub.entries:
                    del self._subtables[sig]
            killed += 1
        if killed:
            self.invalidations += 1
        return killed

    def entries(self) -> list[MegaflowEntry]:
        self._sweep()
        return list(self._lru.values())


# -- wildcard generation --------------------------------------------------------


def _add_prereq_fields(bits: dict[str, int], proto_required: int) -> None:
    """Unwildcard the fields that prove a protocol prerequisite."""
    if proto_required & (pp.PROTO_IPV4 | pp.PROTO_ARP | pp.PROTO_IPV6):
        bits["eth_type"] = field_by_name("eth_type").max_value
    if proto_required & (
        pp.PROTO_TCP | pp.PROTO_UDP | pp.PROTO_ICMP | pp.PROTO_ICMP6 | pp.PROTO_SCTP
    ):
        bits["eth_type"] = field_by_name("eth_type").max_value
        bits["ip_proto"] = field_by_name("ip_proto").max_value
    if proto_required & pp.PROTO_VLAN:
        bits.setdefault("vlan_vid", 0)


def wildcards_from_trace(
    verdict: Verdict,
    key: Mapping[str, "int | None"],
    mode: WildcardMode = WildcardMode.FIELD,
) -> MaskSig:
    """Compute the megaflow mask from a traced slow-path traversal.

    ``verdict`` must come from the reference interpreter with ``trace=True``
    so that ``verdict.probed`` holds every entry examined per table.
    """
    bits: dict[str, int] = {}
    matched = {id(entry) for _tid, entry in verdict.path if entry is not None}
    for _tid, probed in verdict.probed:
        for entry in probed:
            if mode is WildcardMode.FIELD or id(entry) in matched:
                for name, (_value, mask) in entry.match.items():
                    bits[name] = bits.get(name, 0) | mask
                _add_prereq_fields(bits, entry.match.required_protos())
            else:
                _add_miss_proof(bits, entry, key)
    # A zero mask is meaningful: it checks header *presence* only.
    return tuple(sorted(bits.items()))


def _add_miss_proof(
    bits: dict[str, int], entry: FlowEntry, key: Mapping[str, "int | None"]
) -> None:
    """BIT_TRACKING: pin the single lowest-order bit disproving ``entry``."""
    for name, (value, mask) in entry.match.items():
        fdef = field_by_name(name)
        actual = key.get(name)
        if actual is None:
            # The packet lacks the header: absence is the proof.
            _add_prereq_fields(bits, fdef.proto_required)
            return
        if (actual & mask) != value:
            pos = lowest_differing_bit(actual & mask, value, fdef.width)
            assert pos is not None
            bits[name] = bits.get(name, 0) | (1 << (fdef.width - pos))
            return
    # The entry actually matched on fields; it must have failed on a
    # protocol prerequisite instead.
    _add_prereq_fields(bits, entry.match.required_protos())


def replay_program(verdict: Verdict) -> tuple[ProgramStep, ...]:
    """Build the grouped replay program from a traced traversal.

    One step per matched entry — (meter, apply-actions, the entry for stat
    attribution) — plus a final step carrying the surviving write-action
    set (outputs last), mirroring the interpreter. Metadata writes are
    omitted: they only influence later lookups, which the cached decision
    already incorporates.
    """
    from repro.openflow.actions import Output
    from repro.openflow.meters import MeterInstruction

    steps: list[ProgramStep] = []
    write_set: list[Action] = []
    for _tid, entry in verdict.path:
        if entry is None:
            break
        meter = None
        actions: list[Action] = []
        for instr in entry.instructions:
            if isinstance(instr, MeterInstruction):
                meter = instr
            elif isinstance(instr, ApplyActions):
                actions.extend(instr.actions)
            elif isinstance(instr, WriteActions):
                write_set.extend(instr.actions)
            elif isinstance(instr, ClearActions):
                write_set.clear()
        steps.append((meter, tuple(actions), entry))
    if write_set:
        ordered = [a for a in write_set if not isinstance(a, Output)] + [
            a for a in write_set if isinstance(a, Output)
        ]
        steps.append((None, tuple(ordered), None))
    return tuple(steps)


def action_program(verdict: Verdict) -> tuple[Action, ...]:
    """The flattened action list of :func:`replay_program` (compat helper)."""
    return tuple(a for _m, acts, _e in replay_program(verdict) for a in acts)


def build_megaflow(
    verdict: Verdict,
    key: Mapping[str, "int | None"],
    mode: WildcardMode = WildcardMode.FIELD,
) -> MegaflowEntry:
    """Construct the megaflow entry a traced slow-path pass teaches us."""
    sig = wildcards_from_trace(verdict, key, mode)
    masked_key = tuple(
        (key.get(name) & mask) if key.get(name) is not None else None
        for name, mask in sig
    )
    return MegaflowEntry(
        sig=sig,
        masked_key=masked_key,
        program=replay_program(verdict),
        dropped=verdict.dropped,
    )
