"""The OpenFlow pipeline and the reference interpreter.

:class:`Pipeline` is the declarative program: a linked hierarchy of flow
tables (Section 2). :meth:`Pipeline.process` is the *direct datapath* of
Section 2.1 — it interprets the tables exactly, walking entries in priority
order. It is deliberately unoptimized: it serves as

* the semantic ground truth that both fast switches are differentially
  tested against,
* the OVS slow path (``vswitchd`` calls it with tracing enabled to learn
  which entries a packet probed, the input to megaflow generation), and
* the fallback the ESWITCH compiler's output must be equivalent to.

The same holds for writes: :meth:`Pipeline.apply_flow_mod` is the one
place that says what a flow-mod does to a table,
:meth:`Pipeline.admit_flow_mods` the one place that says whether a batch
may, and :meth:`Pipeline.undo_record` the one place that says what a
batch overwrites — so :meth:`Pipeline.apply_flow_mods` is all-or-nothing,
and every switch builds its ``apply_flow_mods`` / ``submit_flow_mods``
from these.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from repro.openflow.actions import Action, Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import RULE_SEQ_BITS, FlowTable, TableMissPolicy
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import Match
from repro.openflow.messages import (
    ErrorMsg,
    ErrorType,
    FlowMod,
    FlowModCommand,
    FlowModFailed,
    FlowModFailedCode,
    validate_flow_mod,
)
from repro.openflow.meters import MeterInstruction, MeterTable, SimClock
from repro.packet.packet import Packet
from repro.packet.parser import ParsedPacket, parse

#: Hard bound on tables visited per packet; decomposition may produce far
#: more than OpenFlow's 255-table limit (Section 3.2), but any single packet
#: traverses at most one table per input field, so this is a loop guard only.
MAX_TABLE_HOPS = 10_000

#: OpenFlow's logical table-id space (0..254 usable, 255 = OFPTT_ALL).
#: Admission control rejects flow-mods addressing tables beyond it with
#: ``OFPFMFC_BAD_TABLE_ID``; *internal* tables minted by decomposition are
#: not logical tables and are free to exceed it.
MAX_TABLES = 255


class PipelineError(Exception):
    """Raised on malformed pipeline programs (bad goto, missing table)."""


@dataclass(frozen=True)
class BatchUndo:
    """What a flow-mod batch overwrites, read off the pre-batch tables.

    Attributes:
        keys: one ``(table_id, match, priority, occupant, follower)`` row
            per rule key the batch names, in the order it first names
            them: the :class:`FlowEntry` that held the key (None: it was
            empty) and the entry that followed it in its priority class.
        created: ids of the tables the batch would create.
        minted: ``(table_id, minted)`` per existing table the batch names:
            how many rule ids it had minted, so an undone batch leaves
            the next id where it was and a replica that never saw the
            batch mints the same ids after it.
    """

    keys: "tuple[tuple[int, Match, int, FlowEntry | None, FlowEntry | None], ...]"
    created: frozenset
    minted: "tuple[tuple[int, int], ...]" = ()

    def wire_mods(self) -> list[FlowMod]:
        """The record as a batch any switch accepts: a strict DELETE per
        key that was empty, then an ADD per displaced rule carrying its
        cookie and timeouts. The deletes go first, so a table at capacity
        takes it; a rule that comes back this way is a new entry and
        closes its priority class."""
        mods = [_wire_mod(*row[:4]) for row in self.keys]
        return sorted(mods, key=lambda mod: mod.command is FlowModCommand.ADD)


def _wire_mod(table_id: int, match: Match, priority: int, occupant) -> FlowMod:
    if occupant is not None:
        return FlowMod.of_entry(table_id, occupant)
    return FlowMod(
        FlowModCommand.DELETE, table_id, match, priority=priority, strict=True
    )


class Verdict:
    """The fate of one packet: where it went and how it got there.

    Attributes:
        output_ports: ports the packet was forwarded to (empty = dropped).
        dropped: an explicit drop action or a drop-policy table miss fired.
        to_controller: the packet was punted to the controller.
        table_miss: at least one table lookup missed.
        path: ``(table_id, entry | None)`` per table visited, in order.
        probed: per-table list of entries examined (populated when the
            interpreter runs with ``trace=True``); feeds megaflow wildcards.
    """

    __slots__ = (
        "output_ports",
        "dropped",
        "to_controller",
        "table_miss",
        "reparse_needed",
        "path",
        "probed",
    )

    def __init__(self) -> None:
        self.output_ports: list[int] = []
        self.dropped = False
        self.to_controller = False
        self.table_miss = False
        self.reparse_needed = False
        self.path: list[tuple[int, FlowEntry | None]] = []
        self.probed: list[tuple[int, list[FlowEntry]]] = []

    @property
    def forwarded(self) -> bool:
        return bool(self.output_ports) and not self.dropped

    def summary(self) -> tuple[tuple[int, ...], bool, bool]:
        """Canonical fate triple for differential testing."""
        return tuple(self.output_ports), self.dropped, self.to_controller

    def __repr__(self) -> str:
        if self.dropped:
            return "Verdict(drop)"
        if not self.output_ports:
            return "Verdict(no-op)"
        return f"Verdict(ports={self.output_ports})"


class Pipeline:
    """A linked hierarchy of flow tables, keyed by table id.

    ``groups`` is the switch's group table (OpenFlow group entries);
    reference it from flow entries via
    :class:`~repro.openflow.groups.GroupAction`.
    """

    def __init__(self, tables: Iterable[FlowTable] = ()):
        from repro.openflow.groups import GroupTable

        self._tables: dict[int, FlowTable] = {}
        self.groups = GroupTable()
        self.clock = SimClock()
        self.meters = MeterTable(clock=self.clock)
        for table in tables:
            self.add_table(table)

    # -- construction -------------------------------------------------------

    def add_table(self, table: FlowTable) -> FlowTable:
        if table.table_id in self._tables:
            raise PipelineError(f"duplicate table id {table.table_id}")
        self._tables[table.table_id] = table
        return table

    def table(self, table_id: int) -> FlowTable:
        try:
            return self._tables[table_id]
        except KeyError:
            raise PipelineError(f"no table with id {table_id}") from None

    def get_or_create(self, table_id: int, **kwargs: object) -> FlowTable:
        if table_id not in self._tables:
            self._tables[table_id] = FlowTable(table_id, **kwargs)  # type: ignore[arg-type]
        return self._tables[table_id]

    def drop_table(self, table_id: int) -> None:
        """Forget a table (no-op when absent): the undo of creating it."""
        self._tables.pop(table_id, None)

    @property
    def tables(self) -> tuple[FlowTable, ...]:
        """Tables in ascending id order."""
        return tuple(self._tables[tid] for tid in sorted(self._tables))

    @property
    def first_table(self) -> FlowTable:
        if not self._tables:
            raise PipelineError("pipeline has no tables")
        return self._tables[min(self._tables)]

    def rule(self, rule_id: int) -> "FlowEntry | None":
        """The live entry installed under ``rule_id``, or None: the table
        its id names answers from its rule-id index."""
        table = self._tables.get(rule_id >> RULE_SEQ_BITS)
        return None if table is None else table.rule(rule_id)

    def total_entries(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def matched_fields(self) -> tuple[str, ...]:
        names: set[str] = set()
        for table in self._tables.values():
            names.update(table.matched_fields())
        return tuple(sorted(names))

    def validate(self) -> None:
        """Check every goto-table target exists and moves forward, read off
        each table's action-template census: O(templates), not O(rules)."""
        for table in self._tables.values():
            for target, *_ in table.action_facts():
                if target is None:
                    continue
                if target not in self._tables:
                    raise PipelineError(
                        f"table {table.table_id} jumps to missing table {target}"
                    )
                if target <= table.table_id:
                    raise PipelineError(
                        f"table {table.table_id} jumps backwards to {target}"
                    )

    # -- flow-mods: what one means, and whether a batch may -------------------

    def apply_flow_mod(self, mod: FlowMod) -> "tuple[int, FlowEntry | None]":
        """Apply one flow-mod to the logical tables: the spec of a write.

        Addressing a table creates it. A DELETE removes every entry whose
        match equals ``mod.match``; only a *strict* DELETE constrains the
        priority, and priority 0 is then a real target, not a wildcard.
        Any other command installs ``mod.to_entry()``, replacing the rule
        with the same ``(match, priority)`` if there is one; a replace does
        not grow the table, so only a genuinely new rule can raise
        :class:`~repro.openflow.messages.FlowModFailed` (``TABLE_FULL``)
        against ``max_entries``.

        Returns ``(removed, added)``: how many entries a DELETE took out
        and the entry an ADD installed. ``(0, None)`` is a no-op — the
        table's version did not move.
        """
        table = self.get_or_create(mod.table_id)
        if mod.command is FlowModCommand.DELETE:
            return table.remove(mod.match, mod.priority if mod.strict else None), None
        if table.full and not table.has_rule(mod.match, mod.priority):
            raise FlowModFailed(
                ErrorMsg(
                    ErrorType.FLOW_MOD_FAILED,
                    FlowModFailedCode.TABLE_FULL,
                    f"table {mod.table_id} at capacity "
                    f"({table.max_entries} entries)",
                    data=mod,
                )
            )
        return 0, table.add(mod.to_entry())

    # -- flow-mods: what a batch overwrites, and putting it back --------------

    def undo_record(self, mods: Sequence[FlowMod]) -> BatchUndo:
        """What ``mods`` would overwrite, *without touching anything*.

        Every rule key ``(table, match, priority)`` the batch can write —
        an ADD's and a strict DELETE's own, a non-strict DELETE's one per
        live priority of its match (a rule the batch itself adds under
        that match is named by its ADD) — with the entry object holding
        it now. Read off each table's rule index, so the cost follows the
        batch and not the tables, like :meth:`admit_flow_mods`.
        """
        tables = self._tables
        keys: dict[tuple[int, Match, int], tuple] = {}
        for mod in mods:
            table = tables.get(mod.table_id)  # None: the batch creates it
            if mod.command is FlowModCommand.DELETE and not mod.strict:
                priorities = (
                    table.rule_priorities(mod.match) if table is not None else ()
                )
            else:
                priorities = (mod.priority,)
            for priority in priorities:
                key = (mod.table_id, mod.match, priority)
                if key in keys:
                    continue
                occupant = follower = None
                if table is not None:
                    occupant = table.find_rule(mod.match, priority)
                    if occupant is not None:
                        follower = table.follower(occupant)
                keys[key] = (*key, occupant, follower)
        named = {mod.table_id for mod in mods}
        return BatchUndo(
            keys=tuple(keys.values()),
            created=frozenset(named - tables.keys()),
            minted=tuple(
                (tid, tables[tid].minted) for tid in sorted(named & tables.keys())
            ),
        )

    def undo_steps(
        self, undo: BatchUndo
    ) -> "Iterator[tuple[FlowMod, Callable[[FlowMod], tuple]]]":
        """The writes that put back every key of ``undo`` now held by
        something else, as ``(mod, write)``: ``write(mod)`` does what
        :meth:`apply_flow_mod` would — same return — except that an ADD
        installs the displaced object itself, ahead of its follower. A
        switch with compiled state wraps each as it wraps a forward mod.

        Last-named key first, so a batch that names each key once is
        walked back through the states it went through. Keys of a table
        that is gone (a created one, dropped whole) are skipped. Once the
        last write is done, each table's ``minted`` count is set back.
        """
        # A follower the batch displaced too may not be back yet: the
        # rule then goes ahead of that one's follower, and so on.
        next_of = {id(row[3]): row[4] for row in undo.keys if row[3] is not None}
        for table_id, match, priority, occupant, follower in reversed(undo.keys):
            table = self._tables.get(table_id)
            if table is None or table.find_rule(match, priority) is occupant:
                continue
            mod = _wire_mod(table_id, match, priority, occupant)
            if occupant is None:
                yield mod, self.apply_flow_mod
                continue
            while follower is not None and (
                table.find_rule(follower.match, follower.priority) is not follower
            ):
                follower = next_of.get(id(follower))
            yield mod, partial(self._put_back, occupant, follower)
        for table_id, minted in undo.minted:
            self._tables[table_id].minted = minted

    def _put_back(
        self, entry: FlowEntry, follower: "FlowEntry | None", mod: FlowMod
    ) -> "tuple[int, FlowEntry]":
        return 0, self._tables[mod.table_id].put_back(entry, follower)

    def roll_back(self, undo: BatchUndo) -> None:
        """Put every key ``undo`` names back to its recorded occupant —
        the same object, in its pre-batch position — and drop the tables
        the batch created."""
        for table_id in undo.created:
            self.drop_table(table_id)
        for mod, write in self.undo_steps(undo):
            write(mod)

    def apply_flow_mods(self, mods: Sequence[FlowMod]) -> None:
        """Apply a batch, all or nothing: whatever a mod raises, the
        tables are back to their pre-batch state, object for object,
        before it propagates."""
        undo = self.undo_record(mods)
        try:
            for mod in mods:
                self.apply_flow_mod(mod)
        except BaseException:
            self.roll_back(undo)
            raise

    def admit_flow_mods(self, mods: Sequence[FlowMod]) -> list[ErrorMsg]:
        """Validate a batch against the live tables *without touching them*.

        Returns every typed error the batch would provoke (empty = the
        batch is admissible): the static checks of
        :func:`~repro.openflow.messages.validate_flow_mod`, goto targets
        resolving against the pipeline's tables plus those the batch
        itself creates, and per-table ``max_entries`` capacity — simulated
        over ``(match, priority)`` rule keys so ADD-replaces, MODIFYs and
        interleaved DELETEs count exactly as :meth:`apply_flow_mod` would
        apply them, at a cost that follows the batch and not the tables
        it addresses.
        """
        errors: list[ErrorMsg] = []
        statically_ok: list[FlowMod] = []
        for mod in mods:
            err = validate_flow_mod(mod, max_tables=MAX_TABLES)
            if err is not None:
                errors.append(err)
            else:
                statically_ok.append(mod)

        existing = self._tables
        # Any mod addressing a table creates it (get_or_create semantics),
        # so goto targets may resolve to tables minted later in the batch.
        will_exist = existing.keys() | {mod.table_id for mod in statically_ok}
        # Occupancy is an overlay on each table's own rule index: the live
        # priorities of just the matches this batch names, copied out on
        # first touch, beside a running entry count. O(batch), whatever
        # the table holds.
        live: dict[tuple[int, Match], set[int]] = {}
        count: dict[int, int] = {}

        for mod in statically_ok:
            for instr in mod.instructions:
                if (
                    isinstance(instr, GotoTable)
                    and instr.table_id not in will_exist
                ):
                    errors.append(
                        ErrorMsg(
                            ErrorType.BAD_INSTRUCTION,
                            "OFPBIC_BAD_TABLE_ID",
                            f"goto target {instr.table_id} does not exist "
                            "and is not created by this batch",
                            data=mod,
                        )
                    )
            tid = mod.table_id
            table = existing.get(tid)  # None: batch-created, unbounded
            if tid not in count:
                count[tid] = len(table) if table is not None else 0
            prios = live.get((tid, mod.match))
            if prios is None:
                prios = live[tid, mod.match] = set(
                    table.rule_priorities(mod.match) if table is not None else ()
                )
            cap = table.max_entries if table is not None else None
            if mod.command is FlowModCommand.DELETE:
                if not mod.strict:
                    count[tid] -= len(prios)
                    prios.clear()
                elif mod.priority in prios:
                    prios.remove(mod.priority)
                    count[tid] -= 1
            elif mod.priority in prios:
                pass  # replaces in place: no growth, always admissible
            elif cap is not None and count[tid] >= cap:
                errors.append(
                    ErrorMsg(
                        ErrorType.FLOW_MOD_FAILED,
                        FlowModFailedCode.TABLE_FULL,
                        f"table {tid} at capacity ({cap} entries)",
                        data=mod,
                    )
                )
            else:
                prios.add(mod.priority)
                count[tid] += 1
        return errors

    # -- the reference interpreter (direct datapath) --------------------------

    def process(self, pkt: Packet, trace: bool = False) -> Verdict:
        """Interpret the pipeline on one packet.

        With ``trace=True`` the verdict's ``probed`` lists every entry
        examined in each table — the raw material of megaflow wildcards.
        """
        verdict = Verdict()
        view = parse(pkt)
        self._run(view, verdict, trace)
        return verdict

    def _run(self, view: ParsedPacket, verdict: Verdict, trace: bool) -> None:
        if not self._tables:
            raise PipelineError("pipeline has no tables")
        table_id = min(self._tables)
        action_set: list[Action] = []
        hops = 0
        while True:
            hops += 1
            if hops > MAX_TABLE_HOPS:
                raise PipelineError("pipeline loop detected")
            table = self._tables.get(table_id)
            if table is None:
                raise PipelineError(f"goto_table to missing table {table_id}")

            probed: list[FlowEntry] | None = [] if trace else None
            entry = table.lookup(view, probed)
            if trace:
                verdict.probed.append((table_id, probed or []))
            verdict.path.append((table_id, entry))

            if entry is None:
                verdict.table_miss = True
                if table.miss_policy is TableMissPolicy.CONTROLLER:
                    verdict.to_controller = True
                else:
                    verdict.dropped = True
                return

            entry.packets += 1
            entry.bytes += len(view.pkt)
            # Meters run before the entry's other instructions (OF 1.3):
            # a fired drop band kills the packet here, earlier entries'
            # already-applied effects standing.
            for instr in entry.instructions:
                if isinstance(instr, MeterInstruction):
                    if not instr.allow():
                        verdict.dropped = True
                        return
                    break
            next_table: int | None = None
            for instr in entry.instructions:
                if isinstance(instr, ApplyActions):
                    for action in instr.actions:
                        action.apply(view, verdict)
                        if verdict.reparse_needed:
                            # VLAN push/pop moved header offsets; later
                            # actions must see the new layout immediately.
                            view = parse(view.pkt)
                            verdict.reparse_needed = False
                elif isinstance(instr, WriteActions):
                    action_set.extend(instr.actions)
                elif isinstance(instr, ClearActions):
                    action_set.clear()
                elif isinstance(instr, WriteMetadata):
                    view.pkt.metadata = (view.pkt.metadata & ~instr.mask) | (
                        instr.value & instr.mask
                    )
                elif isinstance(instr, GotoTable):
                    next_table = instr.table_id
            if verdict.dropped:
                return
            if next_table is None:
                break
            table_id = next_table

        if action_set:
            # Execute the accumulated action set; outputs go last, matching
            # the spec's action-set execution order.
            ordered = [a for a in action_set if not isinstance(a, Output)] + [
                a for a in action_set if isinstance(a, Output)
            ]
            for action in ordered:
                action.apply(view, verdict)
                if verdict.reparse_needed:
                    view = parse(view.pkt)
                    verdict.reparse_needed = False

    def __iter__(self) -> Iterator[FlowTable]:
        return iter(self.tables)

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return f"Pipeline(tables={len(self._tables)}, entries={self.total_entries()})"
