"""Flow tables: priority-ordered entry stores with lookup and modification.

Lookup walks entries in decreasing priority, the direct-datapath semantics
of Section 2.1; the fast switches (:mod:`repro.core`, :mod:`repro.ovs`)
build their own specialized structures from the same entries. The table
records *which entries were probed* during a lookup — the megaflow
wildcard computation in :mod:`repro.ovs.megaflow` needs the non-matching
higher-priority entries too ("those that caused a match as well as those
higher priority ones that did not", Section 2.2).

Storage is a **tombstone-compacting slot list**: deletes blank the entry's
slot to ``None`` in O(1) instead of paying a list memmove per removal (the
churn wall at 10⁵+ entries), lookups and iteration skip tombstones, and an
amortized compaction squeezes the dead slots out once they reach a quarter
of the store — off the per-mod critical path, and invisible to every
consumer because the *live* order never changes and ``version`` does not
move. The parallel ``_keys`` list keeps each tombstone's old sort key so
priority bisection stays valid between compactions, which is also what
lets a fresh ADD reuse a tombstone adjacent to its insertion point (the
steady-state churn pattern) without any memmove at all.

The rule index and the live-entries tuple are built on first use and
then maintained by the mutation that bumps ``version``; the bulk doors
(:meth:`FlowTable.add_bulk`, ``add_columns``), :meth:`FlowTable.clear` and
unpickling drop both. So is the rule-id index (:meth:`FlowTable.rule`):
every install mints the entry's ``entry_id`` — the table's id in the high
bits, a per-table sequence number below — so ids are unique within a
pipeline, and replicas that apply the same flow-mods in the same order
mint the same ids. An undo puts a rule back under the id it had, and
sets the table's ``minted`` count back (:class:`~repro.openflow.pipeline.
BatchUndo`). An entry's slot is kept on the entry, not in a map:
a slot hint that the single-rule paths write and a renumbering pass
refreshes, trusted only when the store holds that very entry at that
slot. The identity check is the whole invalidation contract. A memmove,
compaction, bulk placement or unpickle moves slots without telling
anyone; a moved entry's hint fails the check, and asking for its slot
renumbers the live entries in one pass. An entry held by two tables is
answered right by both, only renumbered more often. Nothing outside
this class assigns ``_entries``: a table is copied by pickling it, and a
batch is undone by putting the displaced entries back
(:meth:`FlowTable.follower`, ``add(entry, before=...)``), not by
swapping the store.

Two structures are kept eagerly, in the same pass. The **action-template
census**: every path that installs a rule points its ``instructions`` at
the table's one :class:`~repro.openflow.instructions.ActionTemplate` for
that list and counts it, every path that removes a rule uncounts it, and
a key whose count reaches zero is dropped — 10⁵ rules over 16 distinct
lists hold 16 compiled lists, read in O(distinct), never from the
entries. The **shape multiset** (:meth:`FlowTable.feature_counts`) is
counted and uncounted beside it, so no compile ever walks the entries to
learn a table's shapes, and a pickled table carries it.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from typing import Callable, Iterable, Iterator, Sequence

from repro.openflow.flow_entry import _PERMANENT, FlowEntry
from repro.openflow.instructions import ActionTemplate
from repro.openflow.match import Match, keyed_columns
from repro.packet.parser import ParsedPacket


#: A rule id is ``table_id << RULE_SEQ_BITS | n``: the ``n``-th rule the
#: table minted an id for (n >= 1, so 0 names no rule).
RULE_SEQ_BITS = 32


def _sort_key(entry: "FlowEntry") -> int:
    """Priority-descending sort/bisect key for the entry store."""
    return -entry.priority


def _negated(entries: "list[FlowEntry]", shared: "list[int]" = ()) -> "list[int]":
    """The entries' sort keys, one int object per distinct priority: the
    ``shared`` keys' own object where one of them is equal."""
    keys: "dict[int, int]" = {-key: key for key in shared}
    return [keys.setdefault(e.priority, -e.priority) for e in entries]


def _holds(ents: "list[FlowEntry | None]", slot: "int | None", entry: FlowEntry) -> bool:
    """Whether ``slot`` (a slot hint) is where ``ents`` holds ``entry``."""
    return slot is not None and slot < len(ents) and ents[slot] is entry


def _listed(
    same_match: "FlowEntry | list[FlowEntry] | None",
) -> "list[FlowEntry] | tuple[FlowEntry, ...]":
    """One match's entries, priority-descending, from its rule-index
    value: a lone entry is held bare, same-match duplicates in a list."""
    if same_match is None:
        return ()
    return same_match if type(same_match) is list else (same_match,)


def _at_priority(
    same_match: "FlowEntry | list[FlowEntry] | None", priority: int
) -> "FlowEntry | None":
    """The entry with ``priority`` among one match's entries (a rule is
    match + priority, so at most one)."""
    for entry in _listed(same_match):
        if entry.priority == priority:
            return entry
    return None


def entry_features(entry: FlowEntry) -> tuple:
    """The value-free fingerprint of one entry: ``(priority, match shape,
    set-field names, action parse depth)``.

    Two entries with equal features are interchangeable for template
    selection (which masks on which fields, at what priority) and parser
    planning (which fields actions rewrite, how deep parsing must go) —
    only their matched *values* differ. :meth:`FlowTable.feature_counts`
    aggregates these so per-flow-mod replanning reads a handful of
    distinct shapes instead of rescanning a million entries. The action
    half is read off the entry's shared template, not rescanned per rule,
    and no entry keeps its fingerprint: the table counts it at install
    and recomputes it at removal.
    """
    template = entry.template
    return (entry.priority, entry.match.shape, template.set_fields, template.depth)


class TableMissPolicy(enum.Enum):
    """What happens to packets missing every entry (switch configuration)."""

    DROP = "drop"
    CONTROLLER = "controller"


class FlowTable:
    """A single pipeline stage: a priority-sorted store of flow entries."""

    #: Compaction triggers when at least this many tombstones accumulate …
    COMPACT_MIN_DEAD = 64
    #: … and they are at least this fraction of all slots. Amortized: a
    #: compaction copies the live entries once per O(n) deletes.
    COMPACT_DEAD_FRACTION = 0.25

    def __init__(
        self,
        table_id: int = 0,
        name: str = "",
        miss_policy: TableMissPolicy = TableMissPolicy.DROP,
        max_entries: "int | None" = None,
    ):
        if table_id < 0:
            raise ValueError(f"invalid table id {table_id}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.table_id = table_id
        self.name = name or f"table{table_id}"
        self.miss_policy = miss_policy
        #: advertised capacity (OpenFlow table-features ``max_entries``);
        #: None = unbounded. The table itself stays permissive — the
        #: pipeline (``Pipeline.admit_flow_mods`` / ``apply_flow_mod``) is
        #: what surfaces an over-capacity flow-mod as
        #: ``OFPFMFC_TABLE_FULL``. Tombstones never count against capacity.
        self.max_entries = max_entries
        # The slot list: priority-descending, insertion-stable among live
        # entries; a deleted entry's slot holds None (a tombstone).
        self._entries: "list[FlowEntry | None]" = []
        #: bumped on every *logical* modification (cache invalidation for
        #: compiled tables, fused drivers, …).
        #: Compaction is not a logical modification and does not bump it.
        self.version = 0
        # Parallel sort keys (-priority), one per slot. A tombstone keeps
        # the dead entry's key so bisection over ``_keys`` stays valid —
        # that is what makes tombstone *reuse* by a fresh ADD sound.
        self._keys: list[int] = []
        self._dead = 0  # tombstone count; live = len(_entries) - _dead
        #: compactions performed (telemetry for the churn bench).
        self.compactions = 0
        #: bumped whenever the *set* of distinct feature fingerprints
        #: changes (a shape class appearing or emptying), and only then.
        #: Steady-state churn inside existing shape classes does not move
        #: it, which is what lets ESwitch skip ``required_layer``
        #: re-planning per mod.
        self.shapes_version = 0
        # The lazy rule index. ``add``/strict ``remove``/``has_rule``/
        # ``find`` would otherwise scan the whole store per call — an O(n)
        # wall that turns million-entry churn into a benchmark of this
        # list instead of the datapath updates. ``_by_match`` maps a
        # match to its one entry, held bare, or to its same-match
        # duplicates in a priority-descending list — so a table of
        # distinct matches leaves no container per rule for the cyclic
        # collector to walk. ``find``'s duplicate-shadowing answer is the
        # head, and a rule (match + priority; unique, ``add`` replaces
        # same-rule entries) is the member at that priority. ``_timed``
        # maps ``entry_id -> entry`` for entries carrying a timeout (the
        # expiry manager's rescan set). Both are only trusted while
        # ``_index_version == version`` and are maintained incrementally
        # by every mutation path — including non-strict remove and
        # remove_if.
        self._by_match: "dict[Match, FlowEntry | list[FlowEntry]] | None" = None
        self._timed: "dict[int, FlowEntry] | None" = None
        self._index_version = -1
        # Multiset of :func:`entry_features` fingerprints (eager, see the
        # module docstring). Template re-selection and parser planning
        # read this instead of walking the entries.
        self._feats: "dict[tuple, int]" = {}
        # Cached live-entries tuple for the ``entries`` property.
        self._live: "tuple[FlowEntry, ...] | None" = None
        self._live_version = -1
        # The action-template census (eager, see the module docstring):
        # ``template -> [template, live rules carrying it]`` — the key
        # finds the canonical object from any equal tuple — and the
        # multiset of those templates' ``facts``.
        self._templates: "dict[tuple, list]" = {}
        self._facts: "dict[tuple, int]" = {}
        #: bumped whenever the *set* of fact tuples may have changed (a
        #: first goto target, write-action, metadata write or meter, or
        #: the last one leaving): all a whole-pipeline driver bakes in.
        self.facts_version = 0
        #: rule ids minted so far; the next install takes ``minted + 1``.
        self.minted = 0
        # ``entry_id -> entry`` over the live rules (:meth:`rule`): built on
        # first use, then maintained by every install and removal.
        self._by_id: "dict[int, FlowEntry] | None" = None

    def _mark_mutated(self) -> None:
        """Version bump + bookkeeping common to every logical mutation."""
        self.version += 1
        self._index_version = self.version
        self._live = None

    # -- indexes --------------------------------------------------------------

    def _index(self) -> "dict[Match, FlowEntry | list[FlowEntry]]":
        by_match = self._by_match
        if by_match is None or self._index_version != self.version:
            by_match = {}
            timed: dict = {}
            for e in self._entries:  # priority-desc ⇒ per-match lists too
                if e is None:
                    continue
                same_match = by_match.get(e.match)
                if same_match is None:
                    by_match[e.match] = e
                elif type(same_match) is list:
                    same_match.append(e)
                else:
                    by_match[e.match] = [same_match, e]
                # One slot read, compared by value: an unpickled entry
                # holds an equal tuple, not the shared one.
                if e._timeouts != _PERMANENT:
                    timed[e.entry_id] = e
            self._by_match, self._timed = by_match, timed
            self._index_version = self.version
        return by_match

    def _slot_of(self, entry: FlowEntry) -> int:
        """The slot holding the live ``entry``, for O(1) strict delete,
        replace and follower: its slot hint when the store holds it
        there, else after one renumbering pass. KeyError if the store
        does not hold it."""
        ents = self._entries
        if not _holds(ents, entry._slot, entry):
            self._renumber()
            if not _holds(ents, entry._slot, entry):
                raise KeyError(entry)
        return entry._slot

    def _renumber(self) -> None:
        """Point every live entry's slot hint at its slot, in one pass."""
        for slot, entry in enumerate(self._entries):
            if entry is not None:
                entry._slot = slot

    def follower(self, entry: FlowEntry) -> "FlowEntry | None":
        """The live entry that follows a live ``entry`` inside its
        priority class (None: it closes the class) — what
        ``add(entry, before=...)`` takes to put ``entry`` back in this
        place after a delete. O(1) plus the tombstones between the two.
        """
        slot = self._slot_of(entry)
        ents, keys = self._entries, self._keys
        for i in range(slot + 1, len(ents)):
            if keys[i] != keys[slot]:
                break
            if ents[i] is not None:
                return ents[i]
        return None

    def feature_counts(self) -> "dict[tuple, int]":
        """Multiset of :func:`entry_features` fingerprints, counted by
        every path that installs or removes a rule (read-only to callers).

        The distinct-key set is tiny (one key per match *shape*, not per
        entry), which is what makes per-update template re-selection and
        parser re-planning O(shapes) instead of O(entries).
        """
        return self._feats

    # -- the action-template census -------------------------------------------

    def action_templates(self) -> "dict[ActionTemplate, int]":
        """Multiset of the table's shared templates: one key per distinct
        instruction list, counting the live rules that point at it."""
        return {template: n for template, n in self._templates.values()}

    @property
    def template_count(self) -> int:
        """Distinct instruction lists among the live rules (O(1))."""
        return len(self._templates)

    def action_facts(self) -> "dict[tuple, int]":
        """Multiset of ``ActionTemplate.facts`` over the table's shared
        templates — O(distinct) to read, like :meth:`feature_counts`."""
        return self._facts

    def _intern(self, entry: FlowEntry) -> None:
        """Count one installed rule, pointing it at the canonical template
        for its instruction list (compiled here if it is the first), and
        count its shape class."""
        template = entry.instructions
        slot = self._templates.get(template)
        if slot is None:
            if type(template) is not ActionTemplate:
                template = ActionTemplate(template)
            slot = self._templates[template] = [template, 0]
            n = self._facts.get(template.facts, 0)
            if not n:
                self.facts_version += 1
            self._facts[template.facts] = n + 1
        entry.instructions = template = slot[0]
        slot[1] += 1
        # entry_features(entry), with the canonical template at hand
        f = (entry.priority, entry.match.shape, template.set_fields, template.depth)
        n = self._feats.get(f, 0)
        if not n:
            self.shapes_version += 1
        self._feats[f] = n + 1

    def _release(self, entry: FlowEntry) -> None:
        """Uncount one removed rule's template and shape class; a count
        reaching zero drops its key."""
        template = entry.instructions
        slot = self._templates[template]
        slot[1] -= 1
        if not slot[1]:
            del self._templates[template]
            n = self._facts[template.facts] - 1
            if n:
                self._facts[template.facts] = n
            else:
                del self._facts[template.facts]
                self.facts_version += 1
        f = entry_features(entry)
        n = self._feats[f] - 1
        if n:
            self._feats[f] = n
        else:
            del self._feats[f]
            self.shapes_version += 1

    # -- modification ---------------------------------------------------------

    def _insert_fresh(self, entry: FlowEntry, before: "FlowEntry | None") -> None:
        """Place a new rule at its insort_right position (or in front of
        ``before``, a live entry of its priority), preferring an adjacent
        tombstone over a memmove.

        With ``pos = bisect_right(_keys, key)``: every live same-priority
        entry sits at a slot < pos (tombstones keep their keys, so the
        bisection is exact about *slots*, conservative about live order),
        and every slot >= pos holds a strictly lower priority. Writing
        into a dead slot at ``pos`` (its key was > ours: shrink it) or at
        ``pos - 1`` (its key was <= ours: grow it) therefore keeps
        ``_keys`` sorted *and* lands the new entry after all live
        same-priority entries — exactly insort_right's probe order. The
        steady-state churn pattern (delete then re-add in the same
        priority band) hits one of these two slots every time: O(1).
        With ``before``, ``pos`` is its slot: a tombstone at ``pos - 1``
        has a key <= ours, and a memmove lands us directly ahead of it.
        An equal key, if the store holds one, is at ``pos - 1`` (or at
        ``before``'s ``pos``): the new slot shares its int.
        """
        skey = -entry.priority
        ents = self._entries
        keys = self._keys
        if before is None:
            pos = bisect.bisect_right(keys, skey)
            near = pos - 1
        else:
            pos = near = self._slot_of(before)
        if near >= 0 and keys[near] == skey:
            skey = keys[near]
        if pos < len(ents) and ents[pos] is None:
            ents[pos] = entry
            keys[pos] = skey
            self._dead -= 1
        elif pos and ents[pos - 1] is None:
            pos -= 1
            ents[pos] = entry
            keys[pos] = skey
            self._dead -= 1
        else:
            ents.insert(pos, entry)  # the tail's hints go stale
            keys.insert(pos, skey)
        entry._slot = pos

    def add(
        self, entry: FlowEntry, before: "FlowEntry | None" = None
    ) -> FlowEntry:
        """Insert an entry under a freshly minted rule id; replaces an
        existing entry with the same rule.

        A new rule closes its priority class unless ``before`` names the
        live entry of that priority it must precede — how an undo puts a
        deleted rule back where :meth:`follower` found it.
        """
        return self._install(entry, before, mint=True)

    def _install(
        self, entry: FlowEntry, before: "FlowEntry | None", mint: bool
    ) -> FlowEntry:
        by_match = self._index()
        same_match = by_match.get(entry.match)
        existing = _at_priority(same_match, entry.priority)
        # Before the store moves (an unhashable instruction raises here)
        # and before the replaced rule is uncounted (an equal list or
        # shape never drops to zero).
        self._intern(entry)
        if existing is None:
            self._insert_fresh(entry, before)
            if same_match is None:
                by_match[entry.match] = entry
            else:
                if type(same_match) is not list:
                    same_match = by_match[entry.match] = [same_match]
                bisect.insort_right(same_match, entry, key=_sort_key)
        else:
            slot = entry._slot = self._slot_of(existing)
            # Same rule key ⇒ same priority ⇒ _keys[slot] is right.
            self._entries[slot] = entry
            if same_match is existing:
                by_match[entry.match] = entry
            else:
                same_match[same_match.index(existing)] = entry
        timed, by_id = self._timed, self._by_id
        if existing is not None:
            if timed is not None:
                timed.pop(existing.entry_id, None)
            if by_id is not None:
                by_id.pop(existing.entry_id, None)
        if mint:
            self.minted += 1
            entry.entry_id = self.table_id << RULE_SEQ_BITS | self.minted
        if timed is not None and (entry.idle_timeout or entry.hard_timeout):
            timed[entry.entry_id] = entry
        if by_id is not None:
            by_id[entry.entry_id] = entry
        if existing is not None:
            self._release(existing)
        self._mark_mutated()
        return entry

    def put_back(self, entry: FlowEntry, before: "FlowEntry | None") -> FlowEntry:
        """Reinstall ``entry`` at its rule key, ahead of ``before``, under
        the rule id it already carries, removing whatever holds the key
        now — an undo step. Its template
        and shape are counted before the occupant's are uncounted, as
        :meth:`add` does for a replace: a swap that leaves the fact or
        shape set as it was leaves ``facts_version`` or ``shapes_version``
        alone."""
        self._intern(entry)
        try:
            self.remove(entry.match, entry.priority)
            return self._install(entry, before, mint=False)
        finally:
            self._release(entry)

    def add_bulk(self, entries: "Iterable[FlowEntry]") -> int:
        """Insert many entries in one placement pass instead of n adds.

        Semantically identical to calling :meth:`add` per entry in order
        (rule ids are minted in that order) —
        same-rule duplicates replace in place (last wins) and ties within
        a priority keep their relative order (existing entries first).
        The general case of :meth:`add_columns`.
        """
        return self._place(entries, self._index())

    def add_columns(
        self,
        shape: tuple,
        values: "Sequence[Sequence[int]]",
        priorities: "int | Sequence[int]",
        instructions: "Sequence[object]",
    ) -> int:
        """Insert many rules of one match shape, given as columns: one
        value column per ``(field, mask)`` of ``shape``
        (:func:`~repro.openflow.match.keyed_columns` checks each once, with
        ``Match(...)``'s errors), one priority or a column of them, one
        instruction list or a column of them. Each distinct list object is
        compiled once, before any rule is built. Everything is checked
        before anything is placed, so a rejected column leaves the table
        untouched; otherwise this is :meth:`add_bulk` over
        ``FlowEntry(Match(...), priority, instructions)`` per row.
        """
        shape, matches = keyed_columns(shape, values)
        n = len(values[0])
        if type(priorities) is int:
            low = high = priorities
            priorities = itertools.repeat(priorities, n)
        elif len(priorities) != n:
            raise ValueError(f"{len(priorities)} priorities for {n} rules")
        else:
            low, high = min(priorities, default=0), max(priorities, default=0)
        if low < 0 or high > 0xFFFF:
            raise ValueError(f"priority out of range: {low}..{high}")
        if not instructions or not isinstance(instructions[0], (list, tuple, ActionTemplate)):
            instructions = itertools.repeat(ActionTemplate(instructions), n)  # one list
        elif len(instructions) != n:
            raise ValueError(f"{len(instructions)} instruction lists for {n} rules")
        else:
            compiled = {id(listed): listed for listed in instructions}
            compiled = {key: ActionTemplate(listed) for key, listed in compiled.items()}
            instructions = [compiled[id(listed)] for listed in instructions]
        # No live rule of this shape: only the column can repeat a rule.
        unseen = all(features[1] is not shape for features in self._feats)
        return self._place(map(FlowEntry, matches, priorities, instructions),
                           {} if unseen else self._index())

    def _place(
        self,
        entries: "Iterable[FlowEntry]",
        by_match: "dict[Match, FlowEntry | list[FlowEntry]]",
    ) -> int:
        """The placement pass behind both bulk doors. A rule already in
        ``by_match`` (the rule index, or a dict for the batch alone) is
        replaced in its slot; new rules join after every live rule of
        their priority, in batch order — appended when they sort at the
        tail, as a build does, else merged in by one stable sort. Each rule
        is counted as it is placed; ``shapes_version`` moves only if the
        shape set did. Appended rules get no slot hint (no int per rule)
        until the batch's first replace numbers the store.
        """
        shapes, shapes_version = set(self._feats), self.shapes_version
        if self._dead:
            self._entries = [e for e in self._entries if e is not None]
            self._keys, self._dead = _negated(self._entries), 0
        store = self._entries
        tail = len(store)
        intern, release = self._intern, self._release
        base, minted = self.table_id << RULE_SEQ_BITS, self.minted
        numbered = False
        n = 0
        for n, entry in enumerate(entries, 1):
            entry.entry_id = base | minted + n
            intern(entry)
            match = entry.match
            same_match = by_match.get(match)
            existing = _at_priority(same_match, entry.priority)
            if existing is None:
                if same_match is None:
                    by_match[match] = entry
                else:
                    if type(same_match) is not list:
                        same_match = by_match[match] = [same_match]
                    bisect.insort_right(same_match, entry, key=_sort_key)
                if numbered:
                    entry._slot = len(store)
                store.append(entry)
                continue
            if same_match is existing:
                by_match[match] = entry
            else:
                same_match[same_match.index(existing)] = entry
            if not numbered:  # a batch's first repeat
                self._renumber()
                numbered = True
            slot = entry._slot = self._slot_of(existing)
            store[slot] = entry
            release(existing)
        if not n:
            return 0
        self.minted = minted + n
        store[tail:] = added = sorted(store[tail:], key=_sort_key)  # stable
        if tail and added and store[tail - 1].priority < added[0].priority:
            store.sort(key=_sort_key)
            self._keys = _negated(store)
        else:
            self._keys += _negated(added, self._keys[-1:])
        self.shapes_version = shapes_version + (self._feats.keys() != shapes)
        self._mark_mutated()
        self._by_match = self._timed = self._by_id = None  # rebuilt on demand
        self._index_version = -1
        return n

    def _tombstone_all(self, victims: "list[FlowEntry]") -> int:
        """Tombstone the given live entries under one version bump,
        maintaining every index incrementally; returns how many."""
        if not victims:
            return 0
        ents = self._entries
        by_match = self._index()
        timed, by_id = self._timed, self._by_id
        for entry in victims:
            # The key stays: bisection remains valid.
            ents[self._slot_of(entry)] = None
            same_match = by_match[entry.match]
            if same_match is entry:
                del by_match[entry.match]
            else:
                same_match.remove(entry)
                if len(same_match) == 1:
                    by_match[entry.match] = same_match[0]
            if timed is not None:
                timed.pop(entry.entry_id, None)
            if by_id is not None:
                by_id.pop(entry.entry_id, None)
            self._release(entry)
        self._dead += len(victims)
        self._mark_mutated()
        self._maybe_compact()
        return len(victims)

    def remove(self, match: Match, priority: "int | None" = None) -> int:
        """Remove entries with the given match (and priority, if given).

        Strict (priority given) targets exactly one rule: the index
        answers in O(1) and the delete is a tombstone write, no memmove.
        Non-strict removes every live entry with an equal match via the
        per-match index — also incremental, no wholesale rebuild. Either
        way, matching nothing live (including predicates that would only
        have hit tombstoned slots) is a no-op: ``version`` does not move,
        so no spurious re-fuse or template re-selection follows.
        """
        same_match = self._index().get(match)
        if priority is None:
            return self._tombstone_all(list(_listed(same_match)))
        entry = _at_priority(same_match, priority)
        return self._tombstone_all([] if entry is None else [entry])

    def remove_if(self, predicate: Callable[[FlowEntry], bool]) -> int:
        """Remove every live entry satisfying ``predicate``.

        The predicate only ever sees live entries — tombstoned slots are
        skipped, so a predicate that would only have matched dead entries
        removes nothing and bumps nothing. Index maintenance is
        incremental (no wholesale invalidation).
        """
        return self._tombstone_all(
            [e for e in self._entries if e is not None and predicate(e)]
        )

    def clear(self) -> None:
        if len(self._entries) - self._dead:
            self.version += 1
        self._entries = []
        self._keys = []
        self._dead = 0
        self._by_match = self._timed = self._by_id = None
        self._index_version = -1
        self._live = None
        self._live_version = -1
        self._templates, self._facts = {}, {}
        self.facts_version += 1
        self.shapes_version += bool(self._feats)
        self._feats = {}

    # -- compaction -----------------------------------------------------------

    def _maybe_compact(self) -> None:
        dead = self._dead
        if dead >= self.COMPACT_MIN_DEAD and dead >= len(self._entries) * (
            self.COMPACT_DEAD_FRACTION
        ):
            self.compact()

    def compact(self) -> None:
        """Squeeze tombstones out, preserving live order.

        Invisible to every consumer: the live sequence is unchanged, so
        ``version`` does not move — fused drivers and the rule indexes
        all stay valid. Only slot hints are positional; the moved ones
        fail their identity check and are renumbered on next use.
        Amortized O(live) per O(n) deletes via the trigger threshold.
        """
        if not self._dead:
            return
        live = [e for e in self._entries if e is not None]
        self._entries = live
        self._keys = _negated(live)
        self._dead = 0
        self.compactions += 1

    @property
    def tombstones(self) -> int:
        """Current dead-slot count (telemetry)."""
        return self._dead

    def prime(self) -> None:
        """Build every lazy structure now, off the critical path.

        The rule index and the slot hints are built on first use and
        maintained incrementally after — which puts one O(entries) pass
        inside whatever window issues the first mutation.
        ``ESwitch.warm()`` calls this so a freshly-loaded million-entry
        table pays that scan before the churn starts, the same contract
        warm() already gives compilation and fusing.
        """
        self._index()
        self._renumber()

    # -- queries --------------------------------------------------------------

    def find(self, match: Match) -> "FlowEntry | None":
        """The highest-priority entry whose match *equals* ``match``.

        Same-match duplicates are listed priority-sorted, so the head is
        the one a lookup would prefer among them.
        """
        same_match = self._index().get(match)
        if type(same_match) is list:
            return same_match[0]
        return same_match

    def find_rule(self, match: Match, priority: int) -> "FlowEntry | None":
        """The live entry with exactly this rule (match + priority), or
        None — the occupant an ADD of that rule would replace."""
        return _at_priority(self._index().get(match), priority)

    def rule(self, rule_id: int) -> "FlowEntry | None":
        """The live entry this table holds under ``rule_id``, or None.

        The id index is built by the first call, over the live entries,
        and kept by every install and removal after it, so a table nobody
        asks pays nothing for it.
        """
        by_id = self._by_id
        if by_id is None:
            by_id = self._by_id = {
                e.entry_id: e for e in self._entries if e is not None
            }
        return by_id.get(rule_id)

    def has_rule(self, match: Match, priority: int) -> bool:
        """True when an entry with exactly this rule (match + priority)
        exists — the ADD-replaces case capacity checks must not count."""
        return self.find_rule(match, priority) is not None

    def rule_priorities(self, match: Match) -> "tuple[int, ...]":
        """Priorities of the live entries whose match *equals* ``match``,
        highest first — what a non-strict DELETE of it would remove."""
        return tuple(e.priority for e in _listed(self._index().get(match)))

    def last_entry(self) -> "FlowEntry | None":
        """The lowest-priority live entry (the catch-all seat, when one
        exists) without materializing the live tuple — O(1) when the tail
        slot is live, O(trailing tombstones) otherwise."""
        ents = self._entries
        for i in range(len(ents) - 1, -1, -1):
            e = ents[i]
            if e is not None:
                return e
        return None

    def timed_entries(self) -> "list[FlowEntry]":
        """Live entries carrying an idle or hard timeout — O(timed), not
        O(entries): the expiry manager's rescan set."""
        self._index()
        assert self._timed is not None
        return list(self._timed.values())

    @property
    def full(self) -> bool:
        """True when the table is at (or past) its advertised capacity.

        Counts live entries only — tombstones are reclaimable space, not
        occupancy.
        """
        return self.max_entries is not None and len(self) >= self.max_entries

    # -- lookup -----------------------------------------------------------------

    def lookup(
        self,
        view: ParsedPacket,
        probed: "list[FlowEntry] | None" = None,
    ) -> "FlowEntry | None":
        """Highest-priority matching entry, or None (table miss).

        If ``probed`` is given, every entry examined — including the ones
        that failed to match — is appended to it. Tombstones are skipped:
        probe order over live entries is identical to the pre-tombstone
        sorted list's.
        """
        for entry in self._entries:
            if entry is None:
                continue
            if probed is not None:
                probed.append(entry)
            if entry.match.matches(view):
                return entry
        return None

    # -- inspection ---------------------------------------------------------------

    @property
    def entries(self) -> tuple[FlowEntry, ...]:
        """Live entries in decreasing order of priority (insertion-stable).

        Cached per version; compaction preserves the cache (the live
        order is exactly what compaction keeps).
        """
        live = self._live
        if live is None or self._live_version != self.version:
            if self._dead:
                live = tuple(e for e in self._entries if e is not None)
            else:
                live = tuple(self._entries)
            self._live = live
            self._live_version = self.version
        return live

    def matched_fields(self) -> tuple[str, ...]:
        """Union of fields any entry matches on, sorted (O(shapes))."""
        names: set[str] = set()
        for (_prio, sig, _set_names, _depth) in self.feature_counts():
            names.update(n for n, _m in sig)
        return tuple(sorted(names))

    def __len__(self) -> int:
        return len(self._entries) - self._dead

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"FlowTable(id={self.table_id}, entries={len(self)})"

    # -- pickling -----------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the compacted logical state only.

        The indexes rebuild lazily and the sort keys from the entries
        (one int per priority; pickle would mint one per slot), so
        shipping live entries with no tombstones keeps worker spawn
        snapshots minimal. The two multisets travel as they are
        (O(distinct)). A slot hint the dropped tombstones moved fails its
        identity check in the copy.
        """
        state = self.__dict__.copy()
        state["_entries"] = [e for e in self._entries if e is not None]
        del state["_keys"]
        state["_dead"] = 0
        state["_by_match"] = state["_timed"] = state["_by_id"] = None
        state["_index_version"] = -1
        state["_live"] = None
        state["_live_version"] = -1
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._keys = _negated(self._entries)
