"""Template specialization: OpenFlow tables → compiled Python fast paths.

This is the reproduction's analogue of the paper's template-based machine
code generation (Section 3.3). Where the prototype patches flow keys into
pre-compiled x86 object fragments, a rung's emitter here assembles a
**key-free template text**, :mod:`repro.core.templates` maps that text to
its code object (compiled once per process and shape, cached), and a table
is that code object with its keys patched into ``co_consts`` and a function
object made over the table's own namespace. Like the paper's choice of
compiling keys into the instruction stream, the keys are ``LOAD_CONST``
operands, not looked-up data (except where the template *is* a data
structure: the compound hash and the LPM, whose text names no key at all).
The table's own id, which the cost atoms name, is patched in the same way,
so tables of one shape share one text whatever their ids.
:attr:`CompiledTable.source` renders the text with the keys filled in —
what a fresh ``compile()`` of it would execute is what the patch executes.

Every generated table function has the signature::

    def _match(data, pkt, l3, l4, proto, etype, nxt, m) -> FlowEntry

with ``data`` the raw packet bytes, ``l3``/``l4`` the header offsets and
``proto`` the protocol bitmask produced by the parser templates (the
paper's r12–r15 registers), ``etype`` the effective ethertype, and ``m``
the cycle meter. It returns the installed rule that matched, whose
``instructions`` is its table's shared action template (the paper's
composite action set, Section 3.1), or on a miss one of
:data:`MISS_RULES`. Protocol-prerequisite guards compile to bitmask tests —
the Python spelling of ``bt r15d, IP`` — and always run before any header
byte is dereferenced.

Cost atoms are baked into the emitted source as literals, so the generated
code *is* the performance model of its table (Section 4.4). Each sits
behind ``if m is not None:``: one body serves both the measured run and
the functional one, whose callers pass ``m=None``
(:func:`~repro.simcpu.recorder.active_meter`).

A template rung is one :class:`CompiledTable` subclass. Its layout — which
names the generated code binds, where the rules live, what an update
may touch — is known to that class and to nobody else; the switch, the
fuser and the model deriver go through the contract on the base class.
"""

from __future__ import annotations

import math
from functools import cached_property

from repro.core import templates
from repro.core.analysis import (
    CompileConfig,
    DEFAULT_CONFIG,
    PREREQUISITES,
    TemplateKind,
    hash_shape,
    select,
    split_catch_all,
)
from repro.dpdk.hash import CollisionFreeHash
from repro.dpdk.lpm import Dir24_8Lpm, LpmFullError
from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import ActionTemplate
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.model import StageCost


class CompileError(Exception):
    """Raised when a table cannot be compiled with the requested template."""


#: Largest table the direct code template accepts. It patches every key
#: into the instruction stream, so its source grows with the table; Fig. 9
#: calibrates the rung's useful range at a handful of entries (the sweep
#: tops out at 64). A ``direct_threshold`` that steers a bigger table here
#: is a misconfiguration, and it lands where every compile failure lands:
#: quarantine onto the linked list, reported by ``ESwitch.health()``.
MAX_DIRECT_ENTRIES = 1024

_SIGNATURE = "def _match(data, pkt, l3, l4, proto, etype, nxt, m):"

#: footprint estimate: one shared action template with the instruction and
#: action objects it keeps alive.
_TEMPLATE_BYTES = 640


def _miss_rule(to_controller: bool) -> FlowEntry:
    template = ActionTemplate()
    template.is_miss = True
    template.to_controller = to_controller
    return FlowEntry(Match(), instructions=template)


#: what a lookup that matches no rule returns, one per miss policy and
#: shared process-wide like the templates themselves: the only rules whose
#: ``instructions`` answer ``is_miss``. No table installs them, and no
#: datapath records or counts them.
MISS_RULES = {
    policy: _miss_rule(policy is TableMissPolicy.CONTROLLER)
    for policy in TableMissPolicy
}


class CompiledTable:
    """One table compiled onto one template rung.

    The paper's flow table template is a prerequisite, a code template
    and an update rule (Sections 3.1, 3.4). The prerequisite is the
    rung's row of :data:`~repro.core.analysis.PREREQUISITES`; its answer
    is the ``plan`` a rung is constructed from (:func:`compile_table`),
    and the rest is this contract:

    * :meth:`holds` — whether an applied flow-mod left the table on this
      rung, answered without a walk (or not at all: re-select);
    * :meth:`update` — absorb one applied flow-mod in place, or decline;
    * :attr:`facts` / :attr:`relinks` — what a linker specialised on and
      whether an update moved it (the generation contract, DESIGN §1);
    * :meth:`rules` — every rule a lookup can return now (inspection:
      nothing on the update or link path enumerates it);
    * :meth:`footprint` — estimated resident bytes;
    * :meth:`stage` — the analytic-model atom of one lookup, kept beside
      the emitter that bakes the same atoms into ``source``;
    * :attr:`inlinable` / :meth:`body` — what a linker needs to splice the
      lookup into a larger code object; it calls :attr:`fn` otherwise.

    ``namespace`` is the generated function's globals: ``_MISS`` plus
    whatever the rung's body names.
    """

    kind: TemplateKind
    #: what the prerequisite asks, for the error a forced compile raises.
    needs = "none"
    #: a linker splices the body into its own text: the text is fixed by
    #: the table's fields and masks, and it is straight-line code with no
    #: ``return`` inside a loop (``return X`` rewrites to ``out = X;
    #: break``). Otherwise the linker calls :attr:`fn`.
    inlinable = True
    #: one of a decomposed group's tables, which are rebuilt together and
    #: under fresh ids: a driver over them changes text on every rebuild.
    grouped = False
    #: backing stores, for the rungs that have one.
    hash_store: "CollisionFreeHash | None" = None
    lpm_store: "Dir24_8Lpm | None" = None
    #: the flow keys the text's slots take, in slot order, for the rung
    #: that compiles keys into the instruction stream (direct code).
    keys: tuple = ()

    def __init__(self, table: FlowTable, costs: CostBook, namespace: dict):
        self.table_id = table.table_id
        #: what the text's slots take: the flow keys, then the table id.
        self.slot_values = (*self.keys, table.table_id)
        #: how many flow entries are compiled in (for stats/inspection).
        self.entry_count = len(table)
        #: how many shared action templates those entries point at.
        self.template_count = table.template_count
        #: updates that moved something a linker copied out of this table
        #: (a name rebound under an inlined body, the fact set); a driver
        #: linked before any other update is still the right driver.
        self.relinks = 0
        self._sync_census(table)
        self.namespace = namespace
        #: the key-free template text (:mod:`repro.core.templates`).
        self.text = "\n".join([_SIGNATURE] + self._emit(costs)) + "\n"
        templates.load(self.text, self.kind.value).bind(namespace, self.slot_values)
        self.fn = namespace["_match"]
        #: a linker's rendering of :meth:`body`; it lasts exactly as long
        #: as this build of the table.
        self.inlined = None

    @cached_property
    def source(self) -> str:
        """The generated source with the keys visible."""
        return templates.render(self.text, self.slot_values)

    @property
    def _id(self) -> str:
        """The table id as the text names it: the slot after the keys."""
        return templates.id_slot(len(self.keys))

    @property
    def miss(self) -> FlowEntry:
        return self.namespace["_MISS"]

    def _emit(self, costs: CostBook) -> list[str]:
        """The lookup body: its atoms behind one ``if m is not None:`` on
        any path, and store probes that trace cache lines only when metered."""
        raise NotImplementedError

    def holds(self, table: FlowTable, mod: FlowMod, config: CompileConfig) -> bool:
        """Whether ``select_template`` still lands on this rung now that
        ``mod`` is applied to ``table`` — answered without walking the
        entries, and True only when the walk would agree. False asks for
        the walk: always allowed, and all that most rungs answer."""
        if (
            # a non-strict DELETE takes out every priority of its match,
            # any number of shape classes.
            (mod.command is FlowModCommand.DELETE and not mod.strict)
            or not self._keeps(table, mod)
        ):
            return False
        for kind, prerequisite in PREREQUISITES.items():
            if kind is self.kind:
                return True
            if prerequisite(table, config) is not None:
                return False  # a rung above holds now
        return False

    def _keeps(self, table: FlowTable, mod: FlowMod) -> bool:
        """This rung's own prerequisite after ``mod``, read off the shape
        multiset: exactly, or as a proof that may only err towards False."""
        return False

    def update(self, table: FlowTable, mod: FlowMod) -> bool:
        """Absorb ``mod`` (already applied to ``table``) without
        recompiling; False asks the caller for a side-by-side rebuild."""
        if not self._absorb(table, mod):
            return False
        self.entry_count = len(table)
        self.template_count = table.template_count
        if table.facts_version != self._facts_version:
            self._sync_census(table)
            self.relinks += 1
        return True

    def _sync_census(self, table: FlowTable) -> None:
        #: the distinct ``ActionTemplate.facts`` of the table's rules: the
        #: goto targets and write/metadata/meter flags a lookup can yield.
        self.facts = frozenset(table.action_facts())
        self._facts_version = table.facts_version

    def _absorb(self, table: FlowTable, mod: FlowMod) -> bool:
        return False  # "Complete rebuilding happens … unconditionally"

    def _rebind_miss(self, table: FlowTable) -> None:
        """A catch-all was added or removed: it *is* the miss arm, and an
        inlined body holds its own copy of the name."""
        self.namespace["_MISS"] = _miss_of(table)
        self.relinks += 1

    def rules(self) -> list[FlowEntry]:
        """Every rule a lookup can return, the miss arm first."""
        return [self.miss, *self._hits()]

    def _hits(self):
        raise NotImplementedError

    def _list_bytes(self) -> int:
        """Estimated bytes of the per-rule lists outside the backing
        store (~56 per list slot, ~64 per key tuple); the rules are the
        flow table's, and :meth:`footprint` adds each shared template once."""
        return 0

    def footprint(self) -> dict:
        """Estimated resident bytes of this compiled table.

        Backing stores (hash, LPM) report exactly; generated source and
        rule lists are estimated. This is the per-rung memory
        telemetry of the million-flow bench — relative magnitudes matter,
        not malloc truth.
        """
        store = self.hash_store if self.hash_store is not None else self.lpm_store
        detail = store.footprint() if store is not None else {}
        return {
            "table_id": self.table_id,
            "kind": self.kind.value,
            "entries": self.entry_count,
            "source_bytes": len(self.source),
            "templates": self.template_count,
            "bytes": len(self.source) + detail.get("bytes", 0) + self._list_bytes()
            + _TEMPLATE_BYTES * self.template_count,
            **{k: v for k, v in detail.items() if k not in ("kind", "bytes")},
        }

    def stage(self, costs: CostBook) -> StageCost:
        """One lookup as a Section 4.4 performance atom."""
        raise NotImplementedError

    def body(self) -> tuple[list[str], dict]:
        """``(lines, names)`` of an :attr:`inlinable` lookup: the body
        under ``_match``'s signature (slots numbered as in
        :attr:`slot_values`) and the namespace constants it refers to."""
        names = {
            key: value
            for key, value in self.namespace.items()
            if key.startswith("_") and key != "_match"
        }
        return self.text.split("\n")[1:-1], names


# -- match-condition expression builders ----------------------------------------


def _masked(name: str, mask: int) -> str:
    """The field's read under ``mask``, parenthesised."""
    fdef = field_by_name(name)
    if mask == fdef.max_value:
        return f"({fdef.expr})"
    return f"(({fdef.expr}) & {mask:#x})"


def _guard_masks(match: Match) -> tuple[int, ...]:
    """Any-of protocol guard masks for a match's constrained fields.

    A field without a position (a header no parser here recognises)
    contributes the empty mask: any of no protocols, which no packet
    carries. Every rung tests its guards before it reads a field, so a
    rule constraining such a field is never taken and the field's read
    (``None``) never evaluated — as in the reference, where the field
    extracts to ``None``.
    """
    masks = set()
    for name, _mask in match.shape:
        fdef = field_by_name(name)
        if fdef.expr is None:
            masks.add(0)
        elif fdef.proto_required:
            masks.add(fdef.proto_required)
    return tuple(sorted(masks))


def _guards(match: Match) -> list[str]:
    """Protocol-presence guard expressions (the ``bt r15d, IP`` analogue).

    Each constrained field contributes an any-of bitmask test; guards
    always run before the field's bytes are dereferenced.
    """
    return [f"proto & {g:#x}" for g in _guard_masks(match)]


def _conditions(match: Match, keys: list) -> list[str]:
    """Per-field comparison expressions, each against the next free key
    slot; the slots' values are appended to ``keys``."""
    conditions = []
    for name, (value, mask) in match.items():
        conditions.append(
            f"{_masked(name, mask)} == {templates.key_slot(len(keys))}"
        )
        keys.append(value)
    return conditions


def _key_exprs(shape: tuple[tuple[str, int], ...]) -> str:
    """The compound-hash key expression: fields run together and masked."""
    parts = [_masked(name, mask) for name, mask in shape]
    if len(parts) == 1:
        return parts[0]
    return "(" + ", ".join(parts) + ")"


def _metered(indent: str, *atoms: str) -> list[str]:
    """``atoms`` (``m.charge``/``m.walk``/``m.touch`` statements) behind
    the one test a lookup without a meter pays instead."""
    return [f"{indent}if m is not None:"] + [f"{indent}    {a}" for a in atoms]


def _walk(base: float, per_entry: float, count: "int | str", line: str) -> str:
    """The atoms of a walk that stopped after ``count`` entries, as one
    :meth:`~repro.simcpu.recorder.Meter.walk` charged where it stopped."""
    return f"m.walk({base!r}, {per_entry!r}, {count}, {line})"


def _guard_lines(guards: list[str], charge: str) -> list[str]:
    """Whole-table protocol guard: without the headers, straight to miss,
    the lookup's ``charge`` atom paid on the way when metered."""
    if not guards:
        return []
    return ([f"    if not ({' and '.join(guards)}):"]
            + _metered("        ", charge) + ["        return _MISS"])


def _miss_of(table: FlowTable) -> FlowEntry:
    """The miss arm of a rung whose prerequisite seats the catch-all, if
    there is one, last."""
    last = table.last_entry()  # O(1): no live-tuple rebuild
    if last is not None and last.match.is_catch_all:
        return last
    return MISS_RULES[table.miss_policy]


# -- the template rungs ------------------------------------------------------------


class DirectTable(CompiledTable):
    """Direct code: straight-line compare-and-jump code.

    A faithful transcription of the paper's example in Section 3.1: each
    flow entry becomes a protocol-bitmask guard followed by inlined matcher
    templates with the keys patched in, ending in a jump to its rule;
    fall-through is the next entry ("ADDR_NEXT_FLOW"). The keys are the
    instruction stream, so any change to them is a rebuild — a patch of
    the cached template when the table's shape (entry count, fields,
    masks) has been seen, a compile when it has not. Bounded by
    :data:`MAX_DIRECT_ENTRIES`, whatever steered the table here.

    Its text grows with the table, so a linker calls it instead of
    inlining it (Section 3.4: the rebuilt code is swapped in by
    redirecting the jumps to it, and nothing else is rebuilt).
    """

    kind = TemplateKind.DIRECT
    needs = "#flows <= CONST"

    @property
    def inlinable(self) -> bool:
        # Inside a decomposed group the driver text moves on every
        # rebuild anyway; a call there would only cost a frame a hop.
        return self.grouped

    def __init__(
        self, table: FlowTable, config: CompileConfig, costs: CostBook, size: int
    ):
        if size > MAX_DIRECT_ENTRIES:
            raise CompileError(
                f"direct template bound exceeded: {size} entries "
                f"> {MAX_DIRECT_ENTRIES}"
            )
        self._rules = rules = table.entries
        keys: list[int] = []
        #: per entry, its guards and matchers as one condition ("" = none).
        self._checks = [
            " and ".join(_guards(entry.match) + _conditions(entry.match, keys))
            for entry in rules
        ]
        self.keys = tuple(keys)
        self._keys_in_code = config.keys_in_code
        namespace: dict = {"_MISS": MISS_RULES[table.miss_policy]}
        namespace.update((f"_O{i}", entry) for i, entry in enumerate(rules))
        super().__init__(table, costs, namespace)

    def _emit(self, costs: CostBook) -> list[str]:
        # Ablation: keys fetched from a key table in data memory.
        line = "None" if self._keys_in_code else f"('es_keys', {self._id})"
        base, per_entry = costs.direct_base, costs.direct_per_entry
        lines = []
        for i, check in enumerate(self._checks):
            indent = "        " if check else "    "
            if check:
                lines.append(f"    if {check}:  # FLOW_{i + 1}")
            lines += _metered(indent, _walk(base, per_entry, i + 1, line))
            lines.append(f"{indent}return _O{i}")
        missed = _walk(base, per_entry, len(self._checks), line)
        return lines + _metered("    ", missed) + ["    return _MISS"]

    def _hits(self):
        return self._rules

    def stage(self, costs: CostBook) -> StageCost:
        n = max(self.entry_count, 1)
        examined = (n + 1) / 2  # half the table on average
        return StageCost(
            f"direct code [{self.table_id}]",
            costs.direct_base + costs.direct_per_entry * examined,
            0,
            f"{n} entries, keys in code",
        )


class HashTable(CompiledTable):
    """Compound hash: global mask + collision-free hash — one masked key,
    one probe. Keyed entries update the store in place; a catch-all
    rebinds the miss arm."""

    kind = TemplateKind.HASH
    needs = "global mask over at least one keyed entry"

    def __init__(
        self,
        table: FlowTable,
        config: CompileConfig,
        costs: CostBook,
        shape: tuple[tuple[str, int], ...],
    ):
        self.shape = shape
        rules = table.entries
        if rules[-1].match.is_catch_all:
            rules = rules[:-1]
        self._guards = _guards(rules[0].match)
        items: dict = {}
        for entry in rules:
            key = _hash_key_of(entry.match)
            if key not in items:  # first occurrence = highest priority wins
                items[key] = entry
        # One bulk build instead of insert-at-a-time: a million-entry table
        # pays a single layout search, not an incremental growth sequence.
        self.hash_store = store = CollisionFreeHash(items)
        super().__init__(
            table, costs,
            {"_MISS": _miss_of(table), "_H": store, "_Hget": store.get},
        )

    def _keeps(self, table: FlowTable, mod: FlowMod) -> bool:
        return hash_shape(table) is not None  # exact, and O(shapes)

    def _emit(self, costs: CostBook) -> list[str]:
        key = _key_exprs(self.shape)
        charge = f"m.charge({costs.hash_base!r})"
        return (
            _guard_lines(self._guards, charge)
            + ["    if m is None:",
               f"        v = _Hget({key})",
               "    else:",
               f"        {charge}",
               f"        v, _ln = _H.get_traced({key})",
               f"        m.touch(('es_hash', {self._id}, _ln))",
               "    if v is None:", "        return _MISS", "    return v"]
        )

    def _absorb(self, table: FlowTable, mod: FlowMod) -> bool:
        match = mod.match
        if match.is_catch_all:
            self._rebind_miss(table)
            return True
        if match.shape != self.shape:
            return False
        key = _hash_key_of(match)
        # Same-match duplicates at different priorities are legal (the
        # lower one is shadowed): the slot always holds the highest-
        # priority entry that *remains* in the table, so a strict delete
        # of one duplicate reinstates the survivor.
        best = table.find(match)
        if best is None:
            self.hash_store.remove(key)
        else:
            self.hash_store.insert(key, best)
        return True

    def _hits(self):
        return (value for _key, value in self.hash_store.items())

    def stage(self, costs: CostBook) -> StageCost:
        return StageCost(
            f"hash template [{self.table_id}]",
            costs.hash_base,
            1,
            f"{max(self.entry_count, 1)} entries, collision-free hash",
        )


def _hash_key_of(match: Match):
    """A rule's store key, read by position: its match has the table's
    shape, so its values are the key fields' values in key order."""
    values = match.values
    return values[0] if len(values) == 1 else values


class LpmTable(CompiledTable):
    """LPM over DIR-24-8: the store maps a prefix to a slot of the rule
    list; prefixes add, rebind and delete in place."""

    kind = TemplateKind.LPM
    needs = "one prefix-masked field, priorities consistent with prefix lengths"

    def __init__(
        self,
        table: FlowTable,
        config: CompileConfig,
        costs: CostBook,
        plan: "tuple[str, dict[tuple[int, int], FlowEntry]]",
    ):
        self.field, by_prefix = plan
        # Growable tbl8 pool: a million-prefix FIB allocates whatever /25+
        # groups it needs instead of tripping a fixed ceiling.
        self.lpm_store = store = Dir24_8Lpm()
        store.add_bulk(
            [(value, depth, slot) for slot, (value, depth) in enumerate(by_prefix)]
        )
        #: slot-addressed by the store's next hop; freed slots hold None.
        self._out = rules = list(by_prefix.values())
        #: recycled slots of the rule list (freed by incremental DELETE).
        self._free: list[int] = []
        #: ``(table.shapes_version, verdict)`` of the last :meth:`_keeps`
        #: scan: churn inside existing shape classes answers from here.
        self._hazard_free: "tuple[int, bool] | None" = None
        super().__init__(
            table,
            costs,
            {"_MISS": _miss_of(table), "_LPM": store,
             "_LPMlookup": store.lookup, "_OUT": rules},
        )

    def _emit(self, costs: CostBook) -> list[str]:
        fdef = field_by_name(self.field)
        req, expr = fdef.proto_required, fdef.expr
        charge = f"m.charge({costs.lpm_base!r})"
        return (
            _guard_lines([f"proto & {req:#x}"] if req else [], charge)
            + ["    if m is None:",
               f"        nh = _LPMlookup({expr})",
               "    else:",
               f"        {charge}",
               f"        nh, _lines = _LPM.lookup_traced({expr})",
               "        for _ln in _lines:",
               f"            m.touch(('es_lpm', {self._id}, _ln))",
               "    if nh is None:", "        return _MISS", "    return _OUT[nh]"]
        )

    def _is_prefix(self, match: Match) -> bool:
        return match.fields == (self.field,) and match.is_prefix(self.field)

    def _keeps(self, table: FlowTable, mod: FlowMod) -> bool:
        """A proof from the shape classes ``(priority, match shape)``
        alone: what is left of a consistent prefix set is consistent, and
        a set whose classes hold no :func:`_hazard` pair is consistent
        for *any* values."""
        if mod.command is FlowModCommand.DELETE:
            return True
        if not (mod.match.is_catch_all or self._is_prefix(mod.match)):
            return False
        memo = self._hazard_free
        if memo is None or memo[0] != table.shapes_version:
            classes = {(feats[0], feats[1]) for feats in table.feature_counts()}
            memo = self._hazard_free = (table.shapes_version, not _hazard(classes))
        return memo[1]

    def _absorb(self, table: FlowTable, mod: FlowMod) -> bool:
        match = mod.match
        if match.is_catch_all:
            self._rebind_miss(table)
            return True
        if not self._is_prefix(match):
            return False
        value = match.value_of(self.field)
        depth = match.prefix_len(self.field)
        # Slots are recycled through a free list so that add/delete churn
        # (the Fig. 18 route-flap workload) keeps the rule list bounded
        # by the live rule count instead of growing forever.
        store, rules = self.lpm_store, self._out
        slot = store.get_rule(value, depth)
        best = table.find(match)
        if best is None:
            if slot is not None:
                store.delete(value, depth)
                rules[slot] = None
                self._free.append(slot)
        elif slot is not None:
            # Rule replaced (or one duplicate deleted): rebind in place.
            rules[slot] = best
        else:
            if self._free:
                slot = self._free.pop()
                rules[slot] = best
            else:
                slot = len(rules)
                rules.append(best)
            try:
                store.add(value, depth, slot)
            except LpmFullError:
                rules[slot] = None
                self._free.append(slot)
                return False  # fall back to a (larger) rebuild
        return True

    def _hits(self):
        return (entry for entry in self._out if entry is not None)

    def _list_bytes(self) -> int:
        return len(self._out) * 56

    def stage(self, costs: CostBook) -> StageCost:
        return StageCost(
            f"LPM template [{self.table_id}]",
            costs.lpm_base,
            2,
            f"{max(self.entry_count, 1)} prefixes, DIR-24-8",
        )


def _hazard(classes: "set[tuple[int, tuple]]") -> bool:
    """Any pair of distinct shape classes that *could* hide a duplicate-
    prefix or ancestor-priority conflict, regardless of entry values.

    A class is ``(priority, match shape)``; prefix depth is the mask
    popcount (a catch-all counts as depth 0). Distinct classes with
    ``d1 <= d2`` and ``p1 >= p2`` are hazardous: equal depths admit the
    same prefix at two priorities, and a shallower prefix at >= priority
    can shadow a descendant — the two conditions ``lpm_prefixes`` walks
    the value set to rule out.
    """
    flat = [
        (prio, sum(int(m).bit_count() for _n, m in shape))
        for prio, shape in classes
    ]
    return any(
        i != j and d1 <= d2 and p1 >= p2
        for i, (p1, d1) in enumerate(flat)
        for j, (p2, d2) in enumerate(flat)
    )


def _build_sig_matcher(sig: tuple):
    """Generate the shared matcher function for one field combination."""
    conds = [
        f"{_masked(name, mask)} == vals[{i}]" for i, (name, mask) in enumerate(sig)
    ]
    body = " and ".join(conds) if conds else "True"
    source = (
        f"def _sig(data, pkt, l3, l4, proto, etype, nxt, vals):\n    return {body}\n"
    )
    namespace: dict = {}
    templates.load(source, "sig").bind(namespace)
    fn = namespace["_sig"]
    fn._source = source  # kept for inspection/tests
    return fn


class LinkedListTable(CompiledTable):
    """Linked list: tuple space search with shared matchers.

    "For every relevant combination of fields a separate matcher function
    is constructed … and these matchers are called iteratively with
    subsequent flow entry keys as input" (Section 3.1). The matcher
    functions are themselves generated code, one per mask signature, shared
    across all entries with that signature. The code walks a mutable entry
    list, so any mod is absorbed by rewriting the list; the generated code
    object never changes. No prerequisite.
    """

    kind = TemplateKind.LINKED_LIST
    inlinable = False  # returns from inside its entry loop

    def __init__(
        self, table: FlowTable, config: CompileConfig, costs: CostBook, plan: object
    ):
        #: generated matcher functions by mask signature, shared by every
        #: entry with that signature and kept across updates.
        self.ll_matchers: dict[tuple, object] = {}
        #: ``(guard masks, matcher, key values, rule)`` per rule.
        self.ll_entries: list[tuple] = []
        super().__init__(
            table, costs, {"_MISS": None, "_ENTRIES": self.ll_entries}
        )
        self._load(table)

    def _emit(self, costs: CostBook) -> list[str]:
        base, per_entry = costs.linked_list_base, costs.linked_list_per_entry
        line = f"('es_ll', {self._id})"
        return (
            ["    for _i, (_req, _fn, _vals, _out) in enumerate(_ENTRIES):",
             "        if all(proto & _g for _g in _req) and _fn(data, pkt, l3, l4, proto, etype, nxt, _vals):"]
            + _metered("            ", _walk(base, per_entry, "_i + 1", line))
            + ["            return _out"]
            + _metered("    ", _walk(base, per_entry, "len(_ENTRIES)", line))
            + ["    return _MISS"]
        )

    def _load(self, table: FlowTable) -> None:
        """(Re)fill the entry list and the miss arm from ``table``: the
        one entry builder compile and update share."""
        rules, catch_all = split_catch_all(table.entries)
        entries = []
        for entry in rules:
            sig = entry.match.shape
            fn = self.ll_matchers.get(sig)
            if fn is None:
                fn = _build_sig_matcher(sig)
                self.ll_matchers[sig] = fn
            entries.append((_guard_masks(entry.match), fn, entry.match.values, entry))
        self.ll_entries[:] = entries
        self.namespace["_MISS"] = (
            catch_all if catch_all is not None else MISS_RULES[table.miss_policy]
        )

    def _absorb(self, table: FlowTable, mod: FlowMod) -> bool:
        self._load(table)
        return True

    def _hits(self):
        return (entry[3] for entry in self.ll_entries)

    def _list_bytes(self) -> int:
        return len(self.ll_entries) * (56 + 64)

    def stage(self, costs: CostBook) -> StageCost:
        n = max(self.entry_count, 1)
        examined = (n + 1) / 2
        return StageCost(
            f"linked list [{self.table_id}]",
            costs.linked_list_base + costs.linked_list_per_entry * examined,
            max(1, math.ceil(examined / 4)),
            f"{n} entries, tuple space search",
        )


_RUNGS = {
    rung.kind: rung for rung in (DirectTable, HashTable, LpmTable, LinkedListTable)
}


def compile_table(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
    kind: "TemplateKind | None" = None,
) -> CompiledTable:
    """Analyze (unless ``kind`` forces a template) and compile one table:
    the rung is constructed from its prerequisite's answer, asked once."""
    kind, plan = select(table, config, kind)
    rung = _RUNGS[kind]
    if plan is None:
        raise CompileError(
            f"{kind.value} template prerequisite ({rung.needs}) violated"
        )
    return rung(table, config, costs, plan)
