"""Template specialization: OpenFlow tables → compiled Python fast paths.

This is the reproduction's analogue of the paper's template-based machine
code generation (Section 3.3). Where the prototype patches flow keys into
pre-compiled x86 object fragments, we patch them as **literal constants
into Python source** assembled from per-template emitters, then
``compile()`` each table to a code object. Like the paper's choice of
compiling keys into the instruction stream, the keys live in the code, not
in looked-up data structures (except where the template *is* a data
structure: the compound hash and the LPM).

Every generated table function has the signature::

    def _match(data, pkt, l3, l4, proto, etype, nxt, m) -> Outcome

with ``data`` the raw packet bytes, ``l3``/``l4`` the header offsets and
``proto`` the protocol bitmask produced by the parser templates (the
paper's r12–r15 registers), ``etype`` the effective ethertype, and ``m``
the cycle meter. Protocol-prerequisite guards compile to bitmask tests —
the Python spelling of ``bt r15d, IP`` — and always run before any header
byte is dereferenced.

Cost atoms are baked into the emitted source as literals, so the generated
code *is* the performance model of its table (Section 4.4).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from repro.core.analysis import (
    CompileConfig,
    DEFAULT_CONFIG,
    TemplateKind,
    hash_shape,
    port_map,
    port_runs,
    select_template,
    split_catch_all,
)
from repro.core.outcome import Outcome, miss_outcome, outcome_of
from repro.dpdk.hash import CollisionFreeHash
from repro.dpdk.lpm import Dir24_8Lpm
from repro.openflow.fields import field_by_name
from repro.openflow.flow_table import FlowTable
from repro.openflow.match import Match
from repro.simcpu.costs import CostBook, DEFAULT_COSTS


class CompileError(Exception):
    """Raised when a table cannot be compiled with the requested template."""


@dataclass
class CompiledTable:
    """One table's compiled artifact plus its update hooks."""

    table_id: int
    kind: TemplateKind
    fn: object  # the generated callable
    source: str
    namespace: dict
    miss: Outcome
    #: hash template: the backing store and its key layout.
    hash_store: "CollisionFreeHash | None" = None
    hash_fields: tuple[str, ...] = ()
    hash_masks: tuple[int, ...] = ()
    #: LPM template: the DIR-24-8 table, its field, and the outcome list.
    lpm_store: "Dir24_8Lpm | None" = None
    lpm_field: str = ""
    #: recycled slots of the LPM outcome list (freed by incremental DELETE).
    lpm_free: list = field(default_factory=list)
    #: linked list template: the mutable entry list and matcher registry.
    ll_entries: "list | None" = None
    ll_matchers: dict = field(default_factory=dict)
    #: how many flow entries are compiled in (for stats/inspection).
    entry_count: int = 0
    #: the source-budget fallback fired: keys live in closure arrays, not
    #: source text. Data-driven bodies return from inside a loop and must
    #: be linked by closure call, never textually inlined (see fuse.py).
    data_driven: bool = False

    def footprint(self) -> dict:
        """Estimated resident bytes of this compiled table.

        Backing stores (hash, LPM) report exactly; generated source and
        entry/outcome lists are estimated (~56 bytes per list slot plus
        ~120 bytes per Outcome). This is the per-rung memory telemetry of
        the million-flow bench — relative magnitudes matter, not malloc
        truth.
        """
        detail: dict = {}
        total = len(self.source)
        if self.hash_store is not None:
            detail = self.hash_store.footprint()
            total += detail["bytes"]
        elif self.lpm_store is not None:
            detail = self.lpm_store.footprint()
            total += detail["bytes"]
            total += len(self.namespace.get("_OUT", ())) * (56 + 120)
        elif self.ll_entries is not None:
            total += len(self.ll_entries) * (56 + 120 + 64)
        elif self.data_driven:
            total += len(self.namespace.get("_ENTRIES", ())) * (56 + 120 + 64)
        else:
            # Direct/range: outcomes live as namespace constants.
            total += sum(
                120 for k in self.namespace if k.startswith("_O")
            ) + len(self.namespace.get("_OUTS", ())) * (56 + 120)
        return {
            "table_id": self.table_id,
            "kind": self.kind.value,
            "entries": self.entry_count,
            "source_bytes": len(self.source),
            "data_driven": self.data_driven,
            "bytes": total,
            **{k: v for k, v in detail.items() if k not in ("kind", "bytes")},
        }


# -- match-condition expression builders ----------------------------------------


def _field_expr(name: str) -> str:
    fdef = field_by_name(name)
    if fdef.expr is None:
        raise CompileError(
            f"field {name!r} has no fast-path expression (unsupported header)"
        )
    return fdef.expr


def _guards(match: Match) -> list[str]:
    """Protocol-presence guard expressions (the ``bt r15d, IP`` analogue).

    Each constrained field contributes an any-of bitmask test; guards
    always run before the field's bytes are dereferenced.
    """
    masks = sorted(
        {
            field_by_name(name).proto_required
            for name in match.fields
            if field_by_name(name).proto_required
        }
    )
    return [f"proto & {g:#x}" for g in masks]


def _conditions(match: Match) -> tuple[list[str], list[str]]:
    """(protocol guard expressions, per-field comparison expressions)."""
    conds = []
    for name, (value, mask) in match.items():
        fdef = field_by_name(name)
        expr = _field_expr(name)
        if mask == fdef.max_value:
            conds.append(f"({expr}) == {value:#x}")
        else:
            conds.append(f"(({expr}) & {mask:#x}) == {value:#x}")
    return _guards(match), conds


def _key_exprs(fields: tuple[str, ...], masks: tuple[int, ...]) -> str:
    """The compound-hash key expression: fields run together and masked."""
    parts = []
    for name, mask in zip(fields, masks):
        fdef = field_by_name(name)
        expr = _field_expr(name)
        if mask == fdef.max_value:
            parts.append(f"({expr})")
        else:
            parts.append(f"(({expr}) & {mask:#x})")
    if len(parts) == 1:
        return parts[0]
    return "(" + ", ".join(parts) + ")"


def _compile(source: str, namespace: dict, table_id: int, kind: TemplateKind):
    code = compile(source, f"<eswitch:table{table_id}:{kind.value}>", "exec")
    exec(code, namespace)
    return namespace["_match"]


# -- template emitters -------------------------------------------------------------


def compile_direct(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
) -> CompiledTable:
    """The direct code template: straight-line compare-and-jump code.

    A faithful transcription of the paper's example in Section 3.1: each
    flow entry becomes a protocol-bitmask guard followed by inlined matcher
    templates with the keys patched in, ending in a jump to its outcome;
    fall-through is the next entry ("ADDR_NEXT_FLOW").

    Tables whose generated source would exceed ``config.source_budget``
    compile to the *data-driven* variant instead
    (:func:`_compile_direct_data`): same guards, matchers, and cost atoms
    — bit-identical verdicts and modeled cycles — with the keys held in a
    closure array rather than patched into a multi-megabyte source
    string, so ``compile()`` stays bounded at million-entry tables.
    """
    budget = config.source_budget
    # ~24 chars is a hard floor per emitted entry; skip generating source
    # that is certain to blow the budget (the point of having one).
    if budget is not None and len(table.entries) * 24 > budget:
        return _compile_direct_data(table, config, costs)
    namespace: dict = {"_MISS": miss_outcome(table)}
    lines = [
        "def _match(data, pkt, l3, l4, proto, etype, nxt, m):",
        f"    m.charge({costs.direct_base!r})",
    ]
    total = sum(len(line) + 1 for line in lines)
    for i, entry in enumerate(table.entries):
        namespace[f"_O{i}"] = outcome_of(entry)
        guards, conds = _conditions(entry.match)
        lines.append(f"    m.charge({costs.direct_per_entry!r})  # FLOW_{i + 1}")
        if not config.keys_in_code:
            # Ablation: keys fetched from a key table in data memory.
            lines.append(f"    m.touch(('es_keys', {table.table_id}, {i // 4}))")
        checks = guards + conds
        if checks:
            lines.append(f"    if {' and '.join(checks)}:")
            lines.append(f"        return _O{i}")
        else:
            lines.append(f"    return _O{i}")
        total += sum(len(line) + 1 for line in lines[-3:])
        if budget is not None and total > budget:
            return _compile_direct_data(table, config, costs)
    lines.append("    return _MISS")
    source = "\n".join(lines) + "\n"
    fn = _compile(source, namespace, table.table_id, TemplateKind.DIRECT)
    return CompiledTable(
        table_id=table.table_id,
        kind=TemplateKind.DIRECT,
        fn=fn,
        source=source,
        namespace=namespace,
        miss=namespace["_MISS"],
        entry_count=len(table),
    )


def _compile_direct_data(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
) -> CompiledTable:
    """The data-driven direct variant: the source-budget fallback rung.

    Entry order, guard evaluation, charge atoms, and (in the
    ``keys_in_code=False`` ablation) key-table touches mirror the in-code
    template line for line, so modeled cycles are bit-identical — the
    fallback is a *planned degradation* of code size, not of semantics or
    of the performance model. The per-entry matchers are the same shared
    generated functions the linked-list template uses; what changes is
    only where the keys live (closure array vs instruction stream).
    """
    namespace: dict = {"_MISS": miss_outcome(table)}
    matchers: dict[tuple, object] = {}
    entries: list[tuple[tuple, object, tuple, Outcome]] = []
    for entry in table.entries:
        sig = tuple((name, mask) for name, (_v, mask) in entry.match.items())
        fn = matchers.get(sig)
        if fn is None:
            fn = _build_sig_matcher(sig, len(matchers))
            matchers[sig] = fn
        values = tuple(v for _name, (v, _m) in entry.match.items())
        entries.append((_guard_masks(entry.match), fn, values, outcome_of(entry)))
    namespace["_ENTRIES"] = entries
    touch = (
        []
        if config.keys_in_code
        else [f"        m.touch(('es_keys', {table.table_id}, _i >> 2))"]
    )
    lines = (
        [
            "def _match(data, pkt, l3, l4, proto, etype, nxt, m):",
            f"    m.charge({costs.direct_base!r})",
            "    for _i, (_req, _fn, _vals, _out) in enumerate(_ENTRIES):",
            f"        m.charge({costs.direct_per_entry!r})",
        ]
        + touch
        + [
            "        if all(proto & _g for _g in _req) and _fn(data, pkt, l3, l4, proto, etype, nxt, _vals):",
            "            return _out",
            "    return _MISS",
        ]
    )
    source = "\n".join(lines) + "\n"
    fn = _compile(source, namespace, table.table_id, TemplateKind.DIRECT)
    return CompiledTable(
        table_id=table.table_id,
        kind=TemplateKind.DIRECT,
        fn=fn,
        source=source,
        namespace=namespace,
        miss=namespace["_MISS"],
        entry_count=len(table),
        data_driven=True,
    )


def compile_hash(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
) -> CompiledTable:
    """The compound hash template: global mask + collision-free hash."""
    rules = table.entries
    catch_all = None
    if rules and rules[-1].match.is_catch_all:
        rules, catch_all = rules[:-1], rules[-1]
    if not rules:
        raise CompileError("hash template needs at least one keyed entry")
    # One O(shapes) answer for every entry; a second catch-all among the
    # rules fails it like any other mask mismatch.
    shape = hash_shape(table)
    if shape is None:
        raise CompileError("hash template prerequisite (global mask) violated")
    first = rules[0].match
    fields = tuple(name for name, _mask in shape)
    masks = tuple(mask for _name, mask in shape)

    items: dict = {}
    for entry in rules:
        key = _hash_key_of(entry.match, fields)
        if key not in items:  # first occurrence = highest priority wins
            items[key] = outcome_of(entry)
    # One bulk build instead of insert-at-a-time: a million-entry table
    # pays a single layout search, not an incremental growth sequence.
    store = CollisionFreeHash(items)

    miss = outcome_of(catch_all) if catch_all is not None else miss_outcome(table)
    guards = _guards(first)
    namespace: dict = {"_MISS": miss, "_H": store}
    key_expr = _key_exprs(fields, masks)
    guard = (
        [f"    if not ({' and '.join(guards)}):", "        return _MISS"]
        if guards
        else []
    )
    lines = (
        [
            "def _match(data, pkt, l3, l4, proto, etype, nxt, m):",
            f"    m.charge({costs.hash_base!r})",
        ]
        + guard
        + [
            f"    v, _ln = _H.get_traced({key_expr})",
            f"    m.touch(('es_hash', {table.table_id}, _ln))",
            "    if v is None:",
            "        return _MISS",
            "    return v",
        ]
    )
    source = "\n".join(lines) + "\n"
    fn = _compile(source, namespace, table.table_id, TemplateKind.HASH)
    return CompiledTable(
        table_id=table.table_id,
        kind=TemplateKind.HASH,
        fn=fn,
        source=source,
        namespace=namespace,
        miss=miss,
        hash_store=store,
        hash_fields=fields,
        hash_masks=masks,
        entry_count=len(table),
    )


def _hash_key_of(match: Match, fields: tuple[str, ...]):
    values = tuple(match.value_of(name) for name in fields)
    return values[0] if len(values) == 1 else values


def compile_lpm(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
) -> CompiledTable:
    """The LPM template backed by the DIR-24-8 ``rte_lpm`` structure."""
    rules, catch_all = split_catch_all(table.entries)
    if not rules:
        raise CompileError("LPM template needs at least one prefix entry")
    name = rules[0].match.fields[0]
    # Growable tbl8 pool: a million-prefix FIB allocates whatever /25+
    # groups it needs instead of tripping a fixed ceiling.
    store = Dir24_8Lpm()
    outcomes: list[Outcome] = []
    adds: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for entry in rules:
        match = entry.match
        if match.fields != (name,) or not match.is_prefix(name):
            raise CompileError("LPM template prerequisite (prefix masks) violated")
        value = match.value_of(name)
        depth = match.prefix_len(name)
        assert value is not None
        norm = (Dir24_8Lpm._prefix(value, depth), depth)
        if norm in seen:
            continue  # shadowed duplicate: the highest-priority rule wins
        seen.add(norm)
        adds.append((value, depth, len(outcomes)))
        outcomes.append(outcome_of(entry))
    store.add_bulk(adds)

    miss = outcome_of(catch_all) if catch_all is not None else miss_outcome(table)
    fdef = field_by_name(name)
    req = fdef.proto_required
    namespace: dict = {"_MISS": miss, "_LPM": store, "_OUT": outcomes}
    guard = (
        [f"    if not (proto & {req:#x}):", "        return _MISS"]
        if req
        else []
    )
    lines = (
        [
            "def _match(data, pkt, l3, l4, proto, etype, nxt, m):",
            f"    m.charge({costs.lpm_base!r})",
        ]
        + guard
        + [
            f"    nh, _lines = _LPM.lookup_traced({_field_expr(name)})",
            "    for _ln in _lines:",
            f"        m.touch(('es_lpm', {table.table_id}, _ln))",
            "    if nh is None:",
            "        return _MISS",
            "    return _OUT[nh]",
        ]
    )
    source = "\n".join(lines) + "\n"
    fn = _compile(source, namespace, table.table_id, TemplateKind.LPM)
    return CompiledTable(
        table_id=table.table_id,
        kind=TemplateKind.LPM,
        fn=fn,
        source=source,
        namespace=namespace,
        miss=miss,
        lpm_store=store,
        lpm_field=name,
        entry_count=len(table),
    )


def compile_linked_list(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
) -> CompiledTable:
    """The linked list template: tuple space search with shared matchers.

    "For every relevant combination of fields a separate matcher function
    is constructed … and these matchers are called iteratively with
    subsequent flow entry keys as input" (Section 3.1). The matcher
    functions are themselves generated code, one per mask signature, shared
    across all entries with that signature.
    """
    rules, catch_all = split_catch_all(table.entries)
    miss = outcome_of(catch_all) if catch_all is not None else miss_outcome(table)

    matchers: dict[tuple, object] = {}
    entries: list[tuple[tuple, object, tuple, Outcome]] = []
    namespace: dict = {"_MISS": miss}
    for entry in rules:
        sig = tuple((name, mask) for name, (_v, mask) in entry.match.items())
        fn = matchers.get(sig)
        if fn is None:
            fn = _build_sig_matcher(sig, len(matchers))
            matchers[sig] = fn
        values = tuple(v for _name, (v, _m) in entry.match.items())
        entries.append((_guard_masks(entry.match), fn, values, outcome_of(entry)))
    namespace["_ENTRIES"] = entries

    lines = [
        "def _match(data, pkt, l3, l4, proto, etype, nxt, m):",
        f"    m.charge({costs.linked_list_base!r})",
        "    for _i, (_req, _fn, _vals, _out) in enumerate(_ENTRIES):",
        f"        m.charge({costs.linked_list_per_entry!r})",
        f"        m.touch(('es_ll', {table.table_id}, _i >> 2))",
        "        if all(proto & _g for _g in _req) and _fn(data, pkt, l3, l4, proto, etype, nxt, _vals):",
        "            return _out",
        "    return _MISS",
    ]
    source = "\n".join(lines) + "\n"
    fn = _compile(source, namespace, table.table_id, TemplateKind.LINKED_LIST)
    return CompiledTable(
        table_id=table.table_id,
        kind=TemplateKind.LINKED_LIST,
        fn=fn,
        source=source,
        namespace=namespace,
        miss=miss,
        ll_entries=entries,
        ll_matchers=matchers,
        entry_count=len(table),
    )


def _guard_masks(match: Match) -> tuple[int, ...]:
    """Any-of protocol guard masks for a match's constrained fields."""
    return tuple(
        sorted(
            {
                field_by_name(name).proto_required
                for name in match.fields
                if field_by_name(name).proto_required
            }
        )
    )


def _build_sig_matcher(sig: tuple, index: int):
    """Generate the shared matcher function for one field combination."""
    conds = []
    for i, (name, mask) in enumerate(sig):
        fdef = field_by_name(name)
        expr = _field_expr(name)
        if mask == fdef.max_value:
            conds.append(f"({expr}) == vals[{i}]")
        else:
            conds.append(f"(({expr}) & {mask:#x}) == vals[{i}]")
    body = " and ".join(conds) if conds else "True"
    source = (
        f"def _sig(data, pkt, l3, l4, proto, etype, nxt, vals):\n    return {body}\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<eswitch:sig{index}>", "exec"), namespace)
    fn = namespace["_sig"]
    fn._source = source  # kept for inspection/tests
    return fn


def compile_range(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
) -> CompiledTable:
    """The range-search template for port matches (optional extension).

    Section 3.1 lists "range search for port matches" as a table template
    that "can easily be added in the future": exact port rules coalesce
    into ``(lo, hi) -> outcome`` intervals looked up by binary search —
    one interval instead of thousands of hash entries for an
    "allow 1024–2047"-style rule block.
    """
    runs = port_runs(table.entries)
    mapped = port_map(table.entries)
    if runs is None or mapped is None:
        raise CompileError("range template prerequisite (exact port runs) violated")
    rules, catch_all = split_catch_all(table.entries)
    miss = outcome_of(catch_all) if catch_all is not None else miss_outcome(table)
    name, by_port = mapped
    fdef = field_by_name(name)
    req = fdef.proto_required

    starts = [lo for lo, _hi, _e in runs]
    ends = [hi for _lo, hi, _e in runs]
    # One outcome per PORT, grouped by run: rules merged into a run share
    # behavior but keep distinct identity (flow counters, verdict paths),
    # so the hit must resolve to the exact port's entry — the same entry
    # the reference interpreter credits.
    outs = [
        [outcome_of(by_port[port]) for port in range(lo, hi + 1)]
        for lo, hi, _e in runs
    ]
    levels = max(1, math.ceil(math.log2(len(runs) + 1)))

    namespace: dict = {
        "_MISS": miss,
        "_STARTS": starts,
        "_ENDS": ends,
        "_OUTS": outs,
        "_bisect": bisect.bisect_right,
    }
    guard = (
        [f"    if not (proto & {req:#x}):", "        return _MISS"]
        if req
        else []
    )
    lines = (
        [
            "def _match(data, pkt, l3, l4, proto, etype, nxt, m):",
            f"    m.charge({costs.range_base + costs.range_per_level * levels!r})",
        ]
        + guard
        + [
            f"    _p = {_field_expr(name)}",
            "    _i = _bisect(_STARTS, _p) - 1",
            f"    m.touch(('es_range', {table.table_id}, _i >> 3))",
            "    if _i >= 0 and _p <= _ENDS[_i]:",
            "        return _OUTS[_i][_p - _STARTS[_i]]",
            "    return _MISS",
        ]
    )
    source = "\n".join(lines) + "\n"
    fn = _compile(source, namespace, table.table_id, TemplateKind.RANGE)
    return CompiledTable(
        table_id=table.table_id,
        kind=TemplateKind.RANGE,
        fn=fn,
        source=source,
        namespace=namespace,
        miss=miss,
        entry_count=len(table),
    )


_EMITTERS = {
    TemplateKind.DIRECT: compile_direct,
    TemplateKind.HASH: compile_hash,
    TemplateKind.LPM: compile_lpm,
    TemplateKind.LINKED_LIST: compile_linked_list,
    TemplateKind.RANGE: compile_range,
}


def compile_table(
    table: FlowTable,
    config: CompileConfig = DEFAULT_CONFIG,
    costs: CostBook = DEFAULT_COSTS,
    kind: "TemplateKind | None" = None,
) -> CompiledTable:
    """Analyze (unless ``kind`` forces a template) and compile one table."""
    if kind is None:
        kind = select_template(table, config)
    return _EMITTERS[kind](table, config, costs)
