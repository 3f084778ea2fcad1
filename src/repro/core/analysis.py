"""Flow table analysis: pick the most efficient applicable table template.

Fig. 4's template lattice, transcribed:

=============  ===========================================  ===============
template       prerequisite                                  fallback
=============  ===========================================  ===============
direct code    #flows <= CONST (default 4, tuned in Fig. 9)  compound hash
compound hash  global mask (same mask per field in every
               entry; exact match after masking)             LPM
LPM            single prefix-masked field, priorities
               consistent with prefix lengths                linked list
linked list    none (tuple space search)                     —
=============  ===========================================  ===============

``select_template`` walks the chain top-down and returns the first template
whose prerequisite holds — "ESWITCH always attempts to compile into the
most efficient table template available" (Section 3.2).

A final catch-all entry (empty match, strictly lowest priority) is allowed
by every template: it compiles into the table's miss arm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable


class TemplateKind(enum.Enum):
    DIRECT = "direct"
    HASH = "hash"
    LPM = "lpm"
    LINKED_LIST = "linked_list"
    #: optional extension (Section 3.1: "Further table templates, like
    #: range search for port matches, can easily be added in the future").
    RANGE = "range"


#: Fields the DIR-24-8 backed LPM template supports (32-bit addresses).
LPM_FIELDS = frozenset({"ipv4_src", "ipv4_dst", "arp_spa", "arp_tpa"})


@dataclass(frozen=True)
class CompileConfig:
    """Knobs of the code-generation process.

    Attributes:
        direct_threshold: "The maximum number of flow entries under which a
            table is directly compiled" — the paper fixes 4 after the
            Fig. 9 calibration. The template itself refuses tables above
            ``codegen.MAX_DIRECT_ENTRIES``, whatever this says.
        decompose: rewrite linked-list-bound tables via flow table
            decomposition before template selection (Section 3.2 presents
            it as an optional feature).
        keys_in_code: patch flow keys into the instruction stream (the
            paper's choice, Section 3.3); the ablation toggles this to
            model indirect key loads instead.
        enable_range: opt into the range-search table template for port
            matches (the paper's suggested future extension); off by
            default to keep the shipped Fig. 4 template set.
        fuse: link the compiled tables into one whole-pipeline code
            object (:mod:`repro.core.fuse`); off forces every packet
            through the per-table trampoline dispatch.
        force_linked_list: pin every table to the linked-list universal
            template (and implies no decomposition benefit): the
            degenerate bottom of the Fig. 4 lattice. Semantically every
            template must agree with it, which is exactly what the
            differential fuzzer (:mod:`repro.fuzz`) uses it for.
    """

    direct_threshold: int = 4
    decompose: bool = True
    keys_in_code: bool = True
    enable_range: bool = False
    fuse: bool = True
    force_linked_list: bool = False

    def with_(self, **kwargs: object) -> "CompileConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = CompileConfig()


def split_catch_all(
    entries: Sequence[FlowEntry],
) -> tuple[list[FlowEntry], "FlowEntry | None"]:
    """Separate the optional final catch-all from the real rules.

    Only a *strictly lowest-priority* empty match acts as a catch-all; any
    other empty match shadows lower-priority rules and must stay in place.
    Entries are expected in decreasing priority order (FlowTable order).
    """
    if entries and entries[-1].match.is_catch_all:
        rest = list(entries[:-1])
        if all(not e.match.is_catch_all for e in rest):
            return rest, entries[-1]
    return list(entries), None


def hash_applicable(entries: Sequence[FlowEntry]) -> bool:
    """Global-mask prerequisite of the compound hash template."""
    rules, _catch_all = split_catch_all(entries)
    if not rules:
        return False
    first = rules[0].match
    fields = first.fields
    if not fields:
        return False
    masks = {name: first.mask_of(name) for name in fields}
    # Duplicate masked keys are allowed: they are shadowed (dead) rules,
    # the hash keeps the highest-priority one, which is semantically
    # equivalent because same-mask duplicates fully overlap.
    for entry in rules:
        match = entry.match
        if match.fields != fields:
            return False
        for name in fields:
            if match.mask_of(name) != masks[name]:
                return False
    return True


def hash_shape(table: FlowTable) -> "tuple[tuple[str, int], ...] | None":
    """The one ``((field, mask), ...)`` signature every keyed entry of
    ``table`` shares, or None when :func:`hash_applicable` would refuse.

    The global-mask prerequisite is shape-only, so the table's
    :meth:`~repro.openflow.flow_table.FlowTable.feature_counts` multiset
    answers it in O(shapes): exactly one keyed signature, and at most one
    catch-all, which must be the last entry (anywhere else — or a second
    one — it stays among the rules, where its empty mask breaks the
    global mask).
    """
    keyed = None
    catch_alls = 0
    for (_prio, sig, _set_names, _depth), count in table.feature_counts().items():
        if not sig:
            catch_alls += count
        elif keyed is None:
            keyed = sig
        elif sig != keyed:
            return None
    if catch_alls > 1:
        return None
    if catch_alls and not table.last_entry().match.is_catch_all:
        return None
    return keyed


def lpm_applicable(entries: Sequence[FlowEntry]) -> bool:
    """Prefix-mask + priority-consistency prerequisite of the LPM template."""
    rules, _catch_all = split_catch_all(entries)
    if not rules:
        return False
    fields = rules[0].match.fields
    if len(fields) != 1 or fields[0] not in LPM_FIELDS:
        return False
    name = fields[0]
    by_prefix: dict[tuple[int, int], FlowEntry] = {}
    for entry in rules:
        match = entry.match
        if match.fields != (name,) or not match.is_prefix(name):
            return False
        depth = match.prefix_len(name)
        if depth == 0:
            return False  # covered by split_catch_all; a /0 rule here shadows
        key = (match.value_of(name), depth)  # type: ignore[arg-type]
        if key in by_prefix:
            return False  # duplicate prefix with different priority
        by_prefix[key] = entry
    # Priority consistency: "whenever rules overlap the more specific one
    # has higher priority". Overlapping prefixes nest, so walking each
    # rule's ancestors suffices (O(32 n), not O(n^2)).
    fdef = field_by_name(name)
    width = fdef.width
    for (value, depth), entry in by_prefix.items():
        for shorter in range(depth - 1, 0, -1):
            mask = ((1 << shorter) - 1) << (width - shorter)
            parent = by_prefix.get((value & mask, shorter))
            if parent is not None and parent.priority >= entry.priority:
                return False
    return True


#: 16-bit port fields the range template understands.
RANGE_FIELDS = frozenset({"tcp_src", "tcp_dst", "udp_src", "udp_dst"})


def port_map(
    entries: Sequence[FlowEntry],
) -> "tuple[str, dict[int, FlowEntry]] | None":
    """``(field, {port: winning entry})`` for a single-port-field table.

    Returns None unless every non-catch-all rule is an exact match on the
    same port field. Ports claimed by several rules keep the first
    (highest-priority) one — the entry the reference interpreter would
    match, so compiled attribution agrees with it.
    """
    rules, _catch_all = split_catch_all(entries)
    if not rules:
        return None
    name = rules[0].match.fields
    if len(name) != 1 or name[0] not in RANGE_FIELDS:
        return None
    field = name[0]
    by_port: dict[int, FlowEntry] = {}
    for entry in rules:
        if entry.match.fields != (field,) or not entry.match.is_exact(field):
            return None
        value = entry.match.value_of(field)
        assert value is not None
        by_port.setdefault(value, entry)  # first (highest-priority) wins
    return field, by_port


def port_runs(entries: Sequence[FlowEntry]) -> "list[tuple[int, int, FlowEntry]] | None":
    """Coalesce a single-port-field table into ``(lo, hi, entry)`` runs.

    Runs merge consecutive port values whose entries share identical
    instructions (the range template maps one interval to one *behavior*;
    per-port entry identity is preserved separately, see
    :func:`port_map` and ``compile_range``). ``entry`` is the run's
    first port's entry. Returns None when :func:`port_map` does.
    """
    mapped = port_map(entries)
    if mapped is None:
        return None
    _field, by_port = mapped
    runs: list[tuple[int, int, FlowEntry]] = []
    for port in sorted(by_port):
        entry = by_port[port]
        if runs and runs[-1][1] == port - 1 and runs[-1][2].instructions == entry.instructions:
            runs[-1] = (runs[-1][0], port, runs[-1][2])
        else:
            runs.append((port, port, entry))
    return runs


def range_applicable(
    entries: Sequence[FlowEntry], config: CompileConfig = DEFAULT_CONFIG
) -> bool:
    """The range template pays off when exact port rules coalesce into few
    intervals (e.g. "allow 1024–2047"): far less memory than one hash
    entry per port, one binary search per lookup."""
    if not config.enable_range:
        return False
    runs = port_runs(entries)
    if runs is None:
        return False
    rules, _ = split_catch_all(entries)
    # Require real compression, otherwise the hash template is faster.
    return len(runs) * 4 <= len(rules)


def select_template(
    entries: "Sequence[FlowEntry] | FlowTable",
    config: CompileConfig = DEFAULT_CONFIG,
) -> TemplateKind:
    """First applicable template in the efficiency order of Fig. 4
    (plus the optional range extension, slotted before the hash when its
    compression prerequisite holds).

    Given the :class:`FlowTable` itself rather than its entries, the hash
    prerequisite is answered from the shape multiset (:func:`hash_shape`)
    when the table has it built — ``required_layer`` builds it for every
    pipeline table — instead of a walk over every entry; the verdict is
    the same. A table without it (a decomposed sub-table) keeps the
    walk, which stops at the first mismatch.
    """
    if config.force_linked_list:
        return TemplateKind.LINKED_LIST
    if len(entries) <= config.direct_threshold:
        return TemplateKind.DIRECT
    table = entries if isinstance(entries, FlowTable) else None
    if table is not None:
        entries = table.entries
    if range_applicable(entries, config):
        return TemplateKind.RANGE
    if table is not None and table.feature_counts_if_built() is not None:
        hashable = hash_shape(table) is not None
    else:
        hashable = hash_applicable(entries)
    if hashable:
        return TemplateKind.HASH
    if lpm_applicable(entries):
        return TemplateKind.LPM
    return TemplateKind.LINKED_LIST
