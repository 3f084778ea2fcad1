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

Each prerequisite is one function here (:data:`PREREQUISITES`), returning
what its rung's emitter needs or None, and selection, compilation and
per-mod re-selection all ask it. ``select_template`` walks the chain
top-down and returns the first template whose prerequisite holds —
"ESWITCH always attempts to compile into the most efficient table
template available" (Section 3.2).

A final catch-all entry (empty match, strictly lowest priority) is allowed
by every template: it compiles into the table's miss arm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

from repro.net.bits import contiguous_prefix_mask
from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable


class TemplateKind(enum.Enum):
    DIRECT = "direct"
    HASH = "hash"
    LPM = "lpm"
    LINKED_LIST = "linked_list"


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


# -- the prerequisites, one per rung ---------------------------------------------
#
# Each takes the entries (or the FlowTable itself) and the config, and
# returns what the rung's emitter needs — or None. Selection, compilation
# and per-mod re-selection all ask here and nowhere else. ``config=None``
# is a forced compile (``compile_table(kind=...)``): only what the emitter
# itself requires, none of the thresholds that steer selection.


def direct_size(
    entries: "Sequence[FlowEntry] | FlowTable", config: "CompileConfig | None" = None
) -> "int | None":
    """Direct code: the table's size, when ``#flows <= CONST``. Forced,
    there is no CONST to hold it to; the template's own bound
    (``codegen.MAX_DIRECT_ENTRIES``) stands either way."""
    size = len(entries)
    return size if config is None or size <= config.direct_threshold else None


def hash_shape(
    entries: "Sequence[FlowEntry] | FlowTable", config: "CompileConfig | None" = None
) -> "tuple[tuple[str, int], ...] | None":
    """Compound hash: the one ``((field, mask), ...)`` shape every keyed
    entry shares (the global mask), with at most one catch-all, seated
    last — anywhere else, or a second one, it stays among the rules,
    where its empty mask breaks the global mask.

    Shape-only, so a table answers in O(shapes) from its
    :meth:`~repro.openflow.flow_table.FlowTable.feature_counts` multiset
    without materialising its entries; a bare entry sequence reads each
    match's shape, stopping at the first mismatch. Duplicate masked keys
    are allowed: same-mask duplicates fully overlap, so the lower one is
    dead.
    """
    if isinstance(entries, FlowTable):
        last = entries.last_entry()
        shapes = ((features[1], n) for features, n in entries.feature_counts().items())
    else:
        last = entries[-1] if entries else None
        shapes = ((e.match.shape, 1) for e in entries)
    spare = 1 if last is not None and last.match.is_catch_all else 0
    keyed = None
    for shape, n in shapes:
        if not shape:
            spare -= n
            if spare < 0:
                return None
        elif keyed is None:
            keyed = shape
        elif shape != keyed:
            return None
    return keyed


def lpm_prefixes(
    entries: "Sequence[FlowEntry] | FlowTable", config: "CompileConfig | None" = None
) -> "tuple[str, dict[tuple[int, int], FlowEntry]] | None":
    """LPM: ``(field, {(value, depth): entry})`` when every rule is a
    prefix match on the same :data:`LPM_FIELDS` field, no prefix appears
    twice, and priorities are consistent with prefix lengths."""
    if isinstance(entries, FlowTable):
        entries = entries.entries
    rules, _catch_all = split_catch_all(entries)
    if not rules:
        return None
    fields = rules[0].match.fields
    if len(fields) != 1 or fields[0] not in LPM_FIELDS:
        return None
    name = fields[0]
    width = field_by_name(name).width
    by_prefix: dict[tuple[int, int], FlowEntry] = {}
    for entry in rules:
        shape = entry.match.shape  # read by position: one (field, mask)
        if len(shape) != 1 or shape[0][0] != name or not contiguous_prefix_mask(shape[0][1], width):
            return None
        key = (entry.match.values[0], shape[0][1].bit_count())
        if key in by_prefix:
            return None  # duplicate prefix with different priority
        by_prefix[key] = entry
    # Priority consistency: "whenever rules overlap the more specific one
    # has higher priority". Overlapping prefixes nest, so walking each
    # rule's ancestors — at the depths the table holds — suffices.
    depths = sorted({depth for _value, depth in by_prefix})
    for (value, depth), entry in by_prefix.items():
        for shorter in depths:
            if shorter >= depth:
                break
            shift = width - shorter
            parent = by_prefix.get((value >> shift << shift, shorter))
            if parent is not None and parent.priority >= entry.priority:
                return None
    return name, by_prefix


#: Fig. 4's lattice, top-down: rung -> prerequisite. The linked list has
#: none.
PREREQUISITES = {
    TemplateKind.DIRECT: direct_size,
    TemplateKind.HASH: hash_shape,
    TemplateKind.LPM: lpm_prefixes,
    TemplateKind.LINKED_LIST: lambda entries, config=None: (),
}


def select(
    entries: "Sequence[FlowEntry] | FlowTable",
    config: CompileConfig = DEFAULT_CONFIG,
    kind: "TemplateKind | None" = None,
) -> "tuple[TemplateKind, object | None]":
    """``(rung, its prerequisite's answer)``: the first rung of the
    lattice whose prerequisite holds — or, ``kind`` forcing a rung, that
    one's answer, None when the table does not satisfy it."""
    if kind is None and config.force_linked_list:
        kind = TemplateKind.LINKED_LIST
    if kind is not None:
        return kind, PREREQUISITES[kind](entries)
    for kind, prerequisite in PREREQUISITES.items():
        answer = prerequisite(entries, config)
        if answer is not None:
            return kind, answer
    raise AssertionError("the linked list has no prerequisite")


def select_template(
    entries: "Sequence[FlowEntry] | FlowTable",
    config: CompileConfig = DEFAULT_CONFIG,
) -> TemplateKind:
    """First applicable template in the efficiency order of Fig. 4. Given
    the :class:`FlowTable` itself rather than its entries, nothing is
    materialised before a prerequisite needs a walk."""
    return select(entries, config)[0]
