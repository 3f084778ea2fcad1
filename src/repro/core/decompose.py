"""Flow table decomposition — the DECOMPOSE(T) heuristic of Fig. 6.

Rewrites one "difficult" flow table into a semantically equivalent
multi-table pipeline in which every table matches on a single column, so
each lands a fast template (typically the compound hash) instead of the
linked list. The algorithm greedily decomposes along the column of minimal
diversity (fewest subtables) and recurses on the rows still reachable.

The exact problem (minimal number of regular tables) is coNP-hard
(Appendix; the reduction runs in ``tests/theory/regdecomp.py``), hence the
heuristic "focusing on speed instead of efficiency".

Prerequisite (the paper's simplified setting, extended to masked keys):
within each column, every non-wildcard rule must use the *same* mask, so
the distinct keys of a column are mutually disjoint. Tables violating this
are left alone (``decompose_table`` returns None) and take the linked-list
template.

The resulting decision tree is "organized similarly to the set-pruning trie
and HyperCuts but doing matching field-wise and with a greedily optimized
matching order" (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from typing import Iterator

from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import GotoTable
from repro.openflow.match import Match


@dataclass(eq=False)
class _Row:
    """One original rule, restricted to its not-yet-dispatched columns."""

    match: Match
    original: FlowEntry


def decomposable(table: FlowTable) -> bool:
    """True when every column uses a single mask across all its rules
    (and there are at least two columns to split along). Read off the
    table's shape multiset: O(shapes), no entry walked."""
    masks: dict[str, int] = {}
    for _priority, shape, _set_fields, _depth in table.feature_counts():
        for name, mask in shape:
            if masks.setdefault(name, mask) != mask:
                return False
    return len(masks) >= 2


def decompose_table(
    table: FlowTable,
    fresh_ids_from: int,
    force_first_column: "str | None" = None,
    dedup: bool = False,
) -> "list[FlowTable] | None":
    """Decompose ``table`` into single-column tables.

    Returns the replacement tables — the first one reuses ``table``'s id —
    or None when the table does not satisfy the uniform-mask prerequisite.

    Args:
        fresh_ids_from: first id available for internal tables.
        force_first_column: override the greedy choice at the root (used to
            reproduce Fig. 5's suboptimal ip-first decomposition).
        dedup: share structurally identical subtables (an optimization the
            paper's algorithm does not perform; exposed for ablation).
    """
    if not decomposable(table):
        return None
    rows = [_Row(entry.match, entry) for entry in table]
    # Fresh internal ids: not bound by OpenFlow's 255-table limit (Sec. 3.2).
    ids = count(fresh_ids_from)
    out: list[FlowTable] = []
    cache: dict[tuple, int] = {}
    _decompose(
        rows,
        table.table_id,
        table.miss_policy,
        ids,
        out,
        cache if dedup else None,
        force_first_column,
    )
    return out


def _signature(rows: list[_Row]) -> tuple:
    """Structural identity of a subproblem, for deduplication."""
    return tuple((row.match, id(row.original)) for row in rows)


def _decompose(
    rows: list[_Row],
    table_id: int,
    miss_policy: TableMissPolicy,
    ids: Iterator[int],
    out: list[FlowTable],
    cache: "dict[tuple, int] | None",
    force_column: "str | None" = None,
) -> int:
    """Emit tables for ``rows``; returns the id of the emitted root table."""
    rows = _reachable(rows)
    if cache is not None:
        sig = _signature(rows)
        hit = cache.get(sig)
        if hit is not None:
            return hit
        cache[sig] = table_id

    columns = sorted({name for row in rows for name, _mask in row.match.shape})
    if len(columns) <= 1:
        out.append(_emit_regular(rows, table_id, miss_policy))
        return table_id

    # Step (1)-(2): distinct keys per column; pick minimal diversity, where
    # diversity counts the subtables produced (distinct keys + wildcard,
    # which is the key None).
    def diversity(name: str) -> int:
        return len({row.match.constraint(name) for row in rows})

    if force_column is not None:
        if force_column not in columns:
            raise ValueError(f"column {force_column!r} not matched by the table")
        p = force_column
    else:
        p = min(columns, key=lambda name: (diversity(name), name))

    # Step (3)-(4): partition rows along column p, preserving order.
    keys: list[tuple[int, int]] = []
    partitions: dict[tuple[int, int], list[_Row]] = {}
    wildcard_rows: list[_Row] = []
    for row in rows:
        constraint = row.match.constraint(p)
        if constraint is None:
            wildcard_rows.append(row)
            for key in keys:
                partitions[key].append(_strip(row, p))
        else:
            if constraint not in partitions:
                keys.append(constraint)
                # Wildcard rows seen so far cover this new key too.
                partitions[constraint] = [_strip(w, p) for w in wildcard_rows]
            partitions[constraint].append(_strip(row, p))

    # Keys of one column are disjoint, so no two keyed rules overlap and
    # one priority serves them all; the wildcard's 0 puts it last. Any row
    # count fits OpenFlow's 16-bit priority.
    dispatch = FlowTable(table_id, miss_policy=miss_policy)
    for key in keys:
        value, key_mask = key
        child_rows = partitions[key]
        child_id = next(ids)
        actual_child = _decompose(child_rows, child_id, miss_policy, ids, out, cache)
        dispatch.add(
            FlowEntry(
                Match.from_pairs({p: (value, key_mask)}),
                priority=1,
                instructions=(GotoTable(actual_child),),
            )
        )
    if wildcard_rows:
        child_id = next(ids)
        stripped = [_strip(w, p) for w in wildcard_rows]
        actual_child = _decompose(stripped, child_id, miss_policy, ids, out, cache)
        dispatch.add(
            FlowEntry(Match(), priority=0, instructions=(GotoTable(actual_child),))
        )
    out.append(dispatch)
    return table_id


def _reachable(rows: list[_Row]) -> list[_Row]:
    """Set pruning: drop the rows no packet of this subproblem can reach.

    Keys within a column are disjoint (uniform mask), so a row whose
    constraints include an earlier row's whole set matches only packets
    that row already took: dead under first-match. Each row probes the
    kept sets with its own subsets, of the kept sizes only: at most
    2^columns lookups a row, one when every row constrains the same
    columns, and never a scan of the rows kept so far.
    """
    kept: set[tuple] = set()
    sizes: set[int] = set()
    live = []
    for row in rows:
        items = tuple(zip(row.match.shape, row.match.values))
        if kept.isdisjoint(
            s for n in sizes if n <= len(items) for s in combinations(items, n)
        ):
            live.append(row)
            kept.add(items)
            sizes.add(len(items))
    return live


def _strip(row: _Row, column: str) -> _Row:
    return _Row(row.match.without(column), row.original)


def _emit_regular(
    rows: list[_Row], table_id: int, miss_policy: TableMissPolicy
) -> FlowTable:
    """A leaf: at most one matched column; rows keep their original
    instructions (actions and external goto_table jumps).

    The reachable rows are disjoint keys of that column, then at most one
    empty match (a row after it would be unreachable): priority 1 for the
    keys, 0 for the empty match keeps first-match order at any row count.
    """
    table = FlowTable(table_id, miss_policy=miss_policy)
    for row in rows:
        leaf = FlowEntry(
            row.match,
            priority=1 if row.match.shape else 0,
            instructions=row.original.instructions,
        )
        # The leaf *is* the original rule, restricted to the columns not
        # yet dispatched on: a packet matching here matched that rule, so
        # the compiled table returns (and counts on) the rule itself.
        leaf.origin = row.original
        table.add(leaf)
    return table
