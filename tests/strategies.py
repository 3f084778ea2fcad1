"""Shared hypothesis strategies and helpers for property-based tests.

The value/mask vocabulary lives in :mod:`repro.fuzz.domain` — property
tests and the differential fuzzer draw from the same generator library,
so a bug either side finds is expressible in the other's terms.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.fuzz import domain
from repro.fuzz.domain import FIELD_DOMAINS, MASKS, V6_A, V6_B
from repro.openflow.actions import Controller, Drop, Output, SetField
from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.packet.builder import PacketBuilder
from repro.packet.packet import Packet

__all__ = [
    "FIELD_DOMAINS", "MASKS", "V6_A", "V6_B",
    "matches", "match_pairs", "masked_matches", "actions", "flow_tables", "tied_tables",
    "pipelines", "goto_dag_pipelines", "flow_mod_batches", "packets",
    "random_packet",
]


@st.composite
def matches(draw) -> Match:
    """A random match over a small field/value domain."""
    names = draw(
        st.lists(
            st.sampled_from(sorted(FIELD_DOMAINS)), min_size=0, max_size=3, unique=True
        )
    )
    pairs = {}
    for name in names:
        value = draw(st.sampled_from(FIELD_DOMAINS[name]))
        mask_options = MASKS.get(name)
        if mask_options and draw(st.booleans()):
            mask = draw(st.sampled_from(mask_options))
            pairs[name] = (value, mask)
        else:
            pairs[name] = value
    return Match(**pairs)


@st.composite
def match_pairs(draw, min_size: int = 1) -> dict:
    """``{field: (value, mask)}`` with **arbitrary masks**: prefix masks of
    any length and non-contiguous bit patterns on every maskable field —
    the corners the curated :data:`MASKS` pools never reach. Values are
    in range but not canonicalized under their masks."""
    names = draw(
        st.lists(
            st.sampled_from(sorted(FIELD_DOMAINS)),
            min_size=min_size, max_size=3, unique=True,
        )
    )
    pairs = {}
    for name in names:
        fdef = field_by_name(name)
        width, full = fdef.width, fdef.max_value
        value = draw(st.sampled_from(FIELD_DOMAINS[name] + [draw(st.integers(0, full))]))
        if not fdef.maskable:
            pairs[name] = (value, full)
            continue
        kind = draw(st.integers(0, 2))
        if kind == 0:
            mask = full
        elif kind == 1:  # prefix of arbitrary length
            plen = draw(st.integers(1, width))
            mask = (full << (width - plen)) & full
        else:  # arbitrary, possibly non-contiguous
            mask = draw(st.integers(1, full))
        pairs[name] = (value, mask)
    return pairs


def masked_matches() -> st.SearchStrategy:
    """A match over :func:`match_pairs`."""
    return match_pairs().map(lambda pairs: Match(**pairs))


@st.composite
def actions(draw, allow_rewrites: bool = True):
    choice = draw(st.integers(0, 3 if allow_rewrites else 2))
    if choice == 0:
        return Output(draw(st.integers(1, 4)))
    if choice == 1:
        return Drop()
    if choice == 2:
        return Controller()
    return SetField("ipv4_dst", draw(st.sampled_from(FIELD_DOMAINS["ipv4_dst"])))


@st.composite
def flow_tables(draw, table_id: int = 0, max_entries: int = 8, goto_ids=()):
    table = FlowTable(
        table_id,
        miss_policy=draw(st.sampled_from(list(TableMissPolicy))),
    )
    n = draw(st.integers(1, max_entries))
    for i in range(n):
        match = draw(matches())
        instrs: list = [ApplyActions([draw(actions())])]
        if goto_ids and draw(st.booleans()):
            instrs.append(GotoTable(draw(st.sampled_from(list(goto_ids)))))
        table.add(
            FlowEntry(match, priority=draw(st.integers(0, 20)), instructions=instrs)
        )
    return table


@st.composite
def tied_tables(draw, table_id: int = 0, max_entries: int = 6):
    """A table where several overlapping entries share one priority, so
    the winner is decided by insertion-order tie-breaking — every backend
    must break the tie the same way."""
    table = FlowTable(
        table_id, miss_policy=draw(st.sampled_from(list(TableMissPolicy)))
    )
    tie = draw(st.integers(1, 10))
    n = draw(st.integers(2, max_entries))
    for i in range(n):
        # Bias toward the shared priority and toward broad (maskable)
        # matches so overlaps actually happen.
        priority = tie if draw(st.integers(0, 3)) else draw(st.integers(0, 20))
        match = draw(masked_matches()) if draw(st.booleans()) else draw(matches())
        table.add(
            FlowEntry(
                match,
                priority=priority,
                instructions=[ApplyActions([Output(i + 1)])],
            )
        )
    return table


@st.composite
def pipelines(draw, max_tables: int = 3):
    n = draw(st.integers(1, max_tables))
    tables = []
    for i in range(n):
        goto_targets = range(i + 1, n)
        tables.append(draw(flow_tables(table_id=i, goto_ids=tuple(goto_targets))))
    return Pipeline(tables)


@st.composite
def goto_dag_pipelines(draw, max_tables: int = 5):
    """A deeper pipeline whose goto graph is a random acyclic DAG: each
    entry in table ``i`` may jump to any strictly later table, not just
    ``i+1``, so dispatch trampolines see skip-level edges and diamonds."""
    n = draw(st.integers(2, max_tables))
    tables = []
    for i in range(n):
        table = FlowTable(
            i, miss_policy=draw(st.sampled_from(list(TableMissPolicy)))
        )
        for _ in range(draw(st.integers(1, 4))):
            instrs: list = [ApplyActions([draw(actions())])]
            if i + 1 < n and draw(st.integers(0, 2)):
                instrs.append(GotoTable(draw(st.integers(i + 1, n - 1))))
            table.add(
                FlowEntry(
                    draw(matches()),
                    priority=draw(st.integers(0, 20)),
                    instructions=instrs,
                )
            )
        tables.append(table)
    return Pipeline(tables)


@st.composite
def flow_mod_batches(
    draw, pipeline: Pipeline, max_mods: int = 6, new_table: "int | None" = None
):
    """A mid-stream flow-mod schedule against an existing pipeline:
    ADD/MODIFY/DELETE at real and colliding (match, priority) points —
    level with a table's catch-all included, where insertion order and
    not priority decides who shadows whom — with occasional strict
    deletes and invalid table ids that the admission layer must reject
    identically everywhere. ``new_table`` is an id the batch may create."""
    table_ids = [t.table_id for t in pipeline.tables]
    if new_table is not None:
        table_ids.append(new_table)
    catch_alls = {
        t.table_id: [e.priority for e in t.entries if e.match.is_catch_all]
        for t in pipeline.tables
    }
    existing = [
        (t.table_id, e.match, e.priority)
        for t in pipeline.tables
        for e in t.entries
    ]
    mods = []
    for _ in range(draw(st.integers(1, max_mods))):
        command = draw(st.sampled_from(list(FlowModCommand)))
        # Mostly target live entries so MODIFY/DELETE actually bite.
        if existing and draw(st.integers(0, 2)):
            table_id, match, priority = draw(st.sampled_from(existing))
        else:
            table_id = draw(st.sampled_from(table_ids))
            match = draw(matches())
            priority = draw(st.integers(0, 20))
            if catch_alls.get(table_id) and not draw(st.integers(0, 3)):
                priority = draw(st.sampled_from(catch_alls[table_id]))
        if not draw(st.integers(0, 9)):  # rare poison mod: bad table id
            table_id = 300
        mods.append(
            FlowMod(
                command=command,
                table_id=table_id,
                match=match,
                priority=priority,
                instructions=(ApplyActions([draw(actions())]),),
                strict=draw(st.booleans()),
            )
        )
    return mods


@st.composite
def packets(draw) -> Packet:
    """A random packet whose fields collide with FIELD_DOMAINS values."""
    builder = PacketBuilder(in_port=draw(st.sampled_from(FIELD_DOMAINS["in_port"])))
    builder.eth(
        src=0x0200_0000_0099,
        dst=draw(st.sampled_from(FIELD_DOMAINS["eth_dst"] + [0x0200_0000_00FF])),
    )
    if draw(st.booleans()):
        builder.vlan(vid=draw(st.sampled_from(FIELD_DOMAINS["vlan_vid"] + [300])))
    l3 = draw(st.integers(0, 3))
    if l3 == 0:
        return builder.build()  # L2-only frame
    if l3 == 3:
        builder.ipv6(dst=draw(st.sampled_from(FIELD_DOMAINS["ipv6_dst"] + [V6_A + 99])))
    else:
        builder.ipv4(
            src=draw(st.sampled_from(FIELD_DOMAINS["ipv4_src"] + [0x0A0000FF])),
            dst=draw(st.sampled_from(FIELD_DOMAINS["ipv4_dst"] + [0x01010101])),
        )
    l4 = draw(st.integers(0, 2))
    if l4 == 0:
        builder.tcp(
            src_port=draw(st.integers(1024, 1030)),
            dst_port=draw(st.sampled_from(FIELD_DOMAINS["tcp_dst"] + [9999])),
        )
    elif l4 == 1:
        builder.udp(
            src_port=draw(st.integers(1024, 1030)),
            dst_port=draw(st.sampled_from(FIELD_DOMAINS["udp_dst"] + [9999])),
        )
    return builder.build()


def random_packet(rng: random.Random) -> Packet:
    """Non-hypothesis random packet for plain randomized tests."""
    builder = PacketBuilder(in_port=rng.choice(FIELD_DOMAINS["in_port"]))
    builder.eth(src=0x0200_0000_0099, dst=rng.choice(FIELD_DOMAINS["eth_dst"]))
    if rng.random() < 0.3:
        builder.vlan(vid=rng.choice(FIELD_DOMAINS["vlan_vid"]))
    l3_roll = rng.random()
    if l3_roll < 0.7:
        builder.ipv4(
            src=rng.choice(FIELD_DOMAINS["ipv4_src"]),
            dst=rng.choice(FIELD_DOMAINS["ipv4_dst"]),
        )
    elif l3_roll < 0.9:
        builder.ipv6(dst=rng.choice(FIELD_DOMAINS["ipv6_dst"]))
    else:
        return builder.build()  # L2-only frame
    roll = rng.random()
    if roll < 0.45:
        builder.tcp(dst_port=rng.choice(FIELD_DOMAINS["tcp_dst"]))
    elif roll < 0.9:
        builder.udp(dst_port=rng.choice(FIELD_DOMAINS["udp_dst"]))
    return builder.build()
