"""``FlowTable.add_columns`` is ``add_bulk`` over ``Match(...)`` rows.

The columnar door checks each column once and mints matches without a
keyword parse; everything a table answers afterwards must be what the
row-by-row door gives on the same rules, into an empty table or one that
already holds rules of the same shapes: live order (ties after the
existing entries, a repeated rule's last row winning in its first row's
place), the shape multiset, the template census, ``find``, and how far
``shapes_version`` / ``facts_version`` move. A column ``Match(...)``
would refuse raises the same error and leaves the table untouched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openflow.actions import Output, SetField
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match

#: Shapes with small value pools, so rows repeat rules and nest prefixes.
SHAPES = (
    ((("tcp_dst", 0xFFFF),), [[80, 443, 8080]]),
    ((("ipv4_dst", 0xFFFFFF00),), [[0x0A000000, 0x0A000100, 0x0A0001FF]]),
    ((("eth_type", 0xFFFF), ("ip_proto", 0xFF)), [[0x0800, 0x86DD], [6, 17]]),
)
#: Instruction lists; two are equal but distinct objects.
PALETTE = (
    [ApplyActions([Output(1)])],
    [ApplyActions([Output(1)])],
    [ApplyActions([SetField("tcp_dst", 7), Output(2)])],
    [GotoTable(3)],
    [],
)
PRIOS = (0, 1, 5)


def row_match(shape, values) -> Match:
    return Match(**{name: (value, mask) for (name, mask), value in zip(shape, values)})


@st.composite
def columns(draw):
    """``(shape, rows, priorities, instructions)``: a priority and an
    instruction list each one value or a column."""
    shape, pools = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(0, 8))
    rows = [tuple(draw(st.sampled_from(pool)) for pool in pools) for _ in range(n)]
    prios = draw(st.one_of(st.sampled_from(PRIOS),
                           st.lists(st.sampled_from(PRIOS), min_size=n, max_size=n)))
    picks = draw(st.one_of(st.integers(0, len(PALETTE) - 1),
                           st.lists(st.integers(0, len(PALETTE) - 1), min_size=n, max_size=n)))
    return shape, rows, prios, picks


def prefilled(pre) -> "tuple[FlowTable, list[FlowEntry]]":
    table, held = FlowTable(0), []
    for shape, rows, prios, picks in pre:
        for i, values in enumerate(rows):
            entry = FlowEntry(row_match(shape, values), priority=at(prios, i),
                              instructions=PALETTE[at(picks, i)])
            table.add(entry)
            held.append(entry)
    return table, held


def at(column, i):
    return column if isinstance(column, int) else column[i]


def state(table: FlowTable, held: list) -> dict:
    """Everything the equivalence compares, by value (the two tables hold
    different objects), with the prefilled entries marked."""
    def rule(entry):
        return (entry.priority, entry.match, tuple(entry.instructions),
                any(entry is h for h in held))

    matches = {e.match for e in table.entries}
    return {
        "order": [rule(e) for e in table.entries],
        "features": dict(table.feature_counts()),
        "templates": {tuple(t): n for t, n in table.action_templates().items()},
        "facts": dict(table.action_facts()),
        "find": {m: rule(table.find(m)) for m in matches},
        "shared": len({id(e.instructions) for e in table.entries}) == table.template_count,
    }


class TestEquivalence:
    @given(pre=st.lists(columns(), max_size=2), batch=columns())
    @settings(max_examples=200, deadline=None)
    def test_columns_equal_rows(self, pre, batch):
        shape, rows, prios, picks = batch
        by_rows, rows_held = prefilled(pre)
        by_columns, columns_held = prefilled(pre)
        versions = [(t.version, t.shapes_version, t.facts_version)
                    for t in (by_rows, by_columns)]
        assert versions[0] == versions[1]

        by_rows.add_bulk([
            FlowEntry(row_match(shape, values), priority=at(prios, i),
                      instructions=PALETTE[at(picks, i)])
            for i, values in enumerate(rows)
        ])
        value_columns = [list(column) for column in zip(*rows)] or [[] for _ in shape]
        instructions = (PALETTE[picks] if isinstance(picks, int)
                        else [PALETTE[p] for p in picks])
        assert by_columns.add_columns(shape, value_columns, prios, instructions) == len(rows)

        assert state(by_columns, columns_held) == state(by_rows, rows_held)
        moved = [(t.version - v, t.shapes_version - s, t.facts_version - f)
                 for t, (v, s, f) in zip((by_rows, by_columns), versions)]
        assert moved[0] == moved[1]

    def test_repeated_rule_takes_its_first_row_place(self):
        table = FlowTable(0)
        table.add_columns((("tcp_dst", 0xFFFF),), [[80, 443, 80, 22]], 1,
                          [PALETTE[0], PALETTE[2], PALETTE[3], PALETTE[4]])
        assert [(e.match.values[0], tuple(e.instructions)) for e in table.entries] == [
            (80, (GotoTable(3),)), (443, tuple(PALETTE[2])), (22, ())]

    def test_one_template_per_distinct_list(self):
        table = FlowTable(0)
        table.add_columns((("tcp_dst", 0xFFFF),), [list(range(100))], 1,
                          [PALETTE[i % 2] for i in range(100)])
        assert table.template_count == 1  # the two lists are equal
        assert len({id(e.instructions) for e in table.entries}) == 1


def snapshot(table: FlowTable) -> tuple:
    return (table.entries, table.version, table.shapes_version, table.facts_version,
            dict(table.feature_counts()), table.action_templates(), len(table))


class TestRejection:
    """A column ``Match(...)`` refuses raises what it raises, before
    anything is placed."""

    @pytest.mark.parametrize("name, mask, bad, error", [
        ("tcp_dst", 0xFFFF, True, TypeError),
        ("tcp_dst", 0xFFFF, 80.0, TypeError),
        ("tcp_dst", 0xFFFF, None, TypeError),
        ("tcp_dst", 0xFFFF, 1 << 16, ValueError),
        ("tcp_dst", 0xFFFF, -1, ValueError),
        ("ipv4_dst", 0xFFFFFF00, 1 << 32, ValueError),
        ("in_port", 0xF0, 1, ValueError),  # a partial mask on an unmaskable field
    ])
    def test_same_error_and_table_untouched(self, name, mask, bad, error):
        with pytest.raises(error):
            Match(**{name: (bad, mask)})
        table = FlowTable(0)
        table.add(FlowEntry(Match(tcp_dst=22), priority=1, actions=[Output(1)]))
        before = snapshot(table)
        with pytest.raises(error):
            table.add_columns(((name, mask),), [[1, bad, 2]], 1, PALETTE[0])
        assert snapshot(table) == before

    @pytest.mark.parametrize("shape, values, prios, instructions", [
        ((("tcp_dst", 0xFFFF),), [[1, 2]], 0x10000, PALETTE[0]),  # priority range
        ((("tcp_dst", 0xFFFF),), [[1, 2]], [1], PALETTE[0]),  # column lengths
        ((("tcp_dst", 0xFFFF),), [[1, 2]], 1, [PALETTE[0]]),
        ((("ip_proto", 0xFF), ("tcp_dst", 0xFFFF)), [[6, 17]], 1, PALETTE[0]),
        ((("ip_proto", 0xFF), ("tcp_dst", 0xFFFF)), [[6, 17], [1]], 1, PALETTE[0]),
        ((("tcp_dst", 0xFFFF), ("ip_proto", 0xFF)), [[1], [6]], 1, PALETTE[0]),  # unsorted
        ((("tcp_dst", 0xFFFF), ("tcp_dst", 0xFF00)), [[1], [6]], 1, PALETTE[0]),  # repeated
        ((("tcp_dst", 0),), [[0]], 1, PALETTE[0]),  # a zero mask
        ((), [], 1, PALETTE[0]),
    ])
    def test_malformed_columns_are_refused(self, shape, values, prios, instructions):
        table = FlowTable(0)
        before = snapshot(table)
        with pytest.raises(ValueError):
            table.add_columns(shape, values, prios, instructions)
        assert snapshot(table) == before

    def test_partial_mask_values_are_made_canonical(self):
        table = FlowTable(0)
        table.add_columns((("ipv4_dst", 0xFFFFFF00),), [[0x0A0000FF]], 1, [])
        assert table.entries[0].match == Match(ipv4_dst="10.0.0.0/24")
