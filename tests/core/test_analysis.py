"""Tests for template selection (Fig. 4 prerequisites and fallbacks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    PREREQUISITES,
    CompileConfig,
    TemplateKind,
    hash_shape,
    lpm_prefixes,
    select_template,
    split_catch_all,
)
from repro.core.codegen import CompileError, compile_table
from repro.openflow import flow_table
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.match import Match
from strategies import masked_matches, tied_tables


def e(prio, **match):
    return FlowEntry(Match(**match), priority=prio, actions=[Output(1)])


class TestSplitCatchAll:
    def test_trailing_catch_all_split(self):
        entries = [e(10, tcp_dst=80), e(0)]
        rules, catch = split_catch_all(entries)
        assert len(rules) == 1 and catch is not None

    def test_no_catch_all(self):
        rules, catch = split_catch_all([e(10, tcp_dst=80)])
        assert catch is None and len(rules) == 1

    def test_mid_table_catch_all_prevents_split(self):
        # A high-priority catch-all shadows the rest; splitting the final
        # one as a default rule would be unsound, so nothing splits.
        entries = [e(10), e(5, tcp_dst=80), e(0)]
        rules, catch = split_catch_all(entries)
        assert catch is None and len(rules) == 3


class TestDirectThreshold:
    def test_small_tables_go_direct(self):
        entries = [e(10, tcp_dst=80), e(9, udp_dst=53), e(0)]
        assert select_template(entries) is TemplateKind.DIRECT

    def test_threshold_is_four(self):
        entries = [e(10 - i, tcp_dst=80 + i) for i in range(4)]
        assert select_template(entries) is TemplateKind.DIRECT
        entries.append(e(1, tcp_dst=99))
        assert select_template(entries) is not TemplateKind.DIRECT

    def test_threshold_configurable(self):
        entries = [e(10 - i, tcp_dst=80 + i) for i in range(8)]
        assert select_template(entries, CompileConfig(direct_threshold=10)) is TemplateKind.DIRECT


class TestHashPrerequisite:
    def test_uniform_exact_matches(self):
        entries = [e(1, eth_dst=i) for i in range(10)]
        assert hash_shape(entries) is not None
        assert select_template(entries) is TemplateKind.HASH

    def test_global_mask_multi_field(self):
        entries = [
            e(1, ipv4_dst=(0xC0000200 + (i << 8), 0xFFFFFF00), tcp_dst=80 + i)
            for i in range(8)
        ]
        assert hash_shape(entries) is not None

    def test_paper_example_mask_violation(self):
        """Section 3.1: adding a wildcard-port entry breaks the global mask."""
        good = [
            e(3, ipv4_dst="192.0.2.0/24", tcp_dst=80),
            e(2, ipv4_dst="198.51.100.0/24", tcp_dst=21),
        ]
        assert hash_shape(good) is not None
        bad = good + [e(1, ipv4_dst="203.0.113.0/24")]
        assert hash_shape(bad) is None

    def test_catch_all_allowed(self):
        entries = [e(1, eth_dst=i) for i in range(10)] + [e(0)]
        assert hash_shape(entries) is not None

    def test_different_masks_rejected(self):
        entries = [
            e(2, ipv4_dst="10.0.0.0/8"),
            e(1, ipv4_dst="192.0.2.0/24"),
        ] * 3
        assert hash_shape(entries) is None

    def test_empty_not_applicable(self):
        assert hash_shape([]) is None
        assert hash_shape([e(0)]) is None


class TestLpmPrerequisite:
    def prefixes(self, *specs):
        return [e(depth, ipv4_dst=f"{addr}/{depth}") for addr, depth in specs]

    def test_prefix_rules_accepted(self):
        entries = self.prefixes(("10.0.0.0", 8), ("10.1.0.0", 16), ("192.0.2.0", 24))
        assert lpm_prefixes(entries) is not None
        entries = entries * 2  # > direct threshold
        assert select_template(self.prefixes(
            ("10.0.0.0", 8), ("10.1.0.0", 16), ("192.0.2.0", 24),
            ("10.2.0.0", 16), ("10.3.0.0", 16),
        )) is TemplateKind.LPM

    def test_paper_priority_inversion_rejected(self):
        """Section 3.1's example: a /30 below a /24 in priority."""
        entries = [
            FlowEntry(Match(ipv4_dst="192.0.2.0/24"), priority=100,
                      actions=[Output(1)]),
            FlowEntry(Match(ipv4_dst="192.0.2.12/30"), priority=20,
                      actions=[Output(2)]),
        ]
        assert lpm_prefixes(entries) is None

    def test_non_prefix_mask_rejected(self):
        # A suffix mask is not a contiguous prefix: LPM cannot represent it.
        entries = [e(2, ipv4_dst=(0, 0x0000FFFF)), e(1, ipv4_dst=(1, 0xFFFFFFFF))]
        assert lpm_prefixes(entries) is None

    def test_multi_field_rejected(self):
        entries = [e(1, ipv4_dst="10.0.0.0/8", tcp_dst=80)]
        assert lpm_prefixes(entries) is None

    def test_non_lpm_field_rejected(self):
        entries = [e(1, eth_dst=(0x10, 0xFFFF00000000))]
        assert lpm_prefixes(entries) is None

    def test_catch_all_as_default_route(self):
        entries = self.prefixes(("10.0.0.0", 8), ("10.1.0.0", 16)) + [e(0)]
        assert lpm_prefixes(entries) is not None


def consistent_at_every_depth(by_prefix: dict) -> bool:
    """The priority check as first written: every rule against the
    table's prefix at each shorter depth the table holds."""
    depths = sorted({depth for _value, depth in by_prefix})
    for (value, depth), entry in by_prefix.items():
        for shorter in depths:
            if shorter >= depth:
                break
            shift = 32 - shorter
            parent = by_prefix.get((value >> shift << shift, shorter))
            if parent is not None and parent.priority >= entry.priority:
                return False
    return True


@st.composite
def prefix_rules(draw):
    """Distinct ``ipv4_dst`` prefixes around a few bases, so they nest
    deeply; sometimes a catch-all below them."""
    rules, seen = [], set()
    for _ in range(draw(st.integers(1, 24))):
        base = draw(st.sampled_from([0x0A000000, 0x0A0A0A00, 0xC0A80180]))
        depth = draw(st.sampled_from([1, 8, 9, 16, 23, 24, 25, 32]))
        mask = (0xFFFFFFFF << (32 - depth)) & 0xFFFFFFFF
        value = (base | draw(st.integers(0, 3)) << draw(st.sampled_from([0, 8, 20]))) & mask
        if (value, depth) not in seen:
            seen.add((value, depth))
            # Mostly the prefix length, sometimes an inversion.
            priority = draw(st.sampled_from(
                [depth, depth, depth + 1, max(1, depth - 8), 40 - depth]))
            rules.append(e(priority, ipv4_dst=(value, mask)))
    rules.sort(key=lambda entry: -entry.priority)
    if draw(st.booleans()):
        rules.append(e(0))
    return rules


class TestNearestAncestor:
    """The LPM prerequisite checks each rule against its nearest ancestor
    only; the verdict is the every-depth walk's."""

    @given(prefix_rules())
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_every_depth(self, entries):
        rules, _catch_all = split_catch_all(entries)
        by_prefix = {(r.match.values[0], r.match.prefix_len("ipv4_dst")): r for r in rules}
        plan = lpm_prefixes(entries)
        assert (plan is not None) == consistent_at_every_depth(by_prefix)
        if plan is not None:
            assert plan == ("ipv4_dst", by_prefix)


class TestFallbackChain:
    def test_lattice_is_fig4(self):
        """Four rungs, top-down: direct code, compound hash, LPM, linked
        list — and no template kind outside them."""
        fig4 = [TemplateKind.DIRECT, TemplateKind.HASH, TemplateKind.LPM,
                TemplateKind.LINKED_LIST]
        assert list(PREREQUISITES) == fig4
        assert list(TemplateKind) == fig4

    def test_linked_list_is_universal(self):
        # Mixed field sets, arbitrary masks: only the linked list applies.
        entries = [
            e(5, tcp_dst=80),
            e(4, ipv4_dst="10.0.0.0/8"),
            e(3, eth_dst=1),
            e(2, udp_dst=53),
            e(1, in_port=1),
        ]
        assert select_template(entries) is TemplateKind.LINKED_LIST

    def test_efficiency_order(self):
        # LPM-eligible rules that also satisfy hash prerequisites (all /32)
        # compile to the *hash* template (more efficient).
        entries = [e(32, ipv4_dst=f"10.0.0.{i}/32") for i in range(8)]
        assert select_template(entries) is TemplateKind.HASH


def table_of(*entries):
    table = FlowTable(0)
    for entry in entries:
        table.add(entry)
    return table


class TestOnePrerequisitePerRung:
    """Selection and compilation ask the same function, once: the rung is
    built from the answer, not from a second walk of the entries."""

    TABLES = {
        TemplateKind.LPM: lambda: table_of(
            *[e(24, ipv4_dst=f"10.0.{i}.0/24") for i in range(6)],
            e(16, ipv4_dst="10.0.0.0/16"), e(0)),
        TemplateKind.HASH: lambda: table_of(
            *[e(1, eth_dst=i) for i in range(8)], e(0)),
    }

    @pytest.mark.parametrize("forced", [False, True], ids=["selected", "forced"])
    @pytest.mark.parametrize("rung", TABLES, ids=lambda rung: rung.value)
    def test_one_evaluation_per_compile(self, rung, forced, monkeypatch):
        calls = []
        real = PREREQUISITES[rung]

        def counted(entries, config=None):
            calls.append(config)
            return real(entries, config)

        monkeypatch.setitem(PREREQUISITES, rung, counted)
        config = CompileConfig()
        compiled = compile_table(self.TABLES[rung](), config,
                                 kind=rung if forced else None)
        assert compiled.kind is rung
        # Forced, the thresholds that steer selection are not consulted.
        assert calls == [None if forced else config]

    def test_forced_rung_raises_what_selection_would_skip(self):
        inverted = table_of(e(8, ipv4_dst="10.0.0.0/8"),
                            e(4, ipv4_dst="10.1.0.0/16"))
        assert select_template(inverted.entries,
                               CompileConfig(direct_threshold=0)
                               ) is TemplateKind.LINKED_LIST
        with pytest.raises(CompileError, match="priorities consistent"):
            compile_table(inverted, kind=TemplateKind.LPM)


@st.composite
def near_hash_tables(draw):
    """Mostly one shape — so the hash prerequisite often holds — with the
    ways it breaks mixed in: catch-alls at any priority (last, tied with
    the rules, on top, twice) and entries of a second shape."""
    shape = draw(masked_matches())
    table = FlowTable(0)
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            match = Match()
        elif kind == 1:
            match = draw(masked_matches())
        else:  # the shared shape, a different value
            match = Match.from_pairs({
                name: (draw(st.integers(0, mask)) & mask, mask)
                for name, (_value, mask) in shape.items()
            })
        table.add(FlowEntry(match, priority=draw(st.integers(0, 3)),
                            actions=[Output(i + 1)]))
    return table


CONFIGS = [
    CompileConfig(direct_threshold=0),
    CompileConfig(),
    CompileConfig(force_linked_list=True),
]


class TestTableFormAgrees:
    """``hash_shape`` reads a table's shape multiset; the walk over
    ``table.entries`` is the oracle."""

    def check(self, table):
        for config in CONFIGS:
            assert select_template(table, config) is select_template(
                table.entries, config
            )
        assert hash_shape(table) == hash_shape(table.entries)

    @settings(max_examples=150, deadline=None)
    @given(tied_tables(max_entries=9))
    def test_tied_tables(self, table):
        self.check(table)

    @settings(max_examples=300, deadline=None)
    @given(near_hash_tables())
    def test_near_hash_tables(self, table):
        self.check(table)

    @settings(max_examples=50, deadline=None)
    @given(near_hash_tables(), st.data())
    def test_stays_equal_under_churn(self, table, data):
        """The multiset is maintained incrementally; the verdict read
        from it must track deletes and re-adds, not the first build."""
        self.check(table)
        for _ in range(4):
            entries = table.entries
            if entries and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(entries))
                table.remove(victim.match, priority=victim.priority)
            else:
                table.add(FlowEntry(data.draw(masked_matches()),
                                    priority=data.draw(st.integers(0, 3)),
                                    actions=[Output(1)]))
            self.check(table)

    def test_catch_all_last_is_the_miss_arm(self):
        table = table_of(*[e(5, eth_dst=i) for i in range(6)], e(0))
        assert hash_shape(table) == (("eth_dst", (1 << 48) - 1),)
        self.check(table)
        assert select_template(table) is TemplateKind.HASH

    def test_catch_all_tied_but_last_still_splits(self):
        # Same priority as the rules, inserted last: insertion-stable
        # order seats it last, where split_catch_all takes it.
        table = table_of(*[e(5, eth_dst=i) for i in range(6)], e(5))
        self.check(table)
        assert select_template(table) is TemplateKind.HASH

    def test_catch_all_not_last_breaks_the_global_mask(self):
        table = table_of(e(9), *[e(5, eth_dst=i) for i in range(6)])
        assert hash_shape(table) is None
        self.check(table)
        assert select_template(table) is not TemplateKind.HASH

    def test_two_catch_alls_break_it_even_with_one_last(self):
        table = table_of(e(9), *[e(5, eth_dst=i) for i in range(6)], e(0))
        assert hash_shape(table) is None
        self.check(table)
        assert select_template(table) is not TemplateKind.HASH

    def test_selection_fingerprints_no_entry(self, monkeypatch):
        """Template selection reads the shapes the table already counts:
        it never fingerprints an entry."""
        table = table_of(*[e(9 - i, eth_dst=i) for i in range(5)],
                         e(3, tcp_dst=80))
        calls = []
        monkeypatch.setattr(flow_table, "entry_features",
                            lambda entry: calls.append(entry))
        assert select_template(table) is TemplateKind.LINKED_LIST
        assert hash_shape(table) is None
        assert calls == []

    def test_only_catch_alls_or_nothing(self):
        for table in (table_of(), table_of(e(0)), table_of(e(1), e(0))):
            assert hash_shape(table) is None
            self.check(table)

    def test_compile_hash_refuses_from_the_same_check(self):
        def compile_hash(table):
            return compile_table(table, kind=TemplateKind.HASH)

        good = table_of(*[e(5, eth_dst=i) for i in range(6)], e(0))
        assert compile_hash(good).kind is TemplateKind.HASH
        for bad in (
            table_of(e(9), *[e(5, eth_dst=i) for i in range(6)]),
            table_of(e(9), *[e(5, eth_dst=i) for i in range(6)], e(0)),
            table_of(e(5, eth_dst=1), e(5, eth_dst=(2, 0xFF))),
            table_of(e(5, eth_dst=1), e(5, tcp_dst=80)),
        ):
            with pytest.raises(CompileError, match="global mask"):
                compile_hash(bad)
        with pytest.raises(CompileError, match="at least one keyed"):
            compile_hash(table_of(e(0)))
