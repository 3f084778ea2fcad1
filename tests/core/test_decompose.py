"""Tests for flow table decomposition (Fig. 5/6)."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts

from repro.core import ESwitch, decompose
from repro.core.analysis import CompileConfig, TemplateKind, select_template
from repro.core.decompose import decomposable, decompose_table
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import GotoTable
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline
from repro.packet import PacketBuilder
from repro.usecases import acl, l2


def e(prio, action_port, **match):
    return FlowEntry(Match(**match), priority=prio, actions=[Output(action_port)])


def fig5_style_table():
    """Two columns, diversity 2 on tcp_dst vs 4 on ipv4_dst (3 keys + *)."""
    t = FlowTable(0)
    t.add(e(6, 1, ipv4_dst=0x0A000001, tcp_dst=80))
    t.add(e(5, 2, ipv4_dst=0x0A000002, tcp_dst=80))
    t.add(e(4, 3, ipv4_dst=0x0A000003, tcp_dst=80))
    t.add(e(3, 4, ipv4_dst=0x0A000001))
    t.add(e(2, 5, ipv4_dst=0x0A000002))
    t.add(e(1, 6, tcp_dst=80))
    t.add(e(0, 7))
    return t


def semantics(pipeline_or_table, packets):
    if isinstance(pipeline_or_table, FlowTable):
        pipeline = Pipeline([pipeline_or_table])
    else:
        pipeline = pipeline_or_table
    return [pipeline.process(p.copy()).summary() for p in packets]


class TestDecomposability:
    def test_single_column_not_decomposable(self):
        t = FlowTable(0)
        t.add(e(1, 1, tcp_dst=80))
        assert not decomposable(t)

    def test_mixed_masks_in_column_not_decomposable(self):
        t = FlowTable(0)
        t.add(e(2, 1, ipv4_dst="10.0.0.0/8", tcp_dst=80))
        t.add(e(1, 2, ipv4_dst="10.1.0.0/16", tcp_dst=80))
        assert not decomposable(t)
        assert decompose_table(t, 100) is None

    def test_uniform_masked_column_ok(self):
        t = FlowTable(0)
        t.add(e(2, 1, ipv4_src=(0, 0x80000000), tcp_dst=80))
        t.add(e(1, 2, ipv4_src=(0x80000000, 0x80000000), tcp_dst=22))
        assert decomposable(t)


class TestStructure:
    def test_greedy_picks_min_diversity_column(self):
        tables = decompose_table(fig5_style_table(), 100)
        assert tables is not None
        root = next(t for t in tables if t.table_id == 0)
        # Root dispatches on tcp_dst (diversity 2: {80} + wildcard),
        # not on ipv4_dst (diversity 4).
        assert root.matched_fields() == ("tcp_dst",)

    def test_greedy_beats_forced_bad_column(self):
        greedy = decompose_table(fig5_style_table(), 100)
        forced = decompose_table(fig5_style_table(), 100, force_first_column="ipv4_dst")
        assert greedy is not None and forced is not None
        assert len(greedy) < len(forced)

    def test_all_leaves_single_column(self):
        tables = decompose_table(fig5_style_table(), 100)
        assert tables is not None
        for table in tables:
            assert len(table.matched_fields()) <= 1

    def test_root_keeps_original_id(self):
        tables = decompose_table(fig5_style_table(), 100)
        assert any(t.table_id == 0 for t in tables)

    def test_internal_ids_fresh(self):
        tables = decompose_table(fig5_style_table(), 500)
        for t in tables:
            assert t.table_id == 0 or t.table_id >= 500

    def test_dedup_reduces_or_equals(self):
        plain = decompose_table(fig5_style_table(), 100, dedup=False)
        shared = decompose_table(fig5_style_table(), 100, dedup=True)
        assert len(shared) <= len(plain)

    def test_miss_policy_propagates(self):
        from repro.openflow.flow_table import TableMissPolicy

        t = fig5_style_table()
        t.miss_policy = TableMissPolicy.CONTROLLER
        tables = decompose_table(t, 100)
        assert all(x.miss_policy is TableMissPolicy.CONTROLLER for x in tables)

    def test_priorities_fit_16_bits_at_any_row_count(self):
        """70 000 MACs plus one MAC+port rule: more rows than a 16-bit
        priority can number one by one. The table still decomposes, with
        no compile failure, and keeps first-match order."""
        pipeline, macs = l2.build(70_000)
        pipeline.table(0).add(
            e(2, 9, eth_dst=macs[0], in_port=3)
        )
        sw = ESwitch(pipeline)
        sw.warm()
        assert sw.table_kinds()[0] == "decomposed[3 tables, 70001/70001 rules]"
        assert sw.health().compile_failures == 0
        for port, out in ((3, (9,)), (1, (0,))):
            pkt = PacketBuilder(in_port=port).eth(dst=macs[0]).build()
            assert sw.process(pkt).output_ports == list(out)


class TestSemanticEquivalence:
    def probes(self, rng, n=40):
        return [sts.random_packet(rng) for _ in range(n)]

    def test_fig5_table_equivalent(self):
        rng = random.Random(3)
        original = fig5_style_table()
        tables = decompose_table(fig5_style_table(), 100)
        decomposed = Pipeline(tables)
        pkts = self.probes(rng)
        assert semantics(original, pkts) == semantics(decomposed, pkts)

    @settings(max_examples=50, deadline=None)
    @given(sts.flow_tables(max_entries=8), sts.packets())
    def test_random_tables_equivalent(self, table, pkt):
        tables = decompose_table(table, 100)
        if tables is None:
            return  # not decomposable: nothing to check
        original = Pipeline([table])
        # Rebuild the original because Pipeline construction is cheap and
        # decompose_table does not mutate — the same object works.
        decomposed = Pipeline(tables)
        assert (
            original.process(pkt.copy()).summary()
            == decomposed.process(pkt.copy()).summary()
        )

    def test_wildcard_rows_replicated_in_priority_order(self):
        # A wildcard row above a keyed row must still win in every branch.
        t = FlowTable(0)
        t.add(e(3, 1, tcp_dst=80))
        t.add(e(2, 9, ipv4_dst=0x0A000001))  # wildcard in tcp_dst column
        t.add(e(1, 2, tcp_dst=22, ipv4_dst=0x0A000001))
        t.add(e(0, 7))
        tables = decompose_table(t, 100)
        original, decomposed = Pipeline([fresh(t)]), Pipeline(tables)
        rng = random.Random(5)
        pkts = self.probes(rng, 60)
        # Craft the critical packet: matches both row 2 and row 3.
        from repro.packet import PacketBuilder

        pkts.append(
            PacketBuilder(in_port=1).eth()
            .ipv4(src="10.0.0.9", dst="10.0.0.1").tcp(dst_port=22).build()
        )
        assert semantics(original, pkts) == semantics(decomposed, pkts)


def fresh(table: FlowTable) -> FlowTable:
    clone = FlowTable(table.table_id, miss_policy=table.miss_policy)
    for entry in table:
        clone.add(
            FlowEntry(entry.match, priority=entry.priority,
                      instructions=entry.instructions)
        )
    return clone


# -- set pruning --------------------------------------------------------------

_COLUMNS = ("in_port", "ip_proto", "ipv4_src", "ipv4_dst", "tcp_dst")


@st.composite
def shadowed_tables(draw) -> FlowTable:
    """A decomposable table seeded with rows no packet can reach: matches
    repeated at lower priority, matches that add constraints to an earlier
    one (dominated), and rules below a catch-all. One mask per column."""
    mask_of = {
        name: draw(st.sampled_from(sts.MASKS.get(name, [sts.domain.full_mask(name)])))
        for name in _COLUMNS
    }

    def fresh() -> dict:
        names = draw(st.lists(st.sampled_from(_COLUMNS), max_size=3, unique=True))
        return {
            n: (draw(st.sampled_from(sts.FIELD_DOMAINS[n])) & mask_of[n], mask_of[n])
            for n in names
        }

    rows: list[dict] = []
    for _ in range(draw(st.integers(2, 10))):
        kind = draw(st.integers(0, 3)) if rows else 0
        if kind == 1:  # exact repeat of an earlier match
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == 2:  # an earlier match plus further constraints
            rows.append({**fresh(), **draw(st.sampled_from(rows))})
        else:
            rows.append(fresh())
    if draw(st.booleans()):  # a catch-all with rules below it
        rows.insert(draw(st.integers(0, len(rows))), {})
    table = FlowTable(0, miss_policy=draw(st.sampled_from(list(sts.TableMissPolicy))))
    priority = 30
    for i, fields in enumerate(rows):
        priority -= draw(st.integers(0, 2))  # ties break by insertion order
        table.add(FlowEntry(Match.from_pairs(fields), priority=priority,
                            actions=[Output(i + 1)]))
    return table


def shape(tables):
    """What a decomposition emits, free of object identity."""
    return [
        (t.table_id, [(e.match, e.priority, repr(e.instructions)) for e in t])
        for t in tables
    ]


def all_live_table(n_a: int = 50, n_b: int = 98) -> FlowTable:
    """5 000 rules, every one reachable, over mixed wildcard patterns (the
    kind of table ESwitch hands to decomposition; a table whose rules all
    constrain the same columns is a hash table and never gets here)."""
    rules = [dict(ipv4_dst=a, tcp_dst=b) for a in range(n_a) for b in range(n_b)]
    rules += [dict(ipv4_dst=a) for a in range(n_a)]
    rules += [dict(tcp_dst=b) for b in range(n_b // 2)]
    rules.append({})
    table = FlowTable(0)
    for i, fields in enumerate(rules):
        table.add(e(len(rules) - i, 1, **fields))
    return table


class TestSetPruning:
    @settings(max_examples=150, deadline=None)
    @given(shadowed_tables())
    def test_emitted_tables_are_regular(self, table):
        """(a) one column, distinct matches, at most one catch-all and it
        is last; (b) so no emitted table needs the linked list."""
        tables = decompose_table(table, 100)
        if tables is None:
            return
        for t in tables:
            matches = [entry.match for entry in t]
            assert len(t.matched_fields()) <= 1
            assert len(set(matches)) == len(matches)
            assert all(not m.is_catch_all for m in matches[:-1])
            assert select_template(t) is not TemplateKind.LINKED_LIST

    @settings(max_examples=150, deadline=None)
    @given(shadowed_tables(), st.lists(sts.packets(), min_size=1, max_size=12))
    def test_verdicts_and_counters_match_the_original(self, table, pkts):
        """(c) a pruned row was unreachable: every rule's leaves together
        count what the rule counts under Pipeline.process on the
        undecomposed table (dead rules read 0 on both sides)."""
        tables = decompose_table(table, 100)
        if tables is None:
            return
        reference = fresh(table)
        assert semantics(reference, pkts) == semantics(Pipeline(tables), pkts)
        counts = {id(rule): [0, 0] for rule in table}
        for leaf in (x for t in tables for x in t if x.origin is not None):
            counts[id(leaf.origin)][0] += leaf.packets
            counts[id(leaf.origin)][1] += leaf.bytes
        for ours, theirs in zip(table, reference):
            assert counts[id(ours)] == [theirs.packets, theirs.bytes]

    @settings(max_examples=100, deadline=None)
    @given(shadowed_tables(), st.data())
    def test_rules_below_their_shadow_change_nothing(self, table, data):
        """(d) monotonicity: rules appended below a rule that includes
        them are dropped before they can add a key, a partition or a row."""
        before = decompose_table(table, 100)
        if before is None:
            return
        grown = fresh(table)
        entries = list(table)
        floor = min(entry.priority for entry in entries)
        for i in range(data.draw(st.integers(1, 4))):
            above = data.draw(st.sampled_from(entries))
            extra = data.draw(st.sampled_from(entries)).match
            fields = {**dict(extra.items()), **dict(above.match.items())}
            grown.add(FlowEntry(Match.from_pairs(fields), priority=floor - 1 - i,
                                actions=[Output(9)]))
        assert shape(decompose_table(grown, 100)) == shape(before)

    def test_obsolete_acl_rules_change_nothing(self):
        """acl.generate(369) is acl.generate(72) plus 297 rules, all below
        the protocol-only rules that include them."""
        assert shape(decompose_table(acl.generate(369), 100)) == shape(
            decompose_table(acl.generate(72), 100))

    def test_hand_cases(self):
        t = FlowTable(0)
        t.add(e(9, 1, ip_proto=6))
        t.add(e(8, 2, ip_proto=6, tcp_dst=80))  # dominated
        t.add(e(7, 3, ip_proto=17, udp_dst=53))
        t.add(e(6, 4, ip_proto=17, udp_dst=53))  # repeated
        t.add(e(5, 5))
        t.add(e(4, 6, ip_proto=1, ipv4_dst=1))  # past the catch-all
        tables = decompose_table(t, 100)
        live = {entry.origin.priority for x in tables for entry in x
                if entry.origin is not None}
        assert live == {9, 7, 5}
        # Root on udp_dst (53, *): 2 entries; leaves {6, 17, *} and {6, *}.
        assert sorted(len(x) for x in tables) == [2, 2, 3]

    def test_all_live_table_pays_no_quadratic_scan(self, monkeypatch):
        """(e) set pruning probes the kept sets at most 2^columns times per
        row handed in (once per row here), never a scan of the kept rows:
        work counted, not timed."""
        table = all_live_table()
        assert len(table) == 5000
        probes = bound = 0

        def counting_combinations(items, n):
            nonlocal probes
            for subset in combinations(items, n):
                probes += 1
                yield subset

        def counting_reachable(rows):
            nonlocal bound
            bound += sum(2 ** len(row.match.shape) for row in rows)
            return reachable(rows)

        reachable = decompose._reachable
        monkeypatch.setattr(decompose, "combinations", counting_combinations)
        monkeypatch.setattr(decompose, "_reachable", counting_reachable)
        tables = decompose_table(table, 100)
        live = {id(x.origin) for t in tables for x in t} - {id(None)}
        assert len(live) == 5000
        assert 0 < probes <= bound


def acl_flows(table: FlowTable, n: int, rng: random.Random) -> list:
    """Five-tuple packets aimed at random rules of ``table`` (fields a rule
    leaves open drawn at random), and one in four ICMP, which only the
    default permit takes."""
    rules = [x for x in table.entries if not x.match.is_catch_all]
    flows = []
    for _ in range(n):
        builder = PacketBuilder(in_port=1).eth()
        if rng.random() < 0.25:
            builder.ipv4(src=rng.getrandbits(32), dst=rng.getrandbits(32))
            flows.append(builder.icmp().build())
            continue
        want = {name: value for name, (value, _m) in rng.choice(rules).match.items()}
        builder.ipv4(src=want.get("ipv4_src", rng.getrandbits(32)),
                     dst=want.get("ipv4_dst", rng.getrandbits(32)))
        l4 = "tcp" if want["ip_proto"] == 6 else "udp"
        getattr(builder, l4)(
            src_port=want.get(f"{l4}_src", 1024 + rng.randrange(60_000)),
            dst_port=want.get(f"{l4}_dst", rng.choice(acl.SERVICE_PORTS)))
        flows.append(builder.build())
    return flows


class TestLeavesCompileToTheirRule:
    """A sub-table's lookup returns the logical rule a leaf stands for,
    never the leaf: every hop holds a rule of its logical table or a
    synthetic dispatch entry, and the rule counts its own hits."""

    @pytest.mark.parametrize("config", [CompileConfig(), CompileConfig(fuse=False)],
                             ids=["fused", "trampoline"])
    def test_no_verdict_path_holds_a_leaf(self, config):
        flows = acl_flows(acl.generate(369), 256, random.Random(1))
        reference = acl.build(369)
        switch = ESwitch(acl.build(369), config)
        assert switch.table_kinds()[0].startswith("decomposed[")
        half = len(flows) // 2
        verdicts = [switch.process(p.copy()) for p in flows[:half]]
        verdicts += switch.process_burst([p.copy() for p in flows[half:]])
        assert [v.summary() for v in verdicts] == [
            reference.process(p.copy()).summary() for p in flows]
        rule_ids = {t.table_id: set(map(id, t.entries)) for t in switch.pipeline}
        rule_hops = 0
        for verdict in verdicts:
            for tid, entry in verdict.path:
                if entry is None:
                    continue
                if id(entry) in rule_ids[switch.logical_table_id(tid)]:
                    rule_hops += 1
                else:  # dispatch: no origin, and nothing but a goto
                    assert entry.origin is None
                    assert list(entry.instructions) == [GotoTable(entry.goto_table)]
        assert rule_hops == len(flows)
        assert [(x.packets, x.bytes) for x in switch.pipeline.table(0)] == [
            (x.packets, x.bytes) for x in reference.table(0)]
