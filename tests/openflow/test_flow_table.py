"""Tests for flow tables: ordering, modification, lookup, tracing."""

import pytest

from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.match import Match
from repro.packet import PacketBuilder
from repro.packet.parser import parse


def entry(prio, **match):
    return FlowEntry(Match(**match), priority=prio, actions=[Output(prio)])


class TestOrdering:
    def test_priority_descending(self):
        t = FlowTable(0)
        t.add(entry(5, tcp_dst=80))
        t.add(entry(50, tcp_dst=22))
        t.add(entry(10, tcp_dst=443))
        assert [e.priority for e in t.entries] == [50, 10, 5]

    def test_stable_within_priority(self):
        t = FlowTable(0)
        first = entry(10, tcp_dst=80)
        second = entry(10, tcp_dst=443)
        t.add(first)
        t.add(second)
        assert t.entries == (first, second)

    def test_same_rule_replaces(self):
        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        replacement = FlowEntry(Match(tcp_dst=80), priority=10, actions=[Output(99)])
        t.add(replacement)
        assert len(t) == 1
        assert t.entries[0] is replacement


class TestModification:
    def test_remove_by_match(self):
        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        t.add(entry(20, tcp_dst=80))
        assert t.remove(Match(tcp_dst=80)) == 2
        assert len(t) == 0

    def test_remove_with_priority(self):
        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        t.add(entry(20, tcp_dst=80))
        assert t.remove(Match(tcp_dst=80), priority=10) == 1
        assert [e.priority for e in t.entries] == [20]

    def test_remove_missing_returns_zero(self):
        t = FlowTable(0)
        assert t.remove(Match(tcp_dst=80)) == 0

    def test_version_bumps_only_on_change(self):
        t = FlowTable(0)
        v0 = t.version
        t.remove(Match(tcp_dst=80))
        assert t.version == v0
        t.add(entry(1, tcp_dst=80))
        assert t.version == v0 + 1

    def test_remove_if(self):
        t = FlowTable(0)
        for p in (1, 2, 3):
            t.add(entry(p, tcp_dst=80 + p))
        assert t.remove_if(lambda e: e.priority < 3) == 2

    def test_clear(self):
        t = FlowTable(0)
        t.add(entry(1, tcp_dst=80))
        t.clear()
        assert len(t) == 0


class TestLookup:
    def pkt(self, dport=80):
        return parse(PacketBuilder().eth().ipv4().tcp(dst_port=dport).build())

    def test_highest_priority_wins(self):
        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        t.add(entry(20))  # catch-all at higher priority
        found = t.lookup(self.pkt())
        assert found is not None and found.priority == 20

    def test_probed_includes_non_matching(self):
        t = FlowTable(0)
        t.add(entry(30, tcp_dst=443))
        t.add(entry(20, tcp_dst=80))
        probed: list = []
        found = t.lookup(self.pkt(80), probed)
        assert found is not None and found.priority == 20
        assert [e.priority for e in probed] == [30, 20]

    def test_miss_probes_everything(self):
        t = FlowTable(0)
        t.add(entry(30, tcp_dst=443))
        probed: list = []
        assert t.lookup(self.pkt(80), probed) is None
        assert len(probed) == 1

    def test_counters_untouched_by_lookup(self):
        t = FlowTable(0)
        e = entry(10, tcp_dst=80)
        t.add(e)
        t.lookup(self.pkt())
        assert e.packets == 0  # counting is the interpreter's job


class TestMisc:
    def test_matched_fields_sorted_union(self):
        t = FlowTable(0)
        t.add(entry(1, tcp_dst=80))
        t.add(entry(2, ipv4_dst="10.0.0.0/8", in_port=1))
        assert t.matched_fields() == ("in_port", "ipv4_dst", "tcp_dst")

    def test_invalid_table_id(self):
        with pytest.raises(ValueError):
            FlowTable(-1)

    def test_default_miss_policy(self):
        assert FlowTable(0).miss_policy is TableMissPolicy.DROP

    def test_priority_bounds(self):
        with pytest.raises(ValueError):
            FlowEntry(Match(), priority=70000)


class TestFeatureCounts:
    """feature_counts() — the lazy shape-class multiset that makes
    required_layer and kind-stability O(shapes) instead of O(entries)."""

    @staticmethod
    def brute(t):
        from repro.openflow.flow_table import entry_features

        want: dict = {}
        for e in t.entries:
            f = entry_features(e)
            want[f] = want.get(f, 0) + 1
        return want

    def test_matches_brute_force_after_adds(self):
        t = FlowTable(0)
        for i in range(8):
            t.add(entry(1, tcp_dst=i))
        t.add(entry(24, ipv4_dst="10.0.0.0/24"))
        counts = t.feature_counts()
        assert counts == self.brute(t)
        assert sum(counts.values()) == len(t)

    def test_incremental_maintenance_stays_exact(self):
        import random

        rng = random.Random(3)
        t = FlowTable(0)
        t.feature_counts()  # prime the cache so mutations maintain it
        live: list = []
        for _ in range(200):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                assert t.remove(victim.match, victim.priority) == 1
            else:
                e = entry(rng.randrange(1, 4), tcp_dst=rng.randrange(30))
                t.add(e)
                live = [x for x in live
                        if (x.priority, x.match) != (e.priority, e.match)]
                live.append(e)
            assert t.feature_counts() == self.brute(t)

    def test_replacement_with_different_actions_updates(self):
        from repro.openflow.actions import DecTtl, Output as Out

        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        t.feature_counts()
        # Same rule key, deeper action profile: the old class must be
        # decremented, not just the new one added.
        t.add(FlowEntry(Match(tcp_dst=80), priority=10,
                        actions=[DecTtl(), Out(1)]))
        counts = t.feature_counts()
        assert counts == self.brute(t)
        assert sum(counts.values()) == 1

    def test_bulk_and_wildcard_paths_invalidate(self):
        t = FlowTable(0)
        t.add_bulk([entry(1, tcp_dst=i) for i in range(4)])
        assert t.feature_counts() == self.brute(t)
        t.remove(Match(tcp_dst=1))  # non-strict: invalidates, recomputes
        assert t.feature_counts() == self.brute(t)
        t.remove_if(lambda e: e.priority == 1)
        assert t.feature_counts() == self.brute(t) == {}
        t.add_bulk([entry(2, in_port=i) for i in range(3)])
        t.clear()
        assert t.feature_counts() == {}

    def test_survives_pickle_round_trip(self):
        import pickle

        t = FlowTable(0)
        t.add(entry(1, tcp_dst=80))
        t.feature_counts()
        clone = pickle.loads(pickle.dumps(t))
        assert clone.feature_counts() == self.brute(clone)


class TestSortKeys:
    """The store's sort keys hold one int object per distinct priority on
    every path that writes them. The priorities lie outside CPython's
    small-int cache, so each ``-priority`` computed anew is a new object."""

    PRIOS = (100, 300, 1000)

    @staticmethod
    def key_objects(t: FlowTable) -> int:
        return len({id(k) for k in t._keys})

    def filled(self, n: int = 200) -> FlowTable:
        t = FlowTable(0)
        for i in range(n):  # a fresh rule each, tails and middles alike
            t.add(entry(self.PRIOS[i * 7 % 3], tcp_dst=i))
        return t

    def test_single_adds_share_their_neighbours_key(self):
        t = self.filled()
        assert self.key_objects(t) == len(self.PRIOS)
        # … and so does a put-back ahead of a same-priority follower.
        victim = t.entries[1]
        follower = t.follower(victim)
        t.remove(victim.match, victim.priority)
        t.add(victim, before=follower)
        assert self.key_objects(t) == len(self.PRIOS)

    def test_compaction_shares_keys(self):
        t = self.filled()
        t.remove_if(lambda e: e.match.constraint("tcp_dst")[0] % 4)
        t.compact()
        assert t.compactions and not t.tombstones
        assert self.key_objects(t) == len(self.PRIOS)

    def test_an_unpickled_table_shares_keys(self):
        import pickle

        clone = pickle.loads(pickle.dumps(self.filled()))
        assert self.key_objects(clone) == len(self.PRIOS)
        clone.add(entry(self.PRIOS[0], tcp_dst=999))
        assert self.key_objects(clone) == len(self.PRIOS)

    def test_a_bulk_add_shares_the_tail_s_key(self):
        t = self.filled()
        # the lowest priority: appended at the tail, no merge sort
        t.add_bulk([entry(self.PRIOS[0], tcp_dst=1000 + i) for i in range(10)])
        assert self.key_objects(t) == len(self.PRIOS)
