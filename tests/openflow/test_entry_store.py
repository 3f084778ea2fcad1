"""Tests for the tombstone-compacting entry store and its contracts.

Two contracts pinned here:

* **Tombstones + compaction** — deletes blank a slot in O(1), lookups and
  iteration skip the corpses, and compaction squeezes them out without
  reordering live entries or bumping ``version``.
* **No-op mods** — a delete that matches nothing live (including
  predicates that would only have hit tombstoned slots) bumps nothing:
  no version move, no re-fuse, no template re-selection downstream.
"""

import pickle

from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline


def entry(prio, port=1, **match):
    return FlowEntry(Match(**match), priority=prio, actions=[Output(port)])


class TestTombstones:
    def test_strict_delete_leaves_tombstone(self):
        t = FlowTable(0)
        for i in range(8):
            t.add(entry(10, tcp_dst=80 + i))
        t.remove(Match(tcp_dst=83), priority=10)
        assert t.tombstones == 1
        assert len(t) == 7
        assert len(t._entries) == 8  # the slot is blanked, not shifted
        assert [e.match.constraint("tcp_dst")[0] for e in t.entries] == [
            80, 81, 82, 84, 85, 86, 87,
        ]

    def test_lookup_skips_tombstones_probe_order_intact(self):
        from repro.packet import PacketBuilder
        from repro.packet.parser import parse

        def pkt(dport):
            return parse(PacketBuilder().eth().ipv4().tcp(dst_port=dport).build())

        t = FlowTable(0)
        entries = [entry(10 - i, tcp_dst=80) for i in range(4)]
        for e in entries:
            t.add(e)
        t.remove(Match(tcp_dst=80), priority=9)  # tombstone entries[1]
        probed: list = []
        hit = t.lookup(pkt(80), probed)
        assert hit is entries[0]
        assert probed == [entries[0]]
        # Miss path probes every live entry, in live order, corpses skipped.
        probed = []
        t.lookup(pkt(81), probed)
        assert probed == [entries[0], entries[2], entries[3]]

    def test_tombstone_reused_by_fresh_add(self):
        t = FlowTable(0)
        for i in range(16):
            t.add(entry(10, tcp_dst=1000 + i))
        raw_len = len(t._entries)
        # Steady-state churn — ADD a rule, strict-DELETE it, ADD the next
        # in the same priority band: the delete tombstones the band's
        # tail slot and the next add's insertion point is right there, so
        # the dead slot is reused and the raw store never grows.
        for i in range(50):
            t.add(entry(10, tcp_dst=2000 + i))
            t.remove(Match(tcp_dst=2000 + i), priority=10)
            assert len(t._entries) <= raw_len + 1
            assert t.tombstones <= 1
        assert len(t) == 16

    def test_compaction_triggers_and_is_invisible(self):
        t = FlowTable(0)
        n = 240  # 25% of 240 < COMPACT_MIN_DEAD: the floor governs
        for i in range(n):
            t.add(entry(5, tcp_src=i))
        # Delete a spread of entries without re-adding: tombstones pile up
        # until the dead fraction trips the amortized compaction.
        for i in range(0, 2 * FlowTable.COMPACT_MIN_DEAD, 2):
            t.remove(Match(tcp_src=i), priority=5)
        assert t.compactions >= 1
        assert t.tombstones < FlowTable.COMPACT_MIN_DEAD
        survivors = [e.match.constraint("tcp_src")[0] for e in t.entries]
        assert survivors == sorted(survivors)  # live order preserved

    def test_explicit_compact_preserves_order_and_version(self):
        t = FlowTable(0)
        entries = [entry(20 - i, tcp_dst=80 + i) for i in range(8)]
        for e in entries:
            t.add(e)
        t.remove(Match(tcp_dst=82), priority=18)
        before = t.entries
        version = t.version
        t.compact()
        assert t.tombstones == 0
        assert t.entries == before
        assert t.version == version  # invisible to version-keyed caches
        assert t.compactions == 1

    def test_pickle_roundtrip_compacts(self):
        t = FlowTable(0)
        for i in range(8):
            t.add(entry(10, tcp_dst=80 + i))
        t.remove(Match(tcp_dst=84), priority=10)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.tombstones == 0
        assert [e.priority for e in clone.entries] == [10] * 7
        assert len(clone) == len(t)
        assert clone.find_rule(Match(tcp_dst=85), 10) is not None


class TestNoopMods:
    def test_nonstrict_remove_matching_nothing_keeps_version(self):
        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        version = t.version
        assert t.remove(Match(tcp_dst=81)) == 0
        assert t.version == version

    def test_remove_if_matching_nothing_keeps_version(self):
        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        version = t.version
        assert t.remove_if(lambda e: e.priority == 99) == 0
        assert t.version == version

    def test_predicate_never_sees_tombstones(self):
        t = FlowTable(0)
        victim = entry(10, tcp_dst=80)
        t.add(victim)
        t.add(entry(10, tcp_dst=81))
        t.remove(Match(tcp_dst=80), priority=10)  # tombstone the victim
        version = t.version
        seen: list = []
        # A predicate that would only have matched the tombstoned entry
        # removes nothing and bumps nothing.
        assert t.remove_if(lambda e: seen.append(e) or e is victim) == 0
        assert t.version == version
        assert victim not in seen

    def test_eswitch_counts_noop_mods(self):
        table = FlowTable(0)
        table.add(entry(10, tcp_dst=80))
        from repro.core.eswitch import ESwitch

        sw = ESwitch.from_pipeline(Pipeline([table]))
        version = table.version
        generation_before = sw.datapath.generation
        cost = sw.apply_flow_mod(
            FlowMod(
                FlowModCommand.DELETE, 0, Match(tcp_dst=9999),
                priority=10, strict=True,
            )
        )
        assert cost == 0.0
        assert sw.update_stats.noop_mods == 1
        assert table.version == version
        # No re-fuse follows: the fused driver's generation is untouched.
        assert sw.datapath.generation == generation_before
        # A real delete is not a no-op.
        sw.apply_flow_mod(
            FlowMod(
                FlowModCommand.DELETE, 0, Match(tcp_dst=80),
                priority=10, strict=True,
            )
        )
        assert sw.update_stats.noop_mods == 1


class TestShapesVersion:
    def test_churn_within_class_keeps_shapes(self):
        t = FlowTable(0)
        for i in range(8):
            t.add(entry(10, tcp_dst=80 + i))
        t.feature_counts()  # prime: deltas are tracked from here on
        shapes = t.shapes_version
        t.add(entry(10, tcp_dst=200))
        t.remove(Match(tcp_dst=200), priority=10)
        assert t.shapes_version == shapes

    def test_class_appearing_or_emptying_bumps_shapes(self):
        t = FlowTable(0)
        t.add(entry(10, tcp_dst=80))
        t.feature_counts()
        shapes = t.shapes_version
        t.add(entry(20, udp_dst=53))  # new (priority, shape) class
        assert t.shapes_version > shapes
        shapes = t.shapes_version
        t.remove(Match(udp_dst=53), priority=20)  # class emptied
        assert t.shapes_version > shapes
