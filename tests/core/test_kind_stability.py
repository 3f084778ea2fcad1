"""Per-mod template re-selection: the compiled rung answers it from the
shape multiset where it can, and the answer is never anything but what
``select_template`` would say.

Churn at 1e5 entries (``test_churn_at_scale.py``) dies on anything
O(entries) per flow-mod; ``CompiledTable.holds`` answers "is this table
still on my rung" in O(shapes) — the hash prerequisite itself, re-read;
a proof from the shape classes for LPM. These tests pin both
directions: steady churn takes the skip, and after *any* batch, accepted
or rolled back, every table sits on the rung a fresh compile of the same
pipeline picks.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts

from repro.core import CompileConfig, ESwitch
from repro.core.analysis import TemplateKind, select_template
from repro.core.codegen import _hazard
from repro.core.datapath import required_layer
from repro.openflow.actions import DecTtl, Output, SetField
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.traffic.nfpa import DirectSwitch
from repro.packet import PacketBuilder
from repro.usecases import l2, l3


def add(table_id, priority=1, port=1, actions=None, **match):
    return FlowMod(
        FlowModCommand.ADD,
        table_id,
        Match(**match),
        priority=priority,
        instructions=(ApplyActions(actions or [Output(port)]),),
    )


def strict_delete(table_id, priority, **match):
    return FlowMod(
        FlowModCommand.DELETE, table_id, Match(**match),
        priority=priority, strict=True,
    )


class TestHashChurnSkips:
    def test_steady_churn_never_reselects(self):
        sw = ESwitch.from_pipeline(l2.build(64)[0])
        for i in range(40):
            mac = (0x02 << 40) | (0xEE << 32) | i
            sw.apply_flow_mod(add(0, eth_dst=mac))
            sw.apply_flow_mod(strict_delete(0, 1, eth_dst=mac))
        assert sw.update_stats.kind_stable_skips == 80
        assert sw.update_stats.rebuilds == 0
        assert sw.update_stats.incremental == 80
        assert sw.compiled_table(0).kind is TemplateKind.HASH

    def test_new_shape_class_recomputes(self):
        sw = ESwitch.from_pipeline(l2.build(64)[0])
        before = sw.update_stats.kind_stable_skips
        # A masked match is a new shape class: uniformity may break, so
        # the full re-selection must run (and correctly falls back).
        sw.apply_flow_mod(add(0, eth_dst=(0x020000000000, 0xFFFF00000000)))
        assert sw.update_stats.kind_stable_skips == before
        assert sw.compiled_table(0).kind is not TemplateKind.HASH

    def test_wildcard_delete_recomputes(self):
        sw = ESwitch.from_pipeline(l2.build(64)[0])
        before = sw.update_stats.kind_stable_skips
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=l2.build(64)[1][0]))
        )
        assert sw.update_stats.kind_stable_skips == before

    def test_direct_threshold_boundary_recomputes(self):
        pipeline, macs = l2.build(6)
        sw = ESwitch(pipeline, config=CompileConfig(direct_threshold=5))
        assert sw.compiled_table(0).kind is TemplateKind.HASH  # 6 > 5
        sw.apply_flow_mod(strict_delete(0, 1, eth_dst=macs[0]))
        # Crossing the threshold must re-select: the table is now direct.
        assert sw.compiled_table(0).kind is TemplateKind.DIRECT
        assert sw.update_stats.kind_stable_skips == 0


class TestLpmChurnSkips:
    def test_consistent_prefix_churn_skips(self):
        sw = ESwitch.from_pipeline(l3.build(64)[0])
        for i in range(20):
            prefix = f"198.51.{i}.0/24"
            sw.apply_flow_mod(add(0, priority=24, ipv4_dst=prefix))
            sw.apply_flow_mod(strict_delete(0, 24, ipv4_dst=prefix))
        assert sw.update_stats.kind_stable_skips == 40
        assert sw.update_stats.rebuilds == 0
        assert sw.compiled_table(0).kind is TemplateKind.LPM

    def test_ancestor_priority_violation_falls_back(self):
        sw = ESwitch.from_pipeline(l3.build(64)[0])
        # A /8 outranking every /24 under it violates the LPM
        # prerequisite; its class is new, so the full recompute runs and
        # correctly falls back off the LPM rung.
        sw.apply_flow_mod(add(0, priority=60, ipv4_dst="10.0.0.0/8"))
        assert sw.compiled_table(0).kind is not TemplateKind.LPM
        assert sw.update_stats.fallbacks >= 1

    def test_delete_from_consistent_set_skips(self):
        pipeline, fib = l3.build(64)
        sw = ESwitch.from_pipeline(pipeline)
        from repro.net.addresses import int_to_ip

        value, depth, _port = fib[0]
        sw.apply_flow_mod(
            strict_delete(0, depth, ipv4_dst=f"{int_to_ip(value)}/{depth}")
        )
        assert sw.update_stats.kind_stable_skips == 1
        assert sw.compiled_table(0).kind is TemplateKind.LPM


    def test_delete_that_leaves_one_mask_moves_up_to_the_hash(self):
        table = FlowTable(0)
        for i in range(6):
            table.add(FlowEntry(Match(ipv4_dst=f"10.0.{i}.0/24"), priority=24,
                                actions=[Output(1)]))
        table.add(FlowEntry(Match(ipv4_dst="10.0.0.0/16"), priority=16,
                            actions=[Output(2)]))
        sw = ESwitch.from_pipeline(Pipeline([table]))
        assert sw.table_kinds() == {0: "lpm"}
        sw.apply_flow_mod(strict_delete(0, 16, ipv4_dst="10.0.0.0/16"))
        # What is left satisfies a rung above: a fresh compile hashes it.
        assert sw.table_kinds() == fresh_kinds(sw) == {0: "hash"}
        assert sw.update_stats.kind_stable_skips == 0


class TestLpmHazard:
    def test_depth_ordered_priorities_are_hazard_free(self):
        classes = {
            (16, (("ipv4_dst", 0xFFFF0000),)),
            (24, (("ipv4_dst", 0xFFFFFF00),)),
            (0, ()),
        }
        assert not _hazard(classes)

    def test_equal_depth_two_priorities_is_hazardous(self):
        classes = {
            (24, (("ipv4_dst", 0xFFFFFF00),)),
            (23, (("ipv4_dst", 0xFFFFFF00),)),
        }
        assert _hazard(classes)

    def test_shallow_outranking_deep_is_hazardous(self):
        classes = {
            (30, (("ipv4_dst", 0xFFFF0000),)),
            (24, (("ipv4_dst", 0xFFFFFF00),)),
        }
        assert _hazard(classes)


class TestSkipNeverChangesSelection:
    def test_skip_decisions_match_full_reselection(self):
        """Whenever the fast path skipped, select_template would have
        agreed — replayed over a mixed churn schedule."""
        pipeline, _macs = l2.build(32)
        sw = ESwitch(pipeline, config=CompileConfig())
        mods = []
        for i in range(15):
            mac = (0x02 << 40) | (0xDD << 32) | i
            mods.append(add(0, eth_dst=mac))
            if i % 3 == 0:
                mods.append(strict_delete(0, 1, eth_dst=mac))
        for mod in mods:
            sw.apply_flow_mod(mod)
            table = sw.pipeline.table(0)
            assert (
                select_template(table.entries, sw.config)
                is sw.compiled_table(0).kind
            )


def fresh_kinds(sw):
    """What a clean switch compiles the same logical tables to."""
    twin = ESwitch.from_pipeline(pickle.loads(pickle.dumps(sw.pipeline)),
                                 config=sw.config)
    return twin.table_kinds()


def mac_pkt(mac):
    return PacketBuilder(in_port=1).eth(dst=mac).ipv4().udp().build()


class TestKeyedRuleAtTheCatchAllPriority:
    """An ADD into a shape class that exists is not enough to stay on the
    hash: level with the catch-all it lands *behind* it, where the
    catch-all is no longer the miss arm but a rule that shadows it."""

    @pytest.mark.parametrize("fuse", [True, False], ids=["fused", "trampoline"])
    @pytest.mark.parametrize("priorities", [(0,), (10, 0)])
    def test_rule_behind_the_catch_all_leaves_the_hash(self, priorities, fuse):
        table = FlowTable(0)
        for i in range(8):
            table.add(FlowEntry(Match(eth_dst=0x0200_0000_0000 + i),
                                priority=priorities[i % len(priorities)],
                                actions=[Output(1)]))
        table.add(FlowEntry(Match(), priority=0, actions=[Output(9)]))
        sw = ESwitch.from_pipeline(Pipeline([table]),
                                   config=CompileConfig(fuse=fuse))
        assert sw.warm() is fuse and sw.table_kinds() == {0: "hash"}
        reply = sw.submit_flow_mods([add(0, priority=0, port=2,
                                         eth_dst=0x0200_0000_00FF)])
        assert reply.accepted
        assert sw.table_kinds() == fresh_kinds(sw) == {0: "linked_list"}
        pkt = mac_pkt(0x0200_0000_00FF)
        assert sw.pipeline.process(pkt.copy()).output_ports == [9]
        assert sw.process(pkt.copy()).output_ports == [9]


class TestMemoDiesWithTheCompiledTable:
    def batch(self, wide_priority, wide):
        """Creates table 5 as an LPM table and points table 0 at it."""
        narrow = [f"10.1.{i}.0/24" for i in range(5)]
        return [
            *[add(5, priority=24, port=7, ipv4_dst=p) for p in narrow[:4]],
            *[add(5, priority=wide_priority, port=2, ipv4_dst=p) for p in wide],
            add(5, priority=24, port=7, ipv4_dst=narrow[4]),
            FlowMod(FlowModCommand.ADD, 0, Match(in_port=1), priority=5,
                    instructions=(GotoTable(5),)),
        ]

    def test_recreated_table_id_meets_no_stale_verdict(self):
        def pipeline():
            table = FlowTable(0)
            table.add(FlowEntry(Match(), priority=0, actions=[Output(9)]))
            return Pipeline([table])

        sw = ESwitch.from_pipeline(pipeline())
        reference = DirectSwitch(pipeline())
        # Hazard-free classes (/16@16 under /24@24), proved, rolled back.
        poison = FlowMod(FlowModCommand.ADD, 0, Match(), priority=-1)
        with pytest.raises(ValueError):
            sw.apply_flow_mods(
                [*self.batch(16, ["10.20.0.0/16", "10.21.0.0/16"]), poison]
            )
        assert sw.update_stats.rollbacks == 1 and sw.table_kinds() == {0: "direct"}
        for name, state in vars(sw).items():
            if isinstance(state, (dict, set)):
                assert 5 not in state, name
        assert 5 not in sw.datapath.trampoline
        # The same table id again, at the same shapes_version, but with
        # /16@30 over /24@24: consistent only while nothing nests.
        again = self.batch(30, ["10.11.0.0/16", "10.12.0.0/16"])
        nested = add(5, priority=24, port=7, ipv4_dst="10.11.5.0/24")
        for switch in (sw, reference):
            assert switch.submit_flow_mods(again).accepted
        assert sw.table_kinds()[5] == "lpm"
        for switch in (sw, reference):
            assert switch.submit_flow_mods([nested]).accepted
        assert sw.table_kinds() == fresh_kinds(sw)
        assert sw.table_kinds()[5] == "linked_list"
        pkt = PacketBuilder(in_port=1).eth().ipv4(dst="10.11.5.9").udp().build()
        assert reference.pipeline.process(pkt.copy()).output_ports == [2]
        assert sw.process(pkt.copy()).output_ports == [2]


def wildcarded_acl():
    """Eight uniform-mask rules over two columns, and one ``/16`` that
    gives the ``ipv4_dst`` column a second mask."""
    table = FlowTable(0)
    for i in range(4):
        table.add(FlowEntry(Match(ipv4_dst=f"10.{i}.0.0/24", tcp_dst=80 + i),
                            priority=10, actions=[Output(1)]))
    for i in range(4, 6):
        table.add(FlowEntry(Match(ipv4_dst=f"10.{i}.0.0/24"), priority=9,
                            actions=[Output(2)]))
    for port in (90, 91):
        table.add(FlowEntry(Match(tcp_dst=port), priority=8, actions=[Output(3)]))
    table.add(FlowEntry(Match(ipv4_dst="10.9.0.0/16", tcp_dst=99), priority=10,
                        actions=[Output(4)]))
    return table


class TestLinkedListIsReofferedToDecomposition:
    def test_delete_of_the_odd_mask_decomposes(self):
        sw = ESwitch.from_pipeline(Pipeline([wildcarded_acl()]))
        assert sw.table_kinds() == {0: "linked_list"}
        odd = strict_delete(0, 10, ipv4_dst="10.9.0.0/16", tcp_dst=99)
        assert sw.submit_flow_mods([odd]).accepted
        assert sw.table_kinds() == fresh_kinds(sw)
        assert sw.table_kinds() == {0: "decomposed[8 tables, 8/8 rules]"}
        pkt = PacketBuilder(in_port=1).eth().ipv4(dst="10.2.0.7").tcp(
            dst_port=82).build()
        assert sw.process(pkt.copy()).output_ports == [1]
        # ... and back, when the second mask returns.
        again = add(0, priority=10, port=4, ipv4_dst="10.9.0.0/16", tcp_dst=99)
        assert sw.submit_flow_mods([again]).accepted
        assert sw.table_kinds() == fresh_kinds(sw) == {0: "linked_list"}

    def test_churn_inside_the_shape_classes_asks_nothing(self):
        sw = ESwitch.from_pipeline(Pipeline([wildcarded_acl()]))
        rebuilds = sw.update_stats.fallbacks
        more = add(0, priority=10, port=5, ipv4_dst="10.7.0.0/24", tcp_dst=87)
        assert sw.submit_flow_mods([more]).accepted
        assert sw.update_stats.fallbacks == rebuilds
        assert sw.table_kinds() == fresh_kinds(sw) == {0: "linked_list"}

    def test_a_quarantined_table_is_left_where_containment_put_it(self):
        sw = ESwitch.from_pipeline(Pipeline([wildcarded_acl()]))
        sw.force_quarantine(0)
        odd = strict_delete(0, 10, ipv4_dst="10.9.0.0/16", tcp_dst=99)
        assert sw.submit_flow_mods([odd]).accepted
        assert sw.table_kinds() == {0: "linked_list"} and 0 in sw.quarantined


def _rung_table(matches):
    table = FlowTable(0)
    for i, (priority, match) in enumerate(matches):
        table.add(FlowEntry(match, priority=priority,
                            actions=[Output(1 + i % 4)]))
    table.add(FlowEntry(Match(), priority=0, actions=[Output(4)]))
    return table


#: rung -> (config, table over the shared strategy value domain, so the
#: drawn flow-mods collide with it in match, shape and priority).
#: Decomposition is not a rung and is off on the single-column tables;
#: the multi-field wildcarded table keeps it on, and stands on the linked
#: list only for as long as its ``ipv4_dst`` column holds two masks.
RUNGS = {
    "linked_list": (
        CompileConfig(),
        lambda: _rung_table([
            (10, Match(ipv4_dst=(0xC0000200, 0xFFFFFF00), tcp_dst=22)),
            (10, Match(ipv4_dst=(0x08080800, 0xFFFFFF00), tcp_dst=80)),
            (10, Match(ipv4_dst=(0xC0000000, 0xFFFF0000), tcp_dst=443)),
            (9, Match(ipv4_dst=(0xC0000200, 0xFFFFFF00))),
            (8, Match(tcp_dst=80)),
            (8, Match(in_port=2, tcp_dst=22)),
        ]),
    ),
    "hash": (
        CompileConfig(direct_threshold=2, decompose=False),
        lambda: _rung_table([(i % 2, Match(eth_dst=mac))
                             for i, mac in enumerate(sts.FIELD_DOMAINS["eth_dst"])]),
    ),
    "lpm": (
        CompileConfig(decompose=False),
        lambda: _rung_table([(32, Match(ipv4_dst=0x08080808)),
                             (32, Match(ipv4_dst=0x0A000001)),
                             (24, Match(ipv4_dst=(0xC0000200, 0xFFFFFF00))),
                             (24, Match(ipv4_dst=(0x0A000000, 0xFFFFFF00))),
                             (16, Match(ipv4_dst=(0xC0000000, 0xFFFF0000)))]),
    ),
    "direct": (  # one ADD from the threshold
        CompileConfig(decompose=False),
        lambda: _rung_table([(1, Match(eth_dst=mac))
                             for mac in sts.FIELD_DOMAINS["eth_dst"][:3]]),
    ),
}


@pytest.mark.parametrize("rung", sorted(RUNGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rung_after_any_batch_is_the_rung_of_a_fresh_compile(rung, data):
    """Skip decisions match ``select_template`` verbatim: whatever the
    per-mod path answered, mod by mod and undo step by undo step, every
    table ends on the rung a clean switch picks for it."""
    config, build = RUNGS[rung]
    sw = ESwitch.from_pipeline(Pipeline([build()]), config=config)
    assert sw.table_kinds() == {0: rung}
    poison = FlowMod(FlowModCommand.ADD, 0, Match(), priority=-1)
    # A decomposed group's sub-tables take compiled ids from 1 upward
    # (ROADMAP: the compiled-id collision), so the table a batch may
    # create sits well above any this run can hand out.
    new_table = 200 if config.decompose else 5
    for _ in range(data.draw(st.integers(1, 3))):
        mods = data.draw(
            sts.flow_mod_batches(sw.pipeline, max_mods=5, new_table=new_table)
        )
        if data.draw(st.booleans()):
            with pytest.raises(ValueError):
                sw.apply_flow_mods([*mods, poison])
        else:
            sw.submit_flow_mods(mods)
        assert sw.table_kinds() == fresh_kinds(sw)


class TestRequiredLayerOverFeatures:
    def _brute(self, pipeline):
        from repro.openflow.fields import max_layer
        from repro.openflow.groups import GroupAction

        deepest = 2
        names = set(pipeline.matched_fields())
        for table in pipeline:
            for entry in table:
                for action in entry.apply_actions + entry.write_actions:
                    if isinstance(action, SetField):
                        names.add(action.field)
                    elif isinstance(action, DecTtl):
                        deepest = max(deepest, 3)
                    elif isinstance(action, GroupAction):
                        deepest = 4
        if names:
            deepest = max(deepest, max_layer(names))
        return deepest

    def _check(self, entries):
        table = FlowTable(0)
        for e in entries:
            table.add(e)
        pipeline = Pipeline([table])
        assert required_layer(pipeline) == self._brute(pipeline)

    def test_l2_only(self):
        self._check([
            FlowEntry(Match(eth_dst=i), priority=1, actions=[Output(1)])
            for i in range(4)
        ])

    def test_setfield_deepens(self):
        self._check([
            FlowEntry(Match(eth_dst=1), priority=1,
                      actions=[SetField("tcp_dst", 80), Output(1)]),
        ])

    def test_dec_ttl_deepens(self):
        self._check([
            FlowEntry(Match(eth_dst=1), priority=1,
                      actions=[DecTtl(), Output(1)]),
        ])

    def test_match_fields_deepen(self):
        self._check([
            FlowEntry(Match(ipv4_dst="10.0.0.0/8"), priority=8,
                      actions=[Output(1)]),
        ])

    def test_tracks_mutation(self):
        table = FlowTable(0)
        table.add(FlowEntry(Match(eth_dst=1), priority=1, actions=[Output(1)]))
        pipeline = Pipeline([table])
        assert required_layer(pipeline) == 2
        deep = FlowEntry(Match(eth_dst=2), priority=1, actions=[DecTtl()])
        table.add(deep)
        assert required_layer(pipeline) == self._brute(pipeline) == 3
        table.remove(deep.match, 1)
        assert required_layer(pipeline) == 2
