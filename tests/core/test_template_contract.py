"""The template contract every rung answers (DESIGN §1).

A compiled table owns the set of rules a lookup can return: whatever
sequence of in-place ``update()`` calls the switch made, ``rules()`` is
what a fresh compile of the same logical table would report, and a lookup
never returns a rule outside it.

The fuser specializes its driver on less than that: the fact sets of the
flow tables' action-template census, and the names an inlined body
copied. A stale or short census is a wrong driver, not a slow one, and an
update that moves neither must leave the standing driver alone.
"""

import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as sts

from repro.core import CompileConfig, ESwitch
from repro.core.codegen import MAX_DIRECT_ENTRIES, compile_table
from repro.core.fuse import _pipeline_facts
from repro.openflow.actions import DecTtl, Drop, Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import (
    ActionTemplate,
    ApplyActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.meters import MeterInstruction
from repro.openflow.pipeline import Pipeline
from repro.openflow.stats import collect_flow_stats
from repro.openflow.timeouts import ExpiryManager
from repro.traffic.nfpa import DirectSwitch
from repro.packet import PacketBuilder, parser
from repro.simcpu.recorder import NULL_METER
from repro.usecases import acl, gateway, l2, l3, loadbalancer


def _table(matches):
    table = FlowTable(0)
    for i, (priority, match) in enumerate(matches):
        table.add(FlowEntry(match, priority=priority,
                            instructions=(ApplyActions([Output(1 + i % 4)]),)))
    table.add(FlowEntry(Match(), priority=0,
                        instructions=(ApplyActions([Output(4)]),)))
    return table


#: rung -> (config that steers the table there, table over the shared
#: strategy value domain so the drawn flow-mods collide with it).
RUNGS = {
    "direct": (
        CompileConfig(direct_threshold=64, decompose=False),
        lambda: _table([(9, Match(in_port=1)), (5, Match(tcp_dst=80)),
                        (3, Match(eth_dst=0x0200_0000_0001))]),
    ),
    "hash": (
        CompileConfig(direct_threshold=0, decompose=False),
        lambda: _table([(1, Match(eth_dst=mac))
                        for mac in sts.FIELD_DOMAINS["eth_dst"]]),
    ),
    "lpm": (
        CompileConfig(direct_threshold=0, decompose=False),
        lambda: _table([(32, Match(ipv4_dst=0x08080808)),
                        (24, Match(ipv4_dst=(0xC0000200, 0xFFFFFF00))),
                        (16, Match(ipv4_dst=(0xC0000000, 0xFFFF0000)))]),
    ),
    "linked_list": (
        CompileConfig(direct_threshold=0, decompose=False),
        lambda: _table([(9, Match(in_port=1)), (5, Match(tcp_dst=80)),
                        (3, Match(ipv4_src=(0x0A000000, 0xFFFFFF00)))]),
    ),
}


def census(compiled) -> Counter:
    """``rules()`` as a multiset of rule identities, the miss rule one
    per policy."""
    return Counter(map(id, compiled.rules()))


@pytest.mark.parametrize("rung", sorted(RUNGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_outcomes_track_updates(rung, data):
    config, build = RUNGS[rung]
    sw = ESwitch.from_pipeline(Pipeline([build()]), config=config)
    assert sw.compiled_table(0).kind.value == rung
    mods = data.draw(sts.flow_mod_batches(sw.pipeline, max_mods=8))
    pkts = data.draw(st.lists(sts.packets(), min_size=1, max_size=6))
    for mod in mods:
        if not sw.submit_flow_mods([mod]).accepted:
            continue
        compiled = sw.compiled_table(0)
        assert compiled.miss is compiled.namespace["_MISS"]
        fresh = compile_table(sw.pipeline.table(0), config, kind=compiled.kind)
        assert census(compiled) == census(fresh)
        known = {id(rule) for rule in compiled.rules()}
        for pkt in pkts:
            view = parser.parse(pkt)
            hit = compiled.fn(pkt.data, pkt, view.l3, view.l4, view.proto,
                              view.eth_type, view.l4_proto, NULL_METER)
            assert id(hit) in known


# -- the action-template census and the generation contract ---------------------

#: the rungs an update reaches in place, the one it always rebuilds, and a
#: decomposed group (two columns, one mask each, no common key) whose
#: rebuild is deferred.
CENSUS_RUNGS = {
    **{rung: RUNGS[rung] for rung in ("direct", "hash", "lpm", "linked_list")},
    "decomposed": (
        CompileConfig(direct_threshold=0),
        lambda: _table([(9, Match(in_port=1, tcp_dst=80)),
                        (8, Match(in_port=2)), (7, Match(tcp_dst=443))]),
    ),
}


def assert_census(pipeline) -> None:
    """Rules with equal instructions share one template object, and both
    multisets are what a from-scratch recount of the live rules gives —
    so no key outlives its last rule."""
    for table in pipeline:
        canonical: dict = {}
        for entry in table.entries:
            assert type(entry.instructions) is ActionTemplate
            shared = canonical.setdefault(tuple(entry.instructions),
                                          entry.instructions)
            assert shared is entry.instructions
        templates = table.action_templates()
        assert templates == Counter(e.instructions for e in table.entries)
        assert all(canonical[tuple(t)] is t for t in templates)
        assert table.template_count == len(canonical)
        assert table.action_facts() == Counter(t.facts for t in templates)


def _entries(pipeline):
    return {table.table_id: table.entries for table in pipeline}


def _content_only(sw, config, mods) -> bool:
    """Whether ``mods`` applied to a copy of ``sw`` touch nothing a driver
    bakes in, at any point: its generation never moves."""
    twin = ESwitch.from_pipeline(pickle.loads(pickle.dumps(sw.pipeline)),
                                 config=config)
    assert twin.warm()
    generation = twin.datapath.generation
    twin.apply_flow_mods(mods)
    return twin.datapath.generation == generation


def _flow_counters(pipeline):
    return sorted((s.table_id, s.priority, s.packets, s.bytes)
                  for s in collect_flow_stats(pipeline))


def assert_parity(sw, reference, pkts) -> list:
    """Verdicts, bytes and flow counters equal the interpreter's; returns
    the output ports per packet."""
    ports = []
    for pkt in pkts:
        got, want = pkt.copy(), pkt.copy()
        verdict = sw.process(got)
        assert verdict.summary() == reference.process(want).summary()
        assert got.data == want.data
        ports.append(verdict.output_ports)
    assert _flow_counters(sw.pipeline) == _flow_counters(reference)
    return ports


class _Replay:
    """Stands in for ``st.data()``: answers each draw from a script, and
    starts over once it is spent, so one instance serves every rung."""

    def __init__(self, *draws):
        self.draws = draws
        self.next = 0

    def draw(self, _strategy):
        value = self.draws[self.next % len(self.draws)]
        self.next += 1
        return value


_MACS = sts.FIELD_DOMAINS["eth_dst"]


def _put_back_script() -> _Replay:
    """A rolled-back batch whose undo puts back a rule that was the last
    carrier of its fact tuple: the fact set is what it was, so the
    generation must be too."""
    return _Replay(
        [PacketBuilder().eth(dst=mac).ipv4().build() for mac in _MACS],
        2,
        [FlowMod(FlowModCommand.DELETE, 0, Match(), priority=0),
         FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=_MACS[0]), priority=0)],
        False,
        [FlowMod(FlowModCommand.DELETE, 0, Match(eth_dst=_MACS[1]), priority=0),
         FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=_MACS[2]), priority=1,
                 instructions=(ApplyActions([Drop()]),))],
        True,
    )


@pytest.mark.parametrize("rung", sorted(CENSUS_RUNGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
@example(data=_put_back_script())
def test_census_and_generation_track_updates(rung, data):
    config, build = CENSUS_RUNGS[rung]
    sw = ESwitch.from_pipeline(Pipeline([build()]), config=config)
    assert sw.table_kinds()[0].startswith(rung)
    reference = DirectSwitch(Pipeline([build()]))
    pkts = data.draw(st.lists(sts.packets(), min_size=1, max_size=6))
    poison = FlowMod(FlowModCommand.ADD, 0, Match(), priority=-1)
    for _ in range(data.draw(st.integers(1, 3))):
        mods = data.draw(sts.flow_mod_batches(sw.pipeline, max_mods=4))
        assert sw.warm()
        fused, generation = sw.datapath.fused, sw.datapath.generation
        if data.draw(st.booleans()):
            # Rolled back mid-batch: every table gets its entry objects
            # back in place, the reference never sees the batch.
            entries, stats = _entries(sw.pipeline), sw.update_stats
            cycles, rollbacks = stats.cycles, stats.rollbacks
            rebuilds = stats.rebuilds
            standing = _content_only(sw, config, mods)
            with pytest.raises(ValueError):
                sw.apply_flow_mods([*mods, poison])
            after = _entries(sw.pipeline)
            assert after.keys() == entries.keys()
            for tid, live in entries.items():
                assert len(after[tid]) == len(live)
                assert all(a is b for a, b in zip(after[tid], live))
            assert (stats.cycles, stats.rollbacks) == (cycles, rollbacks + 1)
            if standing:
                # Undone the way it was done: in place, nothing re-linked.
                assert stats.rebuilds == rebuilds
        else:
            # Accepted, or rejected by admission on both sides alike —
            # and a rejected batch touches nothing.
            standing = (bool(sw.admit_flow_mods(mods))
                        or _content_only(sw, config, mods))
            assert (sw.submit_flow_mods(mods).accepted
                    == reference.submit_flow_mods(mods).accepted)
        assert_census(sw.pipeline)
        if standing:
            # Content only: the standing driver is still the driver.
            assert sw.datapath.generation == generation
            assert sw.datapath.fused is fused
        assert_parity(sw, reference.pipeline, pkts)
        assert_census(sw.pipeline)
    # Expiry removes through the same door and uncounts the same way.
    timed = FlowMod(FlowModCommand.ADD, 0, Match(in_port=3), priority=21,
                    instructions=(ApplyActions([Output(6)]),), hard_timeout=1.0)
    for switch in (sw, reference):
        assert switch.submit_flow_mods([timed]).accepted
        manager = ExpiryManager(switch)
        manager.observe(0.0)
        assert len(manager.tick(5.0)) == 1
    assert_census(sw.pipeline)
    assert_parity(sw, reference.pipeline, pkts)


def _guarded(rung):
    """A warm two-table switch whose table 0 sits on ``rung`` behind a
    catch-all, an independent reference, and one packet for the miss arm
    and one for the rule :func:`_keyed` adds."""
    config, build = RUNGS[rung]

    def pipeline():
        second = FlowTable(1)
        second.add(FlowEntry(Match(), priority=0,
                             instructions=(ApplyActions([Output(8)]),)))
        built = Pipeline([build(), second])
        built.meters.add(1, rate_pps=1e9)
        return built

    sw = ESwitch.from_pipeline(pipeline(), config=config)
    assert sw.warm() and sw.table_kinds()[0] == rung
    builder = PacketBuilder(in_port=7).eth(dst=0x0200_0000_0042)
    miss = builder.ipv4(dst="203.0.113.9", ttl=9).tcp(dst_port=5000).build()
    builder = PacketBuilder(in_port=7).eth(dst=0x0200_0000_0077)
    keyed = builder.ipv4(dst="198.51.100.7", ttl=9).tcp(dst_port=5000).build()
    return sw, DirectSwitch(pipeline()), miss, keyed


def _keyed(rung, instructions):
    """An ADD the rung absorbs in place, carrying ``instructions``."""
    match = (Match(eth_dst=0x0200_0000_0077) if rung == "hash"
             else Match(ipv4_dst=(0xC6336400, 0xFFFFFF00)))
    return FlowMod(FlowModCommand.ADD, 0, match,
                   priority=1 if rung == "hash" else 24,
                   instructions=instructions)


@pytest.mark.parametrize("rung", ["hash", "lpm"])
def test_miss_arm_follows_the_catch_all(rung):
    """The fused namespace holds a *copy* of ``_MISS``: replacing the
    catch-all by a same-shape one (same facts, another action) and
    strict-deleting it again each rebind the name, so each must re-link."""
    sw, reference, miss, _keyed_pkt = _guarded(rung)
    catch_all = dict(table_id=0, match=Match(), priority=0)
    steps = [
        (FlowMod(FlowModCommand.ADD, instructions=(ApplyActions([Output(9)]),),
                 **catch_all), [9]),
        (FlowMod(FlowModCommand.DELETE, strict=True, **catch_all), []),
    ]
    assert assert_parity(sw, reference.pipeline, [miss]) == [[4]]
    for mod, ports in steps:
        fused = sw.datapath.fused
        for switch in (sw, reference):
            assert switch.submit_flow_mods([mod]).accepted
        assert assert_parity(sw, reference.pipeline, [miss]) == [ports]
        assert sw.datapath.fused is not fused
    assert sw.update_stats.incremental == len(steps)


@pytest.mark.parametrize("rung", ["hash", "lpm"])
def test_content_update_keeps_the_driver_and_serves_the_rule(rung):
    """An in-place insert and strict delete inside the facts the table
    already holds: the driver object stands, the fresh rule hits through
    it and the deleted rule misses through it."""
    sw, reference, miss, keyed = _guarded(rung)
    fused, generation = sw.datapath.fused, sw.datapath.generation
    add = _keyed(rung, (ApplyActions([Output(2)]),))
    delete = FlowMod(FlowModCommand.DELETE, 0, add.match,
                     priority=add.priority, strict=True)
    for mod, ports in ((add, [2]), (delete, [4])):
        for switch in (sw, reference):
            assert switch.submit_flow_mods([mod]).accepted
        assert assert_parity(sw, reference.pipeline, [keyed, miss]) == [ports, [4]]
    assert sw.update_stats.incremental == 2
    assert sw.datapath.generation == generation
    assert sw.datapath.fused is fused


#: the first of its kind in table 0, each needing driver machinery (or a
#: parser layer) the standing driver was specialised without.
STRUCTURAL = {
    "first goto": lambda p: (ApplyActions([Output(2)]), GotoTable(1)),
    "first write-action": lambda p: (WriteActions([Output(5)]),),
    "first meter": lambda p: (MeterInstruction(p.meters, 1),
                              ApplyActions([Output(2)])),
    "deeper parser layer": lambda p: (ApplyActions([DecTtl(), Output(2)]),),
}


@pytest.mark.parametrize("rung", ["hash", "lpm", "linked_list"])
def test_rolled_back_content_update_keeps_the_driver(rung):
    """The same insert and strict delete inside a batch that then fails:
    both are undone through the in-place update path, so nothing is
    rebuilt, the driver object stands and serves the old answers."""
    sw, reference, miss, keyed = _guarded(rung)
    fused, generation = sw.datapath.fused, sw.datapath.generation
    standing = sw.pipeline.table(0).entries[0]
    batch = [
        _keyed(rung, (ApplyActions([Output(2)]),)),
        FlowMod(FlowModCommand.DELETE, 0, standing.match,
                priority=standing.priority, strict=True),
        FlowMod(FlowModCommand.ADD, 0, Match(), priority=-1),
    ]
    entries = sw.pipeline.table(0).entries
    ports = assert_parity(sw, reference.pipeline, [keyed, miss])
    with pytest.raises(ValueError):
        sw.apply_flow_mods(batch)
    assert all(a is b for a, b in zip(sw.pipeline.table(0).entries, entries))
    stats = sw.update_stats
    assert (stats.incremental, stats.rebuilds, stats.fallbacks) == (4, 0, 0)
    assert (stats.rollbacks, stats.cycles) == (1, 0.0)
    assert sw.datapath.generation == generation
    assert sw.datapath.fused is fused
    assert assert_parity(sw, reference.pipeline, [keyed, miss]) == ports


def test_rolled_back_delete_wins_its_place_back():
    """Two overlapping rules of one priority: the first wins. Deleted in
    a batch that fails, it must sit ahead of the other again — back in
    its place, not at the end of its priority class."""
    def build():
        return _table([(5, Match(in_port=7)), (5, Match(tcp_dst=5000))])

    config = RUNGS["linked_list"][0]
    sw = ESwitch.from_pipeline(Pipeline([build()]), config=config)
    reference = Pipeline([build()])
    pkt = PacketBuilder(in_port=7).eth().ipv4().tcp(dst_port=5000).build()
    assert assert_parity(sw, reference, [pkt]) == [[1]]
    first, second, _catch_all = entries = sw.pipeline.table(0).entries
    with pytest.raises(ValueError):
        sw.apply_flow_mods([
            FlowMod(FlowModCommand.DELETE, 0, first.match, priority=5,
                    strict=True),
            FlowMod(FlowModCommand.DELETE, 0, second.match, priority=5),
            FlowMod(FlowModCommand.ADD, 0, Match(), priority=-1),
        ])
    assert all(a is b for a, b in zip(sw.pipeline.table(0).entries, entries))
    assert assert_parity(sw, reference, [pkt]) == [[1]]


def test_rolled_back_batch_that_restores_the_fact_set_keeps_the_driver():
    """The undo of a batch puts back a rule whose fact tuple the batch
    had left no other carrier of. Put back over the batch's own rule of
    the same facts, the set never changes — so neither may the
    generation, as on a twin that applies the batch and keeps it."""
    config, build = RUNGS["hash"]
    script = _put_back_script()
    pkts, _rounds, first, _, second, _ = script.draws
    sw = ESwitch.from_pipeline(Pipeline([build()]), config=config)
    reference = Pipeline([build()])
    for switch in (sw, reference):
        switch.apply_flow_mods(first)
    assert sw.warm() and sw.table_kinds() == {0: "hash"}
    fused, generation = sw.datapath.fused, sw.datapath.generation
    assert _content_only(sw, config, second)
    facts = sw.pipeline.table(0).facts_version
    with pytest.raises(ValueError):
        sw.apply_flow_mods([*second, FlowMod(FlowModCommand.ADD, 0, Match(),
                                             priority=-1)])
    assert sw.pipeline.table(0).facts_version == facts
    assert sw.datapath.generation == generation
    assert sw.datapath.fused is fused
    assert sw.update_stats.rebuilds == 0
    assert_parity(sw, reference, pkts)


@pytest.mark.parametrize("what", sorted(STRUCTURAL))
@pytest.mark.parametrize("rung", ["hash", "lpm"])
def test_structural_update_relinks(rung, what):
    sw, reference, miss, keyed = _guarded(rung)
    if what == "deeper parser layer" and rung == "lpm":
        pytest.skip("an IPv4 LPM already parses L3")
    generation = sw.datapath.generation
    for switch in (sw, reference):
        # The raising primitive: admission knows no meter instruction.
        switch.apply_flow_mods([_keyed(rung, STRUCTURAL[what](switch.pipeline))])
    assert sw.update_stats.incremental == 1  # absorbed in place …
    assert sw.datapath.generation > generation  # … and still re-linked
    assert_parity(sw, reference.pipeline, [keyed, miss])
    assert sw.datapath.fused.generation == sw.datapath.generation
    assert_census(sw.pipeline)


def _all_live_acl() -> Pipeline:
    """acl.generate's rules, duplicate-free and most specific first, so
    set-pruning keeps every one (the ordering the sec32 figure rows measure)."""
    distinct: dict = {}
    for entry in acl.generate(72):
        distinct.setdefault(entry.match, entry)
    ordered = sorted(distinct.values(), key=lambda e: -len(e.match.fields))
    table = FlowTable(0)
    for i, entry in enumerate(ordered):
        table.add(FlowEntry(entry.match, priority=len(ordered) - i,
                            instructions=entry.instructions))
    return Pipeline([table])


def _every_flag() -> Pipeline:
    first, second = FlowTable(0), FlowTable(1)
    pipeline = Pipeline([first, second])
    pipeline.meters.add(1, rate_pps=1e9)
    first.add(FlowEntry(Match(in_port=1), priority=2, instructions=(
        MeterInstruction(pipeline.meters, 1), WriteMetadata(1), GotoTable(1))))
    second.add(FlowEntry(Match(), priority=0,
                         instructions=(WriteActions([Output(2)]),)))
    return pipeline


NOTHING = {"write": False, "meta": False, "meter": False}

#: (acyclic, flags) as ``fuse._pipeline_facts`` read them off namespace
#: key names before the tables owned their outcome sets.
FACTS = {
    "gateway": (lambda: gateway.build(n_ce=2, users_per_ce=2, n_prefixes=16)[0],
                (True, NOTHING)),
    "l2": (lambda: l2.build(16)[0], (True, NOTHING)),
    "l3": (lambda: l3.build(16)[0], (True, NOTHING)),
    "lb": (lambda: loadbalancer.build_multi_stage(4), (True, NOTHING)),
    "acl_all_live": (_all_live_acl, (True, NOTHING)),
    "every_flag": (_every_flag,
                   (True, {"write": True, "meta": True, "meter": True})),
}


@pytest.mark.parametrize("name", sorted(FACTS))
def test_pipeline_facts_from_outcomes(name):
    build, expected = FACTS[name]
    sw = ESwitch.from_pipeline(build())
    assert _pipeline_facts(sw.datapath) == expected


def test_oversize_direct_table_is_contained_not_served():
    """A ``direct_threshold`` above the template's bound steers a big
    table at direct code; the rung refuses and the switch degrades
    visibly instead of compiling megabytes of compare-and-jump."""
    pipeline, macs = l2.build(2_000)
    assert len(pipeline.table(0)) > MAX_DIRECT_ENTRIES
    sw = ESwitch.from_pipeline(pipeline, config=CompileConfig(direct_threshold=4096))
    assert sw.table_kinds() == {0: "linked_list"}
    health = sw.health()
    assert health.degraded
    assert [tid for tid, _why in health.quarantined] == [0]
    assert "CompileError" in dict(health.quarantined)[0]
    probe = l2.traffic(macs, 8)
    assert [sw.process(p.copy()).summary() for p in probe] == [
        pipeline.process(p.copy()).summary() for p in probe
    ]
