"""The template contract every rung answers (DESIGN §2).

A compiled table owns its outcome set: whatever sequence of in-place
``update()`` calls the switch made, ``outcomes()`` is what a fresh compile
of the same logical table would report, and a lookup never returns an
Outcome outside it. The fuser specializes its driver on that set, so a
stale or short census is a wrong driver, not a slow one.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts

from repro.core import CompileConfig, ESwitch
from repro.core.codegen import MAX_DIRECT_ENTRIES, compile_table
from repro.core.fuse import _pipeline_facts
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import (
    ApplyActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.match import Match
from repro.openflow.meters import MeterInstruction
from repro.openflow.pipeline import Pipeline
from repro.packet import parser
from repro.simcpu.recorder import NULL_METER
from repro.usecases import acl, gateway, l2, l3, loadbalancer


def _table(matches, catch_all=True, port=None):
    table = FlowTable(0)
    for i, (priority, match) in enumerate(matches):
        table.add(FlowEntry(match, priority=priority,
                            instructions=(ApplyActions([Output(port or 1 + i % 4)]),)))
    if catch_all:
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
    "range": (
        CompileConfig(direct_threshold=0, decompose=False, enable_range=True),
        lambda: _table([(1, Match(tcp_dst=port)) for port in range(80, 96)],
                       catch_all=False, port=2),  # one behavior = one run
    ),
}


def census(compiled) -> Counter:
    """``outcomes()`` as a multiset of entry identities plus the miss."""
    return Counter(
        (id(out.entry), out.is_miss, out.to_controller)
        for out in compiled.outcomes()
    )


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
        known = {id(out) for out in compiled.outcomes()}
        for pkt in pkts:
            view = parser.parse(pkt)
            out = compiled.fn(pkt.data, pkt, view.l3, view.l4, view.proto,
                              view.eth_type, view.l4_proto, NULL_METER)
            assert id(out) in known


def _all_live_acl() -> Pipeline:
    """acl.generate's rules, duplicate-free and most specific first, so
    set-pruning keeps every one (the ordering bench_sec32 measures)."""
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
