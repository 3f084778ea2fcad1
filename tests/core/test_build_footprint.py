"""What a switch build leaves for the cyclic collector to walk.

A container the collector tracks is one it must traverse on every full
collection, and the number that survive a build decides how many full
collections land inside the next one. A built hash or LPM table leaves none
per rule: its store returns the installed rule itself, the ``FlowTable``
rule index holds a lone rule bare (a list only for same-match duplicates),
and the hash store keeps its slots as two columns and its bucket membership
as tuples of keys, which the collector untracks. What is left is a fixed
handful of containers per table, whatever the rule count.

The pipeline itself holds a few hundred bytes per rule: a match is one
key tuple over a shape every rule of that shape shares, pickled or not.
"""

import gc
import pickle
import tracemalloc

from repro.core import ESwitch
from repro.dpdk.hash import CollisionFreeHash
from repro.openflow import flow_table
from repro.packet import PacketBuilder
from repro.usecases import l2, l3

N = 20_000
N_PREFIXES = 10_000
#: tracked containers a whole build may leave: per table, not per rule.
BUILD_BOUND = 64
#: traced bytes a built one-table l2 pipeline may hold per rule: the entry,
#: its counters and its ``(shape, value)`` match key (626 while every match
#: kept a dict of ``(value, mask)`` pairs).
PIPELINE_BYTES_PER_RULE = 420


def tracked_after(build) -> "tuple[int, object]":
    """Tracked containers ``build()`` leaves behind, and its result."""
    gc.collect()
    before = len(gc.get_objects())
    result = build()
    gc.collect()
    return len(gc.get_objects()) - before, result


def switch_of(pipeline) -> ESwitch:
    switch = ESwitch(pipeline)
    assert switch.warm()
    return switch


def test_a_hash_build_leaves_no_tracked_container_per_rule():
    # A small build first pays the process's first-use costs (lazy imports,
    # the template cache), which are per process, not per rule.
    switch_of(l2.build(64)[0])
    pipeline, macs = l2.build(N)
    left, switch = tracked_after(lambda: switch_of(pipeline))
    assert switch.table_kinds() == {0: "hash"}
    assert left <= BUILD_BOUND, f"{left} tracked containers for {N} rules"
    for mac in (macs[0], macs[-1]):
        assert switch.process(PacketBuilder().eth(dst=mac).build()).forwarded


def test_a_build_fingerprints_no_entry(monkeypatch):
    """The shape multiset is counted as the rules go in: compiling and
    warming a table reads it, and never fingerprints an entry."""
    pipeline, _macs = l2.build(N)
    calls = []
    real = flow_table.entry_features
    monkeypatch.setattr(flow_table, "entry_features",
                        lambda entry: calls.append(entry) or real(entry))
    assert switch_of(pipeline).table_kinds() == {0: "hash"}
    assert len(calls) == 0, f"{len(calls)} entries fingerprinted for {N} rules"


def test_an_lpm_build_leaves_no_tracked_container_per_rule():
    switch_of(l3.build(64)[0])
    pipeline, fib = l3.build(N_PREFIXES)
    left, switch = tracked_after(lambda: switch_of(pipeline))
    assert switch.table_kinds() == {0: "lpm"}
    assert left <= BUILD_BOUND, f"{left} tracked containers for {N_PREFIXES} rules"
    for prefix, _depth, _port in (fib[0], fib[-1]):
        pkt = PacketBuilder().eth().ipv4(dst=prefix).tcp().build()
        assert switch.process(pkt).forwarded


def test_hash_store_tracks_nothing_per_key():
    keys = {(i * 2654435761) % (1 << 48): i for i in range(N)}
    left, store = tracked_after(lambda: CollisionFreeHash(keys))
    assert left <= 16, f"{left} tracked containers for {N} int keys"
    assert all(store.get(k) == v for k, v in keys.items())


def test_a_pipeline_build_holds_a_few_hundred_bytes_per_rule():
    l2.build(64)  # first-use costs (lazy imports) are per process
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pipeline, _macs = l2.build(N)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pipeline.table(0)) == N
    assert held / N <= PIPELINE_BYTES_PER_RULE, f"{held / N:.0f} B per rule"


def test_rules_of_one_shape_share_one_shape_object():
    pipeline, _macs = l2.build(N)
    assert len({id(e.match.shape) for e in pipeline.table(0)}) == 1
    copy = pickle.loads(pickle.dumps(pipeline))
    shapes = {id(e.match.shape) for e in copy.table(0)}
    assert len(shapes) == 1
    # Unpickling re-joins the process's interned shape.
    assert copy.table(0).entries[0].match.shape is pipeline.table(0).entries[0].match.shape
