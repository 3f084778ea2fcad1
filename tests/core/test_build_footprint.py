"""What a switch build leaves for the cyclic collector to walk.

A container the collector tracks is one it must traverse on every full
collection, and the number that survive a build decides how many full
collections land inside the next one. A built hash table keeps two per
rule: the ``Outcome`` its store returns and the rule's list in the
``FlowTable`` rule index. The store itself keeps none per key: its slots are
two columns and its bucket membership tuples of keys, which the collector
untracks.
"""

import gc

from repro.core import ESwitch
from repro.dpdk.hash import CollisionFreeHash
from repro.packet import PacketBuilder
from repro.usecases import l2

N = 20_000


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


def test_two_tracked_containers_per_rule():
    # A small build first pays the process's first-use costs (lazy imports,
    # the template cache), which are per process, not per rule.
    switch_of(l2.build(64)[0])
    pipeline, macs = l2.build(N)
    left, switch = tracked_after(lambda: switch_of(pipeline))
    assert left <= 2 * N + 64, f"{left} tracked containers for {N} rules"
    for mac in (macs[0], macs[-1]):
        assert switch.process(PacketBuilder().eth(dst=mac).build()).forwarded


def test_hash_store_tracks_nothing_per_key():
    keys = {(i * 2654435761) % (1 << 48): i for i in range(N)}
    left, store = tracked_after(lambda: CollisionFreeHash(keys))
    assert left <= 16, f"{left} tracked containers for {N} int keys"
    assert all(store.get(k) == v for k, v in keys.items())
