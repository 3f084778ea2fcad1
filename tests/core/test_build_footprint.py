"""What a switch build leaves for the cyclic collector to walk.

A container the collector tracks is one it must traverse on every full
collection, and the number that survive a build decides how many full
collections land inside the next one. A built hash or LPM table leaves none
per rule: its store returns the installed rule itself, the ``FlowTable``
rule index holds a lone rule bare (a list only for same-match duplicates),
and the hash store keeps each key once, in one dict, with bucket
membership one list (a lone int key bare, else a tuple of keys, which the
collector untracks) and slot occupancy a ``bytearray``. What is left is a
fixed handful of containers per table, whatever the rule count.

The pipeline itself holds a couple of hundred bytes per rule and two
tracked objects, the entry (which keeps its own counts) and its match: a
match is one key tuple ``(shape, *values)`` over a shape every rule of that
shape shares, pickled or not. The switch built over it adds the hash
store's dict and layout and the flow table's lookup indexes, and no key
copy.
"""

import gc
import pickle
from collections import Counter
import tracemalloc

from repro.core import ESwitch
from repro.core.analysis import PREREQUISITES, TemplateKind
from repro.dpdk.hash import CollisionFreeHash
from repro.openflow import flow_table
from repro.openflow.actions import Output
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.packet import PacketBuilder
from repro.usecases import l2, l3

N = 20_000
N_PREFIXES = 10_000
#: tracked containers a whole build may leave: per table, not per rule.
BUILD_BOUND = 64
#: tracked objects a built l2 pipeline holds per rule: the entry and its match.
PIPELINE_OBJECTS_PER_RULE = 2
#: traced bytes a built one-table l2 pipeline may hold per rule: the entry
#: with its packet and byte counts and its slot hint, its match (one
#: ``(shape, value)`` tuple) and the table's rule index (270 measured, on
#: CPython 3.11).
PIPELINE_BYTES_PER_RULE = 290
#: traced bytes ``l2.build(N)`` may reach per rule at its peak: what it
#: holds plus what the build drops on the way (the value and instruction
#: columns, the placement's dedupe map and sort keys): 317 measured on
#: CPython 3.11 with the rules installed from columns, 745 when each rule
#: was built from keyword ``Match``, ``Output`` and ``ApplyActions``
#: objects, most of them garbage at once.
PIPELINE_PEAK_BYTES_PER_RULE = 360
#: traced bytes ``ESwitch(pipeline).warm()`` may add per rule: the hash
#: store (one dict of the pipeline's own keys and rules, and at load 1/4
#: one occupancy byte per slot, displacements and the bucket index), the
#: flow table's rule index and each entry's slot hint, which warming
#: numbers: 140 measured on CPython 3.11, plus 10 % headroom. With an
#: entry -> slot map on the table beside the hints' place it was 238.
SWITCH_BYTES_PER_RULE = 154
#: traced bytes ``ESwitch(pipeline).warm()`` may reach per rule at its
#: peak: what it holds plus the hash build's scratch, numpy columns and one
#: chunk of buckets as Python ints: 205 measured on CPython 3.11, plus 15 %
#: headroom. 439 when the placement turned every column into a
#: table-long list and the compile keyed a dict by every rule's key.
SWITCH_PEAK_BYTES_PER_RULE = 236


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


def test_an_lpm_compile_walks_its_prefixes_once(monkeypatch):
    """Selection hands the LPM rung the plan it found: building the
    switch runs the prefix analysis once, not once more to compile."""
    pipeline, _fib = l3.build(N_PREFIXES)
    calls = []
    real = PREREQUISITES[TemplateKind.LPM]
    monkeypatch.setitem(PREREQUISITES, TemplateKind.LPM,
                        lambda entries, config=None: calls.append(config) or real(entries, config))
    assert switch_of(pipeline).table_kinds() == {0: "lpm"}
    assert len(calls) == 1, f"the prefixes were analysed {len(calls)} times"


def test_a_rung_fallback_selects_once(monkeypatch):
    """A flow-mod that breaks the hash rung's prerequisite rebuilds the
    table from the rung and plan that re-selection found: each rung's
    prerequisite runs once on the table, not once more to compile."""
    pipeline, macs = l2.build(64)
    switch = switch_of(pipeline)
    table = pipeline.table(0)
    calls = Counter()

    def counting(kind, real):
        def prerequisite(entries, config=None):
            calls[kind] += entries is table  # not a decomposition's sub-table
            return real(entries, config)
        return prerequisite

    for kind, real in list(PREREQUISITES.items()):
        monkeypatch.setitem(PREREQUISITES, kind, counting(kind, real))
    masked = FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=(macs[0], 0xFFFFFF000000)),
                     priority=1, instructions=(ApplyActions([Output(2)]),))
    assert switch.submit_flow_mods([masked]).accepted
    assert switch.table_kinds()[0] != "hash"
    assert switch.update_stats.fallbacks == 1
    assert calls == dict.fromkeys(PREREQUISITES, 1), f"prerequisites run: {calls}"


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


def test_a_pipeline_build_leaves_two_tracked_objects_per_rule():
    l2.build(64)  # first-use costs (lazy imports) are per process
    left, (pipeline, _macs) = tracked_after(lambda: l2.build(N))
    assert len(pipeline.table(0)) == N
    # plus a constant: the shared action templates and the table's lists.
    bound = PIPELINE_OBJECTS_PER_RULE * N + 4 * BUILD_BOUND
    assert left <= bound, f"{left} tracked objects for {N} rules"


def traced_bytes(build) -> "tuple[int, int, object]":
    """Bytes ``build()`` leaves allocated, the most it had allocated at
    once, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, peak - before, result
    finally:
        tracemalloc.stop()


def test_a_pipeline_build_holds_a_few_hundred_bytes_per_rule():
    l2.build(64)  # first-use costs (lazy imports) are per process
    held, _peak, (pipeline, _macs) = traced_bytes(lambda: l2.build(N))
    assert len(pipeline.table(0)) == N
    assert held / N <= PIPELINE_BYTES_PER_RULE, f"{held / N:.0f} B per rule"


def test_a_pipeline_build_drops_little_on_the_way():
    """Installed from columns, a rule leaves no keyword dict, action
    objects or dedupe key behind it for the allocator to hold."""
    l2.build(64)
    _held, peak, (pipeline, _macs) = traced_bytes(lambda: l2.build(N))
    assert len(pipeline.table(0)) == N
    assert peak / N <= PIPELINE_PEAK_BYTES_PER_RULE, f"{peak / N:.0f} B per rule at peak"


def test_a_switch_build_holds_a_few_hundred_bytes_per_rule():
    switch_of(l2.build(64)[0])  # first-use costs are per process
    pipeline, _macs = l2.build(N)
    held, _peak, switch = traced_bytes(lambda: switch_of(pipeline))
    assert switch.table_kinds() == {0: "hash"}
    assert held / N <= SWITCH_BYTES_PER_RULE, f"{held / N:.0f} B per rule"


def test_a_switch_build_drops_little_on_the_way():
    """The hash rung builds from the rules' key and rule columns, and its
    placement holds one chunk of buckets as Python ints at a time."""
    switch_of(l2.build(64)[0])
    pipeline, _macs = l2.build(N)
    _held, peak, switch = traced_bytes(lambda: switch_of(pipeline))
    assert switch.table_kinds() == {0: "hash"}
    assert peak / N <= SWITCH_PEAK_BYTES_PER_RULE, f"{peak / N:.0f} B per rule at peak"


def test_rules_of_one_shape_share_one_shape_object():
    pipeline, _macs = l2.build(N)
    assert len({id(e.match.shape) for e in pipeline.table(0)}) == 1
    copy = pickle.loads(pickle.dumps(pipeline))
    shapes = {id(e.match.shape) for e in copy.table(0)}
    assert len(shapes) == 1
    # Unpickling re-joins the process's interned shape.
    assert copy.table(0).entries[0].match.shape is pipeline.table(0).entries[0].match.shape
