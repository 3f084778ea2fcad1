"""The hash and LPM rungs at 1e5 entries: churn, and the OVS collapse.

Work is counted, not timed. A leg of alternating ADD and strict DELETE
flow-mods against a full-size table is absorbed incrementally (no
rebuild, no template re-selection), and the O(n) passes the entry store
can pay (renumbering every slot hint, squeezing out tombstones) stay a
constant the number of mods does not move: one such pass per mod is the
churn wall a sorted-list store hit at 1-2k mods/s. The modeled cost of
a mod stays under a microsecond on the Xeon, and the rung still forwards
what the reference interpreter forwards once the leg is done.

The OVS half is Fig. 3's mechanism at this cardinality: round-robin
traffic inside the 8192-entry microflow cache hits it, traffic past it
thrashes it, and the fused datapath, which has no flow cache, keeps its
modeled rate.
"""

import pytest

from repro.core import CompileConfig, ESwitch
from repro.openflow.actions import Output
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.ovs.switch import OvsSwitch
from repro.simcpu.platform import XEON_E5_2620
from repro.traffic.nfpa import measure
from repro.usecases import l2, l3

ENTRIES = 100_000
MODS = 20_000
#: the O(n) passes a leg pays are compared chunk by chunk: none may recur.
CHUNK = 1_000
#: packets to resident and to churned keys in the burst after a leg.
PROBES = 16


def churned_key(rung: str, i: int):
    """The i-th fresh key of a leg, in the form the rung's ``traffic`` takes."""
    if rung == "lpm":
        return (198 << 24 | ((i >> 8) & 255) << 16 | (i & 255) << 8, 24, 2)
    return (0x02 << 40) | (0xEE << 32) | i  # locally administered, outside the draw


def churn_pair(rung: str, i: int) -> tuple[FlowMod, FlowMod]:
    """An (ADD, strict DELETE) of one fresh rule on the rung's table."""
    key = churned_key(rung, i)
    if rung == "lpm":
        match, priority = Match(ipv4_dst=(key[0], 0xFFFFFF00)), 24
    else:
        match, priority = Match(eth_dst=key), 1
    return (
        FlowMod(FlowModCommand.ADD, 0, match, priority=priority,
                instructions=(ApplyActions([Output(2)]),)),
        FlowMod(FlowModCommand.DELETE, 0, match, priority=priority, strict=True),
    )


@pytest.mark.parametrize("rung", ["hash", "lpm"])
def test_churn_is_incremental_and_pays_no_pass_per_mod(monkeypatch, rung):
    usecase = l2 if rung == "hash" else l3
    pipeline, keys = usecase.build(ENTRIES)
    switch = ESwitch(pipeline, config=CompileConfig(fuse=True))
    switch.warm()
    assert switch.table_kinds() == {0: rung}
    assert switch.footprint()["total_bytes"] > 0

    passes = {"_renumber": 0, "compact": 0}
    for name in passes:
        def counted(self, _name=name, _orig=getattr(FlowTable, name)):
            passes[_name] += 1
            return _orig(self)
        monkeypatch.setattr(FlowTable, name, counted)

    stats = switch.update_stats
    incremental, rebuilds, skips = stats.incremental, stats.rebuilds, stats.kind_stable_skips
    cycles = stats.cycles
    mods = [mod for i in range(MODS // 2) for mod in churn_pair(rung, i)]
    first_chunk = None
    for done, mod in enumerate(mods, 1):
        switch.apply_flow_mod(mod)
        # Checked as the leg goes, so a regression fails in a few mods
        # instead of paying an O(n) rebuild or pass for every one of them.
        assert stats.rebuilds == rebuilds, done
        assert stats.incremental - incremental == stats.kind_stable_skips - skips == done
        if done % CHUNK == 0:
            first_chunk = first_chunk or dict(passes)
            assert passes == first_chunk, (done, first_chunk, passes)

    assert passes["_renumber"] <= 2 and passes["compact"] == 0, passes
    assert switch.pipeline.table(0).tombstones < FlowTable.COMPACT_MIN_DEAD
    # Over a million modeled mods/s: a mod that paid for its table would
    # cost ~1e5 cycles, this leg pays a few hundred.
    assert MODS * XEON_E5_2620.freq_hz / (stats.cycles - cycles) > 1e6

    # Resident rules still forward, and the churned keys, all deleted
    # again, get whatever the reference interpreter gives them.
    # The interpreter scans every rule, so the burst stays small.
    resident = list(usecase.traffic(keys[:: ENTRIES // PROBES], PROBES))
    churned = list(usecase.traffic(
        [churned_key(rung, i) for i in range(0, MODS // 2, MODS // 2 // PROBES)], PROBES))
    expected = [switch.pipeline.process(p.copy()).summary() for p in resident + churned]
    verdicts = switch.process_burst(resident + churned)
    assert all(v.forwarded for v in verdicts[:PROBES])
    assert [v.summary() for v in verdicts] == expected

def test_ovs_microflow_collapses_past_the_emc_and_fused_stays_flat():
    pipeline, macs = l2.build(ENTRIES)
    fused = ESwitch(pipeline, config=CompileConfig(fuse=True))
    rates = {}
    for flows in (1_024, 12_288):  # inside and past the 8192-entry EMC
        traffic = l2.traffic(macs[:: len(macs) // flows][:flows], flows)
        ovs = OvsSwitch(pipeline)

        def reset_at_start(i, _meter):
            if i == 0:
                ovs.stats.reset()

        # One full cycle warms whatever caches fit, one is measured.
        measure(ovs, traffic, n_packets=flows, warmup=flows, batch_size=32,
                update_hook=reset_at_start)
        es = measure(fused, traffic, n_packets=flows, warmup=flows, batch_size=32)
        rates[flows] = ovs.stats.rates()["microflow"], es.pps

    assert rates[1_024][0] > 0.95, rates
    assert rates[12_288][0] < 0.5, rates
    assert rates[12_288][1] > 0.8 * rates[1_024][1], rates
