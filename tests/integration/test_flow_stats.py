"""Per-rule statistics consistency across datapaths.

Flow counters are control-plane-visible state: however a packet reaches
its verdict — interpreter walk, compiled fast path, or an OVS cache hit —
the matched rules' packet counters must agree.
"""

import random

from repro.core import ESwitch
from repro.ovs import OvsSwitch
from repro.usecases import firewall, gateway


def packet_counts(pipeline):
    return {
        (t.table_id, e.entry_id - min(x.entry_id for x in t))
        if False else (t.table_id, i): e.packets
        for t in pipeline
        for i, e in enumerate(t)
    }


class TestStatsConsistency:
    def test_firewall_counters_agree(self):
        es_p = firewall.build_single_stage()
        ovs_p = firewall.build_single_stage()
        ref_p = firewall.build_single_stage()
        es = ESwitch.from_pipeline(es_p)
        ovs = OvsSwitch(ovs_p)
        rng = random.Random(2)
        import strategies as sts

        packets = [sts.random_packet(rng) for _ in range(40)]
        for pkt in packets * 3:  # repeats exercise the cached paths
            es.process(pkt.copy())
            ovs.process(pkt.copy())
            ref_p.process(pkt.copy())
        assert packet_counts(es_p) == packet_counts(ref_p)
        assert packet_counts(ovs_p) == packet_counts(ref_p)

    def test_gateway_counters_agree(self):
        build = lambda: gateway.build(n_ce=2, users_per_ce=3, n_prefixes=50)
        es_p, fib = build()
        ovs_p, _ = build()
        ref_p, _ = build()
        es = ESwitch.from_pipeline(es_p)
        ovs = OvsSwitch(ovs_p)
        flows = gateway.traffic(fib, 12, n_ce=2, users_per_ce=3)
        for _round in range(3):
            for i in range(len(flows)):
                es.process(flows[i].copy())
                ovs.process(flows[i].copy())
                ref_p.process(flows[i].copy())
        assert packet_counts(es_p) == packet_counts(ref_p)
        assert packet_counts(ovs_p) == packet_counts(ref_p)
        # Sanity: the cached paths actually carried most of the load.
        assert ovs.stats.microflow_hits > 0
