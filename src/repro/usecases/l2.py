"""Layer-2 switching: exact matching on a MAC table (Section 4.1).

"The L2 pipeline compiles into the hash table template, effectively
reducing into a conventional Ethernet software switch." Tables hold random
MAC addresses; traces align destination MACs with table contents "to avoid
frequent table misses".
"""

from __future__ import annotations

import random

from repro.openflow.actions import Output
from repro.openflow.fields import field_by_name
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.pipeline import Pipeline
from repro.packet.builder import PacketBuilder
from repro.traffic.flows import FlowSet

N_PORTS = 16
#: The table's one match shape: an exact destination MAC.
MAC_SHAPE = (("eth_dst", field_by_name("eth_dst").max_value),)


def build(n_entries: int, seed: int = 7) -> tuple[Pipeline, list[int]]:
    """A single MAC table with ``n_entries`` random addresses.

    Returns the pipeline and the MAC list (for trace alignment).
    """
    if n_entries < 1:
        raise ValueError("need at least one MAC entry")
    rng = random.Random(seed)
    macs: list[int] = []
    seen: set[int] = set()
    while len(macs) < n_entries:
        mac = rng.getrandbits(48) & ~(1 << 40)  # unicast
        if mac not in seen:
            seen.add(mac)
            macs.append(mac)
    del seen  # before the table grows: the build's peak is its end
    outputs = [(ApplyActions([Output(port)]),) for port in range(N_PORTS)]
    table = FlowTable(0, name="mac")
    table.add_columns(
        MAC_SHAPE, [macs], 1, [outputs[i % N_PORTS] for i in range(n_entries)]
    )
    return Pipeline([table]), macs


def traffic(macs: list[int], n_flows: int, seed: int = 11) -> FlowSet:
    """``n_flows`` distinct flows whose destinations cycle over the table.

    When the flow count exceeds the table size, flows reuse destinations
    but differ in source MAC — still table hits, still distinct microflows.
    """
    rng = random.Random(seed)

    def factory(i: int, _rng: random.Random) -> object:
        dst = macs[i % len(macs)]
        src = rng.getrandbits(48) & ~(1 << 40)
        return (
            PacketBuilder(in_port=N_PORTS)
            .eth(src=src, dst=dst)
            .ipv4(src="10.0.0.1", dst="10.0.0.2")
            .udp(src_port=1000 + (i % 50000), dst_port=2000)
            .build()
        )

    return FlowSet.build(n_flows, factory, seed=seed, name=f"l2-{n_flows}flows")
