"""Layer-3 routing: longest prefix match over a sampled FIB (Section 4.1).

"The L3 pipeline is compiled into the LPM template yielding a datapath
identical to that of an IP softrouter. … routing tables were randomly
sampled from a real Internet router."

No real router dump ships with this reproduction; :func:`synthetic_fib`
draws prefixes from the well-known depth distribution of Internet BGP
tables (dominated by /24s, with mass at /16–/23 and a thin short-prefix
tail) — what matters to the experiments is the LPM shape: many disjoint
and nested prefixes at realistic depths.
"""

from __future__ import annotations

import random

from repro.net.addresses import int_to_ip, prefix_to_mask
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline
from repro.packet.builder import PacketBuilder
from repro.traffic.flows import FlowSet

#: Approximate Internet FIB prefix-length distribution.
DEPTH_WEIGHTS: tuple[tuple[int, float], ...] = (
    (8, 0.002),
    (12, 0.005),
    (14, 0.008),
    (16, 0.065),
    (18, 0.035),
    (19, 0.045),
    (20, 0.07),
    (21, 0.07),
    (22, 0.12),
    (23, 0.10),
    (24, 0.48),
)

N_NEXT_HOPS = 16


def synthetic_fib(n_prefixes: int, seed: int = 13) -> list[tuple[int, int, int]]:
    """``[(prefix_value, depth, next_hop_port)]`` with realistic depths."""
    rng = random.Random(seed)
    depths = [d for d, _w in DEPTH_WEIGHTS]
    weights = [w for _d, w in DEPTH_WEIGHTS]
    fib: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(fib) < n_prefixes:
        depth = rng.choices(depths, weights)[0]
        # Stay inside 1.0.0.0 – 223.255.255.255 (unicast space).
        value = rng.randrange(1 << 24, 224 << 24) & (
            ((1 << depth) - 1) << (32 - depth)
        )
        if (value, depth) in seen:
            continue
        seen.add((value, depth))
        fib.append((value, depth, rng.randrange(N_NEXT_HOPS)))
    return fib


def build(n_prefixes: int, seed: int = 13) -> tuple[Pipeline, list[tuple[int, int, int]]]:
    """A routing table compiled from a synthetic FIB.

    Priorities encode prefix length (longer = higher), the LPM template's
    consistency prerequisite.
    """
    fib = synthetic_fib(n_prefixes, seed)
    return Pipeline([rib_table(0, "rib", fib)]), fib


def rib_table(table_id: int, name: str, fib: list[tuple[int, int, int]]) -> FlowTable:
    """A routing table over ``[(prefix_value, depth, next_hop_port)]``: an
    ``ipv4_dst`` prefix rule per route at priority = depth, out its next
    hop, over a catch-all that drops (no default route). One column per
    depth, longest first, so each lands at the table's tail in FIB order.
    """
    columns: dict[int, tuple[list[int], list]] = {}
    outputs: dict[int, list] = {}
    for value, depth, hop in fib:
        values, actions = columns.setdefault(depth, ([], []))
        values.append(value)
        actions.append(outputs.get(hop) or outputs.setdefault(hop, [ApplyActions([Output(hop)])]))
    table = FlowTable(table_id, name=name)
    for depth in sorted(columns, reverse=True):
        values, actions = columns[depth]
        table.add_columns((("ipv4_dst", prefix_to_mask(depth)),), [values], depth, actions)
    table.add(FlowEntry(Match(), priority=0, actions=[]))
    return table


def traffic(fib: list[tuple[int, int, int]], n_flows: int, seed: int = 17) -> FlowSet:
    """Flows whose destinations fall inside FIB prefixes (aligned traces)."""
    rng = random.Random(seed)

    def factory(i: int, _rng: random.Random) -> object:
        value, depth, _port = fib[i % len(fib)]
        host_bits = 32 - depth
        dst = value | (rng.getrandbits(host_bits) if host_bits else 0)
        return (
            PacketBuilder(in_port=0)
            .eth(src="02:00:00:00:00:01", dst="02:00:00:00:00:02")
            .ipv4(src=f"10.{(i >> 8) & 255}.{i & 255}.1", dst=int_to_ip(dst))
            .udp(src_port=1024 + (i % 60000), dst_port=53)
            .build()
        )

    return FlowSet.build(n_flows, factory, seed=seed, name=f"l3-{n_flows}flows")
