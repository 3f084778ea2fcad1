"""The telco access gateway (vPE) use case — Fig. 8.

Users sit behind Customer Endpoints (CEs); each CE is a unique VLAN tag on
the access port, each user a per-CE private IPv4 address. The pipeline:

* **Table 0** splits user→network traffic per CE from network→user
  traffic (here as two stages: an ingress-port split plus a per-CE VLAN
  hash, since untagged network-side packets cannot carry a VLAN match);
* **per-CE tables** (ids 10+ce) identify users by private source address
  and NAT them to a unique public address, then jump to the routing table;
  a miss goes to the controller for admission control;
* **Table 110** routes on 10K IP prefixes (the LPM template);
* **Table 200** maps returning traffic from public address back to the
  right (VLAN, private address) pair.

The paper's standard configuration: 10 CEs, 20 users/CE, 10K prefixes.
"""

from __future__ import annotations

import random

from repro.net.addresses import int_to_ip, ip_to_int
from repro.openflow.actions import Output, PopVlan, PushVlan, SetField
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.packet.builder import PacketBuilder
from repro.traffic.flows import FlowSet
from repro.usecases.l3 import rib_table, synthetic_fib

ACCESS_PORT = 1
NETWORK_PORT = 2
CE_TABLE_BASE = 10
ROUTING_TABLE = 110
REVERSE_TABLE = 200
VLAN_DISPATCH_TABLE = 5


def private_ip(ce: int, user: int) -> int:
    return ip_to_int("10.0.0.0") | (ce << 16) | (user + 1)


def public_ip(ce: int, user: int) -> int:
    return ip_to_int("100.64.0.0") | (ce << 8) | (user + 1)


def ce_vlan(ce: int) -> int:
    return 100 + ce


def build(
    n_ce: int = 10,
    users_per_ce: int = 20,
    n_prefixes: int = 10_000,
    provision_users: bool = True,
    seed: int = 29,
) -> tuple[Pipeline, list[tuple[int, int, int]]]:
    """The vPE pipeline; returns it plus the FIB used for Table 110."""
    t0 = FlowTable(0, name="port-split")
    t0.add(
        FlowEntry(
            Match(in_port=ACCESS_PORT),
            priority=20,
            instructions=(GotoTable(VLAN_DISPATCH_TABLE),),
        )
    )
    t0.add(
        FlowEntry(
            Match(in_port=NETWORK_PORT),
            priority=10,
            instructions=(GotoTable(REVERSE_TABLE),),
        )
    )
    t0.add(FlowEntry(Match(), priority=0, actions=[]))

    t_vlan = FlowTable(VLAN_DISPATCH_TABLE, name="per-ce")
    for ce in range(n_ce):
        t_vlan.add(
            FlowEntry(
                Match(vlan_vid=ce_vlan(ce)),
                priority=10,
                instructions=(GotoTable(CE_TABLE_BASE + ce),),
            )
        )
    t_vlan.add(FlowEntry(Match(), priority=0, actions=[]))

    tables = [t0, t_vlan]
    for ce in range(n_ce):
        tc = FlowTable(
            CE_TABLE_BASE + ce,
            name=f"ce{ce}-nat",
            miss_policy=TableMissPolicy.CONTROLLER,  # admission control
        )
        if provision_users:
            for user in range(users_per_ce):
                tc.add(_nat_entry(ce, user))
        tables.append(tc)

    fib = synthetic_fib(n_prefixes, seed)
    tables.append(rib_table(ROUTING_TABLE, "rib", [(v, d, NETWORK_PORT) for v, d, _p in fib]))

    t_rev = FlowTable(
        REVERSE_TABLE, name="reverse-nat", miss_policy=TableMissPolicy.CONTROLLER
    )
    if provision_users:
        for ce in range(n_ce):
            for user in range(users_per_ce):
                t_rev.add(_reverse_entry(ce, user))
    tables.append(t_rev)
    return Pipeline(tables), fib


def _nat_entry(ce: int, user: int) -> FlowEntry:
    return FlowEntry(
        Match(ipv4_src=private_ip(ce, user)),
        priority=10,
        instructions=(
            ApplyActions([PopVlan(), SetField("ipv4_src", public_ip(ce, user))]),
            GotoTable(ROUTING_TABLE),
        ),
    )


def _reverse_entry(ce: int, user: int) -> FlowEntry:
    return FlowEntry(
        Match(ipv4_dst=public_ip(ce, user)),
        priority=10,
        instructions=(
            ApplyActions(
                [
                    SetField("ipv4_dst", private_ip(ce, user)),
                    PushVlan(vid=ce_vlan(ce)),
                    Output(ACCESS_PORT),
                ]
            ),
        ),
    )


def nat_flow_mods(ce: int, user: int) -> list[FlowMod]:
    """The two flow-mods the controller installs per admitted user."""
    nat = _nat_entry(ce, user)
    rev = _reverse_entry(ce, user)
    return [
        FlowMod(
            FlowModCommand.ADD,
            CE_TABLE_BASE + ce,
            nat.match,
            priority=nat.priority,
            instructions=nat.instructions,
        ),
        FlowMod(
            FlowModCommand.ADD,
            REVERSE_TABLE,
            rev.match,
            priority=rev.priority,
            instructions=rev.instructions,
        ),
    ]


def traffic(
    fib: list[tuple[int, int, int]],
    n_flows: int,
    n_ce: int = 10,
    users_per_ce: int = 20,
    seed: int = 31,
) -> FlowSet:
    """User→network flows: ``(CE, user, destination, source port)`` tuples.

    The flow-count sweep varies "the number of per-user flows": flows
    round-robin over the provisioned users while destinations and source
    ports diversify, exactly the axis Figs. 13–16 sweep.
    """
    rng = random.Random(seed)

    def factory(i: int, _rng: random.Random) -> object:
        ce = i % n_ce
        user = (i // n_ce) % users_per_ce
        value, depth, _port = fib[rng.randrange(len(fib))]
        host_bits = 32 - depth
        dst = value | (rng.getrandbits(host_bits) if host_bits else 0)
        return (
            PacketBuilder(in_port=ACCESS_PORT)
            .eth(src="02:00:00:00:02:01", dst="02:00:00:00:02:02")
            .vlan(vid=ce_vlan(ce))
            .ipv4(src=int_to_ip(private_ip(ce, user)), dst=int_to_ip(dst))
            .tcp(src_port=1024 + rng.randrange(60000), dst_port=443)
            .build()
        )

    return FlowSet.build(n_flows, factory, seed=seed, name=f"gw-{n_flows}flows")
