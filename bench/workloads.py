"""The five named workloads and their frozen sizes.

A workload turns ``(seed, scale)`` into generated inputs only: pipelines,
packet templates, flow-mod batches, a fabric schedule. The program under
test never sees the seed. Window sizes are constants, sized once on the
seed commit (2-core host) so that one run measures for about the
``run_seconds`` of ``BENCHMARK.json``, and frozen here so that counts
repeat exactly; ``scale`` exists for ``--smoke`` (1/50 work) alone.

Seed discipline: ``--seed`` drives every generator the benchmark owns
(``l2.build``/``l2.traffic``, ``gateway.build``/``gateway.traffic``, the
ACL flow draw, the fabric FIB, subscriber order and packet draw). The
ACL *rule set* stays ``acl.build(369)`` with the builder's own default
seed: other seeds decompose into 290..739 tables, so a seeded rule set
would make ``acl_369`` a different workload on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.analysis import CompileConfig
from repro.fabric import Fabric
from repro.net.addresses import int_to_ip
from repro.openflow.actions import Output
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.packet.builder import PacketBuilder
from repro.usecases import acl, gateway, l2

BURST = 32
#: fresh builds behind ``setup_s``.
SETUP_BUILDS = 3
#: a flow-mod batch follows every ``CHURN_EVERY``-th burst.
CHURN_EVERY = 32
#: virtual seconds per fabric tick.
TICK_S = 0.05

# Verdict classes tallied inside windows.
FWD, DROP, CTRL = 0, 1, 2

@dataclass
class SwitchInputs:
    """Generated inputs of a single-switch workload."""

    #: builds one fresh, independent pipeline per call (every set-up
    #: build gets its own).
    make_pipeline: Callable[[], object]
    #: one more, for the reference interpreter alone.
    reference: object
    templates: list
    config: CompileConfig = field(default_factory=CompileConfig)
    #: verdict class per template when the generator knows it by
    #: construction; None = the reference interpreter classifies all.
    expected: "list[int] | None" = None
    #: ``i -> (mods, probe_hit, probe_miss)`` on the churn workload.
    churn_step: "Callable[[int], tuple] | None" = None
    #: packets of the fixed correctness sample replayed before timing.
    sample: int = 512
    facts: dict = field(default_factory=dict)


@dataclass
class FabricInputs:
    """Generated inputs of the fabric workload."""

    make_fabric: Callable[[], Fabric]
    #: reference leaf pipeline with no subscriber provisioned, plus FIB.
    make_reference_leaf: Callable[[], tuple]
    templates: list
    #: subscriber ``(ce, user)`` of each template.
    owners: list
    #: ``ticks -> [[(leaf index, [template index, ...]), ...], ...]``.
    make_schedule: Callable[[int], list]
    n_leaves: int = 4
    sample: int = 512
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "switch" | "fabric"
    #: bursts (fabric: ticks) per window: about a second of calls on the
    #: seed commit (churn ~2 s: a batch costs 90 ms there; fabric ~2.3 s).
    window: int
    #: bursts per CycleMeter window; 0 = no cycle leg.
    cycle_window: int
    #: measured windows of the null leg.
    windows: int
    #: per-layer probe groups that apply (see layers.py).
    probes: frozenset
    build: Callable[[int, int], object]


def _scaled(value: int, scale: int, floor: int) -> int:
    return max(floor, value // scale)


def _stride_sample(items: list, n: int) -> list:
    """``n`` items spread evenly over the list (never a prefix, which
    would only exercise the lowest slots of a table)."""
    if n >= len(items):
        return list(items)
    stride = len(items) / n
    return [items[int(i * stride)] for i in range(n)]


# -- gateway ---------------------------------------------------------------


def _build_gateway(seed: int, scale: int) -> SwitchInputs:
    shape = dict(n_ce=4, users_per_ce=16)

    def make_pipeline():
        return gateway.build(n_prefixes=64, seed=seed, **shape)[0]

    reference, fib = gateway.build(n_prefixes=64, seed=seed, **shape)
    flows = gateway.traffic(fib, 256, seed=seed + 1, **shape)
    return SwitchInputs(make_pipeline, reference, list(flows),
                        facts={"flows": 256})


# -- l2 hash at 1e5, read-only and under churn -------------------------------


def _l2_inputs(seed: int, scale: int) -> tuple[SwitchInputs, list[int]]:
    n_entries = _scaled(100_000, scale, 1_000)
    n_flows = _scaled(16_384, scale, 512)

    def make_pipeline():
        return l2.build(n_entries, seed=seed)[0]

    reference, macs = l2.build(n_entries, seed=seed)
    flows = l2.traffic(_stride_sample(macs, n_flows), n_flows, seed=seed + 1)
    inputs = SwitchInputs(
        make_pipeline,
        reference,
        list(flows),
        # Every flow is addressed to a MAC the table holds, so each is a
        # hit by construction. The reference interpreter scans the table
        # linearly (12 ms a packet on average at 1e5 entries), so it
        # confirms that on a 64-packet sample spread over the whole table
        # instead of the usual 512.
        expected=[FWD] * n_flows,
        sample=64,
        facts={"entries": n_entries, "flows": n_flows},
    )
    return inputs, macs


def _build_l2(seed: int, scale: int) -> SwitchInputs:
    return _l2_inputs(seed, scale)[0]


def churn_mac(i: int) -> int:
    """A locally-administered MAC outside ``l2.build``'s unicast draw."""
    return (0x02 << 40) | (0xEE << 32) | i


def _build_l2_churn(seed: int, scale: int) -> SwitchInputs:
    inputs, _macs = _l2_inputs(seed, scale)

    def probe(i: int):
        return (
            PacketBuilder(in_port=l2.N_PORTS)
            .eth(src="02:00:00:00:00:aa", dst=churn_mac(i))
            .ipv4(src="10.0.0.1", dst="10.0.0.2")
            .udp(src_port=1000, dst_port=2000)
            .build()
        )

    def churn_step(i: int):
        """Batch ``i``: ADD rule ``i``, strict DELETE rule ``i - 1``; the
        next burst probes both (``i`` must hit, ``i - 1`` must miss)."""
        mods = [
            FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=churn_mac(i)),
                    priority=1, instructions=(ApplyActions([Output(3)]),)),
        ]
        if i > 0:
            mods.append(
                FlowMod(FlowModCommand.DELETE, 0,
                        Match(eth_dst=churn_mac(i - 1)), priority=1,
                        strict=True)
            )
        return mods, probe(i), probe(i - 1) if i > 0 else None

    inputs.churn_step = churn_step
    return inputs


# -- acl_369 -----------------------------------------------------------------

ACL_RULES = 369
ACL_FLOWS = 2_048
ACL_HIT_SHARE = 0.7


def _acl_flows(table, n_flows: int, rng: random.Random) -> list:
    """Five-tuple flows drawn from the rules' own value pools.

    ``ACL_HIT_SHARE`` of the flows satisfy one randomly chosen rule
    (fields the rule leaves open come from the pools, so a higher rule
    may win — still a rule hit). The ruleset holds protocol-only TCP and
    UDP rules, so only non-TCP/UDP traffic reaches the default permit;
    the remainder are ICMP flows between pool addresses.
    """
    rules = [e for e in table.entries if not e.match.is_catch_all]
    pools: dict[str, list[int]] = {}
    for entry in rules:
        for name, (value, _mask) in entry.match.items():
            pools.setdefault(name, []).append(value)
    dsts = sorted(set(pools.get("ipv4_dst", [0x0A000001])))
    srcs = sorted(set(pools.get("ipv4_src", [0xC0A80001])))
    ports = sorted(
        set(pools.get("tcp_dst", []) + pools.get("udp_dst", [])) or {80}
    )

    def pick(constraints: dict, name: str, pool: list[int]) -> int:
        return constraints[name] if name in constraints else rng.choice(pool)

    flows = []
    for _ in range(n_flows):
        builder = PacketBuilder(in_port=1).eth(
            src="02:00:00:00:01:01", dst="02:00:00:00:01:02"
        )
        if rng.random() >= ACL_HIT_SHARE:
            builder.ipv4(src=int_to_ip(rng.choice(srcs)),
                         dst=int_to_ip(rng.choice(dsts)))
            flows.append(builder.icmp().build())
            continue
        want = {n: v for n, (v, _m) in rng.choice(rules).match.items()}
        # Half the open addresses fall outside the pools, as most client
        # traffic does.
        src = pick(want, "ipv4_src",
                   srcs if rng.random() < 0.5 else [rng.getrandbits(32)])
        dst = pick(want, "ipv4_dst",
                   dsts if rng.random() < 0.5 else [rng.getrandbits(32)])
        builder.ipv4(src=int_to_ip(src), dst=int_to_ip(dst))
        l4 = "tcp" if want["ip_proto"] == 6 else "udp"
        sport = pick(want, f"{l4}_src", [1024 + rng.randrange(60_000)])
        dport = pick(want, f"{l4}_dst", ports)
        getattr(builder, l4)(src_port=sport, dst_port=dport)
        flows.append(builder.build())
    return flows


def _build_acl(seed: int, scale: int) -> SwitchInputs:
    def make_pipeline():
        return acl.build(ACL_RULES)

    reference = make_pipeline()
    flows = _acl_flows(reference.table(0), ACL_FLOWS, random.Random(seed))
    return SwitchInputs(
        make_pipeline, reference, flows,
        facts={"rules": ACL_RULES, "flows": ACL_FLOWS},
    )


# -- fabric_tenants ------------------------------------------------------------

FABRIC_SHAPE = dict(n_leaves=4, n_spines=2, n_ce=16, users_per_ce=32,
                    n_prefixes=200)
FABRIC_TICKS = 600
#: new subscribers per tick until all have arrived.
FABRIC_ARRIVALS = 2
FABRIC_PKTS_PER_TICK = 128
#: flow templates per subscriber.
FABRIC_FLOWS_PER_SUB = 4


def _build_fabric(seed: int, scale: int) -> FabricInputs:
    shape = FABRIC_SHAPE
    n_leaves = shape["n_leaves"]
    rng = random.Random(seed)

    def make_fabric():
        return Fabric(fib_seed=seed, **shape)

    def make_reference_leaf():
        return gateway.build(
            n_ce=shape["n_ce"], users_per_ce=shape["users_per_ce"],
            n_prefixes=shape["n_prefixes"], provision_users=False, seed=seed,
        )

    _pipeline, fib = make_reference_leaf()
    subscribers = [
        (ce, user)
        for ce in range(shape["n_ce"])
        for user in range(shape["users_per_ce"])
    ]
    rng.shuffle(subscribers)  # arrival order

    templates, owners = [], []
    for ce, user in subscribers:
        for _ in range(FABRIC_FLOWS_PER_SUB):
            value, depth, _port = fib[rng.randrange(len(fib))]
            host_bits = 32 - depth
            dst = value | (rng.getrandbits(host_bits) if host_bits else 0)
            templates.append(
                PacketBuilder(in_port=gateway.ACCESS_PORT)
                .eth(src="02:00:00:00:02:01", dst="02:00:00:00:02:02")
                .vlan(vid=gateway.ce_vlan(ce))
                .ipv4(src=int_to_ip(gateway.private_ip(ce, user)),
                      dst=int_to_ip(dst))
                .tcp(src_port=1024 + rng.randrange(60_000), dst_port=443)
                .build()
            )
            owners.append((ce, user))

    def make_schedule(ticks: int) -> list:
        draw = random.Random(seed + 1)
        schedule = []
        for tick in range(ticks):
            active = min(len(subscribers), FABRIC_ARRIVALS * (tick + 1))
            per_leaf: list[list[int]] = [[] for _ in range(n_leaves)]
            for _ in range(FABRIC_PKTS_PER_TICK):
                sub = draw.randrange(active)
                index = sub * FABRIC_FLOWS_PER_SUB + draw.randrange(
                    FABRIC_FLOWS_PER_SUB
                )
                # Home leaf as Fabric.leaf_of pins it: CEs round-robin.
                per_leaf[owners[index][0] % n_leaves].append(index)
            schedule.append(
                [(leaf, picks) for leaf, picks in enumerate(per_leaf) if picks]
            )
        return schedule

    return FabricInputs(
        make_fabric, make_reference_leaf, templates, owners, make_schedule,
        n_leaves=n_leaves,
        facts={"subscribers": len(subscribers)},
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gateway",
            "Fig. 13 vPE: eight small tables with NAT/VLAN actions and an "
            "L4 parse, so per-packet work in core.fuse, openflow.actions "
            "and packet.parser dominates and structure size does not.",
            "switch", window=5_000, cycle_window=2_500, windows=5,
            probes=frozenset({"hash", "lpm", "simcpu", "ovs", "parallel",
                              "rss", "trampoline", "ledger"}),
            build=_build_gateway,
        ),
        Workload(
            "l2_hash_1e5",
            "One hash lookup over 1e5 MACs, one output, L2 parse: dpdk.hash "
            "and key assembly do the work and the working set is past every "
            "cache the model has.",
            "switch", window=8_192, cycle_window=4_096, windows=5,
            probes=frozenset({"hash", "simcpu", "ovs", "ledger"}),
            build=_build_l2,
        ),
        Workload(
            "l2_hash_1e5_churn",
            "Same table and traffic with an (ADD, strict DELETE) batch after "
            "every 32nd burst: Fig. 18's writes beside reads, where the "
            "post-mod stall and the incremental-update path meet traffic.",
            "switch", window=20 * CHURN_EVERY, cycle_window=0, windows=5,
            probes=frozenset({"hash", "mods"}),
            build=_build_l2_churn,
        ),
        Workload(
            "acl_369",
            "Sec. 3.2 firewall: 369 wildcarded five-tuple rules decomposed "
            "into 363 tables; the only workload where core.decompose and "
            "the lower template rungs do the work, set-up heavy.",
            "switch", window=2_400, cycle_window=1_500, windows=5,
            probes=frozenset({"hash", "simcpu", "ovs", "trampoline",
                              "linked_list"}),
            build=_build_acl,
        ),
        Workload(
            "fabric_tenants",
            "Leaf-spine under one controller with tenant arrivals: the only "
            "path through fabric, controller.session, punt, "
            "GatewayController and submit_flow_mods; glue dominates.",
            "fabric", window=FABRIC_TICKS, cycle_window=0, windows=3,
            probes=frozenset({"hash", "lpm", "mods", "rss", "fabric"}),
            build=_build_fabric,
        ),
    )
}
