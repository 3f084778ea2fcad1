"""The paper's evaluation as one table of asserted inequalities.

Each row is ``(id, paper quote, lhs, op, rhs)`` over the modeled axis
(cycles, packet rates, cache levels, table counts), which is host-
independent: only a few OVS slow-path readings move, in the third digit,
with the string-hash seed. ``lhs`` and ``rhs`` are scalars: a measured
value (a callable, read when the row runs) or a constant. An ``==`` row
may carry a relative tolerance.

Absolute numbers are not the paper's testbed's: the substrate is a
cycle/cache model calibrated from the paper's own cost atoms (Fig. 20),
so the *shapes* carry over. Each sweep is measured once per test run
(``functools.cache``) and read by every row that needs it. Axis points
sit where the claim's regime is: an OVS collapse point lies past the
8192-entry EMC, the slow-path point past the 65 536-entry megaflow cache
and the 60K-packet replay, so no flow is ever revisited.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import cache
from typing import Any, Callable, NamedTuple, Union

import pytest

import strategies as sts

from repro.controller import CLI_CHANNEL, CONTROLLER_CHANNEL, setup_time
from repro.core import CompileConfig, ESwitch
from repro.core.analysis import TemplateKind, select_template
from repro.core.codegen import compile_table
from repro.core.decompose import decompose_table
from repro.dpdk.l2fwd import l2fwd, l2fwd_rate_pps
from repro.openflow.actions import Output
from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.ovs import OvsSwitch
from repro.ovs.flowkey import extract_key
from repro.ovs.megaflow import MegaflowCache, WildcardMode, build_megaflow
from repro.packet import PacketBuilder
from repro.packet.parser import parse
from repro.simcpu.costs import DEFAULT_COSTS
from repro.simcpu.model import gateway_model, gateway_paper_bounds
from repro.simcpu.platform import ATOM_C2750, XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.traffic import measure, measure_multicore
from repro.traffic.nfpa import Measurement, auto_params
from repro.usecases import acl, gateway, l2, l3
from repro.usecases import loadbalancer as lb

Value = Union[Callable[[], Any], float, int, str]


class Row(NamedTuple):
    id: str
    quote: str
    lhs: Value
    op: str
    rhs: Value
    tol: float = 0.0  # relative; ``==`` rows only


OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


def _read(value: Value) -> Any:
    return value() if callable(value) else value


# --------------------------------------------------------------- sweeps

#: Warm-up and measured replay are each capped at 30K packets: a point is
#: in steady state by then (the flow set revisited, or thrashing for good).
REPLAY_CAP = 30_000


def measure_point(switch, flows, n_flows: int, **kw) -> Measurement:
    n_packets, warmup = auto_params(n_flows)
    return measure(switch, flows, n_packets=min(n_packets, REPLAY_CAP),
                   warmup=min(warmup, REPLAY_CAP), **kw)


def es_ovs(make_pipeline, flows, n_flows: int) -> tuple[Measurement, Measurement]:
    return (measure_point(ESwitch.from_pipeline(make_pipeline()), flows, n_flows),
            measure_point(OvsSwitch(make_pipeline()), flows, n_flows))


#: Figs. 10-12: the smallest and largest table of each figure, at one flow
#: (EMC-resident), 1K and 10K flows (past the EMC: the OVS collapse point).
FLOWS = (1, 1_000, 10_000)
L2_MACS = (1, 1_000)
L3_PREFIXES = (1, 1_000)
LB_SERVICES = (1, 100)


@cache
def l2_point(n_macs: int, n_flows: int) -> tuple[Measurement, Measurement]:
    _p, macs = l2.build(n_macs)
    return es_ovs(lambda: l2.build(n_macs)[0], l2.traffic(macs, n_flows), n_flows)


@cache
def l3_point(n_prefixes: int, n_flows: int) -> tuple[Measurement, Measurement]:
    _p, fib = l3.build(n_prefixes)
    return es_ovs(lambda: l3.build(n_prefixes)[0], l3.traffic(fib, n_flows), n_flows)


@cache
def lb_point(n_services: int, n_flows: int) -> tuple[Measurement, Measurement]:
    return es_ovs(lambda: lb.build_single_table(n_services),
                  lb.traffic(n_services, n_flows), n_flows)


@cache
def lb_undecomposed(n_services: int, n_flows: int) -> Measurement:
    sw = ESwitch.from_pipeline(lb.build_single_table(n_services),
                               config=CompileConfig(decompose=False))
    return measure_point(sw, lb.traffic(n_services, n_flows), n_flows)


#: Figs. 13-16 and 20: the paper's gateway (10 CEs x 20 users, 10K
#: prefixes). 100K flows is the slow-path point.
GW = dict(n_ce=10, users_per_ce=20)
GW_FLOWS = (1, 100, 1_000, 10_000, 100_000)


@cache
def gateway_point(n_flows: int) -> tuple[Measurement, Measurement, dict]:
    """ES, OVS, and OVS's share of measured packets per cache level."""
    pipeline, fib = gateway.build(n_prefixes=10_000, **GW)
    flows = gateway.traffic(fib, n_flows, **GW)
    es = measure_point(ESwitch.from_pipeline(gateway.build(n_prefixes=10_000, **GW)[0]),
                       flows, n_flows)
    ovs = OvsSwitch(pipeline)

    def reset_at_start(i, _meter):
        if i == 0:
            ovs.stats.reset()

    m = measure_point(ovs, flows, n_flows, update_hook=reset_at_start)
    return es, m, ovs.stats.rates()


def gw_es(attr: str) -> list[float]:
    return [getattr(gateway_point(n)[0], attr) for n in GW_FLOWS]


def gw_ovs(attr: str) -> list[float]:
    return [getattr(gateway_point(n)[1], attr) for n in GW_FLOWS]


def gw_level(n_flows: int, level: str) -> Callable[[], float]:
    return lambda: gateway_point(n_flows)[2][level]


# Fig. 18: the gateway at 2K prefixes, 1K active flows.
UPDATE_PREFIXES = 2_000
#: Fresh cache lines an update's new state displaces on the shared core.
POLLUTION_LINES = 32


def route_mods():
    """An endless alternating add/delete stream against the routing table."""
    for i in itertools.count():
        prefix = f"203.{(i >> 8) & 255}.{i & 255}.0/24"
        yield FlowMod(FlowModCommand.ADD, gateway.ROUTING_TABLE, Match(ipv4_dst=prefix),
                      priority=24, instructions=(ApplyActions([Output(2)]),))
        yield FlowMod(FlowModCommand.DELETE, gateway.ROUTING_TABLE,
                      Match(ipv4_dst=prefix), priority=24)


def normed_under_load(switch: str, updates_per_sec: int) -> float:
    """Packet rate at ``updates_per_sec`` over the unloaded rate. ESWITCH
    absorbs a route flap as an in-place LPM update whose cycles and cache
    pollution share the core; each OVS flow-mod invalidates its caches."""
    pps = _pps_under_load(switch, updates_per_sec)
    return pps / _pps_under_load(switch, 0)


@cache
def _pps_under_load(switch: str, updates_per_sec: int) -> float:
    pipeline, fib = gateway.build(n_prefixes=UPDATE_PREFIXES, **GW)
    flows = gateway.traffic(fib, 1_000, **GW)
    sw = ESwitch.from_pipeline(pipeline) if switch == "ES" else OvsSwitch(pipeline)
    mods = route_mods()
    state = {"cycles_seen": 0.0, "credit": 0.0, "line": 0}

    def hook(_i, meter):
        delta = meter.total_cycles - state["cycles_seen"]
        state["cycles_seen"] = meter.total_cycles
        state["credit"] += updates_per_sec * delta / XEON_E5_2620.freq_hz
        while state["credit"] >= 1.0:
            state["credit"] -= 1.0
            cycles = sw.apply_flow_mod(next(mods))
            if switch == "ES":
                meter.charge(cycles)
                for _ in range(POLLUTION_LINES):
                    state["line"] += 1
                    meter.touch(("upd", state["line"] & 0xFFFF))

    # The measured window spans several update intervals; at low
    # intensities an interval (freq / u cycles) dwarfs the default window.
    n_packets = 20_000
    if updates_per_sec:
        per_interval = XEON_E5_2620.freq_hz / updates_per_sec / 350.0
        n_packets = int(min(160_000, max(20_000, 3 * per_interval)))
    return measure(sw, flows, n_packets=n_packets, warmup=4_000,
                   update_hook=hook if updates_per_sec else None).pps


# Fig. 19: L3 over 2K prefixes on the Atom; 10K flows is past the EMC.
CORES = (1, 5)


@cache
def multicore_mpps(switch: str, n_flows: int, cores: int) -> float:
    fib = l3.build(2_000)[1]
    shared = switch == "OVS"
    return measure_multicore(
        (lambda: OvsSwitch(l3.build(2_000)[0])) if shared
        else (lambda: ESwitch.from_pipeline(l3.build(2_000)[0])),
        l3.traffic(fib, n_flows), cores=cores, n_packets=4_000,
        warmup=min(n_flows + 500, 20_000), platform=ATOM_C2750,
        coherence_cycles_per_core=(DEFAULT_COSTS.ovs_coherence_per_core if shared
                                   else DEFAULT_COSTS.eswitch_coherence_per_core),
        shared_switch=shared,
    ) / 1e6


def fig19_gap(n_flows: int) -> float:
    return multicore_mpps("ES", n_flows, 5) / multicore_mpps("OVS", n_flows, 5)


# Fig. 17: modeled set-up seconds; the two largest service counts.
@cache
def setup_seconds(switch: str, channel: str, n_services: int) -> float:
    mods = [FlowMod(FlowModCommand.ADD, 0, e.match, priority=e.priority,
                    instructions=e.instructions)
            for e in lb.build_single_table(n_services).table(0)]
    make = ESwitch.from_pipeline if switch == "ES" else OvsSwitch
    return setup_time(make(Pipeline([FlowTable(0)])), mods,
                      CLI_CHANNEL if channel == "CLI" else CONTROLLER_CHANNEL)


# ------------------------------------------------ single-table lookups

def run_lookup(compiled, pkt, meter, rounds: int) -> None:
    view = parse(pkt)
    etype = field_by_name("eth_type").extract(view) or 0
    for _ in range(rounds):
        meter.begin_packet()
        compiled.fn(pkt.data, pkt, view.l3, view.l4, view.proto, etype, view.l4_proto, meter)
        meter.end_packet()


@cache
def fig9_cost(kind: TemplateKind, n: int) -> float:
    """Steady-state cycles of one lookup hitting entry ``n`` (the worst
    case for the linear templates) in the paper's synthetic table:
    entry N is ``vlan_vid=3, ip_src=10.0.0.3, ip_proto=17, udp_dst=N``."""
    table = FlowTable(0)
    for i in range(1, n + 1):
        table.add(FlowEntry(Match(vlan_vid=3, ipv4_src="10.0.0.3", ip_proto=17, udp_dst=i),
                            priority=1, actions=[Output(1)]))
    compiled = compile_table(table, CompileConfig(direct_threshold=64), kind=kind)
    pkt = (PacketBuilder(in_port=1).eth().vlan(vid=3)
           .ipv4(src="10.0.0.3").udp(dst_port=n).build())
    meter = CycleMeter(XEON_E5_2620)
    run_lookup(compiled, pkt, meter, 64)
    meter.reset()
    run_lookup(compiled, pkt, meter, 64)
    return meter.mean_cycles_per_packet


def mac_table(n: int) -> FlowTable:
    t = FlowTable(0)
    for i in range(n):
        t.add(FlowEntry(Match(eth_dst=0x4000 + i), priority=1, actions=[Output(1)]))
    return t


THRESHOLDS = (0, 1, 2, 4, 6, 8)


@cache
def threshold_cost(threshold: int) -> float:
    """Mean lookup cycles over a mix of small MAC tables (last entry hit)."""
    costs = []
    for size in (1, 2, 3, 4, 5, 6, 8):
        compiled = compile_table(mac_table(size), CompileConfig(direct_threshold=threshold))
        pkt = PacketBuilder().eth(dst=0x4000 + size - 1).build()
        meter = CycleMeter(XEON_E5_2620)
        run_lookup(compiled, pkt, meter, 32)
        meter.reset()
        run_lookup(compiled, pkt, meter, 64)
        costs.append(meter.mean_cycles_per_packet)
    return sum(costs) / len(costs)


@cache
def keys_cost(keys_in_code: bool, pressure_lines: int) -> float:
    """Direct-code lookup cycles with ``pressure_lines`` unrelated data
    lines touched per packet from a pool larger than L1."""
    t = FlowTable(0)
    for i in range(4):
        t.add(FlowEntry(Match(ipv4_dst=0x0A000000 + i, tcp_dst=1000 + i),
                        priority=1, actions=[Output(1)]))
    compiled = compile_table(t, CompileConfig(keys_in_code=keys_in_code))
    pkt = PacketBuilder().eth().ipv4(dst="10.0.0.3").tcp(dst_port=1003).build()
    meter = CycleMeter(XEON_E5_2620)
    evict = 0
    for _ in range(400):
        run_lookup(compiled, pkt, meter, 1)
        for _ in range(pressure_lines):
            evict += 1
            meter.cache.access(("noise", evict % 8192))
    return meter.mean_cycles_per_packet


def keys_delta(pressure_lines: int) -> float:
    return keys_cost(False, pressure_lines) - keys_cost(True, pressure_lines)


BURSTS = (1, 4, 8, 32, 128, 256)
BURST_PACKETS = 6_000


@cache
def burst_point(batch: int) -> tuple[Measurement, int]:
    """L2 over 100 MACs, 200 flows, through ``process_burst``; and how
    many full bursts of ``batch`` the switch saw."""
    macs = l2.build(100)[1]
    sw = ESwitch.from_pipeline(l2.build(100)[0])
    m = measure(sw, l2.traffic(macs, 200), n_packets=BURST_PACKETS, warmup=1_000,
                batch_size=batch)
    return m, sw.burst_stats.histogram[batch]


# --------------------------------------------------- Fig. 3, Figs. 5/6

def megaflows(ports) -> MegaflowCache:
    table = FlowTable(0)
    table.add(FlowEntry(Match(tcp_dst=255), priority=10, actions=[]))
    table.add(FlowEntry(Match(), priority=0, actions=[Output(3)]))
    pipeline, megaflow = Pipeline([table]), MegaflowCache()
    for port in ports:
        pkt = PacketBuilder(in_port=1).eth().ipv4().tcp(dst_port=port).build()
        key = extract_key(parse(pkt))
        if megaflow.lookup(key)[0] is None:
            verdict = pipeline.process(pkt.copy(), trace=True)
            megaflow.insert(build_megaflow(verdict, key, WildcardMode.BIT_TRACKING))
    return megaflow


SEQ_1 = (190, 189, 187, 183, 175, 159, 191)
SEQ_2 = (191, 190, 189, 187, 183, 175, 159)


def seq1_one_bit_masks() -> int:
    """Distinct one-bit tcp_dst masks in positions 2..8 (bits 0..6)."""
    masks = {m for e in megaflows(SEQ_1).entries() for f, m in e.sig if f == "tcp_dst"}
    return len(masks & {1 << i for i in range(7)})


def seq1_tcp_masks() -> int:
    return sum(f == "tcp_dst" for e in megaflows(SEQ_1).entries() for f, _m in e.sig)


def fig5_table() -> FlowTable:
    """Fig. 5a's values are not in the paper; this three-column table has
    the same behaviour: greedy emits 4 tables, ipv4_dst first emits 9."""
    t = FlowTable(0)
    for prio, port, match in ((3, 1, dict(ipv4_dst=0x0A000002, ipv4_src=0x0B000002, tcp_dst=80)),
                              (2, 2, dict(ipv4_dst=0x0A000001, ipv4_src=0x0B000002, tcp_dst=80)),
                              (1, 3, dict(ipv4_src=0x0B000001, tcp_dst=21))):
        t.add(FlowEntry(Match(**match), priority=prio, actions=[Output(port)]))
    return t


@cache
def fig5_tables(force: str | None) -> list[FlowTable]:
    return decompose_table(fig5_table(), 100, force_first_column=force)


def fast_tables(tables: list[FlowTable]) -> int:
    """Tables that land a rung other than the linked list."""
    return sum(select_template(t) is not TemplateKind.LINKED_LIST for t in tables)


def fig5_probes() -> list:
    """200 TCP packets over both rules' addresses and ports, and misses."""
    rng = random.Random(1)
    return [PacketBuilder(in_port=1).eth()
            .ipv4(src=rng.choice([0x0B000001, 0x0B000002, 0x0B000009]),
                  dst=rng.choice([0x0A000001, 0x0A000002, 0x0A000009]))
            .tcp(dst_port=rng.choice([80, 21, 443])).build() for _ in range(200)]


def agreeing(table: FlowTable, tables: list[FlowTable], probes: list) -> int:
    """Probes on which the decomposed pipeline's verdict equals the
    original table's."""
    original, decomposed = Pipeline([table]), Pipeline(tables)
    return sum(original.process(p.copy()).summary() == decomposed.process(p.copy()).summary()
               for p in probes)


# ------------------------------------------------------------- Sec. 3.2

PAPER_TABLES = {72: 50, 369: 197}


def specific_first(table: FlowTable) -> FlowTable:
    """The same rules, duplicate-free and most specific first: all live."""
    distinct: dict = {}
    for entry in table:
        distinct.setdefault(entry.match, entry)
    ordered = sorted(distinct.values(), key=lambda e: -len(e.match.fields))
    out = FlowTable(table.table_id, name=table.name, miss_policy=table.miss_policy)
    for i, entry in enumerate(ordered):
        out.add(FlowEntry(entry.match, priority=len(ordered) - i,
                          instructions=entry.instructions))
    return out


@cache
def acl_census(n_rules: int, ordering: str) -> dict:
    raw = acl.generate(n_rules)
    table = specific_first(raw) if ordering == "specific-first" else raw
    plain = decompose_table(table, 1000)
    return {
        "table": table,
        "tables": plain,
        "rules": len(table),
        "distinct": len({e.match for e in table}),
        "live": len({id(e.origin) for t in plain for e in t if e.origin is not None}),
        "shared": len(decompose_table(table, 1000, dedup=True)),
    }


def census(n_rules: int, ordering: str, fact: str) -> Callable[[], Any]:
    return lambda: acl_census(n_rules, ordering)[fact]


# ----------------------------------------------------------------- rows

def rows() -> list[Row]:
    out: list[Row] = []

    def row(*args, **kw):
        out.append(Row(*args, **kw))

    q = ("The flow table (a) yields 7 megaflow cache entries when the TCP destination "
         "port arrivals are as of seq 1 ... if destination port 191 arrives first as of "
         "seq 2 then only a single entry arises")
    row("fig03.seq1-seven-megaflows", q, lambda: len(megaflows(SEQ_1)), "==", 7)
    row("fig03.seq2-one-megaflow", q, lambda: len(megaflows(SEQ_2)), "==", 1)
    row("fig03.seq1-one-mask-per-megaflow", q, seq1_tcp_masks, "==", 7)
    row("fig03.seq1-pins-each-bit-2-to-8", q, seq1_one_bit_masks, "==", 7)

    q = ("decomposing along ip_dst eventually yields 9 tables, while the greedy "
         "minimal-diversity choice terminates with only 4")
    row("fig05.greedy-four-tables", q, lambda: len(fig5_tables(None)), "==", 4)
    row("fig05.ip-first-nine-tables", q, lambda: len(fig5_tables("ipv4_dst")), "==", 9)
    row("fig05.greedy-tables-template-friendly", q,
        lambda: fast_tables(fig5_tables(None)), "==", lambda: len(fig5_tables(None)))
    for force, name in ((None, "greedy"), ("ipv4_dst", "ip-first")):
        row(f"fig05.{name}-equivalent", q,
            lambda f=force: agreeing(fig5_table(), fig5_tables(f), fig5_probes()), "==", 200)

    q = ("Until about 4 entries the direct code template is the most efficient choice, "
         "but from that point the hash template becomes faster")
    hashes = lambda: [fig9_cost(TemplateKind.HASH, n) for n in range(1, 10)]  # noqa: E731
    row("fig09.hash-flat", q, lambda: max(hashes()) - min(hashes()), "<", 2.0)
    for n in range(1, 10):
        direct = lambda n=n: fig9_cost(TemplateKind.DIRECT, n)  # noqa: E731
        hash_ = lambda n=n: fig9_cost(TemplateKind.HASH, n)  # noqa: E731
        if n <= 4:
            row(f"fig09.direct-wins.entries-{n}", q, direct, "<=", hash_)
        if n >= 6:
            row(f"fig09.hash-wins.entries-{n}", q, hash_, "<", direct)
        row(f"fig09.linked-list-slower-than-direct.entries-{n}",
            "the linked list is consistently slower than the direct code",
            lambda n=n: fig9_cost(TemplateKind.LINKED_LIST, n), ">", direct)

    quote = ("ESWITCH 12-14 Mpps, robust against table size and flow count; OVS: major "
             "performance drops at as few as 10 active flows, ... for 100 flows the packet "
             "rate essentially halves")
    for fig, axis, point, what in (("fig10", L2_MACS, l2_point, "macs"),
                                   ("fig11", L3_PREFIXES, l3_point, "prefixes"),
                                   ("fig12", LB_SERVICES, lb_point, "services")):
        for size in axis:
            es = lambda s=size, p=point: [p(s, n)[0].mpps for n in FLOWS]  # noqa: E731
            tag = f"{what}-{size}"
            row(f"{fig}.es-flat.{tag}", quote,
                lambda es=es: min(es()), ">", lambda es=es: max(es()) / 2.5)
            if fig != "fig12":
                row(f"{fig}.es-above-10mpps-one-flow.{tag}", quote,
                    lambda s=size, p=point: p(s, 1)[0].mpps, ">", 10)
            for n in FLOWS:
                row(f"{fig}.es-at-least-ovs.{tag}.flows-{n}", quote,
                    lambda s=size, p=point, n=n: p(s, n)[0].mpps, ">=",
                    lambda s=size, p=point, n=n: p(s, n)[1].mpps * 0.95)
            row(f"{fig}.ovs-collapses-past-emc.{tag}", quote,
                lambda s=size, p=point: p(s, FLOWS[-1])[1].mpps, "<",
                lambda s=size, p=point: p(s, 1)[1].mpps / 2)
    row("fig12.decomposition-doubles-rate.services-100",
        "the single-table policy stays fast on ESWITCH thanks to automatic decomposition",
        lambda: lb_undecomposed(100, 1_000).mpps, "<",
        lambda: lb_point(100, 1_000)[0].mpps / 2)

    lb_pps, ub_pps = gateway_model().bounds()
    q = ("OVS drops hundredfold to a mere 90K packets per second at 1M flows ... "
         "ESWITCH robustly delivers over 9 Mpps")
    row("fig13.es-above-6mpps", q, lambda: min(gw_es("mpps")), ">", 6.0)
    row("fig13.es-under-model-ub", q, lambda: max(gw_es("mpps")), "<=", ub_pps / 1e6 * 1.05)
    row("fig13.es-over-model-lb", q, lambda: min(gw_es("mpps")), ">=", lb_pps / 1e6 * 0.75)
    row("fig13.ovs-collapses-30x", q,
        lambda: gw_ovs("mpps")[-1], "<", lambda: gw_ovs("mpps")[0] / 30)
    row("fig13.ovs-in-upcall-regime", q, lambda: gw_ovs("mpps")[-1], "<", 0.3)
    row("fig13.es-over-ovs-50x", q,
        lambda: gw_es("mpps")[-1] / gw_ovs("mpps")[-1], ">", 50)

    q = ("as the active flow set grows packet processing gradually shifts from the very "
         "fast microflow cache to the slower megaflow cache and finally to the vswitchd "
         "slow path")
    row("fig14.microflow-one-flow", q, gw_level(1, "microflow"), ">", 0.95)
    row("fig14.microflow-100-flows", q, gw_level(100, "microflow"), ">", 0.9)
    row("fig14.megaflow-grows-10k", q, gw_level(10_000, "megaflow"), ">",
        gw_level(1, "megaflow"))
    row("fig14.microflow-spills-10k", q, gw_level(10_000, "microflow"), "<", 0.5)
    row("fig14.slow-path-100k", q, gw_level(100_000, "vswitchd"), ">", 0.9)
    for a, b in zip(GW_FLOWS, GW_FLOWS[1:]):
        row(f"fig14.microflow-non-increasing.flows-{a}-{b}", q, gw_level(a, "microflow"),
            ">=", lambda b=b: gateway_point(b)[2]["microflow"] - 0.02)

    q = ("ESWITCH performs very few last-level CPU cache misses (roughly one for every "
         "10th packet) while OVS makes excess out-of-cache memory references")
    llc = "llc_misses_per_packet"
    row("fig15.es-under-one-miss", q, lambda: max(gw_es(llc)), "<", 1.0)
    row("fig15.es-near-zero-one-flow", q, lambda: gw_es(llc)[0], "<", 0.05)
    row("fig15.ovs-over-two-misses-100k", q, lambda: gw_ovs(llc)[-1], ">", 2.0)
    row("fig15.ovs-5x-es-100k", q, lambda: gw_ovs(llc)[-1], ">", lambda: gw_es(llc)[-1] * 5)
    row("fig15.ovs-cache-resident-one-flow", q, lambda: gw_ovs(llc)[0], "<", 0.1)

    best, worst = gateway_model().cycle_bounds()
    q = ("For ESWITCH, we get about 0.1 usec packet processing time independently of the "
         "active flow set, while latency for OVS varies between 0.2-13 usec")
    cyc = "cycles_per_packet"
    row("fig16.es-under-model-worst", q, lambda: max(gw_es(cyc)), "<", worst * 1.35)
    row("fig16.es-over-model-best", q, lambda: min(gw_es(cyc)), ">", best * 0.9)
    row("fig16.es-spread-under-2x", q, lambda: max(gw_es(cyc)) / min(gw_es(cyc)), "<", 2.0)
    row("fig16.ovs-spread-over-20x", q, lambda: max(gw_ovs(cyc)) / min(gw_ovs(cyc)), ">", 20)
    row("fig16.ovs-over-10k-cycles", q, lambda: max(gw_ovs(cyc)), ">", 10_000)

    q = ("it takes just one fifth the time for ESWITCH to set up the use case than for OVS, "
         "when using the CLI tool. With the controller the two perform similarly")
    for channel, lo, hi in (("CLI", 3, 10), ("ctrl", 0.5, 2)):
        ratio = lambda c=channel: (setup_seconds("OVS", c, 2_000)  # noqa: E731
                                   / setup_seconds("ES", c, 2_000))
        row(f"fig17.ovs-over-es-{channel}.above-{lo}", q, ratio, ">", lo)
        row(f"fig17.ovs-over-es-{channel}.below-{hi}", q, ratio, "<", hi)
    for switch, channel in itertools.product(("ES", "OVS"), ("CLI", "ctrl")):
        double = lambda s=switch, c=channel: (setup_seconds(s, c, 2_000)  # noqa: E731
                                              / setup_seconds(s, c, 1_000))
        row(f"fig17.linear.{switch}-{channel}.above-1.5", "Both switches scale linearly",
            double, ">", 1.5)
        row(f"fig17.linear.{switch}-{channel}.below-2.6", "Both switches scale linearly",
            double, "<", 2.6)

    q = ("ESWITCH churns out 95% of its nominal packet rate when the last level IP routing "
         "table ... is updated 100 times per second and even at 100K update/sec intensity "
         "it maintains 80%; contrarily, OVS throughput falls by more than 65% even for "
         "100 updates/sec")
    row("fig18.es-95pct-at-100", q, lambda: normed_under_load("ES", 100), ">", 0.93)
    row("fig18.es-80pct-at-100k.above-0.60", q,
        lambda: normed_under_load("ES", 100_000), ">", 0.60)
    row("fig18.es-80pct-at-100k.below-0.95", q,
        lambda: normed_under_load("ES", 100_000), "<", 0.95)
    row("fig18.ovs-cliff-at-100", q, lambda: normed_under_load("OVS", 100), "<", 0.50)
    row("fig18.ovs-no-recovery-at-1k", q, lambda: normed_under_load("OVS", 1_000), "<",
        lambda: normed_under_load("OVS", 100) * 1.2)

    q = ("Both OVS and ESWITCH show strong linear CPU scaling ... but ESWITCH consistently "
         "outperforms OVS roughly 5-fold and the gap increases with more flows")
    for n in (100, 10_000):
        for switch, lo in (("ES", 3.2), ("OVS", 2.8)):
            scale = lambda s=switch, n=n: (multicore_mpps(s, n, 5)  # noqa: E731
                                           / multicore_mpps(s, n, 1))
            row(f"fig19.{switch}-linear.flows-{n}.above-{lo}", q, scale, ">", lo)
            row(f"fig19.{switch}-linear.flows-{n}.below-5.5", q, scale, "<", 5.5)
        for cores in CORES:
            row(f"fig19.es-leads.flows-{n}.cores-{cores}", q,
                lambda n=n, c=cores: multicore_mpps("ES", n, c), ">",
                lambda n=n, c=cores: multicore_mpps("OVS", n, c))
    row("fig19.gap-grows-with-flows", q, lambda: fig19_gap(10_000), ">", lambda: fig19_gap(100))
    row("fig19.gap-over-2.2", q, lambda: fig19_gap(10_000), ">", 2.2)

    model, bounds = gateway_model(), gateway_paper_bounds()
    q = "166 + 3*Lx cycles/packet: 178 cycles / 11.2 Mpps, 202 / 9.9, 253 / 7.9"
    for level, cycles in ((1, 178), (2, 202), (3, 253)):
        row(f"fig20.model-cycles-L{level}", q, model.cycles(level), "==", cycles, tol=1e-6)
    for key, pps in (("pps_ub", 11.2e6), ("pps_mid", 9.9e6), ("pps_lb", 7.9e6)):
        row(f"fig20.model-{key}", q, bounds[key], "==", pps, tol=0.01)
    q = "these bounds turn out to provide surprisingly useful performance hints"
    es_1k = lambda: gateway_point(1_000)[0].cycles_per_packet  # noqa: E731
    row("fig20.gateway-1k-over-model-ub", q, es_1k, ">=", model.cycles(1) * 0.95)
    row("fig20.gateway-1k-under-model-lb", q, es_1k, "<=", model.cycles(3) * 1.1)

    q = ("The maximum single-core packet rate attainable with DPDK on this platform is "
         "15.7 million packets per second")
    row("sec42.l2fwd-ceiling", q, l2fwd_rate_pps(), "==", 15.7e6, tol=0.005)
    row("sec42.l2fwd-metered", q, l2fwd_metered_pps, "==", l2fwd_rate_pps(), tol=0.001)

    q = "OVS ... extensive batching; the DPDK substrate's batch processing"
    for batch in BURSTS:
        row(f"sec42.burst-count.burst-{batch}", q,
            lambda b=batch: burst_point(b)[0].extra["burst"]["bursts"], "==",
            -(-BURST_PACKETS // batch))
        row(f"sec42.full-bursts.burst-{batch}", q, lambda b=batch: burst_point(b)[1], ">=",
            BURST_PACKETS // batch)
    for a, b in zip(BURSTS, BURSTS[1:]):
        row(f"sec42.bigger-burst-no-slower.burst-{a}-{b}", q,
            lambda a=a: burst_point(a)[0].pps, "<=", lambda b=b: burst_point(b)[0].pps * 1.001)
    row("sec42.unbatched-crippling", q, lambda: burst_point(1)[0].pps, "<",
        lambda: burst_point(32)[0].pps * 0.45)
    row("sec42.diminishing-past-32", q, lambda: burst_point(256)[0].pps, "<",
        lambda: burst_point(32)[0].pps * 1.15)

    q = "we fixed the fallback constant for the direct code template at 4"
    row("sec43.threshold-4-near-optimal", q, lambda: threshold_cost(4), "<=",
        lambda: min(threshold_cost(t) for t in THRESHOLDS) + 1.0)
    row("sec43.all-hash-worse", q, lambda: threshold_cost(0), ">", lambda: threshold_cost(4))
    row("sec43.all-direct-worse", q, lambda: threshold_cost(8), ">", lambda: threshold_cost(4))
    for threshold, kind in ((8, TemplateKind.DIRECT), (4, TemplateKind.HASH)):
        row(f"sec43.six-entries-at-threshold-{threshold}", q,
            lambda t=threshold: compile_table(mac_table(6), CompileConfig(direct_threshold=t))
            .kind.value, "==", kind.value)

    q = ("compiling match keys right into the code directs some of this load to the CPU "
         "instruction caches, which gives greater locality ... and hence faster processing")
    for pressure in (0, 128, 768):
        row(f"sec33.keys-in-code-never-loses.pressure-{pressure}", q,
            lambda p=pressure: keys_delta(p), ">=", 0)
    row("sec33.keys-in-code-gain-grows", q, lambda: keys_delta(768), ">",
        lambda: keys_delta(0))

    q = ("with the active 72 rules we obtained only 50 separate tables in the "
         "decomposition, while adding obsolete rules resulted in 197 tables on an input "
         "of 369 ACLs")
    for n_rules, paper in PAPER_TABLES.items():
        for ordering in ("specific-first", "as-generated"):
            tag = f"{ordering}.rules-{n_rules}"
            tables = census(n_rules, ordering, "tables")
            row(f"sec32.equivalent.{tag}", q,
                lambda n=n_rules, o=ordering: agreeing(
                    acl_census(n, o)["table"], acl_census(n, o)["tables"],
                    [sts.random_packet(rng) for rng in [random.Random(9)] for _ in range(300)]),
                "==", 300)
            row(f"sec32.no-linked-list.{tag}", q, lambda t=tables: fast_tables(t()), "==",
                lambda t=tables: len(t()))
        live = "specific-first"
        row(f"sec32.all-live.rules-{n_rules}", q, census(n_rules, live, "live"), "==",
            census(n_rules, live, "distinct"))
        row(f"sec32.duplicate-free.rules-{n_rules}", q, census(n_rules, live, "distinct"),
            "==", census(n_rules, live, "rules"))
        row(f"sec32.tables-in-regime.rules-{n_rules}.above", q,
            census(n_rules, live, "shared"), ">=", 0.4 * paper)
        row(f"sec32.tables-in-regime.rules-{n_rules}.below", q,
            census(n_rules, live, "shared"), "<=", 1.6 * paper)
    row("sec32.switch-decomposes-acl", q,
        lambda: ESwitch.from_pipeline(Pipeline([acl.generate(72)]))
        .table_kinds()[0].split("[")[0], "==", "decomposed")
    return out


def l2fwd_metered_pps() -> float:
    meter = CycleMeter(XEON_E5_2620)
    pkt = PacketBuilder(in_port=0).eth().build()
    for _ in range(1000):
        meter.begin_packet()
        l2fwd(pkt, meter)
        meter.end_packet()
    return XEON_E5_2620.freq_hz / meter.mean_cycles_per_packet


ROWS = rows()


def test_row_ids_are_unique():
    assert len({r.id for r in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[r.id for r in ROWS])
def test_paper_figure(row: Row):
    lhs, rhs = _read(row.lhs), _read(row.rhs)
    if row.op == "==":
        holds = math.isclose(lhs, rhs, rel_tol=row.tol) if row.tol else lhs == rhs
    else:
        holds = OPS[row.op](lhs, rhs)
    assert holds, f"{row.id}: {row.quote!r}: {lhs!r} {row.op} {rhs!r} does not hold"
