"""The ``repro`` command line: inspect, compile, run, and model pipelines.

Usage (also via ``python -m repro``)::

    repro show     pipeline.json
    repro compile  pipeline.json [--no-decompose] [--sources]
    repro run      pipeline.json --pkt in_port=1,ipv4_dst=192.0.2.1,tcp_dst=80 ...
    repro model    pipeline.json
    repro bench    pipeline.json [--flows N] [--packets M] [--seed S] [--burst B]
    repro fuzz     --seed N [--count K] [--minimize] [--out FILE]
    repro fuzz     --replay tests/fuzz_corpus/case.json

``run`` drives the packet through all three datapaths (ESWITCH, the OVS
baseline, and the reference interpreter) and reports disagreement loudly —
the command-line version of the repo's differential testing. ``fuzz`` is
the heavy-calibre version: seeded random pipelines and traffic through
the full backend matrix (listed in :mod:`repro.fuzz.diff`), with
deterministic replay and failure minimization.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.core import CompileConfig, ESwitch
from repro.core.autoderive import derive_model
from repro.openflow import serialize
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline
from repro.ovs import OvsSwitch
from repro.packet import headers as hdr
from repro.packet.builder import PacketBuilder
from repro.packet.packet import Packet
from repro.simcpu.platform import XEON_E5_2620
from repro.traffic import FlowSet, measure


def _load(path: str) -> Pipeline:
    try:
        return serialize.load(path)
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except serialize.SerializationError as exc:
        raise SystemExit(f"error: {exc}")


def _config(args: argparse.Namespace) -> CompileConfig:
    return CompileConfig(decompose=not getattr(args, "no_decompose", False))


def cmd_show(args: argparse.Namespace) -> int:
    pipeline = _load(args.pipeline)
    for table in pipeline:
        print(f"table {table.table_id} ({table.name}), miss={table.miss_policy.value}:")
        for entry in table:
            print(f"  prio={entry.priority:<5} {entry.match!r}")
            for instr in entry.instructions:
                print(f"      {instr!r}")
    print(f"\n{len(pipeline)} tables, {pipeline.total_entries()} entries, "
          f"fields: {', '.join(pipeline.matched_fields()) or '(none)'}")
    return 0


def _link_summary(how: list[str]) -> str:
    """``inlined`` / ``called`` for one compiled table, counts of each for
    a decomposed group, ``trampoline`` when no driver stands."""
    if len(how) <= 1:
        return how[0] if how else "trampoline"
    return ", ".join(f"{how.count(word)} {word}" for word in ("inlined", "called")
                     if word in how)


def cmd_compile(args: argparse.Namespace) -> int:
    pipeline = _load(args.pipeline)
    switch = ESwitch.from_pipeline(pipeline, config=_config(args))
    fused = switch.datapath.fused if switch.warm() else None
    # How the driver links each logical table's compiled tables in.
    links: dict[int, list[str]] = {}
    if fused is not None:
        for how, ids in (("inlined", fused.inlined_ids), ("called", fused.called_ids)):
            for cid in ids:
                links.setdefault(switch.logical_table_id(cid), []).append(how)
    print("template selection (logical table -> template; fused link):")
    for tid, kind in sorted(switch.table_kinds().items()):
        table = pipeline.table(tid)
        print(f"  table {tid:<4} -> {kind}  ({len(table)} rules / "
              f"{table.template_count} action templates; "
              f"{_link_summary(links.get(tid, []))})")
    print(f"compiled tables: {switch.compiled_table_count}, "
          f"parser depth: L2–L{switch.datapath.parser_layer}, "
          f"fused: {'yes' if fused else 'no'}")
    health = switch.health()
    shared = health.templates
    print(f"templates (process-wide): {shared['templates']} resident, "
          f"{shared['bytes']} bytes")
    for name in ("compile_calls", "compile_s", "template_hits", "patches"):
        print(f"  core.codegen.{name} = {shared[name]:.6g}")
    for label, calls in sorted(shared["compiles_by_label"].items()):
        print(f"  core.codegen.compile_calls.{label} = {calls}")
    print(f"  core.fuse.link_s = {health.link_s:.6g}")
    if args.sources:
        for tid, source in switch.compiled_sources().items():
            print(f"\n--- compiled table {tid} "
                  f"({switch.compiled_table(tid).kind.value}) ---")
            print(source, end="")
    return 0


#: The OXM fields a packet spec may name, by the builder method that
#: writes their header, mapped to that method's keyword argument.
_SPEC_HEADERS = {
    "eth": {"eth_src": "src", "eth_dst": "dst", "eth_type": "ethertype"},
    "vlan": {"vlan_vid": "vid", "vlan_pcp": "pcp"},
    "arp": {"arp_op": "op", "arp_sha": "sha", "arp_spa": "spa", "arp_tha": "tha",
            "arp_tpa": "tpa"},
    "ipv4": {"ipv4_src": "src", "ipv4_dst": "dst", "ip_dscp": "dscp", "ip_ecn": "ecn"},
    "ipv6": {"ipv6_src": "src", "ipv6_dst": "dst", "ipv6_flabel": "flow_label"},
    "tcp": {"tcp_src": "src_port", "tcp_dst": "dst_port"},
    "udp": {"udp_src": "src_port", "udp_dst": "dst_port"},
    "icmp": {"icmpv4_type": "type", "icmpv4_code": "code"},
    "icmpv6": {"icmpv6_type": "type", "icmpv6_code": "code"},
}
_L3_OF_ETH_TYPE = {hdr.ETH_TYPE_ARP: "arp", hdr.ETH_TYPE_IPV6: "ipv6",
                   hdr.ETH_TYPE_IPV4: "ipv4"}
_L4_OF_IP_PROTO = {hdr.IP_PROTO_TCP: "tcp", hdr.IP_PROTO_UDP: "udp",
                   hdr.IP_PROTO_ICMP: "icmp", hdr.IP_PROTO_ICMPV6: "icmpv6"}


def parse_packet_spec(spec: str) -> Packet:
    """``field=value,field=value`` packet spec -> Packet.

    Keys are OXM field names, and a value reads as it does in
    ``Match(...)`` and pipeline documents: an integer, a MAC, a dotted
    quad, or IPv6 text. The keys decide the headers (``ip_proto`` and
    ``eth_type`` may name them outright): a ``vlan_*`` key adds a tag, an
    ``arp_*`` key makes an ARP frame, an ``ipv6_*`` or ``icmpv6_*`` key an
    IPv6 one, any other IP or L4 key an IPv4 one, and an IP frame carries
    TCP unless its keys name UDP or ICMP. A field left out takes
    :class:`PacketBuilder`'s default.
    """
    values: dict[str, int] = {}
    for part in spec.split(","):
        if not part:
            continue
        key, _, text = part.partition("=")
        key, text = key.strip(), text.strip()
        if not text:
            raise SystemExit(f"error: malformed packet spec item {part!r}")
        try:
            values[key] = Match(**{key: text}).value_of(key)
        except KeyError:
            raise SystemExit(f"error: unknown packet spec key {key!r} "
                             "(keys are OXM field names)") from None
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"error: bad packet spec item {part!r}: {exc}") from None

    def named(header: str) -> bool:
        return any(key in values for key in _SPEC_HEADERS[header])

    def take(header: str) -> dict:
        return {arg: values.pop(key) for key, arg in _SPEC_HEADERS[header].items()
                if key in values}

    proto = values.get("ip_proto")
    if proto is not None and proto not in _L4_OF_IP_PROTO:
        raise SystemExit(f"error: the packet builder writes no header for ip_proto {proto}")
    l4 = _L4_OF_IP_PROTO.get(proto) or next(
        (h for h in ("tcp", "udp", "icmp", "icmpv6") if named(h)), None)
    l3 = next((h for h in ("arp", "ipv6") if named(h)), None) or _L3_OF_ETH_TYPE.get(
        values.get("eth_type"))
    if l3 is None and (l4 or named("ipv4")):
        l3 = "ipv6" if l4 == "icmpv6" else "ipv4"
    if l3 is not None and "eth_type" in values and _L3_OF_ETH_TYPE.get(values["eth_type"]) != l3:
        raise SystemExit(f"error: eth_type {values['eth_type']:#06x} does not carry {l3}")

    builder = PacketBuilder(in_port=values.pop("in_port", 0))
    builder.eth(**take("eth"))
    if named("vlan"):
        builder.vlan(**{"vid": 0, **take("vlan")})
    if l3 == "ipv6":
        traffic_class = values.pop("ip_dscp", 0) << 2 | values.pop("ip_ecn", 0)
        builder.ipv6(traffic_class=traffic_class, **take("ipv6"))
    elif l3 is not None:
        getattr(builder, l3)(**take(l3))
    if l3 in ("ipv4", "ipv6"):
        values.pop("ip_proto", None)
        getattr(builder, l4 or "tcp")(**take(l4 or "tcp"))
    try:
        pkt = builder.build()
    except ValueError as exc:  # ICMPv4 after IPv6
        raise SystemExit(f"error: {exc}") from None
    pkt.metadata, pkt.tunnel_id = values.pop("metadata", 0), values.pop("tunnel_id", 0)
    if values:
        raise SystemExit(f"error: a packet built from this spec has no header for "
                         f"{', '.join(values)}")
    return pkt


def cmd_run(args: argparse.Namespace) -> int:
    pipeline_es = _load(args.pipeline)
    es = ESwitch.from_pipeline(pipeline_es, config=_config(args))
    ovs = OvsSwitch(_load(args.pipeline))
    reference = _load(args.pipeline)

    disagreements = 0
    for spec in args.pkt:
        pkt = parse_packet_spec(spec)
        v_es = es.process(pkt.copy())
        v_ovs = ovs.process(pkt.copy())
        v_ref = reference.process(pkt.copy())
        agree = v_es.summary() == v_ovs.summary() == v_ref.summary()
        marker = "" if agree else "  << DISAGREE"
        print(f"{spec}")
        print(f"  eswitch:   {v_es!r}")
        print(f"  ovs:       {v_ovs!r}")
        print(f"  reference: {v_ref!r}{marker}")
        if not agree:
            disagreements += 1
    return 1 if disagreements else 0


def cmd_model(args: argparse.Namespace) -> int:
    pipeline = _load(args.pipeline)
    switch = ESwitch.from_pipeline(pipeline, config=_config(args))
    model = derive_model(switch)
    print("auto-derived performance model (longest table path):")
    for name, cycles, comment in model.rundown():
        print(f"  {name:24} {cycles:12}  {comment}")
    lo, hi = model.cycle_bounds()
    lb, ub = model.bounds()
    print(f"\ncycles/packet: {lo:.0f} (all-L1) … {hi:.0f} (all-L3)")
    print(f"packet rate:   {ub / 1e6:.1f} Mpps (model-ub) … "
          f"{lb / 1e6:.1f} Mpps (model-lb)  [{XEON_E5_2620.name}]")
    return 0


def parse_flow_count(spec: str) -> int:
    """``--flows 1e6`` / ``1_000_000`` / ``1000`` -> int, validated."""
    try:
        count = int(spec)
    except ValueError:
        try:
            as_float = float(spec)
        except ValueError:
            raise SystemExit(f"error: malformed --flows value {spec!r}")
        count = int(as_float)
        if count != as_float:
            raise SystemExit(f"error: --flows must be a whole number, got {spec!r}")
    if count < 1:
        raise SystemExit(f"error: --flows must be positive, got {spec!r}")
    return count


def cmd_bench(args: argparse.Namespace) -> int:
    args.flows = parse_flow_count(args.flows)
    if args.burst < 0:
        raise SystemExit(f"error: --burst must be >= 0, got {args.burst}")
    rng = random.Random(args.seed)
    pipeline = _load(args.pipeline)
    fields = pipeline.matched_fields()

    def factory(i: int, _rng) -> Packet:
        builder = PacketBuilder(in_port=rng.choice([1, 2, 3]))
        builder.eth(src=rng.getrandbits(46) * 4 + 2, dst=rng.getrandbits(46) * 4 + 2)
        builder.ipv4(src=rng.getrandbits(32), dst=rng.getrandbits(32))
        if rng.random() < 0.7:
            builder.tcp(src_port=rng.randrange(1024, 65000),
                        dst_port=rng.choice([80, 443, 22, rng.randrange(1, 65000)]))
        else:
            builder.udp(src_port=rng.randrange(1024, 65000), dst_port=53)
        return builder.build()

    flows = FlowSet.build(args.flows, factory, seed=args.seed)
    print(f"pipeline: {len(pipeline)} tables, {pipeline.total_entries()} entries, "
          f"matched fields: {', '.join(fields) or '(none)'}")
    workload = f"workload: {args.flows} random flows, {args.packets} packets"
    if args.burst:
        workload += f", IO burst {args.burst}"
    print(workload + "\n")
    for name, switch in (
        ("ESWITCH", ESwitch.from_pipeline(_load(args.pipeline), config=_config(args))),
        ("OVS", OvsSwitch(_load(args.pipeline))),
    ):
        m = measure(switch, flows, n_packets=args.packets,
                    warmup=min(args.flows + 500, args.packets),
                    batch_size=args.burst or None)
        line = (f"{name:8} {m.mpps:8.2f} Mpps   {m.cycles_per_packet:8.0f} cyc/pkt   "
                f"LLC {m.llc_misses_per_packet:.2f}/pkt   "
                f"fwd/drop/ctrl {m.forwarded}/{m.dropped}/{m.to_controller}")
        burst = m.extra.get("burst")
        if burst:
            line += (f"   bursts {burst['bursts']} "
                     f"(mean {burst['mean_burst_size']:.1f} pkts, "
                     f"{burst['cycles_per_burst']:.0f} cyc/burst)")
        print(line)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: run seeds (or replay a pinned case)."""
    from repro.fuzz import Scenario, diverges, generate, minimize, run_scenario
    from repro.fuzz.shrink import size_of

    if args.replay:
        failures = 0
        for path in args.replay:
            try:
                scenario = Scenario.load(path)
            except (OSError, serialize.SerializationError) as exc:
                raise SystemExit(f"error: cannot load {path}: {exc}")
            divergences = run_scenario(scenario)
            label = scenario.name or path
            if divergences:
                failures += 1
                print(f"FAIL {label}: {len(divergences)} divergence(s)")
                for div in divergences:
                    print(f"  {div}")
            else:
                print(f"ok   {label}")
        return 1 if failures else 0

    first_failure = None
    for seed in range(args.seed, args.seed + args.count):
        scenario = generate(seed)
        divergences = run_scenario(scenario)
        if not divergences:
            print(f"ok   seed {seed}")
            continue
        print(f"FAIL seed {seed}: {len(divergences)} divergence(s)")
        for div in divergences:
            print(f"  {div}")
        obj = scenario.to_obj()
        if args.minimize:
            before = size_of(obj)
            obj = minimize(obj, diverges)
            print(f"  minimized {before} -> {size_of(obj)} bytes")
        if first_failure is None:
            first_failure = obj
        print("  ready-to-paste corpus entry (tests/fuzz_corpus/):")
        import json as _json

        print(_json.dumps(obj, indent=2))
        if args.fail_fast:
            break
    if first_failure is not None and args.out:
        import json as _json

        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(first_failure, fh, indent=2)
            fh.write("\n")
        print(f"wrote failing scenario to {args.out}")
    return 1 if first_failure is not None else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ESWITCH (SIGCOMM 2016) reproduction toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="pretty-print a pipeline document")
    p_show.add_argument("pipeline")
    p_show.set_defaults(fn=cmd_show)

    p_compile = sub.add_parser("compile", help="compile and report templates")
    p_compile.add_argument("pipeline")
    p_compile.add_argument("--no-decompose", action="store_true",
                           help="disable flow table decomposition")
    p_compile.add_argument("--sources", action="store_true",
                           help="print the generated fast-path code")
    p_compile.set_defaults(fn=cmd_compile)

    p_run = sub.add_parser("run", help="run packets through all datapaths")
    p_run.add_argument("pipeline")
    p_run.add_argument("--pkt", action="append", required=True,
                       metavar="field=v,field=v",
                       help="packet spec of OXM field=value pairs (repeatable)")
    p_run.add_argument("--no-decompose", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_model = sub.add_parser("model", help="auto-derive the performance model")
    p_model.add_argument("pipeline")
    p_model.add_argument("--no-decompose", action="store_true")
    p_model.set_defaults(fn=cmd_model)

    p_bench = sub.add_parser("bench", help="quick simulated measurement")
    p_bench.add_argument("pipeline")
    p_bench.add_argument("--flows", default="1000", metavar="N",
                         help="flow count; scientific notation accepted "
                              "(1e6 = a million flows)")
    p_bench.add_argument("--packets", type=int, default=10_000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--burst", type=int, default=0, metavar="B",
                         help="drive the datapaths in IO bursts of B packets "
                              "(0 = scalar calls at the calibration burst)")
    p_bench.add_argument("--no-decompose", action="store_true")
    p_bench.set_defaults(fn=cmd_bench)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing across the backend matrix"
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="first seed of the deterministic run")
    p_fuzz.add_argument("--count", type=int, default=1,
                        help="number of consecutive seeds to run")
    p_fuzz.add_argument("--minimize", action="store_true",
                        help="shrink each failure to a minimal scenario")
    p_fuzz.add_argument("--out", default=None, metavar="FILE",
                        help="write the first failing scenario JSON here "
                             "(after --minimize, if given)")
    p_fuzz.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing seed")
    p_fuzz.add_argument("--replay", nargs="+", default=None, metavar="FILE",
                        help="replay pinned scenario file(s) instead of "
                             "generating from seeds")
    p_fuzz.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
