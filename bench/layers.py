"""Per-layer numbers: spans above the fused driver, isolated calls below.

The fused driver is one compiled function, so from outside nothing can be
seen inside a burst. Above it (fabric, session, controller, the switch's
own entry points) the numbers are span self times from the traced leg.
Below it each hop is priced by an *isolated call* into the layer's public
function on the workload's own packets and keys: parse, ``CollisionFree
Hash.get``, ``Dir24_8Lpm.lookup``, the frame codec, a ring crossing.
Isolated timings include the Python call that reaches the function, and
like every other time they are at the reference clock (``clock.py``).

Which probe groups run is the workload's ``probes`` set; a layer the
workload never exercises reports nothing (and reads 0 in the driver line).
"""

from __future__ import annotations

from time import perf_counter

from repro.core.analysis import TemplateKind, select_template
from repro.core.codegen import compile_table
from repro.core.decompose import decomposable, decompose_table
from repro.core.eswitch import ESwitch
from repro.core.fuse import fuse_datapath
from repro.openflow.fields import field_by_name
from repro.ovs.switch import OvsSwitch
from repro.packet import parser
from repro.parallel import frames, wire
from repro.parallel.rings import Ring
from repro.parallel.rss import shard_of
from repro.simcpu.cache import CacheHierarchy
from repro.simcpu.platform import XEON_E5_2620

import clock
import stats
from tracing import self_times
from workloads import BURST, CTRL

#: passes over the items of one isolated probe; the median is reported.
REPEATS = 5
#: bursts driven through a comparison switch (trampoline, linked list, OVS).
DRIVE_BURSTS = 400
#: fresh rules used by the flow-mod probes.
PROBE_MODS = 32


class _HeapSegment:
    """A ring segment on the heap: same-process push/pop needs no shared
    memory, and the benchmark writes nothing outside its checkout."""

    name = "bench-heap"

    def __init__(self, size: int):
        self.buf = memoryview(bytearray(size))

    def close(self) -> None:
        self.buf.release()


def _largest(switches, attr: str):
    """The biggest hash or LPM store any of ``switches`` compiled."""
    stores = [
        getattr(ct, attr)
        for sw in switches for ct in sw.datapath.trampoline.values()
        if getattr(ct, attr) is not None
    ]
    return max(stores, key=len, default=None)


class Ledger:
    """Collects one traced run's per-layer metrics into ``out``."""

    def __init__(self, bench, null: dict, untraced: list, traced: list,
                 cycle, tracer):
        self.bench = bench
        self.null = null          # the untraced leg's end-to-end metrics
        self.untraced = untraced  # its windows
        self.traced = traced      # the traced leg's windows
        self.cycle = cycle        # (metrics, meters) of the cycle leg or None
        self.tracer = tracer
        #: clock factor of the traced leg, applied to every span total.
        self.traced_factor = stats.median([w.factor for w in traced])
        self.spans = self.span_times()
        self.sample = bench.sample_packets()
        self.out: dict = {}

    # -- timing helpers (every duration leaves here at the reference clock) --

    def span_times(self, by_tag: bool = False) -> dict:
        rows = self_times(self.tracer.spans, by_tag)
        for row in rows.values():
            row["total_s"] /= self.traced_factor
            row["self_s"] /= self.traced_factor
        return rows

    def seconds(self, fn) -> float:
        """Seconds of one isolated call."""
        return clock.timed(fn)[1]

    def per_item(self, fn, items, unit: str, scale: float) -> dict:
        """``fn(item)`` over ``items``, ``REPEATS`` passes; time per item."""
        return stats.summarize([
            self.seconds(lambda: [fn(item) for item in items])
            / len(items) * scale
            for _ in range(REPEATS)
        ], unit)

    def drive(self, switch, templates: list, bursts: int) -> float:
        """Round-robin bursts through ``switch``; us per packet."""
        ring = templates + templates[:BURST]
        n, spent = len(templates), 0.0
        for b in range(bursts):
            at = (b * BURST) % n
            chunk = [p.copy() for p in ring[at:at + BURST]]
            if b % BURST == 0:
                factor = clock.factor()
            t0 = perf_counter()
            switch.process_burst(chunk)
            spent += (perf_counter() - t0) / factor
        return spent / (bursts * BURST) * 1e6

    def span_mean_us(self, name: str, key: str = "self_s",
                     unit: str = "us") -> "dict | None":
        row = self.spans.get(name)
        if not row:
            return None
        return stats.exact(row[key] / row["calls"] * 1e6, unit,
                           calls=row["calls"])

    # -- probe groups ----------------------------------------------------------

    def packet(self) -> None:
        out, sample = self.out, self.sample
        out["packet.copy_us"] = self.per_item(
            lambda p: p.copy(), sample, "us/pkt", 1e6)
        for name, fn in (("l2", parser.parse_l2), ("l3", parser.parse_l3),
                         ("l4", parser.parse)):
            out[f"packet.parse_{name}_us"] = self.per_item(
                fn, sample, "us/pkt", 1e6)

    def compile_chain(self) -> None:
        """analysis -> decompose -> codegen on an independent pipeline, the
        steps ``ESwitch.__init__`` runs per table."""
        out, config = self.out, self.bench.config
        tables = list(self.bench.probe_pipeline())
        out["core.analysis.select_template_us"] = stats.summarize([
            self.seconds(lambda: [
                select_template(t.entries, config) for t in tables
            ]) / len(tables) * 1e6
            for _ in range(3)
        ], "us/table")

        decompose_s, tables_out, to_compile = 0.0, 0, []
        next_id = max(t.table_id for t in tables) + 1
        for table in tables:
            kind = select_template(table.entries, config)
            if (kind is TemplateKind.LINKED_LIST and config.decompose
                    and decomposable(table)):
                subs, spent = clock.timed(
                    lambda: decompose_table(table, next_id))
                decompose_s += spent
                tables_out += len(subs)
                next_id = max(s.table_id for s in subs) + 1
                to_compile.extend((s, None) for s in subs)
            else:
                to_compile.append((table, kind))
        out["core.decompose.decompose_s"] = stats.exact(decompose_s, "s")
        out["core.decompose.tables_out"] = stats.exact(tables_out, "count")

        compiled, spent = clock.timed(lambda: [
            compile_table(t, config, kind=kind) for t, kind in to_compile])
        out["core.codegen.compile_table_s"] = stats.exact(spent, "s")
        out["core.codegen.source_bytes"] = stats.exact(
            sum(len(ct.source) for ct in compiled), "bytes")

    def fuse(self) -> None:
        datapath = self.bench.switches()[0].datapath
        runs = [clock.timed(lambda: fuse_datapath(datapath))
                for _ in range(3)]
        self.out["core.fuse.fuse_s"] = stats.summarize(
            [spent for _f, spent in runs], "s")
        self.out["core.fuse.source_bytes"] = stats.exact(
            len(runs[0][0].source), "bytes")

    def counters(self) -> None:
        """What the switches under test counted, and the traced spans."""
        out, bench = self.out, self.bench
        switches = bench.switches()
        traced_packets = sum(w.packets for w in self.traced)
        if "fabric" in bench.workload.probes:
            # Every packet a leaf forwarded crossed a spine switch too.
            traced_packets += sum(w.served for w in self.traced)
        burst = self.spans["core.eswitch.process_burst"]
        out["core.eswitch.burst_us_per_pkt"] = stats.exact(
            burst["self_s"] / traced_packets * 1e6, "us/pkt",
            calls=burst["calls"])
        traced_pps = stats.median([w.pps() for w in self.traced])
        out["trace.overhead_share"] = stats.exact(
            1.0 - traced_pps / self.null["wall_pps"]["value"], "ratio")
        out["core.eswitch.to_controller_share"] = stats.exact(
            sum(w.tally[CTRL] for w in self.untraced)
            / sum(w.packets for w in self.untraced), "ratio")
        out["core.eswitch.footprint_bytes"] = stats.exact(
            sum(sw.health().footprint_bytes for sw in switches), "bytes")
        for counter in ("incremental", "rebuilds", "kind_stable_skips"):
            out[f"core.update.{counter}"] = stats.exact(
                sum(getattr(sw.update_stats, counter) for sw in switches),
                "count")
        out["core.eswitch.generations"] = stats.exact(
            sum(sw.datapath.generation for sw in switches), "count")
        tables = [t for sw in switches for t in sw.pipeline]
        out["openflow.flow_table.tombstones"] = stats.exact(
            sum(t.tombstones for t in tables), "count")
        out["openflow.flow_table.compactions"] = stats.exact(
            sum(t.compactions for t in tables), "count")
        out["host.clock_factor"] = stats.summarize(
            [w.factor for w in self.untraced + self.traced], "ratio")

    def hash(self) -> None:
        bench = self.bench
        store = _largest(bench.switches(), "hash_store")
        if store is None:
            return
        keys = list(store)
        keys = keys[::max(1, len(keys) // 4096)]
        self.out["dpdk.hash.get_ns"] = self.per_item(store.get, keys, "ns", 1e9)
        now = bench.hash_telemetry()
        for counter in ("bucket_reseeds", "rebuild_count"):
            self.out[f"dpdk.hash.{counter}"] = stats.exact(
                now[counter] - bench.hash_baseline.get(counter, 0), "count")

    def lpm(self) -> None:
        bench = self.bench
        store = _largest(bench.switches(), "lpm_store")
        if store is None:
            return
        dst_of = field_by_name("ipv4_dst").extract
        ips = [ip for ip in (dst_of(parser.parse(p)) for p in self.sample)
               if ip is not None]
        self.out["dpdk.lpm.lookup_ns"] = self.per_item(
            store.lookup, ips, "ns", 1e9)
        spare = _largest([bench.disposable()], "lpm_store")
        # 198.18.0.0/15 is the benchmarking range the FIB generator never
        # hands out at /24; every add is undone.
        prefixes = [(198 << 24) | (18 << 16) | (j << 8) for j in range(128)]
        prefixes = [p for p in prefixes if spare.get_rule(p, 24) is None]
        self.out["dpdk.lpm.add_us"] = stats.summarize(
            [self.seconds(lambda: spare.add(p, 24, 0)) * 1e6
             for p in prefixes], "us")
        for p in prefixes:
            spare.delete(p, 24)

    def mods(self) -> None:
        """The update path: logical table, compiled store, re-fuse."""
        out, bench = self.out, self.bench
        mods = bench.probe_mods(PROBE_MODS)
        pipeline = bench.probe_pipeline()
        entries = [(pipeline.table(m.table_id), m.to_entry()) for m in mods]
        # One call a sample and the median of them: the first add pays a
        # pristine table's lazy indexes, which a mean would smear over all.
        out["openflow.flow_table.add_us"] = stats.summarize(
            [self.seconds(lambda: t.add(e)) * 1e6 for t, e in entries],
            "us")
        out["openflow.flow_table.delete_us"] = stats.summarize(
            [self.seconds(lambda: t.remove(e.match, e.priority)) * 1e6
             for t, e in entries], "us")

        spare = bench.disposable()
        refuse = []
        for mod in mods[:8]:
            spare.submit_flow_mods([mod])
            refuse.append(self.seconds(spare.warm) * 1e6)
        out["core.eswitch.refuse_after_mod_us"] = stats.summarize(refuse, "us")

        for metric, span in (
            ("core.eswitch.apply_flow_mod_us", "core.eswitch.apply_flow_mod"),
            ("core.eswitch.admit_us", "core.eswitch.admit_flow_mods"),
        ):
            row = self.span_mean_us(span, "total_s")
            if row:
                out[metric] = row

        store = _largest([spare], "hash_store")
        if store is None:
            return
        probe_key = next(iter(store))
        fresh = [
            (1 << 47) + j if isinstance(probe_key, int)
            else tuple((1 << 47) + j for _ in probe_key)
            for j in range(256)
        ]
        inserts, removes = [], []
        for _ in range(REPEATS):  # each pass inserts keys the store lacks
            inserts.append(self.seconds(
                lambda: [store.insert(k, None) for k in fresh]))
            removes.append(self.seconds(
                lambda: [store.remove(k) for k in fresh]))
        out["dpdk.hash.insert_us"] = stats.summarize(
            [s / len(fresh) * 1e6 for s in inserts], "us")
        out["dpdk.hash.remove_us"] = stats.summarize(
            [s / len(fresh) * 1e6 for s in removes], "us")

    def simcpu(self) -> None:
        out = self.out
        cycle_metrics, meters = self.cycle
        out["simcpu.meter_us_per_pkt"] = stats.exact(
            1e6 / cycle_metrics["cycle_wall_pps"]["value"]
            - 1e6 / self.null["wall_pps"]["value"], "us/pkt")
        cache = CacheHierarchy(XEON_E5_2620)
        lines = [("bench", i) for i in range(1 << 15)]
        out["simcpu.cache.access_ns"] = self.per_item(
            cache.access, lines, "ns", 1e9)
        out["simcpu.llc_misses_per_pkt"] = stats.exact(
            meters[0].llc_misses_per_packet(), "count")

    def ovs(self) -> None:
        """The fixed sample through ``OvsSwitch``: one pass to fill the
        caches (every first packet is an upcall), then the measured bursts."""
        out = self.out
        switch = OvsSwitch(self.bench.inputs.make_pipeline())
        self.drive(switch, self.sample, max(1, len(self.sample) // BURST))
        switch.stats.reset()
        out["ovs.wall_pps"] = stats.exact(
            1e6 / self.drive(switch, self.sample, DRIVE_BURSTS), "pkt/s")
        seen = max(switch.stats.packets, 1)
        for metric, hits in (
            ("ovs.emc_hit_share", switch.stats.microflow_hits),
            ("ovs.megaflow_hit_share", switch.stats.megaflow_hits),
            ("ovs.upcall_share", switch.stats.vswitchd_hits),
        ):
            out[metric] = stats.exact(hits / seen, "ratio")

    def variant(self, **config) -> float:
        """us/pkt of the same pipeline compiled under another config."""
        bench = self.bench
        switch = ESwitch(bench.inputs.make_pipeline(),
                         bench.config.with_(**config))
        switch.warm()
        self.drive(switch, bench.templates, 64)
        return self.drive(switch, bench.templates, DRIVE_BURSTS)

    def rss(self) -> None:
        self.out["parallel.rss.shard_of_ns"] = self.per_item(
            lambda p: shard_of(p.data, 2, 0), self.sample, "ns/pkt", 1e9)

    def parallel(self) -> None:
        """What one burst pays to cross a shard boundary and come back: the
        sharded1-vs-fused price list, without starting a worker."""
        out, sample = self.out, self.sample
        switch = self.bench.switches()[0]
        bursts = [sample[at:at + BURST] for at in range(0, len(sample), BURST)]
        cache = wire.EntryIndexCache(switch.pipeline)
        verdicts = [switch.process_burst([p.copy() for p in b]) for b in bursts]
        requests = [frames.request_from_packets(3, 11, "null", b)
                    for b in bursts]
        verdict_wires = [wire.encode_verdicts(v, cache) for v in verdicts]
        deltas = [wire.counter_deltas(v, cache, {}) for v in verdicts]
        replies = [
            frames.reply_from_wires(3, 11, None, BURST, 0, vw, d)
            for vw, d in zip(verdict_wires, deltas)
        ]
        rows = {
            "parallel.frames.pack_request_us": (
                lambda b: frames.request_from_packets(3, 11, "null", b),
                bursts),
            "parallel.frames.unpack_request_us": (
                lambda f: frames.unpack_request(f)[0].packets(), requests),
            "parallel.wire.encode_verdicts_us": (
                lambda v: wire.encode_verdicts(v, cache), verdicts),
            "parallel.frames.pack_reply_us": (
                lambda i: frames.reply_from_wires(
                    3, 11, None, BURST, 0, verdict_wires[i], deltas[i]),
                range(len(bursts))),
            "parallel.frames.unpack_reply_us": (frames.unpack_reply, replies),
            "parallel.wire.decode_verdicts_us": (
                lambda vw: wire.decode_verdicts(vw, cache), verdict_wires),
        }
        total = 0.0
        for name, (fn, items) in rows.items():
            out[name] = self.per_item(fn, list(items), "us/burst", 1e6)
            total += out[name]["value"]
        out["parallel.frames.request_bytes"] = stats.exact(
            stats.median([len(f) for f in requests]), "bytes")
        out["parallel.frames.reply_bytes"] = stats.exact(
            stats.median([len(f) for f in replies]), "bytes")

        ring = Ring(_HeapSegment(128 + (1 << 20)))

        def cross(frame) -> None:
            ring.push(frame)
            ring.pop()
            ring.commit_reads()

        out["parallel.rings.push_pop_us"] = self.per_item(
            cross, requests + replies, "us/frame", 1e6)
        ring.close()
        # One burst crosses twice (request out, reply back) and is
        # scattered once per packet.
        total += 2 * out["parallel.rings.push_pop_us"]["value"]
        out["parallel.sharded1_overhead_us_per_pkt"] = stats.exact(
            total / BURST + out["parallel.rss.shard_of_ns"]["value"] / 1e3,
            "us/pkt")

    def fabric(self) -> None:
        out = self.out
        by_tag = self.span_times(by_tag=True)
        injected = sum(w.injected for w in self.traced)
        served = sum(w.served for w in self.traced)

        for metric, span, unit in (
            ("controller.session.burst_overhead_us",
             "controller.session.process_burst", "us/burst"),
            ("controller.session.submit_overhead_us",
             "controller.session.submit_flow_mods", "us"),
            ("controller.gateway.handle_us", "controller.gateway.handle", "us"),
        ):
            row = self.span_mean_us(span, unit=unit)
            if row:
                out[metric] = row
        out["fabric.advance_us"] = self.span_mean_us(
            "fabric.advance", "total_s")
        out["fabric.inject_self_us_per_pkt"] = stats.exact(
            self.spans["fabric.inject"]["self_s"] / injected * 1e6, "us/pkt")
        leaf = by_tag[("controller.session.process_burst", "leaf")]
        spine = by_tag[("controller.session.process_burst", "spine")]
        out["fabric.leaf_us_per_pkt"] = stats.exact(
            leaf["total_s"] / injected * 1e6, "us/pkt")
        out["fabric.spine_us_per_pkt"] = stats.exact(
            spine["total_s"] / max(served, 1) * 1e6, "us/pkt")

        fabric = self.bench.fabric  # the last window's, still standing
        sessions = [leaf.session for leaf in fabric.leaves]
        out["controller.session.punts"] = stats.exact(
            sum(s.punts_delivered for s in sessions), "count")
        out["controller.session.retries"] = stats.exact(
            sum(s.send_retries for s in sessions), "count")
        out["controller.session.dropped_packet_ins"] = stats.exact(
            sum(s.punts_lost + s.punt_queue_drops for s in sessions)
            + sum(leaf.face.stalled_drops for leaf in fabric.leaves), "count")
        latencies = [x for s in sessions for x in s.punt_latencies]
        if latencies:
            out["controller.punt_latency_p50_vs"] = stats.exact(
                stats.median(latencies), "virtual_s", samples=len(latencies))
        per_spine = [sp.switch.burst_stats.packets for sp in fabric.spines]
        mean = sum(per_spine) / len(per_spine)
        out["fabric.ecmp_imbalance"] = stats.exact(
            max(per_spine) / mean - 1.0 if mean else 0.0, "ratio")

    def ledger(self) -> None:
        """How much of a burst the outside view cannot name: one minus the
        isolated hops (parse, hash probes, LPM probes) over the fused
        driver's measured time per packet."""
        out, sample = self.out, self.sample
        switch = self.bench.switches()[0]
        kinds = switch.table_kinds()
        verdicts = switch.process_burst([p.copy() for p in sample])
        visits = [kinds.get(tid) for v in verdicts for tid, _e in v.path]
        per_pkt = {k: visits.count(k) / len(sample) for k in ("hash", "lpm")}
        layer = {2: "l2", 3: "l3", 4: "l4"}[switch.datapath.parser_layer]
        named = out[f"packet.parse_{layer}_us"]["value"]
        for kind, metric in (("hash", "dpdk.hash.get_ns"),
                             ("lpm", "dpdk.lpm.lookup_ns")):
            if metric in out:
                named += per_pkt[kind] * out[metric]["value"] / 1e3
        out["ledger.unattributed_share"] = stats.exact(
            1.0 - named / out["core.eswitch.burst_us_per_pkt"]["value"],
            "ratio", hops_per_pkt=per_pkt)

    # -- the ledger of one traced run --------------------------------------------

    def collect(self) -> dict:
        """Every per-layer metric this workload exercises."""
        out, bench = self.out, self.bench
        probes = bench.workload.probes
        self.packet()
        out["openflow.build_pipeline_s"] = stats.summarize(
            bench.pipeline_build_samples, "s")
        out["openflow.ref_process_us"] = stats.exact(
            bench.ref_process_us, "us/pkt")
        self.compile_chain()
        self.fuse()
        self.counters()
        if "hash" in probes:
            self.hash()
        if "lpm" in probes:
            self.lpm()
        if "mods" in probes:
            self.mods()
        if "simcpu" in probes:
            self.simcpu()
        if "ovs" in probes:
            self.ovs()
        if "trampoline" in probes:
            out["core.datapath.trampoline_us_per_pkt"] = stats.exact(
                self.variant(fuse=False), "us/pkt")
            out["core.fuse.speedup"] = stats.exact(
                out["core.datapath.trampoline_us_per_pkt"]["value"]
                / out["core.eswitch.burst_us_per_pkt"]["value"], "ratio")
        if "linked_list" in probes:
            out["core.datapath.linked_list_us_per_pkt"] = stats.exact(
                self.variant(decompose=False), "us/pkt")
        if "rss" in probes:
            self.rss()
        if "parallel" in probes:
            self.parallel()
        if "fabric" in probes:
            self.fabric()
        if "ledger" in probes:
            self.ledger()
        return out
