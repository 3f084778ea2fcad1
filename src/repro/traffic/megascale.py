"""The million-flow regime: the hash and LPM rungs at production cardinality.

The paper's evaluation runs to 10⁶ active flows (Figs. 3, 10, 11, 18);
the rest of this repo's benches stop at 10⁵ because their structures —
full-rebuild perfect hashing, a fixed tbl8 pool — fell over one decade
earlier. This rig drives the grown structures to the paper's axis and
records three things per rung:

* **wallclock** — real pkts/sec of the fused datapath over a table of
  ``n_flows`` entries, one point per template rung that scales (hash and
  LPM; direct code is bounded by ``codegen.MAX_DIRECT_ENTRIES``);
* **collapse** — the Fig. 3 mechanism at production cardinality: OVS's
  modeled Mpps across a distinct-flow axis that marches through the EMC
  (8K) and megaflow (64K) capacities while the fused ESwitch point stays
  flat — the indirection-free datapath has no flow cache to thrash;
* **churn** — Fig. 18 at scale: sustained alternating ADD/DELETE
  flow-mods against the full-size table, reported as wall-clock rule
  ops/sec (Python reality, the logical table's C memmove included) and
  modeled ops/sec (the cycle model's estimate of the update path alone).

Every rung also reports its memory footprint (``ESwitch.footprint()``),
the axis that decides whether 10⁶ entries fit at all.

All timed legs are **time-boxed**: a slow host measures fewer packets
inside the same budget instead of hanging the run — the point records how
many packets it actually measured.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

from repro.core.analysis import CompileConfig
from repro.core.eswitch import ESwitch
from repro.openflow.actions import Output
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.ovs.switch import OvsSwitch
from repro.simcpu.platform import Platform, XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, NULL_METER
from repro.traffic.wallclock import _stride_sample
from repro.usecases import l2, l3

#: The template rungs the wallclock and churn legs sweep.
RUNGS = ("hash", "lpm")

#: Distinct-flow axis for the OVS collapse leg, clipped to ``n_flows``.
#: 1K sits inside the EMC, 32K inside the megaflow cache, 131K+ beyond
#: both — the full Fig. 3 arc when the run is big enough to afford it.
COLLAPSE_AXIS = (1_024, 8_192, 32_768, 131_072, 1_048_576)


def _rung_factories(n_flows: int, traffic_flows: int) -> dict[str, Callable]:
    """``rung -> () -> (pipeline, templates, config)``."""
    n_traffic = min(n_flows, traffic_flows)

    def build_hash():
        pipeline, macs = l2.build(n_flows)
        flows = l2.traffic(_stride_sample(macs, n_traffic), n_traffic)
        return pipeline, flows, CompileConfig(fuse=True)

    def build_lpm():
        pipeline, fib = l3.build(n_flows)
        flows = l3.traffic(_stride_sample(fib, n_traffic), n_traffic)
        return pipeline, flows, CompileConfig(fuse=True)

    return {"hash": build_hash, "lpm": build_lpm}


def _timeboxed_pps(
    switch,
    templates: "list",
    burst: int,
    budget_s: float,
    max_packets: int,
    meter=NULL_METER,
) -> tuple[float, int, float]:
    """Drive round-robin bursts until the budget or packet cap; returns
    ``(wall_pps, packets_done, elapsed_s)``.

    Copies are cut per burst inside the timed window (both legs of a
    comparison pay the same copy tax); pre-materializing ``max_packets``
    copies is exactly what a million-flow run cannot afford.
    """
    n = len(templates)
    done = 0
    t0 = time.perf_counter()
    deadline = t0 + budget_s
    while done < max_packets:
        chunk = [
            templates[(done + j) % n].copy()
            for j in range(min(burst, max_packets - done))
        ]
        switch.process_burst(chunk, meter)
        done += len(chunk)
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - t0
    return done / elapsed if elapsed > 0 else 0.0, done, elapsed


def _run_rungs(
    rungs: Sequence[str],
    n_flows: int,
    traffic_flows: int,
    n_packets: int,
    burst: int,
    warmup: int,
    budget_s: float,
) -> list[dict]:
    factories = _rung_factories(n_flows, traffic_flows)
    points: list[dict] = []
    for rung in rungs:
        t0 = time.perf_counter()
        pipeline, flows, config = factories[rung]()
        build_table_s = time.perf_counter() - t0
        templates = list(flows)
        t0 = time.perf_counter()
        switch = ESwitch(pipeline, config=config)
        switch.warm()  # compile + fuse outside the timed window
        compile_s = time.perf_counter() - t0
        _timeboxed_pps(
            switch, templates, burst, min(budget_s, 5.0), warmup
        )
        wall_pps, done, elapsed = _timeboxed_pps(
            switch, templates, burst, budget_s, n_packets
        )
        fp = switch.footprint()
        points.append(
            {
                "rung": rung,
                "table_kinds": {
                    str(tid): kind for tid, kind in switch.table_kinds().items()
                },
                "entries": n_flows,
                "wall_pps": wall_pps,
                "usec_per_pkt": 1e6 / wall_pps if wall_pps else float("inf"),
                "packets": done,
                "elapsed_s": elapsed,
                "build_table_s": build_table_s,
                "compile_s": compile_s,
                "footprint_bytes": fp["total_bytes"],
                "footprint_tables": {str(k): v for k, v in fp["tables"].items()},
            }
        )
    return points


def _run_collapse(
    n_flows: int,
    axis: Sequence[int],
    burst: int,
    budget_s: float,
    platform: Platform,
) -> list[dict]:
    """Fig. 3 at production cardinality: OVS vs fused across distinct flows.

    Per axis point both switches see the *same* round-robin trace: one
    full cycle to warm (populating whatever caches fit), one measured
    cycle. Modeled Mpps comes from the cycle meter; the OVS point also
    records its per-level hit fractions — the collapse is legible there
    even before the Mpps drop.
    """
    pipeline, macs = l2.build(n_flows)
    points: list[dict] = []
    for f in [a for a in axis if a <= n_flows] or [n_flows]:
        flows = l2.traffic(_stride_sample(macs, f), f)
        templates = list(flows)
        for variant, switch in (
            ("ovs", OvsSwitch(l2.build(n_flows)[0])),
            ("fused", ESwitch(l2.build(n_flows)[0], config=CompileConfig(fuse=True))),
        ):
            # Warm cycle: every flow once, uncounted (populates whatever
            # caches have the capacity — that is the experiment).
            _timeboxed_pps(switch, templates, burst, budget_s, f)
            if variant == "ovs":
                # The warm cycle is all upcalls by construction; without a
                # reset the measured hit fractions start ~50% polluted.
                switch.stats.reset()
            meter = CycleMeter(platform)
            wall_pps, done, elapsed = _timeboxed_pps(
                switch, templates, burst, budget_s, f, meter=meter
            )
            point = {
                "flows": f,
                "variant": variant,
                "modeled_pps": (
                    platform.freq_hz / meter.mean_cycles_per_packet
                    if meter.packets
                    else 0.0
                ),
                "wall_pps": wall_pps,
                "packets": done,
                "elapsed_s": elapsed,
            }
            if variant == "ovs":
                point["cache_rates"] = switch.stats.rates()
            points.append(point)
    return points


def _churn_mods(rung: str) -> Callable[[int], tuple[FlowMod, FlowMod]]:
    """``index -> (ADD, strict DELETE)`` of one fresh rule for the rung."""
    if rung == "lpm":

        def make(i: int) -> tuple[FlowMod, FlowMod]:
            prefix = f"198.{(i >> 8) & 255}.{i & 255}.0/24"
            match = Match(ipv4_dst=prefix)
            return (
                FlowMod(FlowModCommand.ADD, 0, match, priority=24,
                        instructions=(ApplyActions([Output(2)]),)),
                FlowMod(FlowModCommand.DELETE, 0, match, priority=24,
                        strict=True),
            )

        return make

    def make(i: int) -> tuple[FlowMod, FlowMod]:
        # Locally-administered MACs outside the builders' unicast draw.
        match = Match(eth_dst=(0x02 << 40) | (0xEE << 32) | i)
        return (
            FlowMod(FlowModCommand.ADD, 0, match, priority=1,
                    instructions=(ApplyActions([Output(3)]),)),
            FlowMod(FlowModCommand.DELETE, 0, match, priority=1, strict=True),
        )

    return make


def _run_churn(
    rungs: Sequence[str],
    n_flows: int,
    churn_mods: int,
    budget_s: float,
    platform: Platform,
) -> list[dict]:
    """Sustained ADD/DELETE against full-size tables, per rung + OVS."""
    factories = _rung_factories(n_flows, traffic_flows=1)
    points: list[dict] = []
    for rung in rungs:
        pipeline, _flows, config = factories[rung]()
        switch = ESwitch(pipeline, config=config)
        switch.warm()
        make = _churn_mods(rung)
        # Pre-materialize the mod pairs: the leg measures the switch's
        # update path, not FlowMod/Match construction.
        pairs = [make(i) for i in range(0, churn_mods, 2)]
        stats_before = (
            switch.update_stats.incremental,
            switch.update_stats.rebuilds,
            switch.update_stats.kind_stable_skips,
            switch.update_stats.noop_mods,
        )
        cycles_before = switch.update_stats.cycles
        apply = switch.apply_flow_mod
        applied = 0
        # Chunked timing: wall rates on shared hosts are noisy in one
        # direction only (contention slows, nothing speeds up), so the
        # best complete window is the honest steady-state figure — the
        # same reasoning behind timeit's min-of-repeats.
        chunk_mods = 2_000
        best_rate = 0.0
        in_chunk = 0
        t0 = time.perf_counter()
        deadline = t0 + budget_s
        chunk_start = t0
        for add, delete in pairs:
            apply(add)
            apply(delete)
            applied += 2
            in_chunk += 2
            now = time.perf_counter()
            if in_chunk >= chunk_mods:
                best_rate = max(best_rate, in_chunk / (now - chunk_start))
                chunk_start, in_chunk = now, 0
            if now >= deadline:
                break
        elapsed = time.perf_counter() - t0
        update_cycles = switch.update_stats.cycles - cycles_before
        table = switch.pipeline.table(0)
        point = {
            "rung": rung,
            "entries": n_flows,
            "mods_applied": applied,
            "entries_per_sec": applied / elapsed if elapsed else 0.0,
            "entries_per_sec_best": max(
                best_rate, applied / elapsed if elapsed else 0.0
            ),
            "modeled_entries_per_sec": (
                applied * platform.freq_hz / update_cycles
                if update_cycles
                else 0.0
            ),
            "update_cycles": update_cycles,
            "elapsed_s": elapsed,
            "incremental": switch.update_stats.incremental - stats_before[0],
            "rebuilds": switch.update_stats.rebuilds - stats_before[1],
            "kind_stable_skips": (
                switch.update_stats.kind_stable_skips - stats_before[2]
            ),
            "noop_mods": switch.update_stats.noop_mods - stats_before[3],
            # Entry-store telemetry: the churn wall was the O(n) memmove
            # per delete; tombstoning makes these the visible mechanism.
            "compactions": table.compactions,
            "tombstones": table.tombstones,
        }
        if rung == "hash":
            point["hash_telemetry"] = switch.compiled_table(0).hash_store.telemetry
        points.append(point)

    # OVS baseline: each flow-mod wholesale-invalidates the flow caches —
    # the update itself is cheap; the packet-rate cost (Fig. 18's real
    # story) already shows in the collapse leg's cache_rates.
    ovs = OvsSwitch(l2.build(n_flows)[0])
    make = _churn_mods("hash")
    pairs = [make(i) for i in range(0, churn_mods, 2)]
    applied = 0
    chunk_mods = 2_000
    best_rate = 0.0
    in_chunk = 0
    t0 = time.perf_counter()
    deadline = t0 + budget_s
    chunk_start = t0
    for add, delete in pairs:
        ovs.apply_flow_mod(add)
        ovs.apply_flow_mod(delete)
        applied += 2
        in_chunk += 2
        now = time.perf_counter()
        if in_chunk >= chunk_mods:
            best_rate = max(best_rate, in_chunk / (now - chunk_start))
            chunk_start, in_chunk = now, 0
        if now >= deadline:
            break
    elapsed = time.perf_counter() - t0
    points.append(
        {
            "rung": "ovs",
            "entries": n_flows,
            "mods_applied": applied,
            "entries_per_sec": applied / elapsed if elapsed else 0.0,
            "entries_per_sec_best": max(
                best_rate, applied / elapsed if elapsed else 0.0
            ),
            "elapsed_s": elapsed,
            "note": "every mod invalidates the megaflow+EMC caches",
        }
    )
    return points


def run_megascale(
    n_flows: int = 100_000,
    n_packets: int = 20_000,
    burst: int = 32,
    warmup: int = 1_024,
    traffic_flows: int = 16_384,
    churn_mods: int = 2_000,
    rung_seconds: float = 30.0,
    rungs: Sequence[str] = RUNGS,
    collapse_axis: Sequence[int] = COLLAPSE_AXIS,
    platform: Platform = XEON_E5_2620,
) -> dict:
    """The full megascale document (``BENCH_megascale.json``)."""
    unknown = set(rungs) - set(RUNGS)
    if unknown:
        raise ValueError(f"unknown rungs: {sorted(unknown)}")
    doc = {
        "meta": {
            "n_flows": n_flows,
            "n_packets": n_packets,
            "burst": burst,
            "warmup": warmup,
            "traffic_flows": min(n_flows, traffic_flows),
            "churn_mods": churn_mods,
            "rung_seconds": rung_seconds,
            "platform": platform.name,
            "cpu_count": os.cpu_count(),
            "note": (
                "wall_pps is the simulator's own wall-clock rate; "
                "modeled_pps is the cycle model's prediction for the "
                "simulated hardware. Timed legs are time-boxed at "
                "rung_seconds — slow rungs measure fewer packets, "
                "recorded per point."
            ),
        },
        "rungs": _run_rungs(
            rungs, n_flows, traffic_flows, n_packets, burst, warmup,
            rung_seconds,
        ),
        "collapse": _run_collapse(
            n_flows, collapse_axis, burst, rung_seconds, platform
        ),
        "churn": _run_churn(rungs, n_flows, churn_mods, rung_seconds, platform),
    }
    return doc
