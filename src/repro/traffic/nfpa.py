"""The measurement harness (the paper's NFPA + pktgen stand-in).

Replays a flow set through a switch under the cycle/cache model and
reports the quantities the evaluation figures plot: packet rate,
cycles/packet (latency), LLC misses/packet, and the switch's own
hierarchy statistics.

Switches are duck-typed: anything with ``process(pkt, meter) -> Verdict``
works (ESwitch, OvsSwitch, or a bare pipeline wrapped in
:class:`DirectSwitch`); burst sweeps additionally need
``process_burst(pkts, meter) -> list[Verdict]``, which all three provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.openflow.messages import FlowMod, FlowModReply, reply_to_flow_mods
from repro.openflow.pipeline import Pipeline, Verdict
from repro.openflow.stats import BurstStats, collect_burst_stats
from repro.packet.packet import Packet
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.platform import Platform, XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, Meter, NULL_METER
from repro.traffic.flows import FlowSet


def auto_params(n_flows: int) -> tuple[int, int]:
    """(n_packets, warmup) so that steady state is actually measured.

    Warm-up must cover at least one full round-robin cycle of the flow set
    (so flow caches and CPU caches reach steady state) and the measured
    window a couple more — until the flow set is too large to ever revisit
    within a realistic budget, which *is* the thrashing steady state.
    """
    warmup = min(max(2_000, n_flows), 40_000)
    n_packets = min(max(12_000, 2 * n_flows), 60_000)
    return n_packets, warmup


class DirectSwitch:
    """The switch face of a bare :class:`Pipeline`: the reference
    interpreter as a datapath (a direct datapath, Sec. 2.1), with no
    compiled state attached.

    Packets go through ``Pipeline.process``; flow-mods through the two
    doors every switch has — the raising primitive ``apply_flow_mod(s)``
    (:class:`~repro.openflow.timeouts.ExpiryManager` drives it) and the
    control-plane ``submit_flow_mods`` — with logical-table semantics
    only. The differential fuzzer's reference is one: its verdicts, its
    admission decisions and its tables are what every backend must match.
    """

    def __init__(self, pipeline: Pipeline, costs: CostBook = DEFAULT_COSTS):
        self.pipeline = pipeline
        self.costs = costs
        self.burst_stats = BurstStats()

    def apply_flow_mod(self, mod: FlowMod) -> float:
        return self.apply_flow_mods((mod,))

    def apply_flow_mods(self, mods: Sequence[FlowMod]) -> float:
        """All or nothing (``Pipeline.apply_flow_mods``); no modeled cost."""
        self.pipeline.apply_flow_mods(mods)
        return 0.0

    def submit_flow_mods(self, mods: Sequence[FlowMod]) -> FlowModReply:
        return reply_to_flow_mods(
            self.pipeline.admit_flow_mods, self.apply_flow_mods, mods
        )

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        """Interpret one packet, charging the same IO atoms the compiled
        datapaths charge (``pkt_in`` on receive, ``pkt_out`` on forward):
        scalar and burst accounting must tell one consistent story."""
        costs = self.costs
        meter.charge(costs.pkt_in)
        verdict = self.pipeline.process(pkt)
        if verdict.forwarded:
            meter.charge(costs.pkt_out)
        return verdict

    def process_burst(
        self, pkts, meter: Meter = NULL_METER
    ) -> list[Verdict]:
        """Interpret one IO burst; same amortization contract as the fast
        switches: the per-burst framework cost is charged once and each
        packet pays the scalar cost minus the reference-burst share
        already baked into ``pkt_in`` — a burst of ``reference_burst``
        packets costs exactly that many scalar :meth:`process` calls,
        and every per-packet window stays non-negative."""
        if not pkts:
            return []
        costs = self.costs
        begin = getattr(meter, "begin_packet", None)
        end = getattr(meter, "end_packet", None)
        cycles_before = getattr(meter, "total_cycles", 0.0)
        meter.charge(costs.io_burst_cost)
        per_pkt = costs.pkt_in - costs.io_burst_share
        verdicts = []
        for pkt in pkts:
            if begin is not None:
                begin()
            meter.charge(per_pkt)
            verdict = self.pipeline.process(pkt)
            if verdict.forwarded:
                meter.charge(costs.pkt_out)
            verdicts.append(verdict)
            if end is not None:
                end()
        self.burst_stats.record(
            len(pkts), getattr(meter, "total_cycles", 0.0) - cycles_before
        )
        return verdicts


@dataclass
class Measurement:
    """One measurement point."""

    pps: float
    cycles_per_packet: float
    llc_misses_per_packet: float
    packets: int
    forwarded: int
    dropped: int
    to_controller: int
    extra: dict = field(default_factory=dict)

    @property
    def mpps(self) -> float:
        return self.pps / 1e6

    def __repr__(self) -> str:
        return (
            f"Measurement({self.mpps:.2f} Mpps, {self.cycles_per_packet:.0f} cyc/pkt, "
            f"{self.llc_misses_per_packet:.2f} LLC miss/pkt)"
        )


def measure(
    switch,
    flows: FlowSet,
    n_packets: int = 20_000,
    warmup: int = 2_000,
    platform: Platform = XEON_E5_2620,
    update_hook: "Callable[[int, CycleMeter], None] | None" = None,
    batch_size: "int | None" = None,
    costs: CostBook = DEFAULT_COSTS,
) -> Measurement:
    """Replay ``flows`` round-robin through ``switch`` and measure.

    ``warmup`` packets run first with costs discarded (caches and flow
    caches warm up); the remaining ``n_packets`` are measured.
    ``update_hook(i, meter)``, if given, fires before each measured packet
    — the update-intensity experiments (Fig. 18) inject flow-mods there.

    ``batch_size`` selects the IO burst the datapath polls in: packets are
    driven through the switch's ``process_burst`` in chunks of that size,
    re-amortizing the per-burst framework cost that the per-packet IO atoms
    bake in at the DPDK-typical ``costs.reference_burst`` (None = scalar
    ``process`` calls, which are calibrated to the reference burst).
    """
    meter = CycleMeter(platform)
    if batch_size is not None:
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        if not hasattr(switch, "process_burst"):
            raise TypeError(
                f"batch_size={batch_size} needs a switch with process_burst; "
                f"{type(switch).__name__} only has scalar process()"
            )
    n = len(flows)
    if batch_size is None:
        for i in range(warmup):
            meter.begin_packet()
            switch.process(flows[i % n].copy(), meter)
            meter.end_packet()
    else:
        for start in range(0, warmup, batch_size):
            burst = [
                flows[i % n].copy()
                for i in range(start, min(start + batch_size, warmup))
            ]
            switch.process_burst(burst, meter)
    # Keep cache state, discard the warm-up counters.
    meter.total_cycles = 0.0
    meter.packets = 0
    meter.cache.stats.reset()
    burst_stats = collect_burst_stats(switch)
    burst_base = burst_stats.snapshot() if burst_stats is not None else None

    # Tallies stream as verdicts arrive: a 100K+-packet sweep holds one
    # burst's worth of Verdict objects at a time, not the whole replay.
    forwarded = dropped = to_controller = 0

    def tally(verdict: Verdict) -> None:
        nonlocal forwarded, dropped, to_controller
        if verdict.forwarded:
            forwarded += 1
        elif verdict.to_controller:
            to_controller += 1
        else:
            dropped += 1

    if batch_size is None:
        for i in range(n_packets):
            meter.begin_packet()
            # The hook runs inside the packet's accounting window so any
            # cycles it charges (e.g. update work sharing the core) are not
            # lost.
            if update_hook is not None:
                update_hook(i, meter)
            tally(switch.process(flows[(warmup + i) % n].copy(), meter))
            meter.end_packet()
    else:
        for start in range(0, n_packets, batch_size):
            stop = min(start + batch_size, n_packets)
            if update_hook is not None:
                # Control-plane work lands at the burst boundary — updates
                # can't preempt the datapath mid-burst. Charges ride into
                # the burst's first packet window.
                for i in range(start, stop):
                    update_hook(i, meter)
            burst = [flows[(warmup + i) % n].copy() for i in range(start, stop)]
            for verdict in switch.process_burst(burst, meter):
                tally(verdict)

    extra: dict = {}
    if burst_stats is not None and burst_base is not None:
        now = burst_stats.snapshot()
        bursts = now["bursts"] - burst_base["bursts"]
        if bursts:
            burst_pkts = now["packets"] - burst_base["packets"]
            extra["burst"] = {
                "bursts": bursts,
                "mean_burst_size": burst_pkts / bursts,
                "cycles_per_burst": (now["cycles"] - burst_base["cycles"]) / bursts,
            }
    return Measurement(
        pps=meter.mean_pps(),
        cycles_per_packet=meter.mean_cycles_per_packet,
        llc_misses_per_packet=meter.llc_misses_per_packet(),
        packets=n_packets,
        forwarded=forwarded,
        dropped=dropped,
        to_controller=to_controller,
        extra=extra,
    )


def measure_multicore(
    make_switch: Callable[[], object],
    flows: FlowSet,
    cores: int,
    n_packets: int = 8_000,
    warmup: int = 1_000,
    platform: Platform = XEON_E5_2620,
    coherence_cycles_per_core: float = 0.0,
    shared_switch: bool = False,
    costs: CostBook = DEFAULT_COSTS,
) -> float:
    """Aggregate packet rate with RSS-style flow sharding across cores.

    Each core gets its own cycle meter (private caches). ``shared_switch``
    models OVS's shared flow caches: one switch instance serves all cores
    and every packet pays a coherence penalty per *additional* core —
    the fine-grained locking of Section 2.3. ESWITCH shares only read-only
    compiled code, so it runs one switch per core with a negligible
    penalty.

    Returns the aggregate pps (sum over cores), NIC-capped.
    """
    if cores < 1:
        raise ValueError("need at least one core")
    shards: list[list] = [[] for _ in range(cores)]
    for i, pkt in enumerate(flows):
        shards[i % cores].append(pkt)
    shards = [s for s in shards if s]
    active = len(shards)
    penalty = coherence_cycles_per_core * (cores - 1)
    # Warm-up must cover at least one full pass of every shard so shared
    # caches reach their true steady state before measurement.
    warmup = max(warmup, max(len(s) for s in shards) + 256)

    shared = make_switch() if shared_switch else None
    switches = [shared if shared_switch else make_switch() for _ in range(active)]
    meters = [CycleMeter(platform) for _ in range(active)]

    # Cores run concurrently: interleave their packet streams so shared
    # state (the OVS flow caches) sees the true mixed working set instead
    # of one core's shard at a time.
    for phase, count in (("warmup", warmup), ("measure", n_packets)):
        if phase == "measure":
            for meter in meters:
                meter.total_cycles = 0.0
                meter.packets = 0
        for i in range(count):
            for core in range(active):
                meter = meters[core]
                shard = shards[core]
                offset = i if phase == "warmup" else warmup + i
                meter.begin_packet()
                meter.charge(penalty)
                switches[core].process(shard[offset % len(shard)].copy(), meter)
                meter.end_packet()

    total_pps = sum(
        platform.freq_hz / meter.mean_cycles_per_packet for meter in meters
    )
    if platform.nic_pps_limit is not None:
        total_pps = min(total_pps, platform.nic_pps_limit)
    return total_pps
