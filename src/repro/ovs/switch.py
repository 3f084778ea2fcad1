"""The assembled Open vSwitch model: EMC → megaflow → vswitchd → controller.

Processing a packet walks down the Fig. 2 hierarchy:

1. parse + flow-key extraction (paid by every packet);
2. microflow cache probe — hit: replay the referenced megaflow's actions;
3. megaflow cache lookup (tuple space search) — hit: replay + EMC insert;
4. upcall to vswitchd — full classification, megaflow computation and
   installation, EMC insert;
5. table miss with controller policy — packet-in to the controller.

Every step charges the cost model through a :class:`Meter`; per-level hit
counters feed Fig. 14, the meter's cache stats feed Fig. 15.

Updates: any flow-mod invalidates both caches entirely — "OVS adopts the
brute-force strategy to invalidate the entire cache after essentially all
changes" (Section 2.3) — and cache contents are then re-learned reactively
through upcalls, exactly the behavior Fig. 18 punishes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.openflow.messages import (
    FlowMod,
    FlowModReply,
    PacketIn,
    reply_to_flow_mods,
)
from repro.openflow.pipeline import Pipeline, Verdict
from repro.openflow.stats import BurstStats
from repro.ovs.flowkey import emc_key, extract_key, line_key
from repro.ovs.megaflow import MegaflowCache, MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.ovs.vswitchd import Vswitchd
from repro.packet import parser as pp
from repro.packet.packet import Packet
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.recorder import Meter, NULL_METER

#: vswitchd work per flow-mod: ofproto transaction, classifier insertion,
#: and kicking the revalidators (calibrated to the ~5x CLI gap of Fig. 17).
OVS_FLOW_MOD_CYCLES = 1.2e6


class OvsStats:
    """Per-level hit counters (the Fig. 14 series)."""

    __slots__ = ("packets", "microflow_hits", "megaflow_hits", "vswitchd_hits", "controller_hits")

    def __init__(self) -> None:
        self.packets = 0
        self.microflow_hits = 0
        self.megaflow_hits = 0
        self.vswitchd_hits = 0
        self.controller_hits = 0

    def rates(self) -> dict[str, float]:
        n = max(self.packets, 1)
        return {
            "microflow": self.microflow_hits / n,
            "megaflow": self.megaflow_hits / n,
            "vswitchd": self.vswitchd_hits / n,
            "controller": self.controller_hits / n,
        }

    def reset(self) -> None:
        self.packets = 0
        self.microflow_hits = 0
        self.megaflow_hits = 0
        self.vswitchd_hits = 0
        self.controller_hits = 0


class OvsSwitch:
    """The four-level indirect datapath of Section 2.2."""

    def __init__(
        self,
        pipeline: Pipeline,
        emc_capacity: int = 8192,
        megaflow_capacity: int = 65536,
        costs: CostBook = DEFAULT_COSTS,
        packet_in_handler: "Callable[[PacketIn], None] | None" = None,
    ):
        self.pipeline = pipeline
        self.emc = MicroflowCache(emc_capacity)
        self.megaflow = MegaflowCache(megaflow_capacity)
        self.vswitchd = Vswitchd(pipeline)
        self.costs = costs
        self.stats = OvsStats()
        self.burst_stats = BurstStats()
        self.packet_in_handler = packet_in_handler
        self.flow_mods_applied = 0

    # -- datapath ------------------------------------------------------------

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        """Send one packet down the cache hierarchy."""
        costs = self.costs
        self.stats.packets += 1
        meter.charge(costs.pkt_in + costs.ovs_batch_overhead + costs.ovs_key_extract)

        view = pp.parse(pkt)
        key = extract_key(view)
        ekey = emc_key(view, key)

        meter.charge(costs.ovs_emc_probe)
        named = line_key(ekey)  # the same lines in every process
        slot = self.emc.slot_of(named)
        meter.touch(("emc", slot, 0))
        meter.touch(("emc", slot, 1))
        entry = self.emc.lookup(ekey)
        if entry is not None:
            self.stats.microflow_hits += 1
            meter.touch(("mf_act", entry.entry_id))
            return self._finish(view, entry, meter)

        entry, probed = self.megaflow.lookup(key)
        meter.charge(costs.ovs_megaflow_per_subtable * max(probed, 1))
        # Each probed subtable hashes the masked key into its own bucket
        # array: a key-dependent line per subtable.
        khash = hash(named)
        for i in range(probed):
            meter.touch(("mft", i, khash & 0xFFF))
        if entry is not None:
            self.stats.megaflow_hits += 1
            meter.charge(costs.ovs_megaflow_hit_extra + costs.ovs_emc_install)
            meter.touch(("mf_act", entry.entry_id))
            meter.touch(("mf_stat", entry.entry_id))  # per-flow stats update
            self.emc.insert(ekey, entry)
            return self._finish(view, entry, meter)

        # Upcall to vswitchd — hand over the parse + key this function
        # already paid for (re-parsing here doubled the profiled
        # wall-clock cost of every miss during a reactive reinstall).
        self.stats.vswitchd_hits += 1
        result = self.vswitchd.upcall(pkt, view=view, key=key)
        meter.charge(costs.ovs_upcall)
        meter.charge(costs.ovs_vswitchd_per_entry * result.subtables_probed)
        # Staged-lookup machinery: roughly logarithmic work per table size.
        for table in self.pipeline.tables:
            meter.charge(8.0 * math.log2(len(table) + 2))
        # Flow-dependent translation state (xlate context, megaflow
        # allocation, stats rows): a fresh working set per distinct flow —
        # the out-of-cache references Fig. 15 attributes to the slow path.
        for j in range(self.costs.ovs_upcall_touch_lines):
            meter.touch(("vsw", khash % 65536, j))
        if result.megaflow is not None:
            meter.charge(costs.ovs_megaflow_install + costs.ovs_emc_install)
            self.megaflow.insert(result.megaflow)
            self.emc.insert(ekey, result.megaflow)
        verdict = result.verdict
        if verdict.to_controller:
            self.stats.controller_hits += 1
            if self.packet_in_handler is not None:
                table_id = verdict.path[-1][0] if verdict.path else 0
                self.packet_in_handler(PacketIn(pkt=pkt, table_id=table_id))
        if verdict.forwarded:
            meter.charge(costs.pkt_out)
        return verdict

    def process_burst(
        self, pkts, meter: Meter = NULL_METER
    ) -> "list[Verdict]":
        """Send one IO burst down the cache hierarchy.

        OVS's "extensive batching" (Section 4.2): the per-burst framework
        cost is charged once and each packet credits back the
        reference-burst share baked into the per-packet IO atoms, so a
        burst of ``costs.reference_burst`` packets costs exactly what that
        many scalar :meth:`process` calls cost. Functionally identical to
        scalar processing — caches warm and upcalls fire in packet order.
        """
        if not pkts:
            return []
        costs = self.costs
        begin = getattr(meter, "begin_packet", None)
        end = getattr(meter, "end_packet", None)
        cycles_before = getattr(meter, "total_cycles", 0.0)
        meter.charge(costs.io_burst_cost)
        share = costs.io_burst_share
        verdicts = []
        for pkt in pkts:
            if begin is not None:
                begin()
            meter.charge(-share)
            verdicts.append(self.process(pkt, meter))
            if end is not None:
                end()
        self.burst_stats.record(
            len(pkts), getattr(meter, "total_cycles", 0.0) - cycles_before
        )
        return verdicts

    def _finish(self, view: pp.ParsedPacket, entry: MegaflowEntry, meter: Meter) -> Verdict:
        """Replay a cached megaflow's program on this packet.

        Steps mirror the traversed flow entries: each credits its rule's
        counters, runs its meter (a fired band stops the replay exactly
        where the slow path would have dropped), then applies its actions.
        """
        verdict = Verdict()
        for flow_meter, actions, rule in entry.program:
            if rule is not None:
                # the frame as this step sees it: an earlier step's VLAN
                # push or pop has already changed its length.
                rule.packets += 1
                rule.bytes += len(view.pkt)
            if flow_meter is not None and not flow_meter.allow():
                verdict.dropped = True
                break
            for action in actions:
                action.apply(view, verdict)
                if verdict.reparse_needed:
                    # VLAN push/pop invalidates the miniflow: re-extract.
                    meter.charge(self.costs.ovs_key_extract)
                    new_view = pp.parse(view.pkt)
                    view.proto, view.l3, view.l4 = (
                        new_view.proto, new_view.l3, new_view.l4,
                    )
                    view.l4_proto = new_view.l4_proto
                    verdict.reparse_needed = False
            if verdict.dropped:
                break
        if entry.dropped:
            verdict.dropped = True
        meter.charge(
            self.costs.action_set
            + self.costs.ovs_per_action * max(0, len(entry.actions) - 1)
        )
        if verdict.to_controller and self.packet_in_handler is not None:
            # An explicit controller action replayed from the cache still
            # delivers a packet-in.
            self.packet_in_handler(PacketIn(pkt=view.pkt, table_id=0, reason="action"))
        if verdict.forwarded:
            meter.charge(self.costs.pkt_out)
        return verdict

    # -- control plane ------------------------------------------------------------

    def apply_flow_mod(self, mod: FlowMod) -> float:
        """Apply a flow-mod, then invalidate the caches; returns the
        modeled vswitchd cycles."""
        return self.apply_flow_mods((mod,))

    def apply_flow_mods(self, mods: Sequence[FlowMod]) -> float:
        """Apply a batch of flow-mods with one collapse for the batch.

        The reactive install path replays every rule the controller knows
        through this entry point; per-mod invalidation made that sweep
        O(flows) collapses and kept the 1e6 leg from ever saturating.
        Any single mod already kills the whole cache (the paper's "brute-
        force strategy to invalidate the entire cache after essentially all
        changes"), so N mods need exactly one generation bump. The raising
        primitive: whatever a mod raises propagates with the tables rolled
        back (:meth:`Pipeline.apply_flow_mods`); the caches are dropped
        either way.
        """
        mods = list(mods)
        try:
            self.pipeline.apply_flow_mods(mods)
            self.flow_mods_applied += len(mods)
        finally:
            if mods:
                # Brute force is one generation bump (O(1), not a cache
                # walk); both caches defer their container clears to the
                # next packet-path touch.
                self.megaflow.invalidate()
                self.emc.invalidate()
        return OVS_FLOW_MOD_CYCLES * len(mods)

    def submit_flow_mods(self, mods: Sequence[FlowMod]) -> FlowModReply:
        """The control-plane door: admit against the tables, then apply."""
        return reply_to_flow_mods(
            self.pipeline.admit_flow_mods, self.apply_flow_mods, mods
        )

    def __repr__(self) -> str:
        return (
            f"OvsSwitch(emc={len(self.emc)}, megaflows={len(self.megaflow)}, "
            f"upcalls={self.vswitchd.upcalls})"
        )
