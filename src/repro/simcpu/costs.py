"""Cycle-cost atoms for every datapath building block.

The ESWITCH atoms transcribe the paper's Fig. 20 performance model and the
Fig. 9 template calibration:

* packet IO: "a generic DPDK packet IO takes about 40-50 CPU cycles";
* parsing: 28 cycles combined L2–L4, split 12/8/8 across the per-layer
  parser templates so pipelines that skip layers pay less (Section 3.1);
* hash template: ``8 + Lx`` — 8 fixed cycles plus one memory access;
* LPM template: ``13 + 2*Lx`` — DIR-24-8 needs one or two accesses;
* actions: 25 cycles per action-set execution;
* direct code / linked list: linear in entries examined, calibrated so the
  direct-code/hash crossover lands at 4 entries as in Fig. 9.

The OVS atoms are calibration constants chosen to land the baseline at the
paper's measured operating points (Section 4.3): ~12 Mpps when everything
hits the microflow cache, a few Mpps from the megaflow cache, and ~90 Kpps
when every packet takes an upcall to ``vswitchd`` (the gateway at 1M
flows). The *shape* of every figure comes from which of these paths fire,
not from the constants themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostBook:
    """All fixed per-operation cycle costs in one place."""

    # -- shared packet IO (DPDK) -----------------------------------------
    pkt_in: float = 40.0
    pkt_out: float = 40.0
    #: Framework overhead of the l2fwd reference loop: with pkt_in/pkt_out
    #: it reproduces the 15.7 Mpps platform ceiling of Section 4.2
    #: (2e9 / 15.7e6 ≈ 127 cycles/packet).
    l2fwd_overhead: float = 47.4
    #: Per-burst IO framework cost (PMD poll, doorbells, descriptor ring
    #: maintenance), amortized across the burst. ``pkt_in``/``pkt_out``
    #: are calibrated at the DPDK-typical burst of ``reference_burst``
    #: packets; smaller bursts pay ``io_burst_cost/B`` extra per packet.
    io_burst_cost: float = 384.0
    reference_burst: int = 32

    #: ESWITCH per-packet runtime dispatch (batch iteration, trampoline
    #: entry) — keeps even a one-entry direct-code pipeline a bit below
    #: the raw l2fwd loop, as the paper measures (ES tops out ~14 Mpps).
    es_dispatch: float = 10.0

    # -- ESWITCH parser templates -----------------------------------------
    parser_l2: float = 12.0
    parser_l3: float = 8.0
    parser_l4: float = 8.0

    # -- ESWITCH table templates -------------------------------------------
    direct_base: float = 2.0
    direct_per_entry: float = 2.5
    hash_base: float = 8.0
    lpm_base: float = 13.0
    linked_list_base: float = 6.5
    linked_list_per_entry: float = 3.0
    goto_trampoline: float = 2.0
    table_miss: float = 5.0

    # -- ESWITCH actions ------------------------------------------------------
    action_set: float = 25.0

    # -- OVS datapath ----------------------------------------------------------
    #: flow-key extraction (full parse + key build), paid on every packet.
    ovs_key_extract: float = 55.0
    #: microflow (EMC) probe: hash + compare, plus two memory touches
    #: (the miniflow key spans more than one line).
    ovs_emc_probe: float = 15.0
    #: per-subtable megaflow probe: mask application + hash, plus touches.
    ovs_megaflow_per_subtable: float = 24.0
    #: megaflow hit bookkeeping (action fetch, stats update, EMC insert
    #: preparation) — dpcls hits cost roughly twice an EMC hit.
    ovs_megaflow_hit_extra: float = 70.0
    #: upcall to vswitchd: encapsulation, queueing, context switches,
    #: and the return trip (the dominant term of the ~13 us worst-case
    #: latency in Fig. 16).
    ovs_upcall: float = 15000.0
    #: vswitchd classifier work per entry probed (staged lookup machinery).
    ovs_vswitchd_per_entry: float = 20.0
    #: computing + installing a megaflow entry.
    ovs_megaflow_install: float = 3000.0
    #: installing a microflow (EMC) entry.
    ovs_emc_install: float = 60.0
    #: per-packet batching overhead.
    ovs_batch_overhead: float = 15.0
    #: replaying one cached action beyond the first (ESWITCH folds its
    #: action sets into straight-line code; OVS interprets an action list).
    ovs_per_action: float = 10.0
    #: flow-dependent translation state lines touched per upcall (xlate
    #: context, megaflow allocation, stats) — the source of OVS's large
    #: out-of-cache footprint in Fig. 15.
    ovs_upcall_touch_lines: int = 8

    # -- ESWITCH updates (Section 3.4, Figs. 17/18) --------------------------------
    #: non-destructive incremental update (hash insert, LPM add, list edit).
    es_update_incremental: float = 300.0
    #: side-by-side template rebuild: fixed part (codegen, linking, swap).
    es_update_rebuild_base: float = 500.0
    #: side-by-side template rebuild: per compiled entry.
    es_update_rebuild_per_entry: float = 120.0

    # -- multi-core (Fig. 19) ----------------------------------------------------
    #: extra cycles per packet per active core OVS pays for cache-coherent
    #: shared-state bookkeeping (megaflow cache is shared across threads,
    #: Section 2.3: "fine-grained locking, impeding multi-core scalability").
    ovs_coherence_per_core: float = 14.0
    #: ESWITCH shares only read-only compiled code between cores.
    eswitch_coherence_per_core: float = 2.0

    extras: dict = field(default_factory=dict)

    @property
    def parser_combined(self) -> float:
        """The combined L2–L4 parse the prototype defaults to (28 cycles)."""
        return self.parser_l2 + self.parser_l3 + self.parser_l4

    @property
    def io_burst_share(self) -> float:
        """Per-packet slice of ``io_burst_cost`` baked into the calibration.

        The per-packet IO atoms (``pkt_in``/``pkt_out``) are calibrated at
        the DPDK-typical ``reference_burst``; a burst driver charges
        ``io_burst_cost`` once per poll and credits this share back per
        packet, so a burst of exactly ``reference_burst`` packets costs the
        same as that many scalar calls.
        """
        return self.io_burst_cost / self.reference_burst

    def linked_list(self, entries_examined: int) -> float:
        return self.linked_list_base + self.linked_list_per_entry * entries_examined


DEFAULT_COSTS = CostBook()
