"""The vocabulary: every metric name, its unit, direction and purpose.

Later issues quote these names, so they are fixed here and nowhere else;
``BENCHMARK.json`` is this catalogue in the acceptance driver's shape
(``bench/tests/test_catalogue.py`` keeps the two identical).

The bounds are the issue's. A tail metric whose ten seed-commit runs do
not stay within a tenth of their median on some workload is *demoted*
there rather than given a wider bound: still measured, printed and
compared, never a verdict that fails a change.

The driver cannot scope a metric to a workload, wants every bounded
metric from every workload, never zero, and refuses the whole benchmark
when ten runs of one commit spread wider than a metric's bound on any
workload. So it bounds ``DRIVER_END_TO_END`` only (README, *What the
driver bounds*); every other end-to-end metric rides in its per-layer
list, and the driver line prints 0 for a metric the workload does not
exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

READ_ONLY = ("gateway", "l2_hash_1e5", "acl_369")
MODS = ("l2_hash_1e5_churn", "fabric_tenants")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "higher" | "lower"
    #: what it means / which end-to-end metric it should move, where.
    moves: str
    #: share of the parent's median by which it may worsen; None = exact
    #: or unbounded (a count, a per-layer number).
    bound: "float | None" = None
    #: workloads that report it; empty = all five.
    workloads: tuple = ()
    #: workloads on which this tail metric is demoted.
    demoted: tuple = ()

    def applies(self, workload: str) -> bool:
        return not self.workloads or workload in self.workloads


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "ESwitch(pipeline, config) + warm() (fabric: Fabric(...)), "
           "median of 3 fresh builds: the paper's compile time", 0.15),
    Metric("wall_pps", "pkt/s", "higher",
           "packets / summed call time, null leg; on churn and fabric the "
           "mod and punt time is inside the window", 0.08),
    Metric("burst_p50_us", "us", "lower",
           "per-call service time of one burst of 32", 0.08),
    Metric("burst_p99_us", "us", "lower",
           "median over windows of the per-window p99; on churn this is "
           "the post-mod stall", 0.15,
           demoted=("gateway", "l2_hash_1e5", "acl_369", "fabric_tenants")),
    Metric("cycle_wall_pps", "pkt/s", "higher",
           "the same loop with a CycleMeter attached: what figure "
           "reproducers wait for", 0.08, READ_ONLY),
    Metric("modeled_cycles_per_pkt", "cycles", "lower",
           "CycleMeter.mean_cycles_per_packet of cycle window 1: a count, "
           "never reported as a speed-up", None, READ_ONLY),
    Metric("mods_per_s", "mod/s", "higher",
           "flow-mods acknowledged / window summed call time", 0.08, MODS),
    Metric("mod_p50_us", "us", "lower",
           "submit_flow_mods call -> reply (fabric: the call the "
           "controller makes on the leaf's session)", 0.08, MODS),
    Metric("mod_settle_p50_us", "us", "lower",
           "submit -> return of the first burst served on the new "
           "generation", 0.08, ("l2_hash_1e5_churn",)),
    Metric("mod_settle_p90_us", "us", "lower",
           "same, p90 over the run's pooled batches", 0.15,
           ("l2_hash_1e5_churn",), demoted=("l2_hash_1e5_churn",)),
    Metric("served_share", "ratio", "higher",
           "fabric: served / injected (virtual-time deterministic)", None,
           ("fabric_tenants",)),
    Metric("failed_share", "ratio", "lower",
           "failed / attempted checked operations; 0 at seed", None),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the workload process", 0.10),
)

_US_PKT, _US_BURST = "us/pkt", "us/burst"

PER_LAYER = (
    Metric("packet.copy_us", _US_PKT, "lower",
           "none: generator cost, reported so it is not mistaken for "
           "program time"),
    Metric("packet.parse_l2_us", _US_PKT, "lower",
           "wall_pps @ l2_hash_1e5 (small: L2 only)"),
    Metric("packet.parse_l3_us", _US_PKT, "lower", "wall_pps @ gateway"),
    Metric("packet.parse_l4_us", _US_PKT, "lower",
           "wall_pps @ gateway, acl_369"),
    Metric("openflow.build_pipeline_s", "s", "lower",
           "none directly: input construction, kept out of setup_s"),
    Metric("openflow.ref_process_us", _US_PKT, "lower",
           "none: oracle speed, bounds verification time"),
    Metric("openflow.flow_table.add_us", "us", "lower",
           "mods_per_s, mod_p50_us @ l2_hash_1e5_churn", None, MODS),
    Metric("openflow.flow_table.delete_us", "us", "lower",
           "mods_per_s, mod_p50_us @ l2_hash_1e5_churn", None, MODS),
    Metric("openflow.flow_table.tombstones", "count", "lower",
           "exact; explains mod_settle_p90_us outliers @ churn"),
    Metric("openflow.flow_table.compactions", "count", "lower",
           "exact; explains mod_settle_p90_us outliers @ churn"),
    Metric("core.analysis.select_template_us", "us/table", "lower",
           "setup_s @ acl_369"),
    Metric("core.decompose.decompose_s", "s", "lower",
           "setup_s @ acl_369; not elsewhere"),
    Metric("core.decompose.tables_out", "count", "lower",
           "setup_s @ acl_369; 0 elsewhere"),
    Metric("core.codegen.compile_table_s", "s", "lower",
           "setup_s @ all; largest @ acl_369"),
    Metric("core.codegen.source_bytes", "bytes", "lower", "setup_s @ all"),
    Metric("core.fuse.fuse_s", "s", "lower", "setup_s @ all"),
    Metric("core.fuse.source_bytes", "bytes", "lower", "setup_s @ all"),
    Metric("core.fuse.speedup", "ratio", "higher",
           "trampoline_us_per_pkt / burst_us_per_pkt @ gateway, acl_369",
           None, ("gateway", "acl_369")),
    Metric("core.eswitch.refuse_after_mod_us", "us", "lower",
           "warm() right after one mod: burst_p99_us, mod_settle_*, "
           "wall_pps @ churn, fabric; not read-only workloads", None, MODS),
    Metric("core.eswitch.apply_flow_mod_us", "us", "lower",
           "mod_p50_us, mods_per_s @ churn, fabric", None, MODS),
    Metric("core.eswitch.admit_us", "us", "lower",
           "mod_p50_us, mods_per_s @ churn, fabric", None, MODS),
    Metric("core.update.incremental", "count", "higher",
           "exact; a change trading rebuilds for incrementals shows here"),
    Metric("core.update.rebuilds", "count", "lower", "exact; see above"),
    Metric("core.update.kind_stable_skips", "count", "higher",
           "exact; see above"),
    Metric("core.eswitch.generations", "count", "lower", "exact; see above"),
    Metric("core.eswitch.burst_us_per_pkt", _US_PKT, "lower",
           "= 1 / wall_pps: span self time of the fused driver"),
    Metric("core.datapath.trampoline_us_per_pkt", _US_PKT, "lower",
           "none: CompileConfig(fuse=False) on the same inputs", None,
           ("gateway", "acl_369")),
    Metric("core.datapath.linked_list_us_per_pkt", _US_PKT, "lower",
           "none: CompileConfig(decompose=False), the rung acl_369 would "
           "be left on", None, ("acl_369",)),
    Metric("core.eswitch.to_controller_share", "ratio", "lower",
           "served_share @ fabric_tenants"),
    Metric("core.eswitch.footprint_bytes", "bytes", "lower",
           "peak_rss_mb @ l2_hash_1e5*"),
    Metric("dpdk.hash.get_ns", "ns", "lower",
           "wall_pps @ l2_hash_1e5; not acl_369"),
    Metric("dpdk.hash.insert_us", "us", "lower", "mods_per_s @ churn",
           None, MODS),
    Metric("dpdk.hash.remove_us", "us", "lower", "mods_per_s @ churn",
           None, MODS),
    Metric("dpdk.hash.bucket_reseeds", "count", "lower",
           "mods_per_s @ churn"),
    Metric("dpdk.hash.rebuild_count", "count", "lower",
           "mods_per_s @ churn"),
    Metric("dpdk.lpm.lookup_ns", "ns", "lower",
           "wall_pps @ gateway, fabric_tenants (spine RIB)", None,
           ("gateway", "fabric_tenants")),
    Metric("dpdk.lpm.add_us", "us", "lower",
           "setup_s @ gateway, fabric_tenants", None,
           ("gateway", "fabric_tenants")),
    Metric("simcpu.meter_us_per_pkt", _US_PKT, "lower",
           "= 1/cycle_wall_pps - 1/wall_pps: cycle_wall_pps @ read-only "
           "workloads; not wall_pps", None, READ_ONLY),
    Metric("simcpu.cache.access_ns", "ns", "lower", "cycle_wall_pps",
           None, READ_ONLY),
    Metric("simcpu.llc_misses_per_pkt", "count", "lower",
           "modeled_cycles_per_pkt @ l2_hash_1e5", None, READ_ONLY),
    Metric("ovs.wall_pps", "pkt/s", "higher",
           "none for ESwitch: moves with packet.* only, the bypass for any "
           "ESwitch-side change", None, READ_ONLY),
    Metric("ovs.emc_hit_share", "ratio", "higher", "see ovs.wall_pps",
           None, READ_ONLY),
    Metric("ovs.megaflow_hit_share", "ratio", "higher", "see ovs.wall_pps",
           None, READ_ONLY),
    Metric("ovs.upcall_share", "ratio", "lower", "see ovs.wall_pps",
           None, READ_ONLY),
    Metric("parallel.rss.shard_of_ns", "ns/pkt", "lower",
           "wall_pps @ fabric_tenants (ECMP spray)", None,
           ("gateway", "fabric_tenants")),
    Metric("parallel.frames.pack_request_us", _US_BURST, "lower",
           "no end-to-end metric here: the sharded1-vs-fused price list, "
           "on gateway bursts", None, ("gateway",)),
    Metric("parallel.frames.unpack_request_us", _US_BURST, "lower",
           "same", None, ("gateway",)),
    Metric("parallel.frames.pack_reply_us", _US_BURST, "lower",
           "same", None, ("gateway",)),
    Metric("parallel.frames.unpack_reply_us", _US_BURST, "lower",
           "same", None, ("gateway",)),
    Metric("parallel.frames.request_bytes", "bytes", "lower",
           "same", None, ("gateway",)),
    Metric("parallel.frames.reply_bytes", "bytes", "lower",
           "same", None, ("gateway",)),
    Metric("parallel.wire.encode_verdicts_us", _US_BURST, "lower",
           "same", None, ("gateway",)),
    Metric("parallel.wire.decode_verdicts_us", _US_BURST, "lower",
           "same", None, ("gateway",)),
    Metric("parallel.rings.push_pop_us", "us/frame", "lower",
           "same: same-process push + pop + commit_reads", None,
           ("gateway",)),
    Metric("parallel.sharded1_overhead_us_per_pkt", _US_PKT, "lower",
           "same: the rows above per packet; compare with "
           "core.eswitch.burst_us_per_pkt @ gateway", None, ("gateway",)),
    Metric("controller.session.burst_overhead_us", _US_BURST, "lower",
           "wall_pps, burst_p50_us @ fabric_tenants", None,
           ("fabric_tenants",)),
    Metric("controller.session.submit_overhead_us", "us", "lower",
           "mod_p50_us @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("controller.gateway.handle_us", "us", "lower",
           "served_share, mods_per_s @ fabric_tenants", None,
           ("fabric_tenants",)),
    Metric("controller.session.punts", "count", "lower",
           "served_share @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("controller.session.retries", "count", "lower",
           "mods_per_s @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("controller.session.dropped_packet_ins", "count", "lower",
           "served_share @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("controller.punt_latency_p50_vs", "virtual_s", "lower",
           "served_share @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("fabric.inject_self_us_per_pkt", _US_PKT, "lower",
           "wall_pps, burst_p99_us @ fabric_tenants", None,
           ("fabric_tenants",)),
    Metric("fabric.leaf_us_per_pkt", _US_PKT, "lower",
           "wall_pps @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("fabric.spine_us_per_pkt", _US_PKT, "lower",
           "wall_pps @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("fabric.advance_us", "us", "lower",
           "wall_pps @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("fabric.ecmp_imbalance", "ratio", "lower",
           "burst_p99_us @ fabric_tenants", None, ("fabric_tenants",)),
    Metric("ledger.unattributed_share", "ratio", "lower",
           "not asserted: how much of a burst the outside view cannot "
           "name", None, ("gateway", "l2_hash_1e5")),
    Metric("trace.overhead_share", "ratio", "lower",
           "traced vs untraced wall_pps, per workload"),
    Metric("host.clock_factor", "ratio", "lower",
           "none: median clock factor of the run's windows; a time above "
           "x this factor is the time as the host measured it"),
)


#: the end-to-end metrics the acceptance driver bounds: reported by every
#: workload, never 0, and with a ten-run spread that stayed inside the
#: bound on every workload in every measuring session.
DRIVER_END_TO_END = ("setup_s", "peak_rss_mb")


def driver_end_to_end() -> list[Metric]:
    return [m for m in END_TO_END if m.name in DRIVER_END_TO_END]


def driver_per_layer() -> list[Metric]:
    """The per-layer list as the driver sees it: the other end-to-end
    metrics first, then the layers."""
    bounded = driver_end_to_end()
    return [m for m in END_TO_END if m not in bounded] + list(PER_LAYER)
