"""Real-parallel wall-clock scaling of the sharded engine, next to Fig. 19.

Fig. 19's curves are *modeled*: :func:`measure_multicore` charges per-core
meters and a coherence tax, and reports the aggregate Mpps the cycle model
predicts for N cores. This module puts the repo's own wall-clock counterpart
beside them: a :class:`~repro.parallel.ShardedESwitch` with N real shard
workers (forked processes, each owning a private fused replica) driven by
the :mod:`repro.traffic.wallclock` rig, RSS-scattering macrobursts exactly
the way an N-queue NIC would.

The two axes answer different questions and are printed side by side:

* modeled Mpps — what the *simulated hardware* would do with N cores
  (always linear-ish: per-core replicas share nothing but coherence);
* wall pps — what the *simulator itself* does with N worker processes,
  which is physics: it can only scale when ``os.cpu_count()`` actually
  provides the cores, and on a core-starved host the scatter/gather tax
  makes sharding a slowdown, honestly reported.

The acceptance bar (ISSUE 3: ``workers=4`` at least 2x the single fused
path on the gateway) is therefore asserted **only** when the host has the
cores to make it physically possible; everywhere else this module still
asserts the structural facts that hold on any host.
"""

import json
import os

from figshared import RESULTS_DIR, publish, render_table
from repro.core import ESwitch
from repro.simcpu.platform import ATOM_C2750
from repro.traffic import measure_multicore
from repro.traffic.wallclock import (
    SHARDED2_SPEEDUP_FLOOR,
    SHARDED_SPEEDUP_FLOOR,
    run_wallclock,
)
from repro.usecases import gateway

CORE_AXIS = (1, 2, 4)
N_FLOWS = 128
CASE = "gateway"


def _modeled_series(n_flows: int, cores_axis) -> list[float]:
    """Fig. 19's axis for the same use case: modeled aggregate pps.

    On the Atom platform, like the paper's Fig. 19 — the Xeon's modeled
    NIC saturates before 4 ESWITCH cores and would flatten the curve.
    """
    _p, fib = gateway.build(n_ce=4, users_per_ce=16, n_prefixes=64)
    flows = gateway.traffic(fib, n_flows, n_ce=4, users_per_ce=16)
    return [
        measure_multicore(
            lambda: ESwitch.from_pipeline(
                gateway.build(n_ce=4, users_per_ce=16, n_prefixes=64)[0]
            ),
            flows,
            cores=cores,
            n_packets=1_500,
            warmup=256,
            platform=ATOM_C2750,
        )
        for cores in cores_axis
    ]


def test_wallclock_multicore():
    doc = run_wallclock(
        cases=(CASE,),
        modes=("null",),
        variants=("fused",),
        n_flows=N_FLOWS,
        n_packets=1_500,
        repeats=3,
        warmup=256,
        cores=CORE_AXIS,
    )
    modeled = _modeled_series(N_FLOWS, CORE_AXIS)

    cpu_count = doc["meta"]["cpu_count"] or 1
    by_variant = {p["variant"]: p for p in doc["multicore"]}
    baseline = by_variant["fused"]["wall_pps"]

    rows = []
    for i, cores in enumerate(CORE_AXIS):
        point = by_variant[f"sharded{cores}"]
        # An oversubscribed speedup is not a scaling measurement — the
        # annotation keeps it out of cross-host trajectory comparisons.
        speedup = f"{point['wall_pps'] / baseline:.2f}"
        if point.get("oversubscribed"):
            speedup += " (oversub)"
        rows.append(
            (
                cores,
                point["backend"],
                point.get("transport", "pipe"),
                f"{point['wall_pps']:,.0f}",
                speedup,
                f"{modeled[i] / 1e6:.2f}",
                f"{modeled[i] / modeled[0]:.2f}",
            )
        )
    publish(
        "wallclock_multicore",
        render_table(
            f"Sharded wall-clock vs modeled Fig. 19 scaling ({CASE}; "
            f"single fused baseline {baseline:,.0f} pps; host has "
            f"{cpu_count} CPU(s))",
            ("workers", "backend", "transport", "wall pps", "vs fused",
             "modeled Mpps", "modeled scale"),
            rows,
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_wallclock_multicore.json"),
              "w") as fh:
        json.dump({"wallclock": doc, "modeled_pps": modeled}, fh, indent=2)

    # Structural facts that hold on any host.
    assert doc["meta"]["cores_axis"] == list(CORE_AXIS)
    for cores in CORE_AXIS:
        point = by_variant[f"sharded{cores}"]
        assert point["workers"] == cores
        assert point["wall_pps"] > 0
        # Every multicore point must carry the host-class annotations.
        assert point["oversubscribed"] == (cpu_count < cores + 1)
        assert point["transport"] in ("ring", "pipe")
        # Real forked workers, no injector armed: a clean run detects no
        # fault at all. A "recovered" point (respawn + retry) is a
        # transport bug the supervisor papered over, not health.
        health = point["health"]
        assert health["live_workers"] == health["workers"] == cores, point
        assert not health["degraded_shards"], point
        assert health["faults_detected"] == 0, point
    assert f"{CASE}/multicore" in doc["speedups"]
    # The modeled axis scales near-linearly regardless of the host — it is
    # the simulated hardware's number, not the simulator's.
    assert modeled[-1] / modeled[0] > 0.8 * CORE_AXIS[-1] / CORE_AXIS[0]

    # The physical acceptance bars — only meaningful when the host can
    # actually run the shard workers + the gather loop in parallel.
    # ISSUE 7: workers=2 over the zero-copy transport beats fused 1.5x.
    two = by_variant.get("sharded2")
    if two is not None and not two["oversubscribed"] \
            and two["backend"] == "process" and two["transport"] == "ring":
        speedup2 = two["wall_pps"] / baseline
        assert speedup2 >= SHARDED2_SPEEDUP_FLOOR, (
            f"sharded(2) wall-clock speedup {speedup2:.2f}x on {CASE} "
            f"(null mode, ring transport) is below the "
            f"{SHARDED2_SPEEDUP_FLOOR}x floor on a {cpu_count}-CPU host"
        )
    # ISSUE 3: workers=4 beats fused 2x.
    top = CORE_AXIS[-1]
    speedup = by_variant[f"sharded{top}"]["wall_pps"] / baseline
    if cpu_count > top and by_variant[f"sharded{top}"]["backend"] == "process":
        assert speedup >= SHARDED_SPEEDUP_FLOOR, (
            f"sharded({top}) wall-clock speedup {speedup:.2f}x on {CASE} "
            f"(null mode) is below the {SHARDED_SPEEDUP_FLOOR}x floor on a "
            f"{cpu_count}-CPU host"
        )
