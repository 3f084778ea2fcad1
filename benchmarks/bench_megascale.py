"""The million-flow rig as a benchmark: rungs, collapse, and churn.

Default sizes are smoke-level so the benchmark suite stays fast; CI's
scale-smoke leg sets ``MEGASCALE_FLOWS=100000`` (and a full 10⁶ run sets
``MEGASCALE_FLOWS=1000000``) to exercise the production-cardinality
regime the paper's Figs. 3/10/18 report.

Assertions here are *mechanism* checks, not absolute-speed checks — the
wall-clock numbers vary with the host, but the shape of the result must
not: every rung completes inside its time box, churn on the hash/LPM
rungs is absorbed incrementally (no rebuild storm), and the OVS collapse leg
shows the microflow cache saturating once the axis passes its capacity.
"""

import json
import os

from figshared import RESULTS_DIR, publish, render_table
from repro.traffic.megascale import run_megascale

#: CI/operator override: run the same rig at production cardinality.
FLOWS = int(float(os.environ.get("MEGASCALE_FLOWS", "20000")))
RUNG_SECONDS = float(os.environ.get("MEGASCALE_RUNG_SECONDS", "8")) if (
    "MEGASCALE_FLOWS" in os.environ
) else 4.0


def test_megascale():
    doc = run_megascale(
        n_flows=FLOWS,
        n_packets=4_000,
        traffic_flows=4_096,
        # A wide mod window: at tens of thousands of mods/s a 2k-mod
        # leg finishes in ~0.06 s, short enough that one scheduler
        # hiccup halves the measured rate. 20k mods (~0.5-1 s, still
        # inside the rung time box) amortizes the noise; the box's
        # deadline caps it on slow hosts either way.
        churn_mods=20_000,
        rung_seconds=RUNG_SECONDS,
        collapse_axis=(1_024, 8_192, 32_768, 131_072, 1_048_576),
    )

    rows = [
        (
            p["rung"],
            f"{p['wall_pps']:,.0f}",
            str(p["packets"]),
            f"{p['footprint_bytes'] / 1e6:.1f}",
            ",".join(sorted(set(p["table_kinds"].values()))),
        )
        for p in doc["rungs"]
    ]
    publish(
        "megascale",
        render_table(
            f"Template rungs at {FLOWS:,} entries (time-boxed wall clock)",
            ("rung", "wall pps", "packets", "MB", "templates"),
            rows,
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_megascale.json"), "w") as fh:
        json.dump(doc, fh, indent=2)

    by_rung = {p["rung"]: p for p in doc["rungs"]}
    assert set(by_rung) == {"hash", "lpm"}

    # Every rung completed: measured at least one burst inside the box.
    for p in doc["rungs"]:
        assert p["packets"] > 0, p["rung"]
        assert p["wall_pps"] > 0, p["rung"]
        assert p["footprint_bytes"] > 0, p["rung"]

    # The rungs landed on their intended templates.
    assert "hash" in by_rung["hash"]["table_kinds"].values()
    assert "lpm" in by_rung["lpm"]["table_kinds"].values()

    # Churn mechanism: hash and LPM absorb every mod incrementally —
    # zero rebuilds, and the shape-stability proof skipped every O(n)
    # template re-selection.
    churn = {p["rung"]: p for p in doc["churn"]}
    for rung in ("hash", "lpm"):
        p = churn[rung]
        assert p["mods_applied"] > 0, rung
        assert p["rebuilds"] == 0, (rung, p)
        assert p["incremental"] == p["mods_applied"], (rung, p)
        assert p["kind_stable_skips"] == p["mods_applied"], (rung, p)
        assert p["modeled_entries_per_sec"] > 1e6, (rung, p)

    # The churn wall itself: sustained *wall-clock* mods/s on the
    # specialized rungs. The sorted-list store managed ~1-2k mods/s at
    # 10⁵ entries (every delete an O(n) memmove, every mod an O(n)
    # index rebuild); the tombstone store sustains tens of thousands.
    # Asserted on the best complete timing window (shared-host noise is
    # one-sided — see _run_churn); env-tunable, 0 disables.
    churn_floor = float(os.environ.get("MEGASCALE_CHURN_FLOOR", "20000"))
    for rung in ("hash", "lpm"):
        assert churn[rung]["entries_per_sec_best"] >= churn_floor, (
            rung, churn_floor, churn[rung]
        )

    # Fig. 3 mechanism: inside EMC capacity the microflow cache serves
    # ~everything; past it (axis points above 8192, when FLOWS affords
    # them) the hit rate collapses while the fused rate stays flat.
    ovs_points = {p["flows"]: p for p in doc["collapse"] if p["variant"] == "ovs"}
    fused_points = {
        p["flows"]: p for p in doc["collapse"] if p["variant"] == "fused"
    }
    smallest = min(ovs_points)
    assert ovs_points[smallest]["cache_rates"]["microflow"] > 0.95
    beyond = [f for f in ovs_points if f > 8_192]
    for f in beyond:
        assert ovs_points[f]["cache_rates"]["microflow"] < 0.5, (
            f,
            ovs_points[f]["cache_rates"],
        )
        # The specialized datapath has no cache to thrash.
        assert (
            fused_points[f]["modeled_pps"]
            > 0.8 * fused_points[smallest]["modeled_pps"]
        ), f
