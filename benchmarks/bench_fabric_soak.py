"""The fabric soak as a benchmark: SLOs under injected outages.

A 4-leaf / 2-spine fabric (one shared controller, independently lossy
channels) soaked with tenant churn while a scripted blackout takes one
leaf's control channel dark mid-run, then the two upgrade legs: a
rolling epoch upgrade that must be verdict-invisible, and an injected
re-fuse failure that must roll every leaf back to the old epoch.

Assertions are *mechanism* checks against the SLOs of DESIGN §12, not
absolute-speed checks:

* fabric-wide served-packet fraction stays ≥ the floor **during the
  fault window** (one leaf dark, three serving, the dark leaf's
  admitted subscribers still forwarding in fail-standalone);
* the blackout is detected (outage) and recovered (resync), and install
  convergence after the resync is observed and finite;
* the drop budget holds (fail-standalone punts are latency, not loss);
* rolling upgrade completes with zero verdict divergence; the aborted
  upgrade rolls back to the old epoch everywhere; the supervisor never
  deadlocks.

CI's fabric-soak smoke leg runs this file small (``FABRIC_SOAK_TICKS``)
and uploads ``BENCH_fabric_soak.json``.
"""

import json
import os

from figshared import RESULTS_DIR, publish, render_table
from repro.traffic.fabric_soak import SoakConfig, run_fabric_soak

TICKS = int(os.environ.get("FABRIC_SOAK_TICKS", "48"))
N_CE = int(os.environ.get("FABRIC_SOAK_CE", "8"))
USERS = int(os.environ.get("FABRIC_SOAK_USERS", "8"))
SERVED_FLOOR = float(os.environ.get("FABRIC_SOAK_FLOOR", "0.7"))


def test_fabric_soak():
    cfg = SoakConfig(
        ticks=TICKS,
        arrival_ticks=max(2, TICKS // 2),
        lifetime_ticks=max(3, (3 * TICKS) // 4),
        n_ce=N_CE,
        users_per_ce=USERS,
        served_floor=SERVED_FLOOR,
        outage_at_s=0.125 * TICKS,   # tick_s=0.5: fault mid-arrival wave
        outage_duration_s=0.125 * TICKS,
    )
    doc = run_fabric_soak(cfg)

    totals = doc["totals"]
    outage = doc["outage"]
    slo = doc["slo"]
    upgrade = doc["upgrade"]
    rows = [
        ("injected pkts", totals["injected"]),
        ("served fraction (soak)", f"{totals['served_fraction']:.3f}"),
        (
            "served fraction (fault window)",
            f"{outage['fault_window']['served_fraction']:.3f}",
        ),
        ("served floor", f"{cfg.served_floor:.2f}"),
        ("p99 punt latency", f"{slo['p99_punt_latency_s'] * 1e3:.3f} ms"),
        ("drop fraction", f"{slo['drop_fraction']:.4f}"),
        (
            "convergence after resync",
            ", ".join(
                f"{k}={v:.2f}s" for k, v in slo["install_convergence_s"].items()
            )
            or "-",
        ),
        (
            "degraded time",
            ", ".join(
                f"{k}={v:.1f}s"
                for k, v in slo["degraded_time_s"].items()
                if v
            )
            or "-",
        ),
        ("rolling upgrade", "ok" if upgrade["rolling"]["completed"] else "FAIL"),
        ("verdict divergence", upgrade["rolling"]["verdict_divergence"]),
        (
            "aborted upgrade rollback",
            "ok" if upgrade["aborted"]["all_on_old_epoch"] else "FAIL",
        ),
        ("supervisor deadlocks", upgrade["deadlocks"]),
    ]
    publish(
        "fabric_soak",
        render_table(
            "Fabric soak: leaf–spine under one control plane, "
            f"{cfg.n_leaves} leaves / {cfg.n_spines} spines",
            ["metric", "value"],
            rows,
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_fabric_soak.json"), "w") as fh:
        json.dump(doc, fh, indent=2)

    # -- SLO / acceptance assertions --------------------------------------
    fault_window = outage["fault_window"]
    assert fault_window["injected"] > 0, "fault window saw no traffic"
    assert fault_window["served_fraction"] >= cfg.served_floor, (
        f"served fraction {fault_window['served_fraction']:.3f} under the "
        f"{cfg.served_floor} floor while one leaf was dark"
    )
    fired = [e for e in outage["fault_log"] if e[1] == "fired"]
    healed = [e for e in outage["fault_log"] if e[1] == "healed"]
    assert fired and healed, "the scripted blackout never ran"
    leaves = doc["supervisor"]["leaves"]
    dark = cfg.outage_leaf
    assert leaves[dark]["outages"] >= 1, "blackout was never declared"
    assert leaves[dark]["resyncs"] >= 1, "blackout never recovered"
    assert dark in slo["install_convergence_s"], (
        "no install-convergence window was measured after the resync"
    )
    assert slo["install_convergence_s"][dark] >= 0.0
    assert slo["degraded_time_s"][dark] > 0.0
    assert slo["drop_fraction"] <= cfg.drop_budget, (
        f"drop fraction {slo['drop_fraction']:.4f} over budget "
        f"{cfg.drop_budget}"
    )
    assert slo["punt_samples"] > 0, "no punt latency samples collected"

    # -- upgrade legs ------------------------------------------------------
    assert upgrade["rolling"]["completed"]
    assert upgrade["rolling"]["verdict_divergence"] == 0, (
        "rolling upgrade changed verdicts"
    )
    assert upgrade["rolling"]["replayed_packets"] > 0
    assert not upgrade["aborted"]["completed"]
    assert upgrade["aborted"]["all_on_old_epoch"], (
        "aborted upgrade left the fabric straddling epochs: "
        f"{upgrade['aborted']['leaf_epochs']}"
    )
    assert upgrade["aborted"]["verdict_divergence"] == 0
    assert upgrade["deadlocks"] == 0, "supervisor deadlocked during rollback"


if __name__ == "__main__":
    test_fabric_soak()
    print("fabric soak ok")
