"""Wall-clock throughput of the simulator itself: fused vs trampoline vs OVS.

Unlike the figure table (``tests/test_paper_figures.py``), which asserts
*modeled* Mpps, this one times the Python datapath with a real clock. It
is the first point of the repo's own performance trajectory and the
enforcement site of the fusion layer's acceptance bar: the fused driver
must beat the trampoline by ``GATEWAY_SPEEDUP_FLOOR`` on the multi-table
gateway in NullMeter (functional) mode.

Sizes are smoke-level so the full benchmark suite (and CI) stays fast;
:func:`repro.traffic.wallclock.run_wallclock` takes any.
"""

import json
import os

from figshared import RESULTS_DIR, publish, render_table
from repro.traffic.wallclock import GATEWAY_SPEEDUP_FLOOR, run_wallclock


def test_wallclock():
    doc = run_wallclock(n_flows=128, n_packets=2_000, repeats=3, warmup=512)

    rows = []
    for point in doc["points"]:
        rows.append(
            (
                point["case"],
                point["variant"],
                point["mode"],
                f"{point['wall_pps']:,.0f}",
                f"{point['usec_per_pkt']:.2f}",
                f"{point['modeled_pps'] / 1e6:.2f}" if "modeled_pps" in point else "-",
            )
        )
    publish(
        "wallclock",
        render_table(
            "Simulator wall-clock throughput (real pkts/sec; modeled Mpps "
            "is the cycle model's separate axis)",
            ("case", "variant", "mode", "wall pps", "us/pkt", "modeled Mpps"),
            rows,
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_wallclock.json"), "w") as fh:
        json.dump(doc, fh, indent=2)

    # Acceptance bar (ISSUE 2): fusion pays on the deepest pipeline.
    gateway_null = doc["speedups"]["gateway/null"]["fused_vs_trampoline"]
    assert gateway_null >= GATEWAY_SPEEDUP_FLOOR, (
        f"fused/trampoline wall-clock speedup {gateway_null:.2f}x on "
        f"gateway (null mode) is below the {GATEWAY_SPEEDUP_FLOOR}x floor"
    )
    # Fusion must never lose to the trampoline anywhere.
    for key, ratios in doc["speedups"].items():
        assert ratios["fused_vs_trampoline"] > 0.9, (key, ratios)
    # And the cycle model must be meter-independent: modeled pps identical
    # between fused and trampoline (the parity tests assert exact cycle
    # equality; this guards the benchmark wiring end to end).
    modeled = {
        (p["case"], p["variant"]): p["modeled_pps"]
        for p in doc["points"]
        if p["mode"] == "cycle" and p["variant"] in ("fused", "trampoline")
    }
    for case in ("l2", "l3", "gateway", "lb"):
        assert modeled[(case, "fused")] == modeled[(case, "trampoline")], case
