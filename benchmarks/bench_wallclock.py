"""Wall-clock throughput of the simulator itself: fused vs trampoline.

Unlike the figure table (``tests/test_paper_figures.py``), which asserts
*modeled* Mpps, this one times the Python datapath with a real clock. It
is the enforcement site of the fusion layer's acceptance bar: the fused
driver must beat the trampoline by ``GATEWAY_SPEEDUP_FLOOR`` on the
multi-table gateway in NullMeter (functional) mode. Run it by path:
``PYTHONPATH=src python -m pytest -q -s benchmarks/bench_wallclock.py``.

Protocol: packet copies are cut before the clock starts (actions mutate
packets in place), a warm-up pass absorbs the lazy fuse compile, the
repeats of every variant and mode are interleaved so a load drift hits
all alike, and each point keeps its best repeat.
"""

import time

from repro.core.analysis import CompileConfig
from repro.core.eswitch import ESwitch
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, NULL_METER
from repro.usecases import gateway, l2, l3, loadbalancer

#: The acceptance bar the fusion layer must clear: fused wall-clock
#: pkts/sec over trampoline on the multi-table gateway, NullMeter mode.
GATEWAY_SPEEDUP_FLOOR = 1.3

N_FLOWS, N_PACKETS, BURST, REPEATS, WARMUP = 128, 2_000, 32, 3, 512


def _cases():
    """``case -> (pipeline, flows)``, sized for a smoke-length run."""
    l2_pipeline, macs = l2.build(N_FLOWS // 2)
    l3_pipeline, fib = l3.build(N_FLOWS // 2)
    gw_pipeline, gw_fib = gateway.build(n_ce=4, users_per_ce=16, n_prefixes=64)
    n_services = N_FLOWS // 8
    return {
        "l2": (l2_pipeline, l2.traffic(macs, N_FLOWS)),
        "l3": (l3_pipeline, l3.traffic(fib, N_FLOWS)),
        "gateway": (
            gw_pipeline, gateway.traffic(gw_fib, N_FLOWS, n_ce=4, users_per_ce=16)
        ),
        "lb": (
            loadbalancer.build_multi_stage(n_services),
            loadbalancer.traffic(n_services, N_FLOWS),
        ),
    }


def _timed(switch, pkts, meter):
    t0 = time.perf_counter()
    for start in range(0, len(pkts), BURST):
        switch.process_burst(pkts[start : start + BURST], meter)
    return time.perf_counter() - t0


def test_wallclock():
    best, modeled = {}, {}
    for case, (pipeline, flows) in _cases().items():
        base = [flows[i % len(flows)] for i in range(N_PACKETS)]
        combos = [
            (fuse, mode, ESwitch(pipeline, config=CompileConfig(fuse=fuse)))
            for fuse in (True, False)
            for mode in ("null", "cycle")
        ]
        for _fuse, _mode, switch in combos:
            _timed(switch, [p.copy() for p in base[:WARMUP]], NULL_METER)
        for _ in range(REPEATS):
            for fuse, mode, switch in combos:
                meter = NULL_METER if mode == "null" else CycleMeter(XEON_E5_2620)
                elapsed = _timed(switch, [p.copy() for p in base], meter)
                key = (case, fuse, mode)
                best[key] = min(best.get(key, float("inf")), elapsed)
                if mode == "cycle":
                    modeled[case, fuse] = meter.mean_cycles_per_packet

    speedups = {
        (case, mode): best[case, False, mode] / best[case, True, mode]
        for case, _fuse, mode in best
    }
    for (case, mode), ratio in sorted(speedups.items()):
        print(f"{case:8s} {mode:5s} fused/trampoline {ratio:.2f}x")

    gateway_null = speedups["gateway", "null"]
    assert gateway_null >= GATEWAY_SPEEDUP_FLOOR, (
        f"fused/trampoline wall-clock speedup {gateway_null:.2f}x on "
        f"gateway (null mode) is below the {GATEWAY_SPEEDUP_FLOOR}x floor"
    )
    # Fusion must never lose to the trampoline anywhere.
    for key, ratio in speedups.items():
        assert ratio > 0.9, (key, ratio)
    # The cycle model is meter-independent: modeled cycles are identical
    # between fused and trampoline on every case.
    for case in ("l2", "l3", "gateway", "lb"):
        assert modeled[case, True] == modeled[case, False], case
