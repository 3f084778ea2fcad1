"""Wall-clock throughput of the simulator itself (not the cycle model).

Every other number in this repo is *modeled*: cycles charged by the cost
book, converted to Mpps at the platform's clock. This rig measures the
orthogonal quantity the ROADMAP's "as fast as the hardware allows" north
star cares about for the reproduction itself — how many packets per
second of real time the simulated datapath sustains — and is the oracle
for the fusion layer (:mod:`repro.core.fuse`): fused vs trampoline is a
pure interpreter-dispatch delta, so it shows up here and *only* here.

Two meters bound the measurement:

* ``null`` mode runs the functional datapath with the shared
  :data:`~repro.simcpu.recorder.NULL_METER` — pure forwarding speed;
* ``cycle`` mode attaches a real :class:`~repro.simcpu.recorder.
  CycleMeter`, so the point also reports the *modeled* Mpps next to the
  simulator's own pkts/sec — the two axes EXPERIMENTS.md is careful to
  keep apart.

Protocol: packet copies for every repeat are materialized before the
clock starts (actions mutate packets in place), a warm-up pass absorbs
the lazy fuse compile and cache effects, and each point takes the best
of ``repeats`` timed runs.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Sequence

from repro.core.analysis import CompileConfig
from repro.core.eswitch import ESwitch
from repro.ovs.switch import OvsSwitch
from repro.simcpu.platform import Platform, XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, NULL_METER
from repro.usecases import gateway, l2, l3, loadbalancer

CASES = ("l2", "l3", "gateway", "lb")
MODES = ("null", "cycle")
VARIANTS = ("fused", "trampoline", "ovs")

#: The acceptance bar the fusion layer must clear (see ISSUE 2): fused
#: wall-clock pkts/sec on the multi-table gateway, NullMeter mode.
GATEWAY_SPEEDUP_FLOOR = 1.3


def _stride_sample(items: list, n: int) -> list:
    """Up to ``n`` items spread evenly across the list (not a prefix).

    Traffic templates capped below the table size must still span the
    whole table — a prefix sample would only ever exercise the lowest
    slots and flatter every cache in sight.
    """
    if n >= len(items):
        return items
    stride = len(items) / n
    return [items[int(i * stride)] for i in range(n)]


def _case_builders(
    n_flows: int, traffic_flows: "int | None" = None
) -> dict[str, Callable]:
    """Per-use-case ``() -> (pipeline, flows)`` factories, sized to taste.

    ``traffic_flows`` caps how many *distinct template packets* are
    materialized (None = ``n_flows``, the historical behavior). The
    tables are still sized from ``n_flows``; the templates stride-sample
    the table so a million-entry rung is exercised end to end without
    building a million packet objects nobody sends — the replay loop
    only ever cycles through ``n_packets`` of them anyway.
    """
    n_traffic = n_flows if traffic_flows is None else min(n_flows, traffic_flows)

    def build_l2():
        pipeline, macs = l2.build(max(16, n_flows // 2))
        return pipeline, l2.traffic(_stride_sample(macs, n_traffic), n_traffic)

    def build_l3():
        pipeline, fib = l3.build(max(64, n_flows // 2))
        return pipeline, l3.traffic(_stride_sample(fib, n_traffic), n_traffic)

    def build_gateway():
        pipeline, fib = gateway.build(n_ce=4, users_per_ce=16, n_prefixes=64)
        return pipeline, gateway.traffic(fib, n_traffic, n_ce=4, users_per_ce=16)

    def build_lb():
        n_services = max(4, min(64, n_flows // 8))
        pipeline = loadbalancer.build_multi_stage(n_services)
        return pipeline, loadbalancer.traffic(n_services, n_traffic)

    return {"l2": build_l2, "l3": build_l3, "gateway": build_gateway, "lb": build_lb}


def _make_switch(variant: str, pipeline) -> object:
    if variant == "fused":
        return ESwitch(pipeline, config=CompileConfig(fuse=True))
    if variant == "trampoline":
        return ESwitch(pipeline, config=CompileConfig(fuse=False))
    if variant == "ovs":
        return OvsSwitch(pipeline)
    raise ValueError(f"unknown variant {variant!r}")


def _timed_run(switch, pkts: "list", mode: str, burst: int, platform: Platform):
    """One timed pass; returns (elapsed seconds, modeled pps or None)."""
    meter = NULL_METER if mode == "null" else CycleMeter(platform)
    t0 = time.perf_counter()
    for start in range(0, len(pkts), burst):
        switch.process_burst(pkts[start : start + burst], meter)
    elapsed = time.perf_counter() - t0
    if mode == "null":
        return elapsed, None
    return elapsed, platform.freq_hz / meter.mean_cycles_per_packet


def run_wallclock(
    cases: Sequence[str] = CASES,
    modes: Sequence[str] = MODES,
    variants: Sequence[str] = VARIANTS,
    n_flows: int = 256,
    n_packets: int = 3_000,
    burst: int = 32,
    repeats: int = 3,
    warmup: int = 512,
    platform: Platform = XEON_E5_2620,
    control_faults: bool = False,
    traffic_flows: "int | None" = None,
) -> dict:
    """The full sweep; returns the ``BENCH_wallclock.json`` document.

    ``points`` carries one record per (case, variant, mode); ``speedups``
    pre-computes the ratios the acceptance criteria and CI read
    (``fused_vs_trampoline``, ``fused_vs_ovs``) per case and mode.

    The repeats of all variants are interleaved round-robin so a clock or
    load drift hits every variant alike instead of biasing whichever was
    timed last; each point keeps its best (minimum) repeat.
    """
    if traffic_flows is None and n_flows > n_packets:
        # Templates past n_packets are never sent (`flows[i % n]` with
        # n > n_packets touches only the first n_packets): cap and
        # stride-sample instead of materializing dead packet objects —
        # the only way `--flows 1e6` completes in this lifetime.
        traffic_flows = n_packets
    builders = _case_builders(n_flows, traffic_flows)
    unknown = set(cases) - set(builders)
    if unknown:
        raise ValueError(f"unknown cases: {sorted(unknown)}")
    points: list[dict] = []
    for case in cases:
        pipeline, flows = builders[case]()
        n = len(flows)
        base = [flows[i % n] for i in range(n_packets)]
        combos = [
            (variant, mode, _make_switch(variant, pipeline))
            for variant in variants
            for mode in modes
        ]
        warm = base[: min(warmup, len(base))]
        for _variant, mode, switch in combos:
            # Absorbs the lazy fuse compile and first-touch cache effects.
            _timed_run(switch, [pkt.copy() for pkt in warm], mode, burst, platform)
        best: dict[tuple, float] = {}
        modeled: dict[tuple, float] = {}
        for _ in range(repeats):
            for variant, mode, switch in combos:
                pkts = [pkt.copy() for pkt in base]
                elapsed, model_pps = _timed_run(switch, pkts, mode, burst, platform)
                key = (variant, mode)
                best[key] = min(best.get(key, float("inf")), elapsed)
                if model_pps is not None:
                    modeled[key] = model_pps
        for variant, mode, _switch in combos:
            key = (variant, mode)
            point = {
                "case": case,
                "variant": variant,
                "mode": mode,
                "wall_pps": n_packets / best[key],
                "usec_per_pkt": best[key] / n_packets * 1e6,
                "packets": n_packets,
                "best_of": repeats,
            }
            if key in modeled:
                point["modeled_pps"] = modeled[key]
            points.append(point)
    speedups: dict[str, dict] = {}
    index = {(p["case"], p["variant"], p["mode"]): p["wall_pps"] for p in points}
    for case in cases:
        for mode in modes:
            fused = index.get((case, "fused", mode))
            if fused is None:
                continue
            ratios = {}
            for other in ("trampoline", "ovs"):
                baseline = index.get((case, other, mode))
                if baseline:
                    ratios[f"fused_vs_{other}"] = fused / baseline
            if ratios:
                speedups[f"{case}/{mode}"] = ratios
    control_plane: list[dict] = []
    if control_faults:
        control_plane = run_control_faults(
            n_packets=min(n_packets, 1_500), burst=burst
        )
    return {
        "meta": {
            "n_flows": n_flows,
            "traffic_flows": traffic_flows,
            "n_packets": n_packets,
            "burst": burst,
            "repeats": repeats,
            "warmup": warmup,
            "platform": platform.name,
            "cpu_count": os.cpu_count(),
            "note": (
                "wall_pps is simulator wall-clock throughput (real pkts/sec "
                "of the Python datapath); modeled_pps is the cycle model's "
                "prediction for the simulated hardware — different axes."
            ),
        },
        "points": points,
        "speedups": speedups,
        "control_plane": control_plane,
    }


def run_control_faults(
    n_packets: int = 1_500,
    burst: int = 32,
    n_stations: int = 32,
    loss: float = 0.05,
    seed: int = 7,
    fail_modes: Sequence[str] = ("fail-standalone", "fail-secure"),
) -> list[dict]:
    """The control-plane fault leg: wall-clock forwarding through an outage.

    For each §6.4 fail mode, a :class:`~repro.controller.session.
    ControllerSession` (lossy channel) fronts a fused :class:`ESwitch`
    running the reactive learning-switch pipeline, and the same traffic
    is timed across three phases: controller **up**, controller **down**
    (disconnected past the liveness timeout), and **recovered** (after
    reconnect + resync). Every point carries the session and switch
    health snapshots — the CI smoke asserts the outage really registered
    (``outages >= 1``, ``resyncs >= 1``) and that the datapath kept
    serving wall-clock traffic while the controller was gone.
    """
    from repro.controller import (
        ControllerSession,
        FailMode,
        LearningSwitch,
        LossyChannel,
    )
    from repro.controller.learning_switch import build_pipeline

    points: list[dict] = []
    for mode_name in fail_modes:
        fail_mode = FailMode(mode_name)
        switch = ESwitch(build_pipeline(), config=CompileConfig(fuse=True))
        session = ControllerSession(
            switch,
            channel=LossyChannel(loss=loss, seed=seed),
            fail_mode=fail_mode,
            echo_interval_s=1.0,
            liveness_timeout_s=3.0,
        )
        controller = LearningSwitch(session)
        session.controller = controller
        _pipeline, macs = l2.build(n_stations)
        from repro.traffic.flows import round_robin

        flows = l2.traffic(macs, n_stations)
        base = list(round_robin(flows, n_packets))

        def timed_phase(label: str) -> dict:
            pkts = [pkt.copy() for pkt in base]
            t0 = time.perf_counter()
            for start in range(0, len(pkts), burst):
                session.process_burst(pkts[start : start + burst])
            elapsed = time.perf_counter() - t0
            return {
                "phase": label,
                "wall_pps": n_packets / elapsed,
                "packets": n_packets,
            }

        phases = [timed_phase("up")]
        session.advance(2.0)
        session.disconnect()
        session.advance(10.0)  # liveness timeout trips: outage declared
        phases.append(timed_phase("down"))
        session.reconnect()
        session.advance(5.0)  # first echo through closes the outage
        phases.append(timed_phase("recovered"))
        points.append(
            {
                "fail_mode": mode_name,
                "loss": loss,
                "phases": phases,
                "session": session.health().as_dict(),
                "switch": switch.health().as_dict(),
                "learned": controller.learned,
                "install_failures": controller.install_failures,
            }
        )
    return points
