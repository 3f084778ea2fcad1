"""Measurement protocol: set-up, correctness, windows, legs.

Closed loop, one client, one process, no threads, bursts of 32. Packet
copies are cut per burst *outside* the timed span; a timing sample is one
call (``process_burst``, ``submit_flow_mods``, ``Fabric.inject``,
``Fabric.advance``), and throughput is packets over the window's summed
call time. Work is fixed, not time-boxed: a window is a constant number
of bursts, a run is one discarded warm-up window and legs of a constant
number of windows, and every reported value is the median over windows. Every
sample is divided, where it is taken, by the clock factor of the moment
(see ``clock.py``): the two window loops below are the only place that
happens for an end-to-end metric.

Correctness is part of every run: a fixed sample is replayed through
``Pipeline.process`` on an independently built pipeline, and inside every
window the per-class verdict tally must equal what the reference predicts
for that fixed schedule. Every disagreement is a failed operation.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

from repro.core.analysis import DEFAULT_CONFIG
from repro.core.eswitch import ESwitch
from repro.fabric import spine_pipeline
from repro.openflow.messages import FlowModCommand
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, NULL_METER
from repro.usecases import gateway

import clock
import stats
from clock import REFRESH_S
from tracing import Tracer
from workloads import (
    BURST, CHURN_EVERY, CTRL, DROP, FWD, SETUP_BUILDS, TICK_S,
    FabricInputs, SwitchInputs, Workload,
)

#: packets of CycleMeter warm-up before the cycle windows.
CYCLE_WARMUP_PACKETS = 4_096
CYCLE_WINDOWS = 3
#: windows of each null leg (untraced, traced) of a traced run.
TRACED_WINDOWS = 2
#: flow-mod batches of un-timed warm-up before the churn windows.
CHURN_WARMUP_BATCHES = 4
#: ticks of the smallest fabric window (``--smoke``).
MIN_TICKS = 12


def classify(verdict) -> int:
    if verdict.to_controller:
        return CTRL
    if verdict.dropped or not verdict.output_ports:
        return DROP
    return FWD


@dataclass
class Checks:
    """Operations whose outcome was compared with the reference."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def expect(self, ok: bool, note: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(note)


@dataclass
class Window:
    """One window's samples, every duration at the reference clock."""

    packets: int = 0
    call_s: float = 0.0          #: summed timed call time
    burst_s: list = field(default_factory=list)
    mod_s: list = field(default_factory=list)
    settle_s: list = field(default_factory=list)
    mods: int = 0                #: flow-mods acknowledged
    tally: list = field(default_factory=lambda: [0, 0, 0])
    served: int = 0
    injected: int = 0
    #: the clock factors the samples were divided by, one per reading.
    factors: list = field(default_factory=list)

    @cached_property
    def factor(self) -> float:
        """Median clock factor of the finished window."""
        return stats.median(self.factors)

    def pps(self) -> float:
        return self.packets / self.call_s


def leg_metrics(windows: list[Window]) -> dict:
    """The end-to-end metrics one leg of windows supports."""
    out = {
        "wall_pps": stats.summarize([w.pps() for w in windows], "pkt/s"),
        "burst_p50_us": stats.summarize(
            [stats.median(w.burst_s) * 1e6 for w in windows], "us"),
    }
    tails = [stats.tail(w.burst_s, 99.0) for w in windows]
    out["burst_p99_us"] = stats.summarize(
        [value * 1e6 for value, _p in tails], "us",
        percentile=min(p for _v, p in tails),
    )
    if any(w.mods for w in windows):
        out["mods_per_s"] = stats.summarize(
            [w.mods / w.call_s for w in windows], "mod/s")
    # Flow-mod latencies come one per batch (20 a churn window), so their
    # percentiles pool every measured window; the quartiles beside them
    # are those of the per-window values.
    for name, attr, wanted in (
        ("mod_p50_us", "mod_s", 50.0),
        ("mod_settle_p50_us", "settle_s", 50.0),
        ("mod_settle_p90_us", "settle_s", 90.0),
    ):
        pooled = [x for w in windows for x in getattr(w, attr)]
        if not pooled:
            continue
        value, used = stats.tail(pooled, wanted)
        q1, q3 = stats.quartiles(
            [stats.percentile(getattr(w, attr), used) * 1e6 for w in windows]
        )
        out[name] = {
            "value": value * 1e6, "unit": "us", "median": value * 1e6,
            "q1": q1, "q3": q3, "n": len(pooled), "percentile": used,
            "spread": (q3 - q1) / (value * 1e6),
        }
    if any(w.injected for w in windows):
        out["served_share"] = stats.summarize(
            [w.served / w.injected for w in windows], "ratio")
    return out


class _Bench:
    """What both kinds of workload offer the per-layer probes."""

    def __init__(self, workload: Workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.templates = inputs.templates
        self.checks = Checks()
        self.tracer = Tracer()  # nothing wrapped = the untraced run
        self.traced = False
        self.request = 0
        #: seconds of every fresh build.
        self.setup_samples: list[float] = []
        self.pipeline_build_samples: list[float] = []
        self.ref_process_us = 0.0
        #: hash-store telemetry when set-up ended; probes report deltas.
        self.hash_baseline: dict = {}

    def _timed_build(self, build):
        result, spent = clock.timed(build)
        self.setup_samples.append(spent)
        return result

    def sample_picks(self) -> list[int]:
        """Template indices of the fixed correctness sample."""
        n, size = len(self.templates), self.inputs.sample
        stride = max(1, n // size)
        return [(i * stride) % n for i in range(size)]

    def sample_packets(self) -> list:
        return [self.templates[i] for i in self.sample_picks()]

    def hash_telemetry(self) -> dict:
        totals: dict = {}
        for switch in self.switches():
            for compiled in switch.datapath.trampoline.values():
                if compiled.hash_store is not None:
                    for key, value in compiled.hash_store.telemetry.items():
                        totals[key] = totals.get(key, 0) + value
        return totals

    def null_leg(self, windows: int) -> list[Window]:
        return [self.run_window() for _ in range(windows)]

    def attach(self, tracer: Tracer) -> None:
        self.tracer, self.traced = tracer, True

    def detach(self) -> None:
        self.tracer.unwrap_all()
        self.tracer, self.traced = Tracer(), False


# -- single-switch workloads -------------------------------------------------


class SwitchBench(_Bench):
    """Set-up, verification and windows of one ESwitch workload."""

    def __init__(self, workload: Workload, inputs: SwitchInputs, work: float):
        super().__init__(workload, inputs)
        self.window_bursts = max(2 * CHURN_EVERY, int(workload.window * work))
        self.cycle_bursts = max(BURST, int(workload.cycle_window * work))
        self.config = inputs.config
        # Doubled so a burst is one slice, wherever the cursor stands.
        self._ring = self.templates + self.templates[:BURST]
        self.cursor = 0
        self.mod_index = 0
        self.switch: "ESwitch | None" = None
        #: the second set-up build, kept for probes that mutate a switch.
        self.spare: "ESwitch | None" = None
        self.reference = inputs.reference
        self.classes: list[int] = []
        self._prefix: list[list[int]] = []

    # -- what the per-layer probes may use -----------------------------------

    def switches(self) -> list:
        return [self.switch]

    def disposable(self) -> ESwitch:
        return self.spare

    def probe_pipeline(self):
        return self.reference

    def probe_mods(self, n: int) -> list:
        """ADDs of ``n`` rules no window ever installs."""
        return [self.inputs.churn_step(1_000_000 + j)[0][0] for j in range(n)]

    # -- set-up ------------------------------------------------------------

    def _build(self) -> ESwitch:
        t0 = perf_counter()
        pipeline = self.inputs.make_pipeline()
        self.pipeline_build_samples.append(perf_counter() - t0)

        def build():
            switch = ESwitch(pipeline, self.config)
            switch.warm()
            return switch

        return self._timed_build(build)

    def set_up(self, keep_spare: bool = False) -> None:
        """``ESwitch(pipeline, config)`` + ``warm()``: one discarded build
        (it pays the process's first-use costs, as the warm-up window
        does), then three fresh builds over three fresh pipelines; the
        last build is the one measured."""
        for _ in range(1 + SETUP_BUILDS):
            # Drop the earlier build before the next: peak RSS is a metric,
            # and a compiled table sits in a reference cycle, so only the
            # collector hands its store's pages to the next build.
            self.spare, self.switch = (self.switch if keep_spare else None), None
            gc.collect()
            self.switch = self._build()
        del self.setup_samples[0]
        if self.inputs.churn_step is not None:
            self._apply_mods(self.inputs.churn_step(0)[0], timed=False)
            self.mod_index = 1
        self.hash_baseline = self.hash_telemetry()

    # -- correctness ---------------------------------------------------------

    def verify(self) -> None:
        """Replay the fixed sample through reference and switch."""
        picks = self.sample_picks()
        ref_pkts = [self.templates[i].copy() for i in picks]
        t0 = perf_counter()
        ref_verdicts = [self.reference.process(p) for p in ref_pkts]
        self.ref_process_us = (perf_counter() - t0) / len(picks) * 1e6

        if self.inputs.expected is not None:
            self.classes = list(self.inputs.expected)
            for i, verdict in zip(picks, ref_verdicts):
                self.checks.expect(
                    classify(verdict) == self.classes[i],
                    f"flow {i}: generator expected class {self.classes[i]}",
                )
        else:
            self.classes = [
                classify(self.reference.process(t.copy()))
                for t in self.templates
            ]
        self._prefix = []
        ring_classes = self.classes + self.classes[:BURST]
        for cls in (FWD, DROP, CTRL):
            acc, running = [0], 0
            for c in ring_classes:
                running += c == cls
                acc.append(running)
            self._prefix.append(acc)

        for at in range(0, len(picks), BURST):
            pkts = [self.templates[i].copy() for i in picks[at:at + BURST]]
            verdicts = self.switch.process_burst(pkts)
            for j, (pkt, verdict) in enumerate(zip(pkts, verdicts)):
                ref_pkt, ref = ref_pkts[at + j], ref_verdicts[at + j]
                self.checks.expect(
                    verdict.summary() == ref.summary()
                    and pkt.data == ref_pkt.data
                    and pkt.metadata == ref_pkt.metadata,
                    f"sample {at + j}: {verdict.summary()} != {ref.summary()}",
                )

    def _predict(self, start: int, bursts: int) -> list[int]:
        """Reference tally of ``bursts`` round-robin bursts from ``start``."""
        n = len(self.templates)
        out = [0, 0, 0]
        for b in range(bursts):
            i = (start + b * BURST) % n
            for cls in (FWD, DROP, CTRL):
                out[cls] += self._prefix[cls][i + BURST] - self._prefix[cls][i]
        return out

    # -- flow-mods -------------------------------------------------------------

    def _apply_mods(self, mods, timed: bool = True) -> float:
        """Submit one batch to the switch and mirror it on the reference;
        returns the call's seconds."""
        t0 = perf_counter()
        reply = self.switch.submit_flow_mods(mods)
        elapsed = perf_counter() - t0
        if timed:
            self.checks.expect(
                reply.accepted, f"flow-mod batch rejected: {reply.errors}",
                count=len(mods),
            )
        table = self.reference.table(0)
        for mod in mods:
            if mod.command is FlowModCommand.DELETE:
                table.remove(mod.match, mod.priority if mod.strict else None)
            else:
                table.add(mod.to_entry())
        return elapsed

    def _check_probes(self, mods, verdicts) -> None:
        """The burst after a batch: the fresh rule must hit, the deleted
        one must miss. The interpreter would scan 1e5 entries per probe,
        so the reference here is its table's own rule index."""
        table = self.reference.table(0)
        for mod, verdict in zip(mods, verdicts):
            entry = table.find(mod.match)
            if mod.command is FlowModCommand.DELETE:
                ok = entry is None and verdict.summary() == ((), True, False)
            else:
                ports = tuple(a.port for a in entry.apply_actions)
                ok = verdict.summary() == (ports, False, False)
            self.checks.expect(
                ok, f"probe after batch {self.mod_index - 1} "
                    f"({mod.command.name}): {verdict.summary()}")

    # -- windows -----------------------------------------------------------------

    def run_window(self, bursts: "int | None" = None, meter=NULL_METER
                   ) -> Window:
        bursts = self.window_bursts if bursts is None else bursts
        switch, ring, n = self.switch, self._ring, len(self.templates)
        churn_step = self.inputs.churn_step
        tracer = self.tracer
        win = Window(packets=bursts * BURST)
        tally, burst_s, factors = win.tally, win.burst_s, win.factors
        predicted = self._predict(self.cursor, bursts)
        cursor = self.cursor
        read_at = float("-inf")
        for b in range(bursts):
            at = cursor % n
            chunk = [p.copy() for p in ring[at:at + BURST]]
            cursor += BURST
            self.request += 1
            tracer.request = self.request
            if perf_counter() - read_at > REFRESH_S:
                factor = clock.factor()
                factors.append(factor)
                read_at = perf_counter()
            mod_s = None
            if churn_step is not None and b % CHURN_EVERY == 0:
                mods, hit, miss = churn_step(self.mod_index)
                self.mod_index += 1
                mod_s = self._apply_mods(mods) / factor
                win.mod_s.append(mod_s)
                win.mods += len(mods)
                win.call_s += mod_s
                # The burst after the batch carries both probes in place
                # of its first two packets.
                for slot, probe in ((0, hit), (1, miss)):
                    predicted[self.classes[(at + slot) % n]] -= 1
                    chunk[slot] = probe.copy()
                predicted[FWD] += 1
                predicted[DROP] += 1
            t0 = perf_counter()
            verdicts = switch.process_burst(chunk, meter)
            elapsed = (perf_counter() - t0) / factor
            burst_s.append(elapsed)
            for verdict in verdicts:
                tally[classify(verdict)] += 1
            if mod_s is not None:
                win.settle_s.append(mod_s + elapsed)
                self._check_probes(mods, verdicts)
        self.cursor = cursor
        win.call_s += sum(burst_s)
        self.checks.expect(
            tally == predicted,
            f"window tally {tally} != reference {predicted}",
            count=win.packets,
        )
        return win

    def warm_up(self) -> None:
        """The discarded window before the first leg."""
        if self.inputs.churn_step is not None:
            self.run_window(CHURN_WARMUP_BATCHES * CHURN_EVERY)
        else:
            self.run_window()

    def cycle_leg(self) -> tuple[list[Window], list[CycleMeter]]:
        """CycleMeter warm-up, then three windows, each on a fresh meter."""
        self.run_window(CYCLE_WARMUP_PACKETS // BURST,
                        CycleMeter(XEON_E5_2620))
        windows, meters = [], []
        for _ in range(CYCLE_WINDOWS):
            meter = CycleMeter(XEON_E5_2620)
            windows.append(self.run_window(self.cycle_bursts, meter))
            meters.append(meter)
        return windows, meters

    def attach(self, tracer: Tracer) -> None:
        super().attach(tracer)
        tracer.wrap(self.switch, "process_burst", "core.eswitch.process_burst")
        tracer.wrap(self.switch, "submit_flow_mods",
                    "core.eswitch.submit_flow_mods")
        tracer.wrap(self.switch, "admit_flow_mods",
                    "core.eswitch.admit_flow_mods")
        tracer.wrap(self.switch, "apply_flow_mod",
                    "core.eswitch.apply_flow_mod")


# -- the fabric workload -------------------------------------------------------


class FabricBench(_Bench):
    """Windows of the leaf-spine workload: one fresh fabric per window."""

    def __init__(self, workload: Workload, inputs: FabricInputs, work: float):
        super().__init__(workload, inputs)
        self.config = DEFAULT_CONFIG  # what Fabric compiles its switches with
        self.schedule = inputs.make_schedule(
            max(MIN_TICKS, int(workload.window * work)))
        #: the last window's fabric, kept open for counters and probes.
        self.fabric = None
        self._first_counts: "tuple | None" = None

    def switches(self) -> list:
        fabric = self.fabric
        return [node.switch for node in (*fabric.leaves, *fabric.spines)]

    def disposable(self) -> ESwitch:
        """A leaf of the last window's fabric: measured, then discarded."""
        return self.fabric.leaves[0].switch

    def probe_pipeline(self):
        return self.inputs.make_reference_leaf()[0]

    def probe_mods(self, n: int) -> list:
        subscribers = list(dict.fromkeys(self.inputs.owners))[:n // 2]
        return [m for ce, user in subscribers
                for m in gateway.nat_flow_mods(ce, user)]

    def set_up(self, keep_spare: bool = False) -> None:
        """Nothing: every window stands its own ``Fabric(...)`` up, and
        those builds are the ``setup_s`` samples."""

    def verify(self) -> None:
        """Nothing before timing: the replay against the reference runs
        after each window, on the state that window's tenants left."""

    def _trace(self, fabric) -> None:
        tracer = self.tracer
        tracer.wrap(fabric, "inject", "fabric.inject")
        tracer.wrap(fabric, "advance", "fabric.advance")
        tracer.wrap(fabric.controller, "handle", "controller.gateway.handle")
        for role, nodes in (("leaf", fabric.leaves), ("spine", fabric.spines)):
            for node in nodes:
                tracer.wrap(node.session, "process_burst",
                            "controller.session.process_burst", role)
                tracer.wrap(node.session, "submit_flow_mods",
                            "controller.session.submit_flow_mods", role)
                tracer.wrap(node.switch, "process_burst",
                            "core.eswitch.process_burst", role)
                tracer.wrap(node.switch, "submit_flow_mods",
                            "core.eswitch.submit_flow_mods", role)
                tracer.wrap(node.switch, "admit_flow_mods",
                            "core.eswitch.admit_flow_mods", role)
                tracer.wrap(node.switch, "apply_flow_mod",
                            "core.eswitch.apply_flow_mod", role)

    def run_window(self) -> Window:
        inputs = self.inputs
        if self.fabric is not None:
            self.fabric.close()
            # Two fabrics never stand at once: peak RSS is a metric, and
            # the sessions' reference cycles need the collector.
            self.fabric = None
            gc.collect()
        fabric = self.fabric = self._timed_build(inputs.make_fabric)
        templates, owners = inputs.templates, inputs.owners
        admitted = fabric.controller.admitted
        leaves = fabric.leaves
        tracer = self.tracer
        win = Window()
        burst_s, mod_s, factors = win.burst_s, win.mod_s, win.factors
        # The controller submits from inside the burst that punted, so
        # the one way to time that call from outside is on the session.
        submits: list[float] = []
        for leaf in leaves:
            _time_calls(leaf.session, "submit_flow_mods", submits)
        if self.traced:
            self._trace(fabric)
        read_at = float("-inf")
        for picks_by_leaf in self.schedule:
            self.request += 1
            tracer.request = self.request
            if perf_counter() - read_at > REFRESH_S:
                factor = clock.factor()
                factors.append(factor)
                read_at = perf_counter()
            t0 = perf_counter()
            fabric.advance(TICK_S)
            win.call_s += (perf_counter() - t0) / factor
            for leaf_index, picks in picks_by_leaf:
                pkts = [templates[i].copy() for i in picks]
                # Admission lands when the punting burst returns, so who
                # is served is known before the call.
                expect_served = sum(1 for i in picks if owners[i] in admitted)
                t0 = perf_counter()
                outcome = fabric.inject(leaves[leaf_index], pkts)
                burst_s.append((perf_counter() - t0) / factor)
                mod_s.extend(s / factor for s in submits)
                submits.clear()
                win.injected += outcome.injected
                win.served += outcome.served
                win.tally[CTRL] += outcome.punted
                win.tally[DROP] += outcome.dropped
                self.checks.expect(
                    outcome.served == expect_served
                    and outcome.punted == len(pkts) - expect_served
                    and outcome.dropped == 0,
                    f"tick {self.request}: served {outcome.served}/"
                    f"{expect_served}, dropped {outcome.dropped}",
                    count=len(pkts),
                )
        tracer.unwrap_all()  # the replay below is not the workload
        for leaf in leaves:  # the tracer may have taken the timer with it
            vars(leaf.session).pop("submit_flow_mods", None)
        win.tally[FWD] = win.served
        win.packets = win.injected
        win.call_s += sum(burst_s)
        # Each admitted subscriber is one acknowledged batch of two mods.
        win.mods = 2 * len(admitted)
        for leaf in leaves:
            self.checks.expect(
                leaf.session.sends_failed == 0,
                f"{leaf.name}: {leaf.session.sends_failed} batches lost",
                count=max(1, leaf.session.sends),
            )
        # Virtual time makes every window of a run the same window.
        counts = (win.injected, win.served, tuple(win.tally), win.mods)
        if self._first_counts is None:
            self._first_counts = counts
        self.checks.expect(
            counts == self._first_counts,
            f"window counts {counts} differ from the first "
            f"{self._first_counts}",
        )
        self._replay_against_reference(fabric)
        return win

    def _replay_against_reference(self, fabric) -> None:
        """The fixed sample through independently built leaf and spine
        pipelines holding exactly the admitted subscribers' rules."""
        inputs = self.inputs
        references = []
        fib = None
        for _leaf in fabric.leaves:
            t0 = perf_counter()
            pipeline, fib = inputs.make_reference_leaf()
            self.pipeline_build_samples.append(perf_counter() - t0)
            references.append(pipeline)
        for ce, user in sorted(fabric.controller.admitted):
            pipeline = references[ce % inputs.n_leaves]
            for mod in gateway.nat_flow_mods(ce, user):
                pipeline.table(mod.table_id).add(mod.to_entry())
        spine_ref = spine_pipeline(fib)

        spent = 0.0
        for k, i in enumerate(self.sample_picks()):
            leaf_index = inputs.owners[i][0] % inputs.n_leaves
            ref_pkt, pkt = inputs.templates[i].copy(), inputs.templates[i].copy()
            t0 = perf_counter()
            ref = references[leaf_index].process(ref_pkt)
            spent += perf_counter() - t0
            got = fabric.leaves[leaf_index].switch.process_burst([pkt])[0]
            ok = got.summary() == ref.summary() and pkt.data == ref_pkt.data
            if ok and ref.forwarded:
                ref_hop, hop = ref_pkt.copy(), pkt.copy()
                ref_next = spine_ref.process(ref_hop)
                spine = fabric.spines[k % len(fabric.spines)]
                got_next = spine.switch.process_burst([hop])[0]
                ok = (got_next.summary() == ref_next.summary()
                      and hop.data == ref_hop.data)
            self.checks.expect(ok, f"fabric sample {k} disagrees")
        self.ref_process_us = spent / inputs.sample * 1e6

    def warm_up(self) -> None:
        """No window, every one is a fresh fabric, but one discarded
        ``Fabric(...)``: the first build pays the first-use costs."""
        self._timed_build(self.inputs.make_fabric).close()
        self.setup_samples.clear()
        gc.collect()


def _time_calls(obj: object, attr: str, sink: list) -> None:
    """Shadow ``obj.attr`` with a wrapper that appends each call's seconds
    to ``sink``."""
    fn = getattr(obj, attr)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter() - t0)

    setattr(obj, attr, timed)


def make_bench(workload: Workload, seed: int, scale: int, work: float):
    """``scale`` divides the table sizes (``--smoke``), ``work`` scales
    the window sizes."""
    inputs = workload.build(seed, scale)
    cls = FabricBench if workload.kind == "fabric" else SwitchBench
    return cls(workload, inputs, work)


def settle_gc() -> None:
    """After set-up: collect, then freeze what survived so the windows'
    collections (GC stays on) only walk what the windows allocate."""
    gc.collect()
    gc.freeze()
