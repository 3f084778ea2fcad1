"""The differential oracle: one scenario, every backend, zero divergence.

Runs an identical (pipeline, traffic, flow-mod schedule) through the
**backend matrix**, seven executions:

* ``fused``       — ESwitch, whole-pipeline fusion (the paper's fast path);
* ``trampoline``  — ESwitch, per-table templates behind the dispatch loop;
* ``linked_list`` — ESwitch pinned to the universal linked-list rung
                    (decomposition off): the semantics baseline compiler;
* ``ovs``         — the OVS model (EMC → megaflow → vswitchd slow path);
* ``sharded1``, ``sharded4`` — ShardedESwitch at 1 and 4 thread workers
                    (``sharded4`` sits out scenarios with a tight meter);
* ``sharded1_process`` — ShardedESwitch, one worker process over its
                    pipe: the real process backend as a judge;

against the **reference interpreter** (``Pipeline.process``), asserting:

* identical per-packet verdicts (output ports, drop, to-controller);
* identical post-action packet bytes (unsharded backends — the engine
  never mutates caller packets, so bytes are unobservable there);
* identical admission decisions and error taxonomies for every flow-mod
  batch: the reference pipeline's own ``admit_flow_mods`` arbitrates and
  every backend, OVS included, answers ``submit_flow_mods`` against it;
* identical expiry decisions at every clock tick: each backend gets its
  own :class:`ExpiryManager` (expiry is local control-plane behavior,
  not arbitrated), and identical counters under identical clocks must
  expire identical ``(table, match, priority, reason)`` sets;
* identical end-of-run flow counters on every logical entry;
* bit-identical modeled cycle totals where defined: fused ↔ trampoline
  always (fusion's contract), and sharded(workers=1) ↔ fused unless the
  scenario force-quarantines tables (quarantine is applied to the
  unsharded switches only, changing their compiled rungs, not their
  semantics).

Degraded states are part of the matrix, not excluded from it: forced
quarantine and forced fuse-failure must be *semantically invisible*,
which is exactly what the oracle checks.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass

from repro.core import ESwitch
from repro.core.analysis import CompileConfig
from repro.fuzz.scenario import Scenario
from repro.openflow.timeouts import ExpiryManager
from repro.ovs import OvsSwitch
from repro.parallel import ShardedESwitch
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import CycleMeter
from repro.traffic.nfpa import DirectSwitch

DEFAULT_WORKERS = (1, 4)


@dataclass
class Divergence:
    kind: str  # verdict | bytes | admission | expiry | counters | cycles | crash
    backend: str
    detail: str
    event: int = -1
    packet: int = -1

    def __str__(self) -> str:
        where = ""
        if self.event >= 0:
            where = f" @event {self.event}"
            if self.packet >= 0:
                where += f" pkt {self.packet}"
        return f"[{self.kind}] {self.backend}{where}: {self.detail}"


def _counters(pipeline) -> dict:
    return {
        (table.table_id, i): (entry.packets, entry.bytes)
        for table in pipeline
        for i, entry in enumerate(table.entries)
    }


def _reply_sig(reply) -> tuple:
    codes = tuple(sorted(
        (err.etype.value,
         err.code.value if hasattr(err.code, "value") else str(err.code))
        for err in reply.errors
    ))
    return (bool(reply.accepted), codes)


class _Backend:
    """What the oracle reads off any backend: its switch's tables and
    counters, and (where defined) its meter's cycle total."""

    compares_bytes = True
    meter = None

    @property
    def pipeline(self):
        return self.switch.pipeline

    def flow_counts(self):
        return _counters(self.switch.pipeline)

    @property
    def cycles(self):
        return None if self.meter is None else self.meter.total_cycles

    def close(self):
        pass


class _EswitchBackend(_Backend):
    def __init__(self, name: str, scenario: Scenario, config: CompileConfig):
        self.name = name
        self.switch = ESwitch(scenario.build_pipeline(), config=config)
        self.meter = CycleMeter(XEON_E5_2620)
        for tid in scenario.quarantine:
            self.switch.force_quarantine(tid, reason="fuzz: forced")
        if name == "fused" and scenario.degrade_fuse:
            self.switch.warm()
            self.switch.datapath.force_fuse_failure("fuzz: forced degradation")

    def burst(self, pkts):
        verdicts = self.switch.process_burst(pkts, self.meter)
        return [v.summary() for v in verdicts], [bytes(p.data) for p in pkts]


class _OvsBackend(_Backend):
    name = "ovs"

    def __init__(self, scenario: Scenario):
        self.switch = OvsSwitch(scenario.build_pipeline())

    def burst(self, pkts):
        sums = []
        for pkt in pkts:
            sums.append(self.switch.process(pkt).summary())
        return sums, [bytes(p.data) for p in pkts]


class _ShardedBackend(_Backend):
    compares_bytes = False  # the engine never mutates caller packets

    def __init__(self, name: str, scenario: Scenario, workers: int,
                 config: CompileConfig, backend: str = "thread"):
        self.name = name
        self.switch = ShardedESwitch(
            scenario.build_pipeline(), workers=workers, backend=backend,
            config=config,
        )
        self.meter = CycleMeter(XEON_E5_2620)

    def burst(self, pkts):
        verdicts = self.switch.process_burst(pkts, self.meter)
        return [v.summary() for v in verdicts], None

    def close(self):
        self.switch.close()


def _diff_counters(got: dict, want: dict) -> str:
    lines = []
    for key in sorted(set(got) | set(want)):
        g, w = got.get(key), want.get(key)
        if g != w:
            lines.append(f"table {key[0]} entry {key[1]}: {g} != {w}")
    return "; ".join(lines[:8]) or "entry sets differ"


def run_scenario(
    scenario: Scenario, workers: "tuple" = DEFAULT_WORKERS
) -> "list[Divergence]":
    """Execute ``scenario`` across the full backend matrix.

    Returns the (possibly empty) list of divergences. Never raises for a
    backend fault — a backend that crashes is itself a divergence.
    """
    divergences: list[Divergence] = []
    reference = scenario.build_pipeline()
    ref_switch = DirectSwitch(reference)

    base = CompileConfig()
    if scenario.direct_threshold is not None:
        base = base.with_(direct_threshold=scenario.direct_threshold)
    backends: list = [
        _EswitchBackend("fused", scenario, base),
        _EswitchBackend("trampoline", scenario, base.with_(fuse=False)),
        _EswitchBackend(
            "linked_list", scenario,
            base.with_(fuse=False, decompose=False, force_linked_list=True),
        ),
        _OvsBackend(scenario),
    ]
    for n in workers:
        if n > 1 and scenario.tight_meter:
            continue  # replica-local token buckets legitimately diverge
        backends.append(_ShardedBackend(f"sharded{n}", scenario, n, base))
    # A real worker process over its pipe (the thread shards above carry
    # the same frames over a queue): a process-boundary or supervision
    # bug shows up as a verdict/counters/cycles divergence.
    backends.append(_ShardedBackend(
        "sharded1_process", scenario, 1, base, backend="process"
    ))

    dead: set = set()
    # One ExpiryManager per backend plus one over the reference, created
    # on the first "tick" event. Expiry is *local* control-plane behavior
    # (no arbiter): every manager sees the same scenario clock, and since
    # counters are oracle-identical, expiry decisions must be too.
    expiries: dict = {}
    ref_expiry: "ExpiryManager | None" = None

    def _expiry_sig(expired) -> list:
        return [(tid, entry.match, entry.priority, reason)
                for tid, entry, reason in expired]

    def crash(backend, exc, event, kind="crash"):
        divergences.append(Divergence(
            kind, backend.name,
            "".join(traceback.format_exception_only(type(exc), exc)).strip(),
            event=event,
        ))
        dead.add(backend.name)

    try:
        for ei, event in enumerate(scenario.events):
            if "burst" in event:
                ref_pkts = scenario.build_packets(event["burst"])
                ref_sums = [reference.process(p).summary() for p in ref_pkts]
                ref_datas = [bytes(p.data) for p in ref_pkts]
                for backend in backends:
                    if backend.name in dead:
                        continue
                    pkts = scenario.build_packets(event["burst"])
                    try:
                        sums, datas = backend.burst(pkts)
                    except Exception as exc:  # noqa: BLE001 — the oracle
                        crash(backend, exc, ei)
                        continue
                    for pi, (got, want) in enumerate(zip(sums, ref_sums)):
                        if got != want:
                            divergences.append(Divergence(
                                "verdict", backend.name,
                                f"{got} != reference {want}",
                                event=ei, packet=pi,
                            ))
                    if backend.compares_bytes:
                        for pi, (got, want) in enumerate(zip(datas, ref_datas)):
                            if got != want:
                                divergences.append(Divergence(
                                    "bytes", backend.name,
                                    f"{got.hex()} != reference {want.hex()}",
                                    event=ei, packet=pi,
                                ))
            elif "tick" in event:
                now = float(event["tick"])
                if ref_expiry is None:
                    ref_expiry = ExpiryManager(ref_switch)
                want = _expiry_sig(ref_expiry.tick(now))
                for backend in backends:
                    if backend.name in dead:
                        continue
                    manager = expiries.get(backend.name)
                    if manager is None:
                        manager = ExpiryManager(backend.switch)
                        expiries[backend.name] = manager
                    try:
                        got = _expiry_sig(manager.tick(now))
                    except Exception as exc:  # noqa: BLE001
                        crash(backend, exc, ei)
                        continue
                    if got != want:
                        divergences.append(Divergence(
                            "expiry", backend.name,
                            f"{got} != reference {want}", event=ei,
                        ))
            else:
                batch = event["mods"]
                # The spec arbitrates: the reference admits (or refuses)
                # and applies first, then every backend must answer the
                # same batch the same way.
                decision = _reply_sig(ref_switch.submit_flow_mods(
                    scenario.build_mods(batch, reference)
                ))
                for backend in backends:
                    if backend.name in dead:
                        continue
                    try:
                        sig = _reply_sig(backend.switch.submit_flow_mods(
                            scenario.build_mods(batch, backend.pipeline)
                        ))
                    except Exception as exc:  # noqa: BLE001
                        crash(backend, exc, ei)
                        continue
                    if sig != decision:
                        divergences.append(Divergence(
                            "admission", backend.name,
                            f"{sig} != reference {decision}",
                            event=ei,
                        ))

        ref_counts = _counters(reference)
        for backend in backends:
            if backend.name in dead:
                continue
            try:
                got = backend.flow_counts()
            except Exception as exc:  # noqa: BLE001
                crash(backend, exc, -1)
                continue
            if got != ref_counts:
                divergences.append(Divergence(
                    "counters", backend.name, _diff_counters(got, ref_counts)
                ))

        by_name = {b.name: b for b in backends if b.name not in dead}
        fused = by_name.get("fused")
        for other_name in ("trampoline", "sharded1", "sharded1_process"):
            other = by_name.get(other_name)
            if fused is None or other is None:
                continue
            if other_name.startswith("sharded1") and scenario.quarantine:
                continue  # quarantine shifts unsharded rungs (and costs) only
            if other.cycles != fused.cycles:
                divergences.append(Divergence(
                    "cycles", other_name,
                    f"{other.cycles!r} != fused {fused.cycles!r}",
                ))
    finally:
        for backend in backends:
            try:
                backend.close()
            except Exception:  # noqa: BLE001 — teardown must not mask results
                pass

    return divergences


def diverges(obj: dict) -> bool:
    """Shrinker predicate: does this scenario document still fail?

    Invalid candidates (documents that no longer build) count as
    non-failing, so the shrinker backtracks instead of chasing them.
    """
    try:
        scenario = Scenario.from_obj(pickle.loads(pickle.dumps(obj)))
        return bool(run_scenario(scenario))
    except Exception:  # noqa: BLE001 — malformed candidate, not a finding
        return False
