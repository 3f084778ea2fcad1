"""The fabric soak: tenant churn and one leaf blackout, on virtual time.

A 4-leaf / 2-spine fabric under one controller is driven for 32 ticks
of 0.5 s while a scripted blackout takes ``leaf1``'s control channel
dark. Subscribers arrive staggered and each emits fresh flows every
tick, so admission punts, cache pressure and ECMP spray stay live. The
SLOs of DESIGN §12 are asserted on what the run counted:

* no packet is counted twice: served plus punted never exceeds injected
  plus dropped, over the run and over the fault window;

* the fabric-wide served fraction stays >= 0.7 during the fault window
  (three leaves serving, the dark leaf's admitted subscribers still
  forwarding in fail-standalone);
* the blackout is declared (one outage) and recovered (one resync), and
  install convergence after the resync is observed;
* nothing is dropped: in fail-standalone a punt the dark leaf cannot
  deliver is latency, not loss, so the 5 % drop budget is not touched;
* a rolling upgrade completes verdict-invisibly, and an upgrade whose
  re-fuse fails on ``leaf2`` rolls every leaf back to the old epoch,
  without a supervisor deadlock.

Everything replays bit-for-bit from the seed.
"""

import random
from dataclasses import dataclass

from repro.controller.session import FailMode
from repro.fabric import (
    BurstOutcome,
    Fabric,
    FabricFaultPlan,
    FabricFaultSpec,
    FabricSupervisor,
)
from repro.net.addresses import int_to_ip
from repro.packet.builder import PacketBuilder
from repro.usecases import gateway

TICKS, TICK_S = 32, 0.5
ARRIVAL_TICKS, LIFETIME_TICKS = 16, 24
N_CE, USERS_PER_CE, PKTS_PER_SUBSCRIBER = 8, 8, 2
DARK, OUTAGE_AT_S, OUTAGE_S = "leaf1", 4.0, 4.0
SERVED_FLOOR = 0.7


def flow_packet(ce, user, fib, rng):
    """A fresh flow from subscriber ``(ce, user)`` to a random FIB host."""
    value, depth, _port = fib[rng.randrange(len(fib))]
    host_bits = 32 - depth
    dst = value | (rng.getrandbits(host_bits) if host_bits else 0)
    return (
        PacketBuilder(in_port=gateway.ACCESS_PORT)
        .eth(src="02:00:00:00:02:01", dst="02:00:00:00:02:02")
        .vlan(vid=gateway.ce_vlan(ce))
        .ipv4(src=int_to_ip(gateway.private_ip(ce, user)), dst=int_to_ip(dst))
        .tcp(src_port=1024 + rng.randrange(60000), dst_port=443)
        .build()
    )


@dataclass
class Soak:
    fabric: Fabric
    supervisor: FabricSupervisor
    rng: random.Random
    totals: BurstOutcome
    fault_window: BurstOutcome


def soak() -> Soak:
    fabric = Fabric(n_leaves=4, n_spines=2, n_ce=N_CE, users_per_ce=USERS_PER_CE,
                    n_prefixes=200, fail_mode=FailMode.STANDALONE)
    blackout = FabricFaultSpec(at_s=OUTAGE_AT_S, target=DARK, kind="blackout",
                               duration_s=OUTAGE_S)
    supervisor = FabricSupervisor(fabric, faults=FabricFaultPlan((blackout,)).arm(fabric))
    subscribers = [(ce, user) for ce in range(N_CE) for user in range(USERS_PER_CE)]
    arrivals = [k * ARRIVAL_TICKS // len(subscribers) for k in range(len(subscribers))]
    rng = random.Random(42)
    run = Soak(fabric, supervisor, rng, BurstOutcome(), BurstOutcome())

    for tick in range(TICKS):
        supervisor.tick(TICK_S)
        active = [sub for sub, arrives in zip(subscribers, arrivals)
                  if arrives <= tick < arrives + LIFETIME_TICKS]
        by_leaf: dict[str, list] = {}
        for ce, user in active:
            by_leaf.setdefault(fabric.leaf_of(ce, user).name, []).extend(
                flow_packet(ce, user, fabric.fib, rng) for _ in range(PKTS_PER_SUBSCRIBER)
            )
        for leaf_name, pkts in sorted(by_leaf.items()):
            outcome = fabric.inject(leaf_name, pkts)
            run.totals.absorb(outcome)
            if OUTAGE_AT_S <= fabric.now <= OUTAGE_AT_S + OUTAGE_S + TICK_S:
                run.fault_window.absorb(outcome)
        # A resynced leaf has converged when a probe over its active
        # subscribers punts nothing and serves everything.
        for leaf_name in supervisor.awaiting_convergence():
            probe = [flow_packet(ce, user, fabric.fib, rng) for ce, user in active
                     if fabric.leaf_of(ce, user).name == leaf_name]
            outcome = fabric.inject(leaf_name, probe) if probe else BurstOutcome()
            if outcome.punted == 0 and outcome.served == outcome.injected:
                supervisor.note_converged(leaf_name)
    return run


def verdicts(fabric, trace):
    """Each leaf's verdicts over fresh copies of its slice of ``trace``."""
    return [
        (name, v.summary())
        for name, pkts in sorted(trace.items())
        for v in fabric.leaf(name).switch.process_burst([p.copy() for p in pkts])
    ]


def test_soak_report_covers_the_slos():
    run = soak()
    window, status = run.fault_window, run.supervisor.status[DARK]
    # Each injected packet is served, punted or dropped once: counting
    # one twice shows as more outcomes than packets.
    for counted in (run.totals, window):
        assert counted.injected > 0
        assert counted.served + counted.punted <= counted.injected + counted.dropped, counted
    assert window.served >= SERVED_FLOOR * window.injected, window
    assert [e[1] for e in run.supervisor.faults.log] == ["fired", "healed"]
    assert (status.outages, status.resyncs) == (1, 1), status
    assert status.degraded_time_s > 0.0
    assert status.convergence_s is not None and status.convergence_s >= 0.0
    # The 5 % drop budget is fail-secure's; fail-standalone drops nothing.
    assert run.totals.dropped == 0, run.totals
    assert any(leaf.session.punt_latencies for leaf in run.fabric.leaves)
    run.fabric.close()


def test_soak_upgrade_legs():
    run = soak()
    fabric, supervisor = run.fabric, run.supervisor
    trace: dict[str, list] = {}
    for ce, user in sorted(fabric.controller.admitted):
        trace.setdefault(fabric.leaf_of(ce, user).name, []).append(
            flow_packet(ce, user, fabric.fib, run.rng)
        )
    before = verdicts(fabric, trace)
    assert before

    rolling = supervisor.rolling_upgrade()
    assert rolling.completed and rolling.epoch == supervisor.epoch == 1
    assert verdicts(fabric, trace) == before

    aborted = supervisor.rolling_upgrade(fail_refuse_on="leaf2")
    assert not aborted.completed and aborted.aborted_at == "leaf2"
    assert aborted.rolled_back == ["leaf2", "leaf1", "leaf0"]
    assert {s.epoch for s in supervisor.status.values()} == {1}
    assert verdicts(fabric, trace) == before
    assert supervisor.deadlocks == 0
    fabric.close()


def test_soak_is_deterministic_under_its_seed():
    a, b = soak(), soak()
    assert a.totals == b.totals and a.fault_window == b.fault_window
    assert a.supervisor.events == b.supervisor.events
    latencies = [[list(leaf.session.punt_latencies) for leaf in run.fabric.leaves]
                 for run in (a, b)]
    assert latencies[0] == latencies[1]
    a.fabric.close(), b.fabric.close()
