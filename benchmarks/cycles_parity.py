"""Modeled cycles of two source trees, point for point.

    python benchmarks/cycles_parity.py OLD_ROOT NEW_ROOT

runs itself once per tree, in a fresh process with ``PYTHONPATH`` set to
that tree's ``src`` (and the tree's own ``bench.workloads`` building the
inputs), then prints each point's modeled cycle total from both and
whether they are bit-identical (``float.hex``). Exit status 1 on any
difference. The points:

* ``ESwitch`` over the ``gateway``, ``l2_hash_1e5`` and ``acl_369`` ruler
  inputs (seed 0, full scale): every template once, in bursts of 32;
* ``OvsSwitch`` over the Fig. 3 table with both arrival sequences, and
  at each Fig. 14 gateway sweep point (``measure`` with the figure
  table's replay sizes), whose EMC and megaflow hits touch cache lines
  named by megaflow entry ids.

A point's value is a cycle total, not a rate: a one-cycle drift shows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BURST = 32
GW = dict(n_ce=10, users_per_ce=20)
GW_FLOWS = (1, 100, 1_000, 10_000, 100_000)
REPLAY_CAP = 30_000
FIG3_SEQS = ((190, 189, 187, 183, 175, 159, 191),
             (191, 190, 189, 187, 183, 175, 159))


def _eswitch_points(out: dict) -> None:
    from bench.workloads import WORKLOADS
    from repro.core import ESwitch
    from repro.simcpu.platform import XEON_E5_2620
    from repro.simcpu.recorder import CycleMeter

    for name in ("gateway", "l2_hash_1e5", "acl_369"):
        inputs = WORKLOADS[name].build(0, 1)
        switch = ESwitch(inputs.make_pipeline(), inputs.config)
        switch.warm()
        meter = CycleMeter(XEON_E5_2620)
        pkts = inputs.templates
        for at in range(0, len(pkts), BURST):
            switch.process_burst([p.copy() for p in pkts[at:at + BURST]], meter)
        out[f"eswitch.{name}"] = meter.total_cycles.hex()


def _ovs_points(out: dict) -> None:
    from repro.openflow.actions import Output
    from repro.openflow.flow_entry import FlowEntry
    from repro.openflow.flow_table import FlowTable
    from repro.openflow.match import Match
    from repro.openflow.pipeline import Pipeline
    from repro.ovs import OvsSwitch
    from repro.packet.builder import PacketBuilder
    from repro.simcpu.platform import XEON_E5_2620
    from repro.simcpu.recorder import CycleMeter
    from repro.traffic import measure
    from repro.traffic.nfpa import auto_params
    from repro.usecases import gateway

    for i, seq in enumerate(FIG3_SEQS, 1):
        table = FlowTable(0)
        table.add(FlowEntry(Match(tcp_dst=255), priority=10, actions=[]))
        table.add(FlowEntry(Match(), priority=0, actions=[Output(3)]))
        ovs = OvsSwitch(Pipeline([table]))
        meter = CycleMeter(XEON_E5_2620)
        for port in seq * 2:
            meter.begin_packet()
            ovs.process(
                PacketBuilder(in_port=1).eth().ipv4().tcp(dst_port=port).build(),
                meter,
            )
            meter.end_packet()
        out[f"ovs.fig03.seq{i}"] = meter.total_cycles.hex()

    for n_flows in GW_FLOWS:
        pipeline, fib = gateway.build(n_prefixes=10_000, **GW)
        flows = gateway.traffic(fib, n_flows, **GW)
        n_packets, warmup = auto_params(n_flows)
        m = measure(OvsSwitch(pipeline), flows,
                    n_packets=min(n_packets, REPLAY_CAP),
                    warmup=min(warmup, REPLAY_CAP))
        out[f"ovs.fig14.flows-{n_flows}"] = (
            m.cycles_per_packet * m.packets
        ).hex()


def emit() -> None:
    out: dict = {}
    _eswitch_points(out)
    _ovs_points(out)
    print(json.dumps(out))


def run(root: str) -> dict:
    root = os.path.abspath(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--emit"],
        cwd=root, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(old_root: str, new_root: str) -> int:
    old, new = run(old_root), run(new_root)
    differ = 0
    for point in sorted(old.keys() | new.keys()):
        a, b = old.get(point), new.get(point)
        same = a == b
        differ += not same
        value = float.fromhex(b) if b else float("nan")
        print(f"{point:28s} {value:>22.3f}  {'identical' if same else 'DIFFERS: ' + str(a)}")
    print(f"{len(old.keys() | new.keys()) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        sys.path.insert(0, os.getcwd())  # the tree's own bench package
        emit()
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
