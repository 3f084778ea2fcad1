"""One rule id on every replica: shards name rules by id, counts land on
the shadow's rules.

A table mints a rule's ``entry_id`` when it installs it, so replicas that
apply the same flow-mods in the same order name every rule alike; the
reply carries ``(tid, rule_id)`` hops and ``(rule_id, packets, bytes)``
counts, and the gather resolves them through the shadow pipeline's rule
index. Nothing on either side of the channel walks a table per epoch.
"""

import multiprocessing
import os

import pytest

from repro.openflow.actions import Output
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, FlowModFailed
from repro.packet import PacketBuilder
from repro.parallel import ShardedESwitch
from repro.usecases import l2

NEW_MACS = (0x0200_0000_0001, 0x0200_0000_0002, 0x0200_0000_0003)


def mac_add(mac: int, port: int = 7) -> FlowMod:
    return FlowMod(FlowModCommand.ADD, 0, Match(eth_dst=mac), priority=1,
                   instructions=(ApplyActions([Output(port)]),))


def mac_pkt(mac: int):
    return PacketBuilder(in_port=1).eth(dst=mac).build()


def test_one_mod_epoch_walks_no_entries(monkeypatch):
    """One ADD epoch and one burst over 1e4 rules, two worker processes:
    neither the shadow, nor a worker, nor the wire between them reads
    ``FlowTable.entries`` or iterates a table.

    The walk hook is installed before the engine forks, so every worker
    inherits it. Once the shared flag is up, a walk in the engine counts
    and a walk in a worker raises there: the worker reports it and the
    engine surfaces it (a burst raises ``ShardWorkerError``; a broadcast
    counts a worker error, and the replacement's own build walks and
    raises)."""
    pipeline, macs = l2.build(10_000)
    burst = [mac_pkt(mac) for mac in macs[:24]] + [mac_pkt(NEW_MACS[0])] * 8
    armed = multiprocessing.RawValue("b", 0)  # shared with forked workers
    engine_pid = os.getpid()
    walks = {"entries": 0, "iter": 0}
    entries, iterate = FlowTable.entries.fget, FlowTable.__iter__

    def walked(kind):
        if not armed.value:
            return
        if os.getpid() != engine_pid:
            raise RuntimeError(f"a worker walked FlowTable.{kind}")
        walks[kind] += 1

    def counted_entries(table):
        walked("entries")
        return entries(table)

    def counted_iter(table):
        walked("iter")
        return iterate(table)

    monkeypatch.setattr(FlowTable, "entries", property(counted_entries))
    monkeypatch.setattr(FlowTable, "__iter__", counted_iter)
    with ShardedESwitch(pipeline, workers=2) as eng:
        eng.process_burst([p.copy() for p in burst])  # first use: indexes built
        armed.value = 1
        eng.apply_flow_mod(mac_add(NEW_MACS[0]))
        verdicts = eng.process_burst([p.copy() for p in burst])
        armed.value = 0
        monkeypatch.undo()
        assert walks == {"entries": 0, "iter": 0}
        health = eng.health()
        assert (health.worker_errors, health.respawns) == (0, 0)
        assert all(v.output_ports for v in verdicts)
        new = eng.pipeline.table(0).find_rule(Match(eth_dst=NEW_MACS[0]), 1)
        assert all(v.path[-1][1] is new for v in verdicts[24:])
        assert (new.packets, new.bytes) == (8, 8 * len(burst[-1].data))


@pytest.mark.parametrize("kind", ["process"])
def test_rolled_back_batch_keeps_replicas_naming_alike(kind):
    """A batch that fails partway on the shadow mints ids there and never
    reaches a worker; the undo sets the minting back, so the next ADD is
    named alike everywhere: its hop resolves to the shadow's new entry,
    and its counts land on that entry with no sync call. Shard workers
    come in one kind: each is a forked process."""
    pipeline, macs = l2.build(64)
    table = pipeline.table(0)
    table.max_entries = len(table) + 2
    with ShardedESwitch(pipeline, workers=2) as eng:
        shards = [p for p in multiprocessing.active_children()
                  if p.name.startswith("repro-shard-")]
        assert kind == "process" and len(shards) == 2
        with pytest.raises(FlowModFailed):
            eng.apply_flow_mods([mac_add(NEW_MACS[0]), mac_add(NEW_MACS[1]),
                                 mac_add(NEW_MACS[2])])
        assert eng.epoch == 0 and eng.update_stats.rollbacks == 1
        eng.apply_flow_mod(mac_add(NEW_MACS[2], port=5))
        pkts = [mac_pkt(NEW_MACS[2]) for _ in range(6)] + [mac_pkt(macs[3])]
        verdicts = eng.process_burst([p.copy() for p in pkts])
        new = eng.pipeline.table(0).find_rule(Match(eth_dst=NEW_MACS[2]), 1)
        assert [v.output_ports for v in verdicts[:6]] == [[5]] * 6
        assert all(v.path == [(0, new)] for v in verdicts[:6])
        assert (new.packets, new.bytes) == (6, 6 * len(pkts[0].data))
        old = eng.pipeline.table(0).find_rule(Match(eth_dst=macs[3]), 1)
        assert verdicts[6].path == [(0, old)] and old.packets == 1
