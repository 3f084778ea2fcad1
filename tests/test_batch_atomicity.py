"""A batch that raises halfway is invisible — on every switch.

``apply_flow_mods`` is each switch's raising primitive; all of them get
their undo from :meth:`Pipeline.undo_record`, so after a failed batch the
logical tables hold the pre-batch entry *objects* in the pre-batch order
(counters, ``entry_id`` s and all), a table the batch created is gone, and
packets fare as on a switch that never saw the batch.
"""

import pytest

from repro.core import ESwitch
from repro.core.analysis import CompileConfig
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.traffic.nfpa import DirectSwitch
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.parallel import ShardedESwitch

MACS = [0x0200_0000_0000 + i for i in range(12)]
DUP = 0x0200_0000_00FF  # one match at two priorities


def out(port):
    return (ApplyActions([Output(port)]),)


def build() -> Pipeline:
    table = FlowTable(0)
    for i, mac in enumerate(MACS):
        table.add(FlowEntry(Match(eth_dst=mac), priority=1,
                            instructions=out(1 + i % 4)))
    table.add(FlowEntry(Match(eth_dst=DUP), priority=5, instructions=out(8)))
    table.add(FlowEntry(Match(eth_dst=DUP), priority=0, instructions=out(9)))
    return Pipeline([table])


def pkt(dst):
    return PacketBuilder(in_port=3).eth(dst=dst).ipv4().tcp().build()


PROBES = [*MACS, DUP, 0x0200_0000_0999]

SWITCHES = {
    "eswitch-fused": ESwitch.from_pipeline,
    "eswitch-trampoline": lambda p: ESwitch.from_pipeline(
        p, config=CompileConfig(fuse=False)),
    "ovs": OvsSwitch,
    "adapter": DirectSwitch,
    "sharded-thread": lambda p: ShardedESwitch(p, workers=2, backend="thread"),
}


def verdicts(switch):
    process = getattr(switch, "process", switch.pipeline.process)
    return [process(pkt(dst)).summary() for dst in PROBES]


def failing_batch():
    add = FlowModCommand.ADD
    delete = FlowModCommand.DELETE
    return [
        FlowMod(add, 0, Match(eth_dst=0x0200_0000_0777), priority=1,
                instructions=out(7)),
        # Replaces a rule that has traffic on it, and sends it to the
        # table the batch creates further down.
        FlowMod(add, 0, Match(eth_dst=MACS[2]), priority=1,
                instructions=(GotoTable(9),)),
        FlowMod(delete, 0, Match(eth_dst=MACS[5]), priority=1, strict=True),
        FlowMod(delete, 0, Match(eth_dst=DUP)),  # both priorities
        FlowMod(add, 9, Match(), priority=0, instructions=out(6)),
        FlowMod(add, 0, Match(eth_dst=1), priority=-1),  # to_entry() raises
    ]


@pytest.mark.parametrize("kind", sorted(SWITCHES))
def test_failed_batch_is_invisible(kind):
    switch = SWITCHES[kind](build())
    untouched = SWITCHES[kind](build())
    try:
        for each in (switch, untouched):
            verdicts(each)  # traffic on the rules first
        table = switch.pipeline.table(0)
        entries = table.entries
        state = [(e.entry_id, e.packets, e.bytes)
                 for e in entries]
        assert any(packets for _id, packets, _bytes in state)
        applied = getattr(switch, "flow_mods_applied", None)

        with pytest.raises(ValueError):
            switch.apply_flow_mods(failing_batch())

        after = table.entries
        assert len(after) == len(entries)
        assert all(a is b for a, b in zip(after, entries))
        assert [(e.entry_id, e.packets, e.bytes)
                for e in after] == state
        assert [t.table_id for t in switch.pipeline] == [0]
        if hasattr(switch, "table_kinds"):
            assert sorted(switch.table_kinds()) == [0]
        assert getattr(switch, "flow_mods_applied", None) == applied
        assert verdicts(switch) == verdicts(untouched)
        # The same batch without the poison goes through afterwards.
        assert switch.submit_flow_mods(failing_batch()[:-1]).accepted
        assert untouched.submit_flow_mods(failing_batch()[:-1]).accepted
        assert verdicts(switch) == verdicts(untouched)
    finally:
        for each in (switch, untouched):
            close = getattr(each, "close", None)
            if close is not None:
                close()
