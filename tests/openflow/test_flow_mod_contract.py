"""One meaning and one door for a flow-mod.

``Pipeline.apply_flow_mod`` says what a flow-mod does to a table and
``Pipeline.admit_flow_mods`` whether a batch may; every switch-like
object offers ``submit_flow_mods(mods) -> FlowModReply`` built from the
two. The contract: one table of batches, driven through every door,
draws the same reply signature (accepted, sorted error codes) and leaves
the same logical tables behind — and a rejected batch leaves every one
of them untouched, down to the set of table ids.
"""

import pytest

from repro.controller import ControllerSession, RELIABLE_CHANNEL
from repro.core import ESwitch
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, FlowModFailed
from repro.openflow.pipeline import MAX_TABLES, Pipeline
from repro.traffic.nfpa import DirectSwitch
from repro.ovs import OvsSwitch
from repro.parallel import ShardedESwitch

ADD, DELETE = FlowModCommand.ADD, FlowModCommand.DELETE
A1, A2 = 0x02_00_00_00_00_A1, 0x02_00_00_00_00_A2

TABLE_FULL = ("OFPET_FLOW_MOD_FAILED", "OFPFMFC_TABLE_FULL")
BAD_TABLE_ID = ("OFPET_FLOW_MOD_FAILED", "OFPFMFC_BAD_TABLE_ID")
BAD_COMMAND = ("OFPET_FLOW_MOD_FAILED", "OFPFMFC_BAD_COMMAND")
BAD_GOTO = ("OFPET_BAD_INSTRUCTION", "OFPBIC_BAD_TABLE_ID")


def out(port):
    return (ApplyActions([Output(port)]),)


def build_pipeline() -> Pipeline:
    """Table 0 is *at capacity* with one match at three priorities (0
    included) plus a second match; table 1 is unbounded."""
    t0 = FlowTable(0, max_entries=4)
    for match, priority, port in (
        (Match(eth_dst=A1), 7, 1),
        (Match(eth_dst=A1), 5, 2),
        (Match(eth_dst=A1), 0, 3),
        (Match(eth_dst=A2), 5, 4),
    ):
        t0.add(FlowEntry(match, priority=priority, instructions=out(port)))
    t1 = FlowTable(1)
    t1.add(FlowEntry(Match(), priority=1, instructions=out(9)))
    return Pipeline([t0, t1])


def mod(command, table_id, priority=5, instructions=out(8), strict=False,
        **match):
    return FlowMod(command, table_id, Match(**match), priority=priority,
                   instructions=instructions, strict=strict)


#: id -> (batch, accepted, sorted error codes)
BATCHES = {
    "add": ([mod(ADD, 1, eth_dst=A1)], True, ()),
    "add-replace-at-capacity": ([mod(ADD, 0, eth_dst=A1)], True, ()),
    "table-full": ([mod(ADD, 0, eth_dst=0xB0)], False, (TABLE_FULL,)),
    "good-mod-beside-table-full": (
        [mod(ADD, 1, eth_dst=A1), mod(ADD, 0, eth_dst=0xB0)],
        False, (TABLE_FULL,),
    ),
    "goto-batch-created-table": (
        [mod(ADD, 1, instructions=(GotoTable(9),), eth_dst=A1),
         mod(ADD, 9, eth_dst=A2)],
        True, (),
    ),
    "goto-missing-table": (
        [mod(ADD, 1, instructions=(GotoTable(9),), eth_dst=A1)],
        False, (BAD_GOTO,),
    ),
    "table-id-beyond-space": (
        [mod(ADD, MAX_TABLES, eth_dst=A1)], False, (BAD_TABLE_ID,),
    ),
    "priority-out-of-range": (
        [mod(ADD, 1, priority=1 << 16, eth_dst=A1)], False, (BAD_COMMAND,),
    ),
    "strict-delete-at-priority-0": (
        [mod(DELETE, 0, priority=0, strict=True, eth_dst=A1)], True, (),
    ),
    "non-strict-delete-across-priorities": (
        [mod(DELETE, 0, priority=5, eth_dst=A1)], True, (),
    ),
    "delete-matching-nothing": (
        [mod(DELETE, 0, strict=True, eth_dst=0xDEAD)], True, (),
    ),
    "delete-frees-room-for-add": (
        [mod(DELETE, 0, priority=0, strict=True, eth_dst=A1),
         mod(ADD, 0, eth_dst=0xB0)],
        True, (),
    ),
}

#: what the accepted batches must leave in table 0, as (match, priority)
TABLE0_AFTER = {
    "strict-delete-at-priority-0": [
        (Match(eth_dst=A1), 7), (Match(eth_dst=A1), 5), (Match(eth_dst=A2), 5),
    ],
    "non-strict-delete-across-priorities": [(Match(eth_dst=A2), 5)],
    "delete-frees-room-for-add": [
        (Match(eth_dst=A1), 7), (Match(eth_dst=A1), 5), (Match(eth_dst=A2), 5),
        (Match(eth_dst=0xB0), 5),
    ],
}


def _session(pipeline):
    return ControllerSession(ESwitch(pipeline), channel=RELIABLE_CHANNEL)


#: door name -> factory over a fresh pipeline
DOORS = {
    "pipeline": DirectSwitch,
    "eswitch": ESwitch,
    "ovs": OvsSwitch,
    "sharded": lambda p: ShardedESwitch(p, workers=1),
    "session": _session,
}


def pipeline_of(door):
    if isinstance(door, ControllerSession):
        return door.switch.pipeline
    return door.pipeline


def signature(reply):
    return bool(reply.accepted), tuple(sorted(
        (err.etype.value, getattr(err.code, "value", err.code))
        for err in reply.errors
    ))


def logical_tables(pipeline):
    return {
        table.table_id: [
            (e.match, e.priority, tuple(e.instructions)) for e in table.entries
        ]
        for table in pipeline
    }


@pytest.fixture(params=sorted(DOORS))
def door(request):
    switch = DOORS[request.param](build_pipeline())
    yield switch
    close = getattr(switch, "close", None)
    if close is not None:
        close()


@pytest.mark.parametrize("batch_id", sorted(BATCHES))
def test_every_door_answers_and_applies_like_the_spec(door, batch_id):
    batch, accepted, error_codes = BATCHES[batch_id]
    before = logical_tables(pipeline_of(door))

    reply = door.submit_flow_mods(list(batch))

    assert signature(reply) == (accepted, error_codes)
    after = logical_tables(pipeline_of(door))
    if not accepted:
        assert reply.cycles == 0.0
        assert after == before  # untouched: rules and the table-id set
        return
    # The bare pipeline is the spec: same batch, same tables.
    spec = build_pipeline()
    for flow_mod in batch:
        spec.apply_flow_mod(flow_mod)
    assert after == logical_tables(spec)
    if batch_id in TABLE0_AFTER:
        assert [(m, p) for m, p, _ in after[0]] == TABLE0_AFTER[batch_id]


def test_apply_flow_mod_reports_what_it_removed_and_added():
    pipeline = build_pipeline()
    removed, added = pipeline.apply_flow_mod(mod(DELETE, 0, eth_dst=A1))
    assert (removed, added) == (3, None)
    assert pipeline.apply_flow_mod(mod(DELETE, 0, eth_dst=A1)) == (0, None)
    removed, added = pipeline.apply_flow_mod(mod(ADD, 0, eth_dst=A1))
    assert removed == 0 and added is pipeline.table(0).find(Match(eth_dst=A1))


@pytest.mark.parametrize("name", ["pipeline", "eswitch", "ovs"])
def test_the_primitive_raises_where_the_door_answers(name):
    """``apply_flow_mod`` stays the raising in-process primitive."""
    switch = DOORS[name](build_pipeline())
    with pytest.raises(FlowModFailed):
        switch.apply_flow_mod(mod(ADD, 0, eth_dst=0xB0))


def test_session_relays_the_switch_reply_cycles_included():
    direct = ESwitch(build_pipeline())
    session = _session(build_pipeline())
    batch = BATCHES["add"][0]
    assert session.submit_flow_mods(batch) == direct.submit_flow_mods(batch)
    assert direct.update_stats.cycles > 0.0
