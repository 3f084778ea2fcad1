"""The simple firewall of Fig. 1.

Arbitrates between an Internet-facing ``EXTERNAL`` port and an ``INTERNAL``
port hosting a web server at 192.0.2.1: internal traffic leaves
unconditionally, only HTTP (tcp_dst=80) to the server is admitted inbound,
everything else drops.
"""

from __future__ import annotations

from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline

EXTERNAL = 1
INTERNAL = 2
SERVER_IP = "192.0.2.1"


def build_single_stage() -> Pipeline:
    """Fig. 1a: one flow table, three entries, decreasing priority."""
    table = FlowTable(0, name="firewall")
    table.add(
        FlowEntry(Match(in_port=INTERNAL), priority=30, actions=[Output(EXTERNAL)])
    )
    table.add(
        FlowEntry(
            Match(in_port=EXTERNAL, ipv4_dst=SERVER_IP, tcp_dst=80),
            priority=20,
            actions=[Output(INTERNAL)],
        )
    )
    table.add(FlowEntry(Match(), priority=0, actions=[]))  # drop
    return Pipeline([table])


def build_multi_stage() -> Pipeline:
    """Fig. 1b: port separation first, web filtering second."""
    t0 = FlowTable(0, name="ports")
    t0.add(FlowEntry(Match(in_port=INTERNAL), priority=20, actions=[Output(EXTERNAL)]))
    t0.add(
        FlowEntry(
            Match(in_port=EXTERNAL), priority=10, instructions=(GotoTable(1),)
        )
    )
    t0.add(FlowEntry(Match(), priority=0, actions=[]))

    t1 = FlowTable(1, name="web-filter")
    t1.add(
        FlowEntry(
            Match(ipv4_dst=SERVER_IP, tcp_dst=80),
            priority=10,
            instructions=(ApplyActions([Output(INTERNAL)]),),
        )
    )
    t1.add(FlowEntry(Match(), priority=0, actions=[]))
    return Pipeline([t0, t1])
