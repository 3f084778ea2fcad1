"""A reactive MAC-learning switch controller.

The canonical OpenFlow application: unknown traffic is punted, the
controller learns ``(source MAC, ingress port)`` bindings, and installs
exact-match forwarding rules with an idle timeout so stale stations age
out. On ESWITCH the resulting table compiles to the hash template and
every learned station is an *incremental*, non-destructive insert — the
update path Section 3.4 is built for — while OVS pays a full cache flush
per learned address.

Pipeline shape — the canonical two-stage learning pipeline, so *every*
packet's source is checked even when its destination is already known::

    table 0 (source learning):
        prio 10:  eth_src=<MAC>, in_port=<port>  -> goto 1   (known station)
        prio  1:  *                              -> controller, goto 1

    table 1 (destination forwarding):
        prio 10:  eth_dst=<MAC>  -> output <port>
        prio  1:  *              -> flood
"""

from __future__ import annotations

from repro.openflow.actions import Controller, Flood, Output
from repro.openflow.fields import field_by_name
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketIn
from repro.openflow.pipeline import Pipeline
from repro.packet.parser import parse

SRC_TABLE = 0
DST_TABLE = 1


def build_pipeline() -> Pipeline:
    """The initial (empty-brained) learning-switch pipeline."""
    src = FlowTable(SRC_TABLE, name="l2-src-learn")
    src.add(
        FlowEntry(
            Match(),
            priority=1,
            instructions=(ApplyActions([Controller()]), GotoTable(DST_TABLE)),
        )
    )
    dst = FlowTable(DST_TABLE, name="l2-dst-forward")
    dst.add(
        FlowEntry(Match(), priority=1, instructions=(ApplyActions([Flood()]),))
    )
    return Pipeline([src, dst])


class LearningSwitch:
    """Handles packet-ins: learns sources, installs destination rules.

    Hardened against a hostile or broken punt path: a packet-in carrying
    a truncated or garbage frame is dropped and counted (``malformed``),
    never raised — a controller that crashes on bad input is a
    denial-of-service primitive. Installs go through the switch's typed
    reply; a rejected or channel-lost install rolls the MAC binding back
    (``install_failures``), so the station's next packet re-punts and the
    controller converges after the fault.
    """

    def __init__(self, switch, idle_timeout: float = 300.0):
        self.switch = switch
        self.idle_timeout = idle_timeout
        self.mac_table: dict[int, int] = {}  # MAC -> port
        self.learned = 0
        self.moved = 0
        self.packet_ins = 0
        self.malformed = 0
        self.install_failures = 0

    def __call__(self, packet_in: PacketIn) -> None:
        self.handle(packet_in)

    def handle(self, packet_in: PacketIn) -> None:
        self.packet_ins += 1
        try:
            view = parse(packet_in.pkt)
            src = field_by_name("eth_src").extract(view)
            port = packet_in.pkt.in_port
        except Exception:
            self.malformed += 1
            return
        if src is None or not isinstance(port, int):
            self.malformed += 1
            return
        known = self.mac_table.get(src)
        if known == port:
            return  # already learned; packet raced the flow-mod
        mods = []
        if known is not None:
            # Station moved: retire the old binding's rules first.
            mods.append(
                FlowMod(FlowModCommand.DELETE, SRC_TABLE,
                        Match(eth_src=src, in_port=known), priority=10,
                        strict=True)
            )
            mods.append(
                FlowMod(FlowModCommand.DELETE, DST_TABLE,
                        Match(eth_dst=src), priority=10, strict=True)
            )
        # Known-station pass-through: suppresses further punts for src.
        mods.append(
            FlowMod(
                FlowModCommand.ADD,
                SRC_TABLE,
                Match(eth_src=src, in_port=port),
                priority=10,
                instructions=(GotoTable(DST_TABLE),),
                idle_timeout=self.idle_timeout,
            )
        )
        # Unicast forwarding toward the learned station.
        mods.append(
            FlowMod(
                FlowModCommand.ADD,
                DST_TABLE,
                Match(eth_dst=src),
                priority=10,
                instructions=(ApplyActions([Output(port)]),),
                idle_timeout=self.idle_timeout,
            )
        )
        if not self.switch.submit_flow_mods(mods):
            # The install never took (rejected or lost): leave the binding
            # alone so the station's next packet re-punts and we retry.
            self.install_failures += 1
            return
        if known is not None:
            self.moved += 1
        else:
            self.learned += 1
        self.mac_table[src] = port

    def forget(self, mac: int) -> None:
        """Drop a binding (e.g. after an idle expiry notification)."""
        self.mac_table.pop(mac, None)
