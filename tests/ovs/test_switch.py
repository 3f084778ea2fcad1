"""Tests for the assembled OVS switch: hierarchy, stats, invalidation."""

import os
import subprocess
import sys

import pytest

from repro.core import ESwitch
from repro.openflow.actions import Output, PopVlan, PushVlan
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import ApplyActions, GotoTable
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.usecases import firewall


def http_pkt(sport=1000):
    return (PacketBuilder(in_port=firewall.EXTERNAL).eth()
            .ipv4(src="198.51.100.9", dst=firewall.SERVER_IP)
            .tcp(src_port=sport, dst_port=80).build())


class TestHierarchy:
    def test_first_packet_upcalls(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        assert sw.stats.vswitchd_hits == 1
        assert len(sw.megaflow) == 1
        assert len(sw.emc) == 1

    def test_second_packet_hits_microflow(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        sw.process(http_pkt())
        assert sw.stats.microflow_hits == 1

    def test_ttl_change_misses_microflow_hits_megaflow(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        changed = http_pkt()
        changed.data[14 + 8] = 17  # different TTL: EMC key changes
        sw.process(changed)
        assert sw.stats.microflow_hits == 0
        assert sw.stats.megaflow_hits == 1

    def test_different_sport_same_megaflow(self):
        # No rule matches tcp_src, so one megaflow covers all source ports.
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt(1000))
        sw.process(http_pkt(2000))
        assert len(sw.megaflow) == 1
        assert sw.stats.megaflow_hits == 1

    def test_verdicts_identical_across_levels(self):
        sw = OvsSwitch(firewall.build_single_stage())
        reference = firewall.build_single_stage()
        verdicts = [sw.process(http_pkt()).summary() for _ in range(3)]
        expected = reference.process(http_pkt()).summary()
        assert all(v == expected for v in verdicts)

    def test_emc_thrash_falls_back_to_megaflow(self):
        sw = OvsSwitch(firewall.build_single_stage(), emc_capacity=4)
        for sport in range(1000, 1020):
            sw.process(http_pkt(sport))
        # Second pass: EMC (size 4) can't hold 20 microflows, but the one
        # megaflow covers them all.
        before = sw.stats.megaflow_hits
        for sport in range(1000, 1020):
            sw.process(http_pkt(sport))
        assert sw.stats.megaflow_hits > before
        assert sw.vswitchd.upcalls == 1


class TestControllerPath:
    def test_miss_to_controller_not_cached(self):
        t = FlowTable(0, miss_policy=TableMissPolicy.CONTROLLER)
        punted = []
        sw = OvsSwitch(Pipeline([t]), packet_in_handler=punted.append)
        sw.process(http_pkt())
        sw.process(http_pkt())
        assert len(punted) == 2  # every packet punts; nothing cached
        assert len(sw.megaflow) == 0
        assert sw.stats.controller_hits == 2


class TestInvalidation:
    def test_flow_mod_flushes_both_caches(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        assert len(sw.megaflow) == 1
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, 0, Match(tcp_dst=22), priority=25)
        )
        assert len(sw.megaflow) == 0
        assert len(sw.emc) == 0

    def test_flow_mod_changes_behavior_immediately(self):
        sw = OvsSwitch(firewall.build_single_stage())
        assert sw.process(http_pkt()).forwarded
        sw.apply_flow_mod(
            FlowMod(
                FlowModCommand.DELETE,
                0,
                Match(in_port=firewall.EXTERNAL, ipv4_dst=firewall.SERVER_IP,
                      tcp_dst=80),
            )
        )
        assert not sw.process(http_pkt()).forwarded

    def test_delete_command(self):
        sw = OvsSwitch(firewall.build_single_stage())
        before = len(sw.pipeline.table(0))
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.DELETE, 0, Match(in_port=firewall.INTERNAL))
        )
        assert len(sw.pipeline.table(0)) == before - 1

    def test_unrelated_update_flushes_everything(self):
        """The paper's brute force: a rule no cached flow overlaps still
        empties the megaflow cache."""
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        sw.apply_flow_mod(
            FlowMod(FlowModCommand.ADD, 0, Match(ipv4_dst="203.0.113.7"),
                    priority=25, instructions=(ApplyActions([Output(9)]),))
        )
        assert len(sw.megaflow) == 0


class TestInPhyPort:
    """``in_phy_port`` has a flow-key column, so a rule on it forwards as
    the reference does — from the slow path and from both caches."""

    def pipeline(self):
        table = FlowTable(0)
        table.add(FlowEntry(Match(in_phy_port=3), priority=5, actions=[Output(2)]))
        return Pipeline([table])

    def test_verdicts_match_the_reference(self):
        sw, reference = OvsSwitch(self.pipeline()), self.pipeline()
        for port in (3, 3, 4, 3):  # upcall, EMC hit, a miss, EMC hit again
            pkt = PacketBuilder(in_port=port).eth().ipv4().tcp().build()
            want = reference.process(pkt.copy())
            assert sw.process(pkt).summary() == want.summary()
            assert want.forwarded == (port == 3)


class TestCountersAfterVlanActions:
    """A megaflow replay credits each rule the frame as that rule saw it:
    a VLAN push or pop in table 0 changes what table 1 counts."""

    def pipeline(self, action):
        t0, t1 = FlowTable(0), FlowTable(1)
        t0.add(FlowEntry(Match(in_port=1), priority=5,
                         instructions=(ApplyActions([action]), GotoTable(1))))
        t1.add(FlowEntry(Match(), actions=[Output(2)]))
        return Pipeline([t0, t1])

    @pytest.mark.parametrize("action, tagged", [(PushVlan(vid=10), False),
                                                (PopVlan(), True)])
    def test_every_rule_counts_as_the_reference(self, action, tagged):
        builder = PacketBuilder(in_port=1).eth()
        if tagged:
            builder = builder.vlan(10)
        pkt = builder.ipv4().udp().build()
        reference = self.pipeline(action)
        switches = [OvsSwitch(self.pipeline(action)),
                    ESwitch(self.pipeline(action))]
        for _ in range(3):  # an upcall, then cache hits
            reference.process(pkt.copy())
            for switch in switches:
                switch.process(pkt.copy())
        want = [(e.packets, e.bytes) for t in reference for e in t]
        assert want[0][0] == want[1][0] == 3
        for switch in switches:
            assert [(e.packets, e.bytes) for t in switch.pipeline for e in t] == want


class TestStats:
    def test_rates_sum_to_one(self):
        sw = OvsSwitch(firewall.build_single_stage())
        for sport in range(1000, 1050):
            sw.process(http_pkt(sport))
        rates = sw.stats.rates()
        assert abs(sum(rates.values()) - 1.0) < 1e-9

    def test_reset(self):
        sw = OvsSwitch(firewall.build_single_stage())
        sw.process(http_pkt())
        sw.stats.reset()
        assert sw.stats.packets == 0



#: One process's OVS cache-line names for a TCP packet and an L2-only
#: packet, both of whose flow keys hold absent fields (None).
LINE_NAMES = """
from repro.ovs import OvsSwitch
from repro.ovs.flowkey import emc_key
from repro.packet import PacketBuilder, parser
from repro.simcpu.recorder import NullMeter
from repro.usecases import firewall

class Lines(NullMeter):
    __slots__ = ("seen",)

    def __init__(self):
        self.seen = []

    def touch(self, line):
        if line[0] in ("emc", "mft", "vsw"):
            self.seen.append(line)

tcp = (PacketBuilder(in_port=firewall.EXTERNAL).eth()
       .ipv4(src="198.51.100.9", dst=firewall.SERVER_IP)
       .tcp(src_port=1000, dst_port=80).build())
bare = PacketBuilder(in_port=firewall.EXTERNAL).eth().build()
assert all(None in emc_key(parser.parse(p)) for p in (tcp, bare))
switch, meter = OvsSwitch(firewall.build_single_stage()), Lines()
for pkt in (tcp, tcp, bare, bare):
    switch.process(pkt, meter)
print(meter.seen)
"""


class TestLineNames:
    def test_two_processes_name_the_same_lines(self):
        """The EMC slot and the megaflow/vswitchd lines of a key with
        absent fields are the same in two fresh interpreters (no
        ``setarch``): the modeled OVS cycles repeat run to run."""
        env = {**os.environ, "PYTHONHASHSEED": "0",
               "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        runs = [
            subprocess.run([sys.executable, "-c", LINE_NAMES], env=env,
                           capture_output=True, text=True, timeout=60)
            for _ in range(2)
        ]
        assert all(run.returncode == 0 for run in runs), runs[0].stderr
        assert "emc" in runs[0].stdout and "mft" in runs[0].stdout
        assert runs[0].stdout == runs[1].stdout
