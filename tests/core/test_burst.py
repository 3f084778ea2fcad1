"""The burst execution layer: ``process_burst`` must be indistinguishable
from repeated scalar ``process`` calls (verdicts, controller interaction,
and — at the calibration burst — cycles), while amortizing the per-burst
IO framework cost and recording telemetry.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import strategies as sts

from repro.controller.learning_switch import LearningSwitch, build_pipeline
from repro.core import CompileConfig, ESwitch
from repro.openflow.stats import BurstStats, collect_burst_stats
from repro.ovs import OvsSwitch
from repro.packet import PacketBuilder
from repro.simcpu.platform import XEON_E5_2620
from repro.simcpu.recorder import NULL_METER, CycleMeter
from repro.traffic import DirectSwitch, measure
from repro.usecases import l2

SWITCH_MAKERS = (
    ("eswitch", lambda p: ESwitch.from_pipeline(p)),
    ("ovs", lambda p: OvsSwitch(p)),
    ("direct", lambda p: DirectSwitch(p)),
)


def l2_packets(n=64, n_macs=50):
    _p, macs = l2.build(n_macs)
    flows = l2.traffic(macs, n)
    return [flows[i] for i in range(n)]


class TestBurstEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        pipeline=sts.pipelines(),
        pkts=st.lists(sts.packets(), min_size=1, max_size=24),
        burst=st.integers(1, 8),
    )
    def test_burst_equals_scalar(self, pipeline, pkts, burst):
        """Chunking a packet stream into bursts of any size changes no
        verdict, on any of the three datapaths."""
        for name, make in SWITCH_MAKERS:
            scalar_sw = make(copy.deepcopy(pipeline))
            burst_sw = make(copy.deepcopy(pipeline))
            scalar = [scalar_sw.process(p.copy()).summary() for p in pkts]
            bursted = []
            for i in range(0, len(pkts), burst):
                chunk = [p.copy() for p in pkts[i : i + burst]]
                bursted.extend(v.summary() for v in burst_sw.process_burst(chunk))
            assert bursted == scalar, name

    @pytest.mark.parametrize("fuse", [True, False], ids=["fused", "trampoline"])
    def test_reactive_updates_land_mid_burst(self, fuse):
        """A controller's flow-mods triggered by packet k must affect packet
        k+1 of the *same* burst, exactly as scalar processing would. On the
        fused switch the packet-in hands the rest of the burst to the
        trampoline, which must charge what the trampoline switch charges."""
        a, b = 0x0200_0000_00AA, 0x0200_0000_00BB

        def stream():
            return [
                PacketBuilder(in_port=1).eth(src=a, dst=b).build(),
                PacketBuilder(in_port=2).eth(src=b, dst=a).build(),
                # By now both stations are learned: must go unicast, which
                # only happens if the in-burst packet-ins were serviced.
                PacketBuilder(in_port=1).eth(src=a, dst=b).build(),
                PacketBuilder(in_port=2).eth(src=b, dst=a).build(),
            ]

        def run(in_bursts, fuse=fuse, meter=None):
            sw = ESwitch.from_pipeline(build_pipeline(),
                                       config=CompileConfig(fuse=fuse))
            ctl = LearningSwitch(sw)
            sw.packet_in_handler = ctl
            assert sw.warm() is fuse  # the burst starts on the fused driver
            pkts = stream()
            if in_bursts:
                verdicts = sw.process_burst(pkts, meter or NULL_METER)
            else:
                verdicts = [sw.process(p) for p in pkts]
            return [v.summary() for v in verdicts], dict(ctl.mac_table)

        scalar_verdicts, scalar_macs = run(in_bursts=False)
        burst_verdicts, burst_macs = run(in_bursts=True)
        assert burst_verdicts == scalar_verdicts
        assert burst_macs == scalar_macs == {a: 1, b: 2}
        # And the last two packets really were unicast, not flooded.
        assert burst_verdicts[2] == scalar_verdicts[2]
        assert scalar_verdicts[2] != scalar_verdicts[0]
        # Metered, the same reactive burst costs the same on both switches.
        meters = {f: CycleMeter(XEON_E5_2620) for f in (fuse, not fuse)}
        metered = {f: run(in_bursts=True, fuse=f, meter=meters[f])
                   for f in meters}
        assert metered[fuse] == metered[not fuse] == (burst_verdicts, burst_macs)
        assert meters[fuse].total_cycles == meters[not fuse].total_cycles
        assert meters[fuse].packets == len(burst_verdicts)


class TestBurstCycles:
    def _run_scalar(self, pkts):
        sw = ESwitch.from_pipeline(l2.build(50)[0])
        meter = CycleMeter(XEON_E5_2620)
        for pkt in pkts:
            meter.begin_packet()
            sw.process(pkt.copy(), meter)
            meter.end_packet()
        return meter

    def _run_bursts(self, pkts, burst):
        sw = ESwitch.from_pipeline(l2.build(50)[0])
        meter = CycleMeter(XEON_E5_2620)
        for i in range(0, len(pkts), burst):
            sw.process_burst([p.copy() for p in pkts[i : i + burst]], meter)
        return meter

    def test_reference_burst_matches_scalar_cycles(self):
        """Scalar per-packet costs are calibrated at the reference burst:
        driving the same stream in bursts of 32 must cost exactly the same
        total cycles (the per-burst charge cancels the per-packet credits).
        """
        pkts = l2_packets(64)
        scalar = self._run_scalar(pkts)
        bursted = self._run_bursts(pkts, 32)
        assert bursted.total_cycles == pytest.approx(scalar.total_cycles)
        assert bursted.packets == scalar.packets == 64

    def test_small_bursts_cost_more(self):
        pkts = l2_packets(64)
        totals = {
            burst: self._run_bursts(pkts, burst).total_cycles
            for burst in (4, 16, 32)
        }
        assert totals[4] > totals[16] > totals[32]


class TestBurstTelemetry:
    def test_burst_stats_accumulate(self):
        sw = ESwitch.from_pipeline(l2.build(20)[0])
        pkts = l2_packets(12, n_macs=20)
        sw.process_burst(pkts[:8])
        sw.process_burst(pkts[8:])
        stats = sw.burst_stats
        assert stats.bursts == 2
        assert stats.packets == 12
        assert stats.histogram == {8: 1, 4: 1}
        assert stats.mean_burst_size == 6.0

    def test_burst_cycles_metered(self):
        sw = ESwitch.from_pipeline(l2.build(20)[0])
        meter = CycleMeter(XEON_E5_2620)
        sw.process_burst([p.copy() for p in l2_packets(8, n_macs=20)], meter)
        assert sw.burst_stats.cycles == pytest.approx(meter.total_cycles)
        assert sw.burst_stats.cycles_per_burst > 0

    def test_empty_burst_records_nothing(self):
        sw = ESwitch.from_pipeline(l2.build(20)[0])
        assert sw.process_burst([]) == []
        assert sw.burst_stats.bursts == 0

    def test_collect_burst_stats_duck_typed(self):
        pipeline, _ = l2.build(10)
        for _name, make in SWITCH_MAKERS:
            sw = make(copy.deepcopy(pipeline))
            assert collect_burst_stats(sw) is sw.burst_stats
        assert collect_burst_stats(object()) is None

    def test_snapshot_and_reset(self):
        stats = BurstStats()
        stats.record(32, 1000.0)
        snap = stats.snapshot()
        assert snap["bursts"] == 1
        assert snap["mean_burst_size"] == 32.0
        assert snap["cycles_per_burst"] == 1000.0
        stats.reset()
        assert stats.bursts == 0 and stats.histogram == {}


class TestMeasureBatch:
    def setup_method(self):
        _p, macs = l2.build(20)
        self.flows = l2.traffic(macs, 40)

    def test_measure_drives_real_bursts(self):
        sw = ESwitch.from_pipeline(l2.build(20)[0])
        m = measure(sw, self.flows, n_packets=400, warmup=80, batch_size=16)
        burst = m.extra["burst"]
        assert burst["bursts"] == 25  # 400 measured packets / 16
        assert burst["mean_burst_size"] == 16.0
        assert burst["cycles_per_burst"] > 0

    def test_measure_scalar_has_no_burst_extra(self):
        sw = ESwitch.from_pipeline(l2.build(20)[0])
        m = measure(sw, self.flows, n_packets=200, warmup=40)
        assert "burst" not in m.extra

    def test_measure_batch_requires_burst_driver(self):
        class ScalarOnly:
            def process(self, pkt, meter=None):
                raise AssertionError("unreachable")

        with pytest.raises(TypeError, match="process_burst"):
            measure(ScalarOnly(), self.flows, n_packets=10, warmup=0, batch_size=8)

    def test_measure_batch_must_be_positive(self):
        sw = ESwitch.from_pipeline(l2.build(20)[0])
        with pytest.raises(ValueError):
            measure(sw, self.flows, n_packets=10, warmup=0, batch_size=0)
