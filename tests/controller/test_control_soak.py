"""Control-plane fault soak (ISSUE 5 satellites).

Long-haul disconnect/reconnect under lossy-channel traffic: the datapath
never raises, fail-standalone forwarding survives the outage, the
bounded punt queue holds under a cache-overflow-style packet-in flood
(the attack shape of tests/integration/test_attack.py), and the
reconnected session converges to the same pipeline a never-disconnected
run reaches. Plus the controller-hardening satellite: garbage packet-ins
are counted, never raised. Plus the control-fault leg: both §6.4 fail
modes see an outage, close it, and keep forwarding throughout.
"""

import random

from repro.controller import ControllerSession, FailMode, LossyChannel
from repro.controller.gateway_controller import GatewayController
from repro.controller.learning_switch import LearningSwitch, build_pipeline
from repro.core import ESwitch
from repro.openflow.messages import FlowModReply, PacketIn
from repro.packet import PacketBuilder
from repro.packet.packet import Packet
from repro.usecases import gateway, l2


def l2_pkt(src, dst, in_port):
    return (PacketBuilder(in_port=in_port).eth(src=src, dst=dst)
            .ipv4().udp().build())


def attack_packet(rng):
    """A high-entropy scan packet: fresh source MAC every time, so every
    one punts — the punt-path flood of Sections 2.3/4.3."""
    return l2_pkt(
        src=0x02_0000_000000 | rng.randrange(1 << 32),
        dst=rng.randrange(1 << 48) | 0x02_0000_000000,
        in_port=rng.randrange(1, 5),
    )


def make(fail_mode=FailMode.STANDALONE, loss=0.0, seed=0, **kw):
    switch = ESwitch.from_pipeline(build_pipeline())
    session = ControllerSession(
        switch, channel=LossyChannel(loss=loss, seed=seed),
        fail_mode=fail_mode, **kw,
    )
    app = LearningSwitch(session)
    session.controller = app
    return session, app


def station_traffic(n_stations, n_packets, seed, first=0):
    rng = random.Random(seed)
    macs = [0x02_0000_0000_00 + i for i in range(n_stations)]
    for _ in range(n_packets):
        src = rng.randrange(first, n_stations)
        dst = rng.randrange(n_stations)
        yield l2_pkt(macs[src], macs[dst], in_port=1 + src % 8)


def table_image(switch):
    return [
        (t.table_id, sorted((repr(e.match), e.priority) for e in t.entries))
        for t in switch.pipeline
    ]


class TestDisconnectReconnectSoak:
    def test_outage_soak_converges_to_never_disconnected_pipeline(self):
        knobs = dict(echo_interval_s=0.1, liveness_timeout_s=0.5)
        faulty, faulty_app = make(loss=0.02, seed=11, **knobs)
        steady, steady_app = make(loss=0.0, seed=11, **knobs)
        # Stations 16..23 first appear *during* the outage window, so
        # their punts are the ones the fail mode must suppress; the tail
        # re-sees everybody so the resync can converge.
        packets = (
            list(station_traffic(16, 150, seed=5))
            + list(station_traffic(24, 150, seed=6, first=16))
            + list(station_traffic(24, 300, seed=7))
        )

        for i, pkt in enumerate(packets):
            steady.process(pkt.copy())
            steady.advance(0.01)
            if i == 150:
                faulty.disconnect()
            if i == 300:
                faulty.reconnect()
            # The faulty run must never raise, outage or not.
            faulty.process(pkt.copy())
            faulty.advance(0.01)

        health = faulty.health()
        assert health.outages == 1
        assert health.resyncs == 1
        assert health.time_down_s > 0
        assert health.punts_suppressed > 0
        assert faulty.connected

        # Drain the residual learning tail: with every station re-seen
        # after the resync, both switches hold the same rules.
        for pkt in station_traffic(24, 200, seed=6):
            steady.process(pkt.copy())
            faulty.process(pkt.copy())
        assert faulty_app.mac_table == steady_app.mac_table
        assert table_image(faulty.switch) == table_image(steady.switch)
        assert faulty.switch.table_kinds() == steady.switch.table_kinds()

    def test_forwarding_survives_the_outage(self):
        session, app = make(FailMode.STANDALONE)
        a, b = 0x02_0000_0000_0A, 0x02_0000_0000_0B
        session.process(l2_pkt(a, b, in_port=1))
        session.process(l2_pkt(b, a, in_port=2))
        session.disconnect()
        session.advance(10.0)
        assert not session.connected
        for _ in range(200):
            assert session.process(l2_pkt(a, b, in_port=1)).output_ports == [2]
            assert session.process(l2_pkt(b, a, in_port=2)).output_ports == [1]
        assert session.switch.health().fused_active


class TestPuntFloodBounds:
    def test_attack_flood_cannot_grow_the_queue(self):
        # A burst of unique-source scan packets punts on every packet;
        # punts queue during the burst and pump only between packets, so
        # the drop-tail bound is what stands between the flood and an
        # unbounded queue.
        session, app = make(max_punt_queue=32)
        rng = random.Random(4)
        flood = [attack_packet(rng) for _ in range(200)]
        session.switch.process_burst(flood)
        assert len(session.punt_queue) == 32  # full, not overflowing
        assert session.punt_queue_drops == 200 - 32
        session.pump()
        assert not session.punt_queue
        assert session.punts_delivered == 32
        assert app.packet_ins == 32  # the controller saw the bound, not the flood

    def test_flood_during_outage_is_suppressed_entirely(self):
        session, app = make(FailMode.SECURE, max_punt_queue=32)
        session.disconnect()
        session.advance(10.0)
        rng = random.Random(7)
        for _ in range(100):
            session.process(attack_packet(rng))
        assert session.punts_suppressed == 100
        assert session.secure_drops == 100
        assert not session.punt_queue
        assert app.packet_ins == 0


def garbage_packet_ins(seed, n=120):
    rng = random.Random(seed)
    outs = []
    for _ in range(n):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        outs.append(PacketIn(pkt=Packet(raw, in_port=rng.choice([1, 2, None])),
                             table_id=0))
    return outs


class TestControllerHardening:
    """Satellite 2: handle() must drop-and-count garbage, never raise."""

    def test_learning_switch_survives_garbage(self):
        switch = ESwitch.from_pipeline(build_pipeline())
        app = LearningSwitch(switch)
        for pin in garbage_packet_ins(seed=3):
            app.handle(pin)  # must not raise
        # Runt frames are counted; frames long enough to carry an
        # Ethernet header learn like any real packet would — the contract
        # is "never raise", not "never learn".
        assert app.malformed > 0
        assert len(app.mac_table) == app.learned
        # A real punt afterwards still works.
        before = app.learned
        app.handle(PacketIn(pkt=l2_pkt(0x02_0000_00AA, 0xBB, in_port=2),
                            table_id=0))
        assert app.learned == before + 1

    def test_learning_switch_truncated_frames(self):
        switch = ESwitch.from_pipeline(build_pipeline())
        app = LearningSwitch(switch)
        full = l2_pkt(0xAA, 0xBB, in_port=1)
        for cut in (0, 3, 7, 11):
            app.handle(PacketIn(pkt=Packet(bytes(full.data[:cut]),
                                           in_port=1), table_id=0))
        assert app.malformed == 4
        assert app.mac_table == {}

    def test_gateway_controller_survives_garbage(self):
        pipeline, _fib = gateway.build(n_ce=2, users_per_ce=2, n_prefixes=10)
        ctrl = GatewayController(ESwitch.from_pipeline(pipeline),
                                 n_ce=2, users_per_ce=2)
        for pin in garbage_packet_ins(seed=9):
            ctrl.handle(pin)
        # Every garbage punt was either counted malformed (unparseable)
        # or rejected (no subscriber shape) — and none was admitted.
        assert ctrl.malformed + ctrl.rejected == ctrl.packet_ins == 120
        assert ctrl.admitted == set()
        assert ctrl.install_failures == 0

    def test_rejected_install_leaves_binding_unlearned(self):
        class RejectingSwitch:
            def __init__(self):
                self.batches = 0

            def submit_flow_mods(self, mods):
                self.batches += 1
                return FlowModReply(accepted=False)

        sw = RejectingSwitch()
        app = LearningSwitch(sw)
        pin = PacketIn(pkt=l2_pkt(0xAA, 0xBB, in_port=1), table_id=0)
        app.handle(pin)
        assert app.install_failures == 1
        assert app.mac_table == {}  # stays unlearned: the next punt retries
        app.handle(pin)
        assert sw.batches == 2  # it really did retry


class TestControlFaultLeg:
    def test_both_fail_modes_see_and_close_an_outage(self):
        """Per §6.4 fail mode, the same traffic through a lossy session
        with the controller up, gone past the liveness timeout, and back:
        the outage is declared and closed, and every phase forwards all of it."""
        _pipeline, macs = l2.build(32)
        flows = l2.traffic(macs, 32)
        base = [flows[i % len(flows)] for i in range(400)]
        for fail_mode in (FailMode.STANDALONE, FailMode.SECURE):
            session, _app = make(fail_mode, loss=0.05, seed=7,
                                 echo_interval_s=1.0, liveness_timeout_s=3.0)

            def forwarded():
                return sum(
                    v.forwarded
                    for start in range(0, len(base), 32)
                    for v in session.process_burst(
                        [pkt.copy() for pkt in base[start:start + 32]])
                )

            up = forwarded()
            session.advance(2.0)
            session.disconnect()
            session.advance(10.0)  # liveness timeout trips: outage declared
            down = forwarded()
            session.reconnect()
            session.advance(5.0)  # first echo through closes the outage
            recovered = forwarded()
            health = session.health()
            assert (health.outages, health.resyncs, health.state) == (1, 1, "up"), health
            assert up == down == recovered == len(base), (fail_mode, up, down, recovered)
