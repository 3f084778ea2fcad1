"""The fail-static controller session (ISSUE 5 tentpole).

OpenFlow 1.3 §6.4 machinery over a lossy channel: echo-driven liveness
with evidence-based recovery, fail-standalone vs fail-secure observables
at the verdict, the bounded drop-tail punt queue, bounded retry with
typed channel errors, barrier semantics, and punt synthesis for switches
without a packet-in hook (ShardedESwitch). Everything runs in virtual
time — no wall-clock sleeps, deterministic under the channel seed.
"""

import pytest

from repro.controller import (
    ControllerSession,
    FailMode,
    LossyChannel,
    SessionState,
)
from repro.controller.learning_switch import LearningSwitch, build_pipeline
from repro.controller.session import CHANNEL_DOWN, CHANNEL_LOST
from repro.core import ESwitch
from repro.openflow.actions import FLOOD_PORT, Output
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketIn
from repro.packet import PacketBuilder
from repro.parallel import ShardedESwitch

A, B, C = 0x02_0000_0000_0A, 0x02_0000_0000_0B, 0x02_0000_0000_0C


def pkt(src, dst, in_port):
    return (PacketBuilder(in_port=in_port).eth(src=src, dst=dst)
            .ipv4().udp().build())


class ScriptedChannel:
    """A channel whose deliveries are spelled out (None = lost)."""

    def __init__(self, *script, then=0.0):
        self.script = list(script)
        self.then = then
        self.messages = 0
        self.lost = 0

    def deliver(self):
        self.messages += 1
        out = self.script.pop(0) if self.script else self.then
        if out is None:
            self.lost += 1
        return out


def make_session(fail_mode=FailMode.STANDALONE, channel=None, **kw):
    switch = ESwitch.from_pipeline(build_pipeline())
    session = ControllerSession(
        switch,
        channel=channel if channel is not None else LossyChannel(),
        fail_mode=fail_mode,
        **kw,
    )
    # The controller's switch handle is the session, so its flow-mods
    # travel the same lossy channel as everything else.
    app = LearningSwitch(session)
    session.controller = app
    return session, app


def force_outage(session):
    session.disconnect()
    session.advance(session.liveness_timeout_s + 2 * session.echo_interval_s)
    assert session.state is SessionState.DOWN


class TestLossyChannel:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            LossyChannel(loss=1.0)
        with pytest.raises(ValueError):
            LossyChannel(loss=-0.1)
        with pytest.raises(ValueError):
            LossyChannel(delay_s=-1.0)
        with pytest.raises(ValueError):
            LossyChannel(jitter_s=-0.5)

    def test_deterministic_under_seed(self):
        a = LossyChannel(loss=0.3, delay_s=1e-3, jitter_s=5e-4, seed=42)
        b = LossyChannel(loss=0.3, delay_s=1e-3, jitter_s=5e-4, seed=42)
        assert [a.deliver() for _ in range(200)] == [
            b.deliver() for _ in range(200)
        ]
        assert a.messages == 200 and a.lost == b.lost > 0

    def test_reliable_channel_never_loses(self):
        ch = LossyChannel(loss=0.0, delay_s=2e-3)
        assert all(ch.deliver() == 2e-3 for _ in range(50))
        assert ch.lost == 0


class TestLiveness:
    def test_knob_validation(self):
        switch = ESwitch.from_pipeline(build_pipeline())
        with pytest.raises(ValueError):
            ControllerSession(switch, echo_interval_s=0.0)
        with pytest.raises(ValueError):
            ControllerSession(switch, liveness_timeout_s=-1.0)
        with pytest.raises(ValueError):
            ControllerSession(switch, max_punt_queue=0)
        with pytest.raises(ValueError):
            ControllerSession(switch, max_retries=-1)
        with pytest.raises(ValueError):
            ControllerSession(switch, retry_backoff_s=-0.1)

    def test_time_does_not_flow_backwards(self):
        session, _ = make_session()
        with pytest.raises(ValueError):
            session.advance(-0.5)

    def test_healthy_session_stays_up(self):
        session, _ = make_session(echo_interval_s=1.0)
        session.advance(5.0)
        assert session.connected
        assert session.echo_sent == 5
        assert session.outages == 0
        health = session.health()
        assert not health.degraded
        assert health.state == "up"

    def test_disconnect_is_detected_through_missed_echoes(self):
        session, _ = make_session(echo_interval_s=1.0, liveness_timeout_s=3.0)
        session.advance(2.0)
        session.disconnect()
        # The caller's knowledge of the outage is not the detector: only
        # once echoes have gone unanswered past the timeout does the
        # session declare it.
        session.advance(2.9)
        assert session.connected
        session.advance(2.0)
        assert not session.connected
        assert session.outages == 1
        assert session.health().time_down_s > 0

    def test_recovery_needs_echo_evidence(self):
        session, _ = make_session(echo_interval_s=1.0, liveness_timeout_s=2.0)
        force_outage(session)
        session.reconnect()
        # reconnect() alone is an assertion, not evidence: still down.
        assert not session.connected
        session.advance(1.0)  # the next echo round-trip succeeds
        assert session.connected
        assert session.resyncs == 1
        down = session.health().time_down_s
        session.advance(3.0)
        assert session.health().time_down_s == down  # outage closed

    def test_echo_loss_is_counted(self):
        session, _ = make_session(
            channel=LossyChannel(loss=0.5, seed=3), liveness_timeout_s=100.0
        )
        session.advance(40.0)
        assert session.echo_sent == 40
        assert 0 < session.echo_lost < 40


class TestFailModes:
    def learn_two_stations(self, session):
        session.process(pkt(A, B, in_port=1))
        session.process(pkt(B, A, in_port=2))

    def test_standalone_keeps_forwarding_last_good_pipeline(self):
        session, app = make_session(FailMode.STANDALONE)
        self.learn_two_stations(session)
        force_outage(session)
        # Known traffic still unicasts on the installed rules.
        assert session.process(pkt(A, B, in_port=1)).output_ports == [2]
        assert session.process(pkt(B, A, in_port=2)).output_ports == [1]
        # An unknown source still forwards on the last-good pipeline (its
        # destination is learned) but the punt is suppressed, so nothing
        # new is learned; an unknown destination still floods.
        verdict = session.process(pkt(C, A, in_port=3))
        assert verdict.output_ports[-1] == 1
        assert not verdict.dropped
        assert FLOOD_PORT in session.process(pkt(C, C + 1, in_port=3)).output_ports
        assert session.punts_suppressed >= 1
        assert C not in app.mac_table

    def test_secure_drops_controller_bound_packets_only(self):
        session, app = make_session(FailMode.SECURE)
        self.learn_two_stations(session)
        force_outage(session)
        # §6.4: packets destined to the controller are dropped...
        verdict = session.process(pkt(C, A, in_port=3))
        assert verdict.dropped
        assert verdict.output_ports == []
        assert session.secure_drops == 1
        assert C not in app.mac_table
        # ...but traffic the installed pipeline fully handles is not.
        assert session.process(pkt(A, B, in_port=1)).output_ports == [2]

    @pytest.mark.parametrize("mode", [FailMode.STANDALONE, FailMode.SECURE])
    def test_reconnect_converges(self, mode):
        session, app = make_session(mode)
        self.learn_two_stations(session)
        force_outage(session)
        session.process(pkt(C, A, in_port=3))  # lost to the outage
        session.reconnect()
        session.advance(2.0)
        assert session.connected
        # C's next packet re-punts and is learned: reactive resync.
        session.process(pkt(C, A, in_port=3))
        assert app.mac_table[C] == 3
        assert session.process(pkt(A, C, in_port=1)).output_ports == [3]


class TestPuntQueue:
    def test_drop_tail_bounds_the_queue(self):
        session, _ = make_session(max_punt_queue=4)
        for i in range(10):
            session.on_packet_in(PacketIn(pkt=pkt(A + i, B, in_port=1),
                                          table_id=0))
        assert len(session.punt_queue) == 4
        assert session.punt_queue_drops == 6
        delivered = session.pump()
        assert delivered == 4
        assert session.punts_delivered == 4
        assert not session.punt_queue

    def test_outage_suppresses_instead_of_queueing(self):
        session, _ = make_session()
        force_outage(session)
        session.on_packet_in(PacketIn(pkt=pkt(A, B, in_port=1), table_id=0))
        assert session.punts_suppressed >= 1
        assert not session.punt_queue

    def test_no_controller_clears_the_queue(self):
        switch = ESwitch.from_pipeline(build_pipeline())
        session = ControllerSession(switch, controller=None,
                                    channel=LossyChannel())
        session.on_packet_in(PacketIn(pkt=pkt(A, B, in_port=1), table_id=0))
        assert session.pump() == 0
        assert not session.punt_queue

    def test_lost_punts_are_counted_not_raised(self):
        session, app = make_session(
            channel=LossyChannel(loss=0.5, seed=9), liveness_timeout_s=1000.0
        )
        for i in range(40):
            session.process(pkt(A + 16 * i, B, in_port=1 + i % 4))
        assert session.punts_lost > 0
        assert session.punts_delivered == app.packet_ins
        assert app.learned < 40  # some learnings lost to the channel


def add_mod(eth_dst=0xDEAD, port=7):
    return FlowMod(
        FlowModCommand.ADD, 1, Match(eth_dst=eth_dst), priority=10,
        instructions=(ApplyActions([Output(port)]),),
    )


class TestRetry:
    def test_lost_request_is_retried(self):
        session, _ = make_session(
            channel=ScriptedChannel(None, 0.001, 0.001), retry_backoff_s=0.05
        )
        reply = session.submit_flow_mods([add_mod()])
        assert reply.accepted
        assert session.send_retries == 1
        assert session.sends_failed == 0
        assert session.control_latency_s >= 0.05  # the backoff was paid

    def test_lost_reply_is_retried_and_replay_is_idempotent(self):
        # Request delivered, reply lost: the switch applied the batch but
        # the controller cannot know — the retry re-applies it, and the
        # ADD-replace semantics make that harmless.
        session, _ = make_session(channel=ScriptedChannel(0.0, None, 0.0, 0.0))
        reply = session.submit_flow_mods([add_mod()])
        assert reply.accepted
        assert session.send_retries == 1
        table = session.switch.pipeline.table(1)
        assert sum(1 for e in table.entries if e.priority == 10) == 1

    def test_exhausted_retries_answer_channel_lost(self):
        session, _ = make_session(
            channel=ScriptedChannel(*([None] * 16)), max_retries=3
        )
        before = len(session.switch.pipeline.table(1).entries)
        reply = session.submit_flow_mods([add_mod()])
        assert not reply.accepted
        assert reply.errors == (CHANNEL_LOST,)
        assert reply.cycles == 0.0
        assert session.sends_failed == 1
        assert len(session.switch.pipeline.table(1).entries) == before

    def test_down_session_answers_channel_down(self):
        session, _ = make_session()
        force_outage(session)
        reply = session.submit_flow_mods([add_mod()])
        assert not reply.accepted
        assert reply.errors == (CHANNEL_DOWN,)


class TestBarrier:
    def test_barrier_flushes_punts_first(self):
        session, app = make_session()
        session.on_packet_in(PacketIn(pkt=pkt(A, B, in_port=1), table_id=0))
        assert session.barrier()
        assert session.barriers == 1
        assert app.packet_ins == 1  # queued punt processed before the fence

    def test_barrier_fails_down_and_on_dead_channel(self):
        session, _ = make_session()
        force_outage(session)
        assert not session.barrier()
        lossy, _ = make_session(channel=ScriptedChannel(*([None] * 16)))
        assert not lossy.barrier()


class TestShardedPuntSynthesis:
    """ShardedESwitch has no packet-in hook; the session synthesizes
    punts from gathered verdicts, so reactive control still works."""

    def test_learning_through_the_sharded_engine(self):
        with ShardedESwitch(build_pipeline(), workers=2) as engine:
            session = ControllerSession(engine, channel=LossyChannel())
            app = LearningSwitch(session)
            session.controller = app
            session.process_burst([pkt(A, B, in_port=1),
                                   pkt(B, A, in_port=2)])
            assert app.learned == 2
            assert engine.epoch >= 1  # the installs were broadcast
            verdicts = session.process_burst([pkt(A, B, in_port=1)])
            assert verdicts[0].output_ports == [2]

    def test_outage_suppresses_synthesized_punts(self):
        with ShardedESwitch(build_pipeline(), workers=2) as engine:
            session = ControllerSession(engine, channel=LossyChannel())
            app = LearningSwitch(session)
            session.controller = app
            force_outage(session)
            session.process_burst([pkt(A, B, in_port=1)])
            assert session.punts_suppressed == 1
            assert app.learned == 0
