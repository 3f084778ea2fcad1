"""The fail-static controller session: the switch side of the OpenFlow
control channel, built to survive a flaky or absent controller.

OpenFlow 1.3 §6.4: when a switch loses contact with its controller it
enters **fail secure mode** ("packets and messages destined to the
controllers are dropped") or **fail standalone mode** (keep operating on
the installed state). :class:`ControllerSession` models exactly that
switch-side machinery over a :class:`~repro.controller.channels.
LossyChannel` — message loss, delay jitter, disconnect/reconnect — in
deterministic virtual time:

* **liveness** — echo keepalives (§7.3.8's ``OFPT_ECHO_REQUEST``) fire
  every ``echo_interval_s``; when nothing has been heard for
  ``liveness_timeout_s`` the session declares an **outage** and enters
  its fail mode. The datapath itself never stops: in *fail-standalone*
  the last-good fused pipeline keeps forwarding and table-miss punts are
  suppressed; in *fail-secure* packets destined to the controller are
  dropped (their verdicts marked so);
* **bounded punt queue** — packet-ins wait in a drop-tail queue of
  ``max_punt_queue`` entries; a flood beyond it drops the newest punt
  and counts it (``punt_queue_drops``) instead of growing without bound;
* **bounded retry** — controller-to-switch flow-mod batches lost by the
  channel are retried up to ``max_retries`` times under exponential
  backoff (modeled into virtual-time latency, never a wall-clock sleep);
* **barrier semantics** — :meth:`barrier` completes only after every punt
  queued before it has been delivered and acknowledges like
  ``OFPT_BARRIER_REPLY`` (retried like any message);
* **resynchronization** — after :meth:`reconnect` the first successful
  echo closes the outage; reactive state converges through re-punts (the
  controller re-learns whatever it missed), so a recovered session
  reaches the same pipeline a never-disconnected run would.

The session faces both sides: it is a switch's ``packet_in_handler``
(punts go *into* the queue) and a controller's switch handle
(``submit_flow_mods`` routes a batch *through* the lossy channel to the
switch's own ``submit_flow_mods``). ``process``/``process_burst`` wrap
the underlying switch so fail-secure verdict semantics and punt pumping
stay on the datapath's calling convention.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.controller.channels import LossyChannel
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    ErrorType,
    FlowMod,
    FlowModReply,
    PacketIn,
)
from repro.openflow.pipeline import Verdict
from repro.packet.packet import Packet
from repro.simcpu.recorder import Meter, NULL_METER


class FailMode(enum.Enum):
    """What the switch does while the controller is unreachable (§6.4)."""

    #: keep forwarding on the last-good pipeline; suppress punts.
    STANDALONE = "fail-standalone"
    #: drop packets and messages destined to the controller.
    SECURE = "fail-secure"


class SessionState(enum.Enum):
    UP = "up"
    DOWN = "down"


#: synthetic error answered for mods that never reached the switch.
CHANNEL_DOWN = ErrorMsg(
    ErrorType.BAD_REQUEST, "OFPBRC_EPERM", "controller channel is down"
)
CHANNEL_LOST = ErrorMsg(
    ErrorType.BAD_REQUEST,
    "OFPBRC_BAD_LEN",
    "flow-mod batch lost in the channel after retries",
)


@dataclass(frozen=True)
class SessionHealth:
    """Point-in-time telemetry of one controller session."""

    state: str                  #: "up" | "down"
    fail_mode: str              #: configured §6.4 mode
    outages: int                #: liveness losses declared so far
    time_down_s: float          #: virtual seconds spent disconnected
    resyncs: int                #: reconnects that closed an outage
    echo_sent: int
    echo_lost: int              #: keepalive round-trips the channel ate
    punts_delivered: int        #: packet-ins that reached the controller
    punts_lost: int             #: packet-ins the channel ate in flight
    punts_suppressed: int       #: punts not sent: fail-standalone outage
    secure_drops: int           #: packets dropped by fail-secure
    punt_queue_drops: int       #: drop-tail beyond max_punt_queue
    sends: int                  #: flow-mod batches submitted
    send_retries: int           #: channel-loss retries spent on them
    sends_failed: int           #: batches lost after exhausting retries
    barriers: int
    control_latency_s: float    #: virtual time spent on channel crossings

    @property
    def degraded(self) -> bool:
        return self.state != SessionState.UP.value

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "fail_mode": self.fail_mode,
            "outages": self.outages,
            "time_down_s": self.time_down_s,
            "resyncs": self.resyncs,
            "echo_sent": self.echo_sent,
            "echo_lost": self.echo_lost,
            "punts_delivered": self.punts_delivered,
            "punts_lost": self.punts_lost,
            "punts_suppressed": self.punts_suppressed,
            "secure_drops": self.secure_drops,
            "punt_queue_drops": self.punt_queue_drops,
            "sends": self.sends,
            "send_retries": self.send_retries,
            "sends_failed": self.sends_failed,
            "barriers": self.barriers,
            "control_latency_s": self.control_latency_s,
        }


class ControllerSession:
    """The switch-side control-channel state machine (see module doc).

    ``switch`` is any switch exposing ``process``/``process_burst`` and
    ``submit_flow_mods``: :class:`~repro.core.eswitch.ESwitch`,
    :class:`~repro.ovs.switch.OvsSwitch` and :class:`~repro.parallel.
    engine.ShardedESwitch` all qualify. ``controller`` is a packet-in
    callable (e.g. :class:`~repro.controller.learning_switch.
    LearningSwitch`); pass None for a proactive-only deployment. Wire the
    controller's switch handle to *this session* so its flow-mods travel
    the same channel.
    """

    def __init__(
        self,
        switch,
        controller=None,
        channel: "LossyChannel | None" = None,
        fail_mode: FailMode = FailMode.STANDALONE,
        echo_interval_s: float = 1.0,
        liveness_timeout_s: float = 3.0,
        max_punt_queue: int = 64,
        max_retries: int = 3,
        retry_backoff_s: float = 0.05,
    ):
        if echo_interval_s <= 0 or liveness_timeout_s <= 0:
            raise ValueError("echo interval and liveness timeout must be positive")
        if max_punt_queue < 1:
            raise ValueError("max_punt_queue must be at least 1")
        if max_retries < 0 or retry_backoff_s < 0:
            raise ValueError("retry knobs must be non-negative")
        self.switch = switch
        self.controller = controller
        self.channel = channel if channel is not None else LossyChannel()
        self.fail_mode = fail_mode
        self.echo_interval_s = echo_interval_s
        self.liveness_timeout_s = liveness_timeout_s
        self.max_punt_queue = max_punt_queue
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s

        self.now = 0.0
        self.state = SessionState.UP
        self.last_heard = 0.0
        self._next_echo = echo_interval_s
        self._peer_down = False
        self._down_since: "float | None" = None
        self._xid = 0

        self.punt_queue: deque[PacketIn] = deque()
        #: one-way latency of each delivered punt (bounded reservoir of
        #: the most recent crossings) — the p99 the fabric soak reports.
        self.punt_latencies: deque[float] = deque(maxlen=4096)
        self.outages = 0
        self.time_down_s = 0.0
        self.resyncs = 0
        self.echo_sent = 0
        self.echo_lost = 0
        self.punts_delivered = 0
        self.punts_lost = 0
        self.punts_suppressed = 0
        self.secure_drops = 0
        self.punt_queue_drops = 0
        self.sends = 0
        self.send_retries = 0
        self.sends_failed = 0
        self.barriers = 0
        self.control_latency_s = 0.0

        # The session *is* the switch's packet-in sink. Switches without a
        # reactive hook (ShardedESwitch: punts come back in gathered
        # verdicts) get their punts synthesized at the process() wrapper.
        self._synthesize_punts = not hasattr(switch, "packet_in_handler")
        if not self._synthesize_punts:
            switch.packet_in_handler = self.on_packet_in

    # -- liveness ----------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self.state is SessionState.UP

    def advance(self, dt: float) -> None:
        """Move virtual time forward, firing due keepalives.

        This is the session's clock: liveness loss (and recovery after
        :meth:`reconnect`) is only ever declared here, from echo
        evidence, never from the caller's knowledge of the outage.
        """
        if dt < 0:
            raise ValueError("time does not flow backwards")
        end = self.now + dt
        while self._next_echo <= end:
            self.now = self._next_echo
            self._next_echo += self.echo_interval_s
            self._send_echo()
            self._check_liveness()
        self.now = end
        self._check_liveness()
        self.pump()

    def _send_echo(self) -> None:
        self.echo_sent += 1
        self._xid += 1
        request = EchoRequest(xid=self._xid)
        out = self.channel.deliver()
        if out is None or self._peer_down:
            self.echo_lost += 1
            return
        back = self.channel.deliver()
        if back is None:
            self.echo_lost += 1
            return
        reply = EchoReply(xid=request.xid)
        assert reply.xid == request.xid
        self.control_latency_s += out + back
        self._heard()

    def _heard(self) -> None:
        self.last_heard = self.now
        if self.state is SessionState.DOWN:
            # First evidence of the controller after an outage: resync.
            self.state = SessionState.UP
            if self._down_since is not None:
                self.time_down_s += self.now - self._down_since
                self._down_since = None
            self.resyncs += 1
            self.pump()

    def _check_liveness(self) -> None:
        if (
            self.state is SessionState.UP
            and self.now - self.last_heard > self.liveness_timeout_s
        ):
            self.state = SessionState.DOWN
            self.outages += 1
            self._down_since = self.now

    def disconnect(self) -> None:
        """The controller stops answering (crash, partition). Detection
        happens through missed echoes in :meth:`advance`, not here."""
        self._peer_down = True

    def reconnect(self) -> None:
        """The controller is back. The session recovers on the next
        successful echo round-trip (again: evidence, not assertion)."""
        self._peer_down = False

    # -- the punt path -----------------------------------------------------

    def on_packet_in(self, packet_in: PacketIn) -> None:
        """The switch's packet-in sink: queue, bounded, per fail mode."""
        if self.state is SessionState.DOWN:
            # §6.4: in either fail mode nothing is sent to the controller.
            # (Fail-secure additionally drops the packet — handled at the
            # verdict in process(), where the packet's fate lives.)
            self.punts_suppressed += 1
            return
        if len(self.punt_queue) >= self.max_punt_queue:
            self.punt_queue_drops += 1  # explicit drop-tail policy
            return
        self.punt_queue.append(packet_in)

    def pump(self) -> int:
        """Deliver queued punts to the controller; returns the count.

        Each delivery is one channel crossing: a lost punt simply never
        reaches the controller (it will re-punt on the flow's next
        packet — the resync mechanism). No controller → nothing to do,
        but the bounded queue still enforced its policy.
        """
        delivered = 0
        if self.controller is None:
            self.punt_queue.clear()
            return 0
        while self.punt_queue and self.state is SessionState.UP:
            packet_in = self.punt_queue.popleft()
            latency = self.channel.deliver()
            if latency is None or self._peer_down:
                self.punts_lost += 1
                continue
            self.control_latency_s += latency
            self.punt_latencies.append(latency)
            self.punts_delivered += 1
            delivered += 1
            self.controller(packet_in)
        return delivered

    # -- the datapath face -------------------------------------------------

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        verdict = self.switch.process(pkt, meter)
        if self._synthesize_punts and verdict.to_controller:
            self._punt_from_verdict(pkt, verdict)
        self._apply_fail_mode(verdict)
        self.pump()
        return verdict

    def process_burst(
        self, pkts: "Sequence[Packet]", meter: Meter = NULL_METER
    ) -> list[Verdict]:
        verdicts = self.switch.process_burst(pkts, meter)
        for pkt, verdict in zip(pkts, verdicts):
            if self._synthesize_punts and verdict.to_controller:
                self._punt_from_verdict(pkt, verdict)
            self._apply_fail_mode(verdict)
        self.pump()
        return verdicts

    def _punt_from_verdict(self, pkt: Packet, verdict: Verdict) -> None:
        # The last hop may sit inside a decomposed group: report the
        # logical table, as the interpreter would.
        table_id = (
            self.switch.logical_table_id(verdict.path[-1][0]) if verdict.path else 0
        )
        self.on_packet_in(PacketIn(pkt=pkt, table_id=table_id))

    def _apply_fail_mode(self, verdict: Verdict) -> None:
        if (
            self.state is SessionState.DOWN
            and self.fail_mode is FailMode.SECURE
            and verdict.to_controller
        ):
            # "packets … destined to the controllers are dropped" — the
            # observable difference from fail-standalone, where the
            # last-good pipeline's verdict stands untouched.
            verdict.dropped = True
            verdict.output_ports.clear()
            self.secure_drops += 1

    # -- the controller face -----------------------------------------------

    def submit_flow_mods(self, mods: Sequence[FlowMod]) -> FlowModReply:
        """Send one flow-mod batch switch-ward through the lossy channel.

        Channel losses (of the request or of the reply) are retried up to
        ``max_retries`` times with exponential backoff, all in virtual
        time. Retrying an already-applied batch is safe: admission is
        stateless per batch and re-adding the same rules replaces them.
        A batch that never gets through answers a typed channel error —
        callers always receive a :class:`FlowModReply`, never an
        exception.
        """
        self.sends += 1
        if self.state is SessionState.DOWN:
            return FlowModReply(accepted=False, errors=(CHANNEL_DOWN,))
        reply: "FlowModReply | None" = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.send_retries += 1
                self.control_latency_s += self.retry_backoff_s * (
                    2 ** (attempt - 1)
                )
            out = self.channel.deliver()
            if out is None:
                continue  # the batch never arrived; retry
            self.control_latency_s += out
            reply = self.switch.submit_flow_mods(mods)
            back = self.channel.deliver()
            if back is None:
                reply = None  # the reply vanished: indistinguishable; retry
                continue
            self.control_latency_s += back
            self._heard()
            return reply
        self.sends_failed += 1
        return FlowModReply(accepted=False, errors=(CHANNEL_LOST,))

    def barrier(self) -> bool:
        """§7.3.8 ordering fence: True once everything queued before the
        barrier has been processed and the reply round-trip survived."""
        self.barriers += 1
        if self.state is SessionState.DOWN:
            return False
        self.pump()
        self._xid += 1
        request = BarrierRequest(xid=self._xid)
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.send_retries += 1
                self.control_latency_s += self.retry_backoff_s * (
                    2 ** (attempt - 1)
                )
            out = self.channel.deliver()
            if out is None:
                continue
            back = self.channel.deliver()
            if back is None:
                continue
            self.control_latency_s += out + back
            reply = BarrierReply(xid=request.xid)
            assert reply.xid == request.xid
            self._heard()
            return True
        return False

    # -- telemetry ---------------------------------------------------------

    def health(self) -> SessionHealth:
        time_down = self.time_down_s
        if self._down_since is not None:
            time_down += self.now - self._down_since
        return SessionHealth(
            state=self.state.value,
            fail_mode=self.fail_mode.value,
            outages=self.outages,
            time_down_s=time_down,
            resyncs=self.resyncs,
            echo_sent=self.echo_sent,
            echo_lost=self.echo_lost,
            punts_delivered=self.punts_delivered,
            punts_lost=self.punts_lost,
            punts_suppressed=self.punts_suppressed,
            secure_drops=self.secure_drops,
            punt_queue_drops=self.punt_queue_drops,
            sends=self.sends,
            send_retries=self.send_retries,
            sends_failed=self.sends_failed,
            barriers=self.barriers,
            control_latency_s=self.control_latency_s,
        )

    def __repr__(self) -> str:
        return (
            f"ControllerSession(state={self.state.value}, "
            f"mode={self.fail_mode.value}, outages={self.outages}, "
            f"queue={len(self.punt_queue)})"
        )
