"""Update-channel models for the Fig. 17 setup-time experiment.

Two ways to feed flow-mods to a switch, as in the paper:

* **CLI** (``ovs-ofctl``-style): a thin per-invocation overhead; total time
  is dominated by switch-side update processing — where ESWITCH's
  template compilation is about five times cheaper than OVS's
  transaction + revalidation machinery;
* **controller** (Ryu/ODL-style): a per-message protocol/serialization
  latency that dwarfs either switch's processing — "it is the OpenFlow
  controller, rather than ESWITCH itself, that bottlenecks update rates".

Switch-side cost comes from the switch object itself: every switch
answers ``submit_flow_mods`` with a typed
:class:`~repro.openflow.messages.FlowModReply` — accepted mods carry their
modeled switch cycles, rejected mods carry the switch's error list and
zero cycles. :func:`setup_time` therefore counts a rejected mod's channel
latency (the message still traveled the wire) but none of the switch-side
processing it never received.

:class:`LossyChannel` extends the fixed-latency model with message loss
and delay jitter — the substrate of the fail-static controller session
(:mod:`repro.controller.session`). It is deterministic under a seed so
soak tests replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.openflow.messages import FlowMod
from repro.simcpu.platform import Platform, XEON_E5_2620


@dataclass(frozen=True)
class UpdateChannel:
    """A flow-mod delivery path with a fixed per-message latency."""

    name: str
    per_message_s: float


CLI_CHANNEL = UpdateChannel("CLI", per_message_s=150e-6)
CONTROLLER_CHANNEL = UpdateChannel("ctrl", per_message_s=1e-3)


@dataclass
class LossyChannel:
    """A controller↔switch link that loses and delays messages.

    Each :meth:`deliver` models one message crossing the link: it returns
    the one-way latency in seconds, or None when the message was lost.
    Deterministic for a given ``seed`` and call sequence, so fault soaks
    replay bit-for-bit.

    Attributes:
        loss: per-message drop probability (0 = reliable).
        delay_s: base one-way latency.
        jitter_s: maximum uniform jitter added on top of ``delay_s``.
    """

    loss: float = 0.0
    delay_s: float = CONTROLLER_CHANNEL.per_message_s
    jitter_s: float = 0.0
    seed: int = 0
    messages: int = field(default=0, init=False)
    lost: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if self.delay_s < 0 or self.jitter_s < 0:
            raise ValueError("latencies must be non-negative")
        self._rng = random.Random(self.seed)

    def deliver(self) -> "float | None":
        """One message crossing: latency in seconds, or None if lost."""
        self.messages += 1
        if self.loss and self._rng.random() < self.loss:
            self.lost += 1
            return None
        latency = self.delay_s
        if self.jitter_s:
            latency += self._rng.random() * self.jitter_s
        return latency


RELIABLE_CHANNEL = LossyChannel(loss=0.0, delay_s=0.0, jitter_s=0.0)


def setup_time(
    switch,
    mods: Sequence[FlowMod],
    channel: UpdateChannel,
    platform: Platform = XEON_E5_2620,
) -> float:
    """Total seconds to push ``mods`` through ``channel`` into ``switch``.

    A rejected mod still pays the channel's per-message latency (the
    message traveled and the error reply came back) but contributes no
    switch-side cycles — the switch refused it at admission.
    """
    cycles = sum(switch.submit_flow_mods([mod]).cycles for mod in mods)
    return len(mods) * channel.per_message_s + cycles / platform.freq_hz
