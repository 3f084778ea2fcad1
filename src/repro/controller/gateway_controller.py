"""The gateway's admission controller (reactive NAT provisioning).

"Packets missing the per-CE tables are passed to the controller that does
admission control, allocates a public IP, and installs per-user 'NAT'
rules into the proper tables." (Section 4.1)

The controller recognizes subscribers by their private address shape
(10.<ce>.0.<user>); unknown senders are rejected (no rules installed).
"""

from __future__ import annotations

from repro.net.addresses import ip_to_int
from repro.openflow.messages import FlowModFailedCode, PacketIn
from repro.packet.parser import parse
from repro.openflow.fields import field_by_name
from repro.usecases import gateway


class GatewayController:
    """Handles packet-ins from the vPE's per-CE admission tables.

    Hardened like :class:`~repro.controller.learning_switch.
    LearningSwitch`: garbage packet-ins are counted (``malformed``) and
    dropped, never raised, and a subscriber is marked admitted only after
    the switch actually accepted *all* the NAT rules — a rejected install
    (``install_failures``) leaves the subscriber un-admitted so the next
    punt retries.

    A batch bounced for ``TABLE_FULL`` is **split**, not retried
    verbatim: the errors echo the offending mods (OpenFlow echoes the
    failed request in ``ErrorMsg.data``), so the admissible complement is
    resubmitted immediately and only the overflow is parked in
    ``pending_overflow`` for the subscriber's next punt. Retrying the
    whole batch verbatim would wedge a subscriber forever behind one full
    table even when every other rule had room.

    ``via`` (on :meth:`handle`/``__call__``) selects which switch handle
    receives the install, so one controller instance can serve every leaf
    of a fabric — each leaf's session passes itself as ``via`` and the
    rules land on the switch that punted.
    """

    def __init__(self, switch=None, n_ce: int = 10, users_per_ce: int = 20):
        self.switch = switch
        self.n_ce = n_ce
        self.users_per_ce = users_per_ce
        self.admitted: set[tuple[int, int]] = set()
        #: subscriber -> mods bounced with TABLE_FULL, retried alone on
        #: the subscriber's next punt (the complement already landed).
        self.pending_overflow: "dict[tuple[int, int], list]" = {}
        self.rejected = 0
        self.packet_ins = 0
        self.malformed = 0
        self.install_failures = 0
        self.table_full_splits = 0
        self.overflow_retries = 0

    def __call__(self, packet_in: PacketIn, via=None) -> None:
        self.handle(packet_in, via=via)

    def handle(self, packet_in: PacketIn, via=None) -> None:
        self.packet_ins += 1
        target = via if via is not None else self.switch
        try:
            view = parse(packet_in.pkt)
            src = field_by_name("ipv4_src").extract(view)
            vlan = field_by_name("vlan_vid").extract(view)
        except Exception:
            self.malformed += 1
            return
        subscriber = self._subscriber_of(src, vlan)
        if subscriber is None:
            self.rejected += 1
            return
        if subscriber in self.admitted:
            return  # rules already installed; packet raced the update
        ce, user = subscriber
        overflow_only = self.pending_overflow.get(subscriber)
        if overflow_only is not None:
            self.overflow_retries += 1
            mods = list(overflow_only)
        else:
            mods = list(gateway.nat_flow_mods(ce, user))
        landed, overflow = self._install(mods, target)
        if landed:
            self.pending_overflow.pop(subscriber, None)
            self.admitted.add(subscriber)
            return
        self.install_failures += 1
        if overflow is not None:
            # The complement landed; park only the overflow for retry.
            self.pending_overflow[subscriber] = overflow
        # else: nothing landed (channel down, hard reject) — the same
        # batch is retried verbatim on the next punt.

    def _install(self, mods, target) -> "tuple[bool, list | None]":
        """Install a batch on ``target``.

        Returns ``(True, None)`` when everything landed; ``(False,
        overflow)`` when a TABLE_FULL split landed the complement and
        ``overflow`` must be retried later; ``(False, None)`` when
        nothing landed.
        """
        reply = target.submit_flow_mods(list(mods))
        if reply:
            return True, None
        overflow_ids = {
            id(err.data)
            for err in reply.errors
            if err.code is FlowModFailedCode.TABLE_FULL
            and err.data is not None
        }
        admissible = [m for m in mods if id(m) not in overflow_ids]
        if not overflow_ids or len(admissible) == len(mods):
            return False, None  # not a capacity reject: retry verbatim
        overflow = [m for m in mods if id(m) in overflow_ids]
        if not admissible:
            # The whole batch is overflow; nothing to split out.
            return False, None
        self.table_full_splits += 1
        if target.submit_flow_mods(admissible):
            return False, overflow
        # The complement bounced too (channel dropped mid-split, a
        # second table filled): treat as nothing landed — the original
        # batch is retried whole, so no mod is silently forgotten.
        return False, None

    def _subscriber_of(
        self, src: "int | None", vlan: "int | None"
    ) -> "tuple[int, int] | None":
        if src is None or vlan is None:
            return None
        base = ip_to_int("10.0.0.0")
        if (src >> 24) != (base >> 24):
            return None
        ce = (src >> 16) & 0xFF
        user = (src & 0xFFFF) - 1
        if ce >= self.n_ce or not 0 <= user < self.users_per_ce:
            return None
        if vlan != gateway.ce_vlan(ce):
            return None
        return ce, user
