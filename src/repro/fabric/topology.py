"""The leaf–spine fabric: many switches, one control plane.

The ROADMAP's "production system" composition: N access **leaves** (each
a full vPE gateway pipeline, reactive NAT admission per subscriber) and
M **spines** (proactive RIB-only routers) under a single
:class:`~repro.controller.gateway_controller.GatewayController`, which
owns one :class:`~repro.controller.session.ControllerSession` per switch
over an independently-configurable :class:`~repro.controller.channels.
LossyChannel`.

Topology conventions:

* every leaf uplinks to every spine (full bipartite leaf–spine);
  leaf-side uplink ports are ``UPLINK_PORT_BASE + spine_index``,
  spine-side downlink ports are ``DOWNLINK_PORT_BASE + leaf_index``
  (the ``port_map`` records both directions);
* upstream packets a leaf forwards out its network side are sprayed
  across spines by the same RSS-style CRC-32 flow hash the sharded
  engine scatters with (:func:`repro.parallel.rss.shard_of`) — ECMP
  that is flow-sticky and deterministic per seed;
* every subscriber has one **home leaf** (a CE is physically wired to
  one access switch): ``leaf_of(ce, user)`` is a deterministic spread
  of CEs over leaves. The shared controller installs rules *via* the
  punting leaf's session, so one controller instance serves the whole
  fabric while each leaf's channel can fail independently.

All time is virtual: :meth:`Fabric.advance` moves every session clock
together, so outage detection, resync, and soak telemetry replay
bit-for-bit under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controller.channels import LossyChannel
from repro.controller.gateway_controller import GatewayController
from repro.controller.session import ControllerSession, FailMode
from repro.core import ESwitch
from repro.openflow.pipeline import Pipeline
from repro.parallel.rss import shard_of
from repro.usecases import gateway, l3

#: Leaf-side port leading to spine ``j`` is ``UPLINK_PORT_BASE + j``.
UPLINK_PORT_BASE = 100
#: Spine-side port leading to leaf ``i`` is ``DOWNLINK_PORT_BASE + i``.
DOWNLINK_PORT_BASE = 10


class _LeafControllerFace:
    """The per-leaf packet-in adapter in front of the shared controller.

    A session delivers punts to a plain callable; this face curries the
    leaf's own session into :meth:`GatewayController.handle` (``via=``)
    so NAT rules install into the switch that punted — through that
    leaf's lossy channel, not some global shortcut. It is also the
    attachment point for the ``controller_stall`` fault: while
    ``stalled`` the controller process is wedged and punts fall on the
    floor (counted, deterministic, reversible).
    """

    def __init__(self, controller: GatewayController):
        self.controller = controller
        self.session: "ControllerSession | None" = None  # wired by Fabric
        self.stalled = False
        self.stalled_drops = 0

    def __call__(self, packet_in) -> None:
        if self.stalled:
            self.stalled_drops += 1
            return
        self.controller.handle(packet_in, via=self.session)


@dataclass
class Leaf:
    """One access switch: gateway pipeline + session + controller face."""

    name: str
    index: int
    switch: object
    session: ControllerSession
    face: _LeafControllerFace
    uplink_ports: dict[str, int] = field(default_factory=dict)


@dataclass
class Spine:
    """One aggregation switch: proactive RIB, no reactive state."""

    name: str
    index: int
    switch: object
    session: ControllerSession
    downlink_ports: dict[str, int] = field(default_factory=dict)


@dataclass
class BurstOutcome:
    """What happened to one injected burst, end to end."""

    injected: int = 0
    served: int = 0        #: forwarded by the leaf AND by a spine
    punted: int = 0        #: leaf table-miss punts (to_controller)
    dropped: int = 0       #: dropped at either tier (incl. fail-secure)

    @property
    def served_fraction(self) -> float:
        return self.served / self.injected if self.injected else 1.0

    def absorb(self, other: "BurstOutcome") -> None:
        self.injected += other.injected
        self.served += other.served
        self.punted += other.punted
        self.dropped += other.dropped


def spine_pipeline(fib) -> Pipeline:
    """A spine's RIB: the gateway FIB with real next-hop ports."""
    return Pipeline([l3.rib_table(0, "spine-rib", fib)])


class Fabric:
    """N leaves + M spines under one controller (see module doc).

    Args:
        n_leaves / n_spines: topology size.
        n_ce / users_per_ce: subscriber population (every leaf carries
            the full per-CE table set; subscribers are pinned to their
            home leaf by :meth:`leaf_of`).
        n_prefixes: FIB size shared by leaf RIBs and spine RIBs.
        fail_mode: §6.4 mode for every leaf session.
        channel_for: ``(role, name, index) -> LossyChannel`` factory so
            each switch's channel is independently configurable; default
            is a mildly lossy controller link per leaf and a reliable
            one per spine, each with its own derived seed.
        leaf_factory: ``pipeline -> switch`` — swap in a
            :class:`~repro.parallel.engine.ShardedESwitch` here for
            multi-worker leaves (sessions synthesize punts for it).
        ecmp_seed: seed of the leaf→spine RSS spray.
    """

    def __init__(
        self,
        n_leaves: int = 4,
        n_spines: int = 2,
        n_ce: int = 8,
        users_per_ce: int = 8,
        n_prefixes: int = 200,
        fail_mode: FailMode = FailMode.STANDALONE,
        channel_for=None,
        leaf_factory=None,
        ecmp_seed: int = 0,
        fib_seed: int = 29,
        **session_kwargs,
    ):
        if n_leaves < 1 or n_spines < 1:
            raise ValueError("a fabric needs at least one leaf and one spine")
        if n_ce < n_leaves:
            raise ValueError("need at least one CE per leaf")
        self.n_leaves = n_leaves
        self.n_spines = n_spines
        self.n_ce = n_ce
        self.users_per_ce = users_per_ce
        self.ecmp_seed = ecmp_seed
        self.now = 0.0
        if channel_for is None:
            channel_for = self._default_channel
        if leaf_factory is None:
            leaf_factory = ESwitch.from_pipeline

        self.controller = GatewayController(
            None, n_ce=n_ce, users_per_ce=users_per_ce
        )

        self.leaves: list[Leaf] = []
        fib = None
        for i in range(n_leaves):
            pipeline, fib = gateway.build(
                n_ce=n_ce,
                users_per_ce=users_per_ce,
                n_prefixes=n_prefixes,
                provision_users=False,
                seed=fib_seed,
            )
            switch = leaf_factory(pipeline)
            face = _LeafControllerFace(self.controller)
            session = ControllerSession(
                switch,
                controller=face,
                channel=channel_for("leaf", f"leaf{i}", i),
                fail_mode=fail_mode,
                **session_kwargs,
            )
            face.session = session
            uplinks = {
                f"spine{j}": UPLINK_PORT_BASE + j for j in range(n_spines)
            }
            self.leaves.append(
                Leaf(f"leaf{i}", i, switch, session, face, uplinks)
            )
        self.fib = fib

        self.spines: list[Spine] = []
        for j in range(n_spines):
            switch = ESwitch.from_pipeline(spine_pipeline(fib))
            session = ControllerSession(
                switch,
                controller=None,  # proactive-only: nothing to punt
                channel=channel_for("spine", f"spine{j}", j),
                fail_mode=fail_mode,
                **session_kwargs,
            )
            downlinks = {
                f"leaf{i}": DOWNLINK_PORT_BASE + i for i in range(n_leaves)
            }
            self.spines.append(
                Spine(f"spine{j}", j, switch, session, downlinks)
            )

        self.port_map = {
            (leaf.name, spine.name): (
                leaf.uplink_ports[spine.name],
                spine.downlink_ports[leaf.name],
            )
            for leaf in self.leaves
            for spine in self.spines
        }

    @staticmethod
    def _default_channel(role: str, name: str, index: int) -> LossyChannel:
        if role == "leaf":
            return LossyChannel(loss=0.01, delay_s=1e-3, jitter_s=5e-4,
                                seed=1000 + index)
        return LossyChannel(loss=0.0, delay_s=1e-3, seed=2000 + index)

    # -- naming ------------------------------------------------------------

    def leaf(self, name: str) -> Leaf:
        for leaf in self.leaves:
            if leaf.name == name:
                return leaf
        raise KeyError(name)

    def spine(self, name: str) -> Spine:
        for spine in self.spines:
            if spine.name == name:
                return spine
        raise KeyError(name)

    def session_of(self, name: str) -> ControllerSession:
        try:
            return self.leaf(name).session
        except KeyError:
            return self.spine(name).session

    def leaf_of(self, ce: int, user: int = 0) -> Leaf:
        """A subscriber's home leaf: CEs spread round-robin over leaves."""
        return self.leaves[ce % self.n_leaves]

    # -- the data plane ----------------------------------------------------

    def inject(self, leaf: "Leaf | str", pkts) -> BurstOutcome:
        """One access-side burst into a leaf, carried through a spine.

        A packet is **served** when the leaf forwarded it upstream and
        the ECMP-chosen spine forwarded it on; anything the leaf punted,
        dropped, or fail-secure-killed — and anything a spine dropped —
        is not. Spine sub-bursts keep packet order per spine (the spray
        is flow-sticky, so per-flow order is preserved end to end).
        """
        if isinstance(leaf, str):
            leaf = self.leaf(leaf)
        outcome = BurstOutcome(injected=len(pkts))
        verdicts = leaf.session.process_burst(pkts)
        upstream: list[list] = [[] for _ in self.spines]
        for pkt, verdict in zip(pkts, verdicts):
            if verdict.to_controller and not verdict.forwarded:
                outcome.punted += 1
                if verdict.dropped:  # fail-secure killed the punt
                    outcome.dropped += 1
                continue
            if not verdict.forwarded:
                outcome.dropped += 1
                continue
            spine_idx = shard_of(pkt.data, self.n_spines, seed=self.ecmp_seed)
            hop = pkt.copy()
            hop.in_port = self.spines[spine_idx].downlink_ports[leaf.name]
            upstream[spine_idx].append(hop)
        for spine, sub in zip(self.spines, upstream):
            if not sub:
                continue
            for verdict in spine.session.process_burst(sub):
                if verdict.forwarded:
                    outcome.served += 1
                else:
                    outcome.dropped += 1
        return outcome

    # -- the control plane -------------------------------------------------

    def advance(self, dt: float) -> None:
        """Move every session's virtual clock forward together."""
        for leaf in self.leaves:
            leaf.session.advance(dt)
        for spine in self.spines:
            spine.session.advance(dt)
        self.now += dt

    def health(self) -> dict:
        """Per-switch session + engine health, keyed by switch name."""
        out = {}
        for node in (*self.leaves, *self.spines):
            entry = {"session": node.session.health().as_dict()}
            engine_health = getattr(node.switch, "health", None)
            if engine_health is not None:
                entry["engine"] = engine_health().as_dict()
            out[node.name] = entry
        return out

    def close(self) -> None:
        for node in (*self.leaves, *self.spines):
            close = getattr(node.switch, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Fabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        up = sum(1 for l in self.leaves if l.session.connected)
        return (
            f"Fabric(leaves={up}/{self.n_leaves} up, "
            f"spines={self.n_spines}, subscribers="
            f"{self.n_ce * self.users_per_ce})"
        )
