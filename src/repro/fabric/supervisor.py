"""The fabric supervisor: health scoring, outage handling, upgrades.

The PR-4 supervision idioms (deadline-bounded operations, degrade in
place, evidence-based recovery, typed telemetry) applied to the control
plane of a whole fabric:

* **health scoring** — every tick folds each switch's
  :class:`~repro.controller.session.SessionHealth` and (when the switch
  exposes one) engine :class:`~repro.core.eswitch.SwitchHealth` into a
  single ``[0, 1]`` score; a DOWN session scores 0, channel attrition
  (lost echoes, lost punts, failed sends) and engine degradation
  (quarantines, trampoline fallback) take weighted bites out of 1;
* **outage detection** — transitions of the session's ``outages`` /
  ``resyncs`` counters become supervisor events. The affected leaf
  keeps serving in its §6.4 fail mode (that machinery lives in the
  session); the supervisor's job is attribution: per-leaf degraded
  time, resync convergence windows, the event log the soak report
  publishes;
* **rolling upgrades** — :meth:`FabricSupervisor.rolling_upgrade` walks
  the fabric leaf-by-leaf behind epoch barriers: quiesce (barrier),
  apply the upgrade batch through the leaf's own session, re-fuse
  (:meth:`~repro.core.eswitch.ESwitch.warm` — the same ack condition a
  sharded replica answers its epoch broadcast with), then advance that
  leaf's epoch. Any failure — barrier refused, batch rejected, re-fuse
  failed — **aborts and rolls back**: the current leaf and every
  already-upgraded leaf revert to the old epoch's state, so the fabric
  is never left straddling epochs. What a leaf reverts to is the
  pipeline's own undo record of the upgrade batch
  (:meth:`~repro.openflow.pipeline.Pipeline.undo_record`, taken before
  the batch is sent), submitted in its wire form.

``deadlocks`` counts supervisor wedges: a rollback that could not
restore a leaf to the old epoch (nothing recoverable remains to try).
It must be zero in any healthy run — CI asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.match import Match


#: A leaf-side port no workload uses: upgrade marker rules match it so
#: they are verdict-invisible to real traffic (ports 1, 2, uplinks).
UPGRADE_MARKER_PORT = 9999


def default_upgrade_mods(epoch: int) -> list[FlowMod]:
    """The default rolling-upgrade payload: an epoch-marker rule.

    Matches only :data:`UPGRADE_MARKER_PORT`, so the upgraded pipeline
    is verdict-identical for every real packet — which is what lets the
    acceptance check demand *zero* divergence against a pre-upgrade
    replay. ``priority`` encodes the epoch so the marker is inspectable.
    """
    return [
        FlowMod(
            FlowModCommand.ADD,
            0,
            Match(in_port=UPGRADE_MARKER_PORT),
            priority=1 + epoch,
            instructions=(),
        )
    ]


@dataclass
class LeafStatus:
    """One leaf's supervisor-eye view at the last tick."""

    name: str
    score: float = 1.0
    serving: bool = True          #: session UP (DOWN = degraded fail mode)
    outages: int = 0
    resyncs: int = 0
    degraded_time_s: float = 0.0
    convergence_s: "float | None" = None  #: last resync → convergence
    epoch: int = 0


@dataclass
class UpgradeReport:
    """Outcome of one rolling upgrade walk."""

    completed: bool
    epoch: int                      #: fabric epoch after the walk
    upgraded: list[str] = field(default_factory=list)
    aborted_at: "str | None" = None
    abort_reason: str = ""
    rolled_back: list[str] = field(default_factory=list)


class FabricSupervisor:
    """Watches one :class:`~repro.fabric.topology.Fabric` (module doc).

    Drive it with :meth:`tick` from the soak loop; an optional
    :class:`~repro.fabric.faults.ArmedFabricFaults` is ticked first so
    fault windows open before the time they cover is simulated.
    """

    #: score deductions (session DOWN is an immediate 0)
    _ECHO_LOSS_WEIGHT = 0.3
    _PUNT_LOSS_WEIGHT = 0.2
    _SEND_FAIL_WEIGHT = 0.2
    _ENGINE_DEGRADED_CAP = 0.5

    def __init__(self, fabric, faults=None):
        self.fabric = fabric
        self.faults = faults
        self.epoch = 0
        self.deadlocks = 0
        self.events: list[tuple[float, str, str]] = []
        self.status: dict[str, LeafStatus] = {
            leaf.name: LeafStatus(leaf.name) for leaf in fabric.leaves
        }
        #: name -> virtual time of the resync whose convergence is open.
        self._awaiting_convergence: dict[str, float] = {}

    # -- the tick ----------------------------------------------------------

    def tick(self, dt: float) -> None:
        """Advance fault windows + fabric time, then re-score every leaf."""
        if self.faults is not None:
            self.faults.tick(self.fabric.now)
        self.fabric.advance(dt)
        for leaf in self.fabric.leaves:
            self._observe(leaf, dt)

    def _observe(self, leaf, dt: float) -> None:
        health = leaf.session.health()
        status = self.status[leaf.name]
        if health.outages > status.outages:
            # Liveness loss declared since last tick: the leaf is now
            # serving degraded in its fail mode. Detection is the
            # session's (evidence-based); attribution is ours.
            self.events.append((self.fabric.now, leaf.name, "outage"))
        if health.resyncs > status.resyncs:
            self.events.append((self.fabric.now, leaf.name, "resync"))
            self._awaiting_convergence[leaf.name] = self.fabric.now
            status.convergence_s = None
        if not leaf.session.connected:
            status.degraded_time_s += dt
        status.serving = leaf.session.connected
        status.outages = health.outages
        status.resyncs = health.resyncs
        status.score = self._score(leaf, health)

    def awaiting_convergence(self) -> list[str]:
        """Leaves that resynced and whose reactive state has not yet been
        confirmed re-converged by the workload."""
        return sorted(self._awaiting_convergence)

    def note_converged(self, leaf_name: str) -> "float | None":
        """Record that a resynced leaf's reactive state has re-converged.

        The *workload* owns the convergence criterion (e.g. a probe
        burst with zero punts); it reports the fact here and the
        supervisor turns it into an install-convergence time. Returns
        the measured window, or None if no resync was pending.
        """
        since = self._awaiting_convergence.pop(leaf_name, None)
        if since is None:
            return None
        window = self.fabric.now - since
        self.status[leaf_name].convergence_s = window
        self.events.append((self.fabric.now, leaf_name, "converged"))
        return window

    def _score(self, leaf, health) -> float:
        if health.state != "up":
            return 0.0
        score = 1.0
        if health.echo_sent:
            score -= self._ECHO_LOSS_WEIGHT * (
                health.echo_lost / health.echo_sent
            )
        punts = health.punts_delivered + health.punts_lost
        if punts:
            score -= self._PUNT_LOSS_WEIGHT * (health.punts_lost / punts)
        if health.sends:
            score -= self._SEND_FAIL_WEIGHT * (
                health.sends_failed / health.sends
            )
        engine_health = getattr(leaf.switch, "health", None)
        if engine_health is not None and engine_health().degraded:
            score = min(score, self._ENGINE_DEGRADED_CAP)
        return max(score, 0.0)

    def health_scores(self) -> dict[str, float]:
        return {name: s.score for name, s in self.status.items()}

    def degraded_leaves(self) -> list[str]:
        return [n for n, s in self.status.items() if not s.serving]

    # -- rolling upgrades --------------------------------------------------

    def rolling_upgrade(
        self,
        mods_for_leaf=None,
        fail_refuse_on: "str | None" = None,
    ) -> UpgradeReport:
        """Walk the fabric leaf-by-leaf behind epoch barriers (module doc).

        Args:
            mods_for_leaf: ``leaf -> list[FlowMod]`` upgrade payload;
                defaults to :func:`default_upgrade_mods` (the
                verdict-invisible epoch marker).
            fail_refuse_on: leaf name whose re-fuse is forced to fail
                after the batch applies — the injected abort path the
                acceptance criteria exercise.
        """
        new_epoch = self.epoch + 1
        if mods_for_leaf is None:
            def mods_for_leaf(_leaf):
                return default_upgrade_mods(new_epoch)

        report = UpgradeReport(completed=False, epoch=self.epoch)
        undo_stack: list[tuple] = []  # (leaf, BatchUndo)
        for leaf in self.fabric.leaves:
            mods = list(mods_for_leaf(leaf))
            abort = self._upgrade_leaf(
                leaf, mods, new_epoch, undo_stack,
                force_refuse_failure=(leaf.name == fail_refuse_on),
            )
            if abort is not None:
                report.aborted_at = leaf.name
                report.abort_reason = abort
                report.rolled_back = self._rollback(undo_stack)
                self.events.append(
                    (self.fabric.now, leaf.name, f"upgrade-aborted: {abort}")
                )
                return report
            report.upgraded.append(leaf.name)
        self.epoch = new_epoch
        report.completed = True
        report.epoch = new_epoch
        self.events.append((self.fabric.now, "fabric", f"epoch {new_epoch}"))
        return report

    def _upgrade_leaf(
        self, leaf, mods, new_epoch, undo_stack, force_refuse_failure
    ) -> "str | None":
        """Upgrade one leaf; returns an abort reason or None on success."""
        # Epoch barrier: every punt queued before the upgrade must be
        # answered first, so the new epoch starts from quiescence. A
        # refused barrier (session down) aborts — upgrading a dark leaf
        # would race its resync.
        if not leaf.session.barrier():
            return "barrier refused (session down)"
        undo = leaf.switch.pipeline.undo_record(mods)
        reply = leaf.session.submit_flow_mods(mods)
        if not reply:
            return "upgrade batch rejected: " + "; ".join(
                str(e) for e in reply.errors
            )
        undo_stack.append((leaf, undo))
        if force_refuse_failure:
            leaf.switch.datapath.force_fuse_failure("injected upgrade fault")
        if not leaf.switch.warm():
            # The new epoch cannot stand its fused driver up: the leaf
            # would serve the upgrade on the trampoline rung. Policy:
            # abort the walk, roll everything back.
            return "re-fuse failed: " + leaf.switch.health().last_fuse_error
        self.status[leaf.name].epoch = new_epoch
        return None

    def _rollback(self, undo_stack) -> list[str]:
        """Restore every touched leaf to the old epoch, newest first.

        Rollback bypasses the lossy channel (``switch.submit_flow_mods``
        directly): it is the supervisor's local recovery action, and it
        must not be able to fail for channel reasons while the fabric is
        mid-abort. A table the upgrade created goes too, unless something
        else has put rules in it since.
        """
        rolled_back = []
        for leaf, undo in reversed(undo_stack):
            switch = leaf.switch
            if switch.submit_flow_mods(undo.wire_mods()):
                for table_id in undo.created:
                    if not len(switch.pipeline.table(table_id)):
                        switch.drop_table(table_id)
                switch.warm()
                self.status[leaf.name].epoch = self.epoch
                rolled_back.append(leaf.name)
            else:
                # Nothing recoverable remains to try: the supervisor is
                # wedged between epochs. Counted, never silent.
                self.deadlocks += 1
        return rolled_back

    def telemetry(self) -> dict:
        """The supervisor block of the soak report."""
        return {
            "epoch": self.epoch,
            "deadlocks": self.deadlocks,
            "leaves": {
                name: {
                    "score": status.score,
                    "serving": status.serving,
                    "outages": status.outages,
                    "resyncs": status.resyncs,
                    "degraded_time_s": status.degraded_time_s,
                    "convergence_s": status.convergence_s,
                    "epoch": status.epoch,
                }
                for name, status in self.status.items()
            },
            "events": [list(e) for e in self.events],
        }
