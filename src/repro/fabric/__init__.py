"""``repro.fabric`` — a leaf–spine fabric of switches, one control plane.

The composition layer of the ROADMAP's "production system" demo:

* :mod:`repro.fabric.topology` — :class:`Fabric`: N gateway leaves + M
  RIB spines, RSS-style ECMP across spines, one shared
  :class:`~repro.controller.gateway_controller.GatewayController` with a
  per-switch lossy :class:`~repro.controller.session.ControllerSession`;
* :mod:`repro.fabric.supervisor` — :class:`FabricSupervisor`: health
  scoring, outage attribution, resync convergence windows, and rolling
  epoch-barrier upgrades with abort-and-rollback;
* :mod:`repro.fabric.faults` — :class:`FabricFaultPlan`: deterministic
  scripted session-layer faults (blackout, latency storm, keepalive
  eclipse, controller stall).

The soak that drives all three is ``tests/fabric/test_fabric_soak_harness.py``.
"""

from repro.fabric.faults import (
    FAULT_KINDS,
    ArmedFabricFaults,
    FabricFaultPlan,
    FabricFaultSpec,
    NO_FABRIC_FAULTS,
)
from repro.fabric.supervisor import (
    FabricSupervisor,
    LeafStatus,
    UPGRADE_MARKER_PORT,
    UpgradeReport,
    default_upgrade_mods,
)
from repro.fabric.topology import (
    BurstOutcome,
    DOWNLINK_PORT_BASE,
    Fabric,
    Leaf,
    Spine,
    UPLINK_PORT_BASE,
    spine_pipeline,
)

__all__ = [
    "ArmedFabricFaults",
    "BurstOutcome",
    "DOWNLINK_PORT_BASE",
    "FAULT_KINDS",
    "Fabric",
    "FabricFaultPlan",
    "FabricFaultSpec",
    "FabricSupervisor",
    "Leaf",
    "LeafStatus",
    "NO_FABRIC_FAULTS",
    "Spine",
    "UPGRADE_MARKER_PORT",
    "UPLINK_PORT_BASE",
    "UpgradeReport",
    "default_upgrade_mods",
    "spine_pipeline",
]
