"""Real-parallel sharded execution: N datapath replicas behind one facade.

The paper's multicore scaling (Fig. 19) is reproduced on the modeled
axis (:func:`repro.traffic.measure_multicore` charges an analytic
coherence term per extra core). This package runs packets through real
replicas for two other reasons: the fault model (a worker dies and is
respawned from the engine's shadow, unobservably) and the differential
oracle's sharded backends. :class:`~repro.parallel.engine.ShardedESwitch`
forks worker processes, each owning a private fused
:class:`~repro.core.eswitch.ESwitch` replica compiled from the same
pipeline — the shared-nothing, run-to-completion shape of a DPDK
per-core datapath (and of OVS's per-PMD-thread datapaths, NSDI'15).

* :mod:`repro.parallel.rss` — the RSS-style 5-tuple hash that scatters
  packets to shards, flow-sticky like a NIC's receive-side scaling,
  plus the NIC-style indirection table the engine remaps to degrade
  around a dead shard;
* :mod:`repro.parallel.wire` — the position-addressed forms verdicts
  and flow-counter deltas take so they mean the same on any replica;
* :mod:`repro.parallel.frames` — the packed binary frame (columnar, one
  struct call per section): the only form a burst or its reply takes;
* :mod:`repro.parallel.channel` — one pipe per shard, one burst in
  flight, every failure typed ``WorkerDied`` / ``WorkerTimeout``;
* :mod:`repro.parallel.worker` — the shard worker loop (one replica,
  one channel, one per-core cycle meter);
* :mod:`repro.parallel.faults` — deterministic worker fault injection
  (kill / hang / delay at precise command occurrences), the test
  instrument behind the supervision layer;
* :mod:`repro.parallel.engine` — the scatter/gather facade with
  epoch-synced control-plane broadcast and worker supervision
  (RPC deadlines, crash/hang detection, respawn from the shadow
  snapshot, bounded burst retry, graceful degradation).
"""

from repro.parallel import frames
from repro.parallel.engine import (
    EngineHealth,
    EpochSyncError,
    ShardedESwitch,
    ShardWorkerError,
    WorkerDied,
    WorkerTimeout,
)
from repro.parallel.faults import FaultInjector, FaultSpec
from repro.parallel.rss import RssIndirection, rss_hash, shard_of

__all__ = [
    "EngineHealth",
    "EpochSyncError",
    "FaultInjector",
    "FaultSpec",
    "RssIndirection",
    "ShardWorkerError",
    "ShardedESwitch",
    "WorkerDied",
    "WorkerTimeout",
    "frames",
    "rss_hash",
    "shard_of",
]
