"""Real-parallel sharded execution: N datapath replicas behind one facade.

Everything else in this repo *models* multicore scaling
(:func:`repro.traffic.measure_multicore` charges an analytic coherence
term per extra core). This package actually runs packets in parallel:
:class:`~repro.parallel.engine.ShardedESwitch` spawns worker processes
(threads as a fallback), each owning a private fused
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
* :mod:`repro.parallel.rings` — persistent shared-memory SPSC rings
  (sequence-number cursors, batched acks): the zero-syscall carrier;
* :mod:`repro.parallel.channel` — the one wire both ends speak: frames
  on the ring where the platform has one and on the shard's connection
  where it does not, in order, with backpressure, one wait loop, and
  every failure typed ``WorkerDied`` / ``WorkerTimeout``;
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

from repro.parallel import frames, rings
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
    "rings",
    "rss_hash",
    "shard_of",
]
