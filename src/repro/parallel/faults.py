"""Deterministic fault injection for the sharded engine's workers.

Wong et al. (PAPERS.md) make the case that a compiler-backed datapath is
only trustworthy once you have watched it *fail*: simulated hardware
faults exercise the recovery paths that healthy runs never touch. This
module is that instrument for :class:`~repro.parallel.ShardedESwitch` —
a picklable plan of precisely-placed worker faults that the supervision
layer (deadlines, respawn, retry, degradation) must absorb without the
caller noticing.

A :class:`FaultInjector` is handed to the engine at construction and
travels to every worker (fork or pickle). Inside the worker loop each
command fires two hook points — ``"before"`` the command executes and
``"after"`` it executed but before the reply is sent — and the armed
plan decides whether this worker, on this command occurrence, suffers a

* ``"kill"`` — the worker dies on the spot (``os._exit`` for a process,
  channel close + return for a thread), exactly like an OOM kill or
  segfault: any work done but not yet acked is simply gone;
* ``"hang"`` — the worker sleeps ``seconds`` (default far past any sane
  deadline) before carrying on, modeling a live-locked or swapping
  worker the engine must deadline out and abandon;
* ``"delay"`` — the worker sleeps a *sub-deadline* ``seconds`` and then
  answers normally, modeling jitter that supervision must NOT treat as
  a fault.

Placement is fully deterministic: a spec names the shard index, the
command kind (``"burst"``, ``"mods"``, ``"ping"``, ``"spawn"``, or
``"any"``), the 1-based occurrence of that command on
that shard, the hook stage, and which worker *generation* it applies to
(``0`` = the originally spawned worker — the default, so respawned
replacements come up clean; ``"respawn"`` = every replacement, which
makes respawn itself keep failing; ``None`` = all generations). The
``"spawn"`` pseudo-command fires once at worker startup, before the
ready handshake — a ``kill`` there makes the replacement stillborn.

The ``"after"`` stage on ``"mods"`` is the deliberately nasty one: the
replica has applied the flow-mod batch and re-fused, and dies holding
an un-sent ack — the engine's epoch barrier must neither wedge on it
nor let a half-acked batch leak into a gather.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_KINDS = ("kill", "hang", "delay")
_STAGES = ("before", "after")
_CMDS = ("burst", "mods", "ping", "spawn", "any")


class WorkerKilled(BaseException):
    """Raised inside a worker to make it die (deliberately not Exception:
    the worker loop's error reporting must not catch its own death)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where, when, and what happens."""

    shard: int
    cmd: str = "burst"
    occurrence: int = 1
    kind: str = "kill"
    when: str = "before"
    seconds: float = 30.0
    #: 0 = original worker (default), k = the k-th respawned replacement,
    #: "respawn" = any replacement, None = every generation.
    generation: "int | str | None" = 0

    def __post_init__(self) -> None:
        if self.cmd not in _CMDS:
            raise ValueError(f"unknown fault command {self.cmd!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.when not in _STAGES:
            raise ValueError(f"unknown fault stage {self.when!r}")
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")
        if self.generation is not None and self.generation != "respawn":
            if not isinstance(self.generation, int) or self.generation < 0:
                raise ValueError(f"bad generation {self.generation!r}")

    def applies_to_generation(self, generation: int) -> bool:
        if self.generation is None:
            return True
        if self.generation == "respawn":
            return generation >= 1
        return self.generation == generation


class FaultInjector:
    """An immutable plan of :class:`FaultSpec` s, armed per worker.

    The injector itself carries no mutable state (it crosses process
    boundaries by fork or pickle); each worker arms its own private
    occurrence counters via :meth:`arm`, so fault placement is
    deterministic regardless of scheduling.
    """

    def __init__(self, *specs: FaultSpec):
        self.specs = tuple(specs)

    def arm(self, shard_index: int, generation: int = 0) -> "ArmedFaults":
        mine = tuple(
            s for s in self.specs
            if s.shard == shard_index and s.applies_to_generation(generation)
        )
        return ArmedFaults(mine)

    def __repr__(self) -> str:
        return f"FaultInjector({', '.join(map(repr, self.specs))})"


class ArmedFaults:
    """Worker-side trigger state: per-command occurrence counters."""

    def __init__(self, specs: "tuple[FaultSpec, ...]"):
        self._specs = specs
        self._counts: dict[str, int] = {}

    def fire(self, cmd: str, stage: str) -> None:
        """Hook point; may sleep or raise :class:`WorkerKilled`."""
        if not self._specs:
            return
        if stage == "before":
            self._counts[cmd] = self._counts.get(cmd, 0) + 1
        count = self._counts.get(cmd, 0)
        for spec in self._specs:
            if spec.when != stage or spec.occurrence != count:
                continue
            if spec.cmd != cmd and spec.cmd != "any":
                continue
            if spec.kind == "kill":
                raise WorkerKilled()
            time.sleep(spec.seconds)  # hang and delay differ only in size


#: An armed no-op plan, so worker code can call ``fire`` unconditionally.
NO_FAULTS = ArmedFaults(())
