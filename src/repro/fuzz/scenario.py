"""The fuzz scenario: one self-contained differential test case.

A :class:`Scenario` is pure data — a pipeline document (the
:mod:`repro.openflow.serialize` JSON dialect), an event schedule
(packet bursts interleaved with flow-mod batches and expiry-clock
ticks ``{"tick": seconds}``, which each backend feeds to its own
:class:`~repro.openflow.timeouts.ExpiryManager`), and the degradation
flags the executor applies before traffic starts. It is deliberately
*dead*: every backend materializes its **own** pipeline, packets, and
flow-mods from the document, because packets mutate in flight and
flow-mod instructions bind group/meter objects of a specific pipeline.

Scenarios round-trip through JSON so a failing case can be pinned
verbatim in ``tests/fuzz_corpus/`` and replayed forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.openflow import serialize
from repro.openflow.serialize import SerializationError, _located
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.packet.packet import Packet

FORMAT = 1

#: entry_from_obj keys a mod object may carry besides its own.
_ENTRY_KEYS = ("match", "apply", "write", "clear", "metadata", "goto", "meter")

#: the top-level keys a scenario document may carry (what ``to_obj`` writes).
_KEYS = frozenset({
    "format", "name", "seed", "note", "degrade_fuse", "tight_meter",
    "quarantine", "direct_threshold", "outage", "pipeline", "events",
})


@dataclass
class Scenario:
    """One differential fuzz case (see module docstring)."""

    pipeline_obj: dict
    events: list = field(default_factory=list)
    seed: "int | None" = None
    name: str = ""
    note: str = ""
    #: logical table ids force-quarantined on the unsharded ESwitch
    #: backends before traffic (the fail-static containment state).
    quarantine: tuple = ()
    #: force the fused backend onto the trampoline before traffic.
    degrade_fuse: bool = False
    #: a meter in this scenario can actually fire. Sharding splits meter
    #: state across replica token buckets, so rate-limit verdicts are
    #: only comparable at workers=1; the executor skips workers>1.
    tight_meter: bool = False
    #: CompileConfig override (None = default): a raised threshold pins
    #: a mid-sized table onto the direct-code rung beside bigger hash and
    #: LPM tables (the large-cardinality scenario class).
    direct_threshold: "int | None" = None
    #: ``(begin, end)`` mod-batch indices (half-open, counting only
    #: ``{"mods": ...}`` events) during which the control session is
    #: dark in the outage-parity harness (:func:`repro.fuzz.outage.
    #: run_outage_parity`). The differential matrix ignores it — its
    #: run IS the never-disconnected baseline.
    outage: tuple = ()

    # -- materializers (fresh objects every call, see module docstring) --

    def build_pipeline(self) -> Pipeline:
        return serialize.pipeline_from_obj(self.pipeline_obj)

    def build_packets(self, burst: list) -> list[Packet]:
        return [
            Packet(
                bytes.fromhex(obj["data"]),
                in_port=obj.get("in_port", 0),
                metadata=obj.get("metadata", 0),
                tunnel_id=obj.get("tunnel_id", 0),
            )
            for obj in burst
        ]

    def build_mods(self, batch: list, pipeline: Pipeline) -> list[FlowMod]:
        """Flow-mods bound to ``pipeline``'s group/meter tables.

        Priority is taken verbatim (NOT through FlowEntry validation):
        out-of-range priorities are a thing the admission control must
        reject, so they have to be representable.
        """
        mods = []
        for obj in batch:
            eobj = {k: obj[k] for k in _ENTRY_KEYS if k in obj}
            eobj.setdefault("match", {})
            eobj["priority"] = 0
            entry = serialize.entry_from_obj(eobj, pipeline.groups, pipeline.meters)
            mods.append(
                FlowMod(
                    FlowModCommand(obj.get("cmd", "add")),
                    int(obj["table"]),
                    entry.match,
                    priority=obj.get("priority", 0),
                    instructions=entry.instructions,
                    strict=bool(obj.get("strict", False)),
                )
            )
        return mods

    def total_packets(self) -> int:
        return sum(len(e["burst"]) for e in self.events if "burst" in e)

    # -- JSON ------------------------------------------------------------

    def to_obj(self) -> dict:
        out: dict = {"format": FORMAT}
        if self.name:
            out["name"] = self.name
        if self.seed is not None:
            out["seed"] = self.seed
        if self.note:
            out["note"] = self.note
        for flag in ("degrade_fuse", "tight_meter"):
            if getattr(self, flag):
                out[flag] = True
        if self.quarantine:
            out["quarantine"] = list(self.quarantine)
        if self.direct_threshold is not None:
            out["direct_threshold"] = self.direct_threshold
        if self.outage:
            out["outage"] = list(self.outage)
        out["pipeline"] = self.pipeline_obj
        out["events"] = self.events
        return out

    def check(self) -> None:
        """Build, and throw away, everything a backend will build from this
        scenario, so a malformed document fails to load instead of tracing
        back (or diverging) mid-replay. Raises :class:`SerializationError`
        naming the part at fault."""
        threshold = self.direct_threshold
        if threshold is not None and (type(threshold) is not int or threshold < 0):
            raise SerializationError(f"direct_threshold {threshold!r} is not null or an int >= 0")
        with _located("pipeline"):
            pipeline = self.build_pipeline()
            pipeline.validate()
        with _located("quarantine"):
            for tid in self.quarantine:
                pipeline.table(tid)
        for index, event in enumerate(self.events):
            with _located(f"event {index}"):
                kinds = [kind for kind in ("burst", "tick", "mods") if kind in event]
                if len(kinds) != 1:
                    raise SerializationError("needs exactly one of burst, tick, mods")
                if kinds == ["burst"]:
                    self.build_packets(event["burst"])
                elif kinds == ["tick"]:
                    float(event["tick"])
                else:  # against a throwaway pipeline: binding, not applying
                    self.build_mods(event["mods"], pipeline)

    @classmethod
    def from_obj(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict):
            raise SerializationError(f"a scenario is a JSON object, not {type(obj).__name__}")
        if obj.get("format", FORMAT) != FORMAT:
            raise SerializationError(f"unknown scenario format {obj.get('format')!r}")
        # A key this reader does not know would otherwise replay silently
        # under a different configuration than the one it was pinned for.
        unknown = sorted(set(obj) - _KEYS)
        if unknown:
            raise SerializationError(f"unknown scenario key(s): {', '.join(unknown)}")
        with _located():
            scenario = cls(
                pipeline_obj=obj["pipeline"],
                events=list(obj.get("events", [])),
                seed=obj.get("seed"),
                name=obj.get("name", ""),
                note=obj.get("note", ""),
                quarantine=tuple(obj.get("quarantine", ())),
                degrade_fuse=bool(obj.get("degrade_fuse", False)),
                tight_meter=bool(obj.get("tight_meter", False)),
                direct_threshold=obj.get("direct_threshold"),
                outage=tuple(obj.get("outage", ())),
            )
        scenario.check()
        return scenario

    def dumps(self) -> str:
        return json.dumps(self.to_obj(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "Scenario":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON: {exc}") from exc
        return cls.from_obj(obj)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps() + "\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


def packet_to_obj(pkt: Packet) -> dict:
    obj: dict = {"data": bytes(pkt.data).hex(), "in_port": pkt.in_port}
    if pkt.metadata:
        obj["metadata"] = pkt.metadata
    if pkt.tunnel_id:
        obj["tunnel_id"] = pkt.tunnel_id
    return obj
