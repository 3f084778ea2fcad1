"""OpenFlow channel messages: flow-mods, packet-in/out, errors, echoes.

The controller manages flow entries through these messages, reactively or
proactively (Section 2). Every switch answers a batch through one door,
``submit_flow_mods(mods) -> FlowModReply``, built by
:func:`reply_to_flow_mods` from the pipeline's admission and the switch's
own apply; the update benchmarks (Fig. 17/18) drive them identically.

The error half of the protocol (OpenFlow 1.3 §7.4.4) backs the fail-static
control plane: a flow-mod the switch cannot honor is answered with a typed
:class:`ErrorMsg` (``OFPET_FLOW_MOD_FAILED`` / ``TABLE_FULL``,
``BAD_TABLE_ID``, ``BAD_COMMAND``, …) instead of an exception escaping
into the datapath. :func:`validate_flow_mod` is the *static* half of
admission control — the checks that need no switch state; capacity and
goto-target checks live with the tables
(:meth:`~repro.openflow.pipeline.Pipeline.admit_flow_mods`).
:class:`EchoRequest`/:class:`EchoReply` and :class:`BarrierRequest`/
:class:`BarrierReply` carry the controller session's keepalive and
ordering semantics (§6.4, §7.3.8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.openflow.flow_entry import FlowEntry
from repro.openflow.instructions import GotoTable, Instruction
from repro.openflow.match import Match
from repro.packet.packet import Packet


class FlowModCommand(enum.Enum):
    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"


class ErrorType(enum.Enum):
    """OpenFlow error message types (the subset this model needs)."""

    BAD_REQUEST = "OFPET_BAD_REQUEST"
    BAD_MATCH = "OFPET_BAD_MATCH"
    BAD_INSTRUCTION = "OFPET_BAD_INSTRUCTION"
    FLOW_MOD_FAILED = "OFPET_FLOW_MOD_FAILED"


class FlowModFailedCode(enum.Enum):
    """``OFPET_FLOW_MOD_FAILED`` codes (OpenFlow 1.3 §7.4.4)."""

    UNKNOWN = "OFPFMFC_UNKNOWN"
    TABLE_FULL = "OFPFMFC_TABLE_FULL"
    BAD_TABLE_ID = "OFPFMFC_BAD_TABLE_ID"
    EPERM = "OFPFMFC_EPERM"
    BAD_TIMEOUT = "OFPFMFC_BAD_TIMEOUT"
    BAD_COMMAND = "OFPFMFC_BAD_COMMAND"


@dataclass(frozen=True)
class ErrorMsg:
    """A typed switch-to-controller error reply.

    ``data`` carries the offending request (OpenFlow echoes the failed
    message back); it is excluded from equality so error *taxonomies*
    compare cleanly in tests.
    """

    etype: ErrorType
    code: "FlowModFailedCode | str"
    message: str = ""
    data: object = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        code = self.code.value if hasattr(self.code, "value") else self.code
        detail = f": {self.message}" if self.message else ""
        return f"{self.etype.value}/{code}{detail}"


class FlowModFailed(Exception):
    """Internal typed rejection; converted to :class:`ErrorMsg` replies at
    the control-plane boundary (never meant to escape into the datapath)."""

    def __init__(self, error: ErrorMsg):
        super().__init__(str(error))
        self.error = error


@dataclass(frozen=True)
class FlowModReply:
    """The switch's answer to one flow-mod batch: accept or typed reject.

    ``cycles`` is the modeled switch-side update cost — zero for a
    rejected batch (admission runs before any switch work; Fig. 17's
    setup-time accounting counts a rejected mod's channel latency only).
    """

    accepted: bool
    errors: tuple[ErrorMsg, ...] = ()
    cycles: float = 0.0

    def __bool__(self) -> bool:
        return self.accepted


def _flow_mod_error(
    code: FlowModFailedCode, message: str, mod: "FlowMod"
) -> ErrorMsg:
    return ErrorMsg(ErrorType.FLOW_MOD_FAILED, code, message, data=mod)


def validate_flow_mod(mod: "FlowMod", max_tables: "int | None" = None) -> "ErrorMsg | None":
    """Static (stateless) admission checks for one flow-mod.

    Returns the first applicable typed error, or None when the mod is
    well-formed. ``max_tables`` caps the table-id space (pass
    :data:`~repro.openflow.pipeline.MAX_TABLES` for the OpenFlow limit).
    State-dependent checks (capacity, goto targets resolving) live in
    :meth:`~repro.openflow.pipeline.Pipeline.admit_flow_mods`.
    """
    if not isinstance(mod.command, FlowModCommand):
        return _flow_mod_error(
            FlowModFailedCode.BAD_COMMAND, f"unknown command {mod.command!r}", mod
        )
    if not isinstance(mod.table_id, int) or mod.table_id < 0:
        return _flow_mod_error(
            FlowModFailedCode.BAD_TABLE_ID, f"invalid table id {mod.table_id!r}", mod
        )
    if max_tables is not None and mod.table_id >= max_tables:
        return _flow_mod_error(
            FlowModFailedCode.BAD_TABLE_ID,
            f"table id {mod.table_id} beyond the {max_tables}-table space", mod,
        )
    if not isinstance(mod.priority, int) or not 0 <= mod.priority <= 0xFFFF:
        return _flow_mod_error(
            FlowModFailedCode.BAD_COMMAND, f"priority {mod.priority!r} out of range", mod
        )
    if not isinstance(mod.match, Match):
        return ErrorMsg(
            ErrorType.BAD_MATCH, "OFPBMC_BAD_TYPE",
            f"match is {type(mod.match).__name__}, not Match", data=mod,
        )
    try:
        if mod.idle_timeout < 0 or mod.hard_timeout < 0:
            return _flow_mod_error(
                FlowModFailedCode.BAD_TIMEOUT,
                f"negative timeout ({mod.idle_timeout}, {mod.hard_timeout})", mod,
            )
    except TypeError:
        return _flow_mod_error(
            FlowModFailedCode.BAD_TIMEOUT, "non-numeric timeout", mod
        )
    for instr in mod.instructions:
        if not isinstance(instr, Instruction):
            return ErrorMsg(
                ErrorType.BAD_INSTRUCTION, "OFPBIC_UNKNOWN_INST",
                f"{instr!r} is not an Instruction", data=mod,
            )
        if isinstance(instr, GotoTable) and instr.table_id <= mod.table_id:
            return ErrorMsg(
                ErrorType.BAD_INSTRUCTION, "OFPBIC_BAD_TABLE_ID",
                f"goto {instr.table_id} does not move forward from table "
                f"{mod.table_id}", data=mod,
            )
    return None


@dataclass
class FlowMod:
    """A flow-table modification request."""

    command: FlowModCommand
    table_id: int
    match: Match
    priority: int = 0
    instructions: Sequence[Instruction] = field(default_factory=tuple)
    cookie: int = 0
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    #: OFPFC_DELETE_STRICT semantics: a strict DELETE removes only entries
    #: at exactly ``priority`` (0 included — priority 0 is a real target,
    #: not a wildcard); a non-strict DELETE ignores priority entirely.
    strict: bool = False

    def to_entry(self) -> FlowEntry:
        return FlowEntry(
            match=self.match,
            priority=self.priority,
            instructions=tuple(self.instructions),
            cookie=self.cookie,
            idle_timeout=self.idle_timeout,
            hard_timeout=self.hard_timeout,
        )

    @classmethod
    def of_entry(cls, table_id: int, entry: FlowEntry) -> "FlowMod":
        """The ADD whose :meth:`to_entry` equals ``entry``: what puts a
        rule back over the wire, cookie and timeouts included."""
        return cls(
            FlowModCommand.ADD,
            table_id,
            entry.match,
            priority=entry.priority,
            instructions=entry.instructions,
            cookie=entry.cookie,
            idle_timeout=entry.idle_timeout,
            hard_timeout=entry.hard_timeout,
        )


def reply_to_flow_mods(
    admit: "Callable[[Sequence[FlowMod]], Sequence[ErrorMsg]]",
    apply: "Callable[[Sequence[FlowMod]], float]",
    mods: "Sequence[FlowMod]",
) -> FlowModReply:
    """Admit, then apply, then answer: the body of every ``submit_flow_mods``.

    ``admit`` lists the typed errors the batch would provoke without
    touching anything; a non-empty list is the reject and ``apply`` never
    runs. ``apply`` is the switch's own raising primitive and returns its
    modeled cycles; whatever it raises becomes a typed reject, so the
    control plane always gets a :class:`FlowModReply`, never an exception.
    """
    try:
        errors = admit(mods)
        if errors:
            return FlowModReply(accepted=False, errors=tuple(errors))
        return FlowModReply(accepted=True, cycles=apply(mods))
    except FlowModFailed as exc:
        # Admission simulates capacity exactly, so this is belt and
        # braces for a switch whose apply re-checks it.
        return FlowModReply(accepted=False, errors=(exc.error,))
    except Exception as exc:  # the boundary that must keep running
        return FlowModReply(
            accepted=False,
            errors=(
                ErrorMsg(
                    ErrorType.FLOW_MOD_FAILED,
                    FlowModFailedCode.UNKNOWN,
                    f"{type(exc).__name__}: {exc}",
                ),
            ),
        )


@dataclass
class PacketIn:
    """A packet punted to the controller (table miss or explicit action)."""

    pkt: Packet
    table_id: int
    reason: str = "miss"


@dataclass
class PacketOut:
    """A controller-injected packet."""

    pkt: Packet
    out_port: int


@dataclass(frozen=True)
class EchoRequest:
    """Keepalive probe (either direction); the peer answers with a reply
    carrying the same ``xid`` — the liveness signal of §6.4."""

    xid: int = 0


@dataclass(frozen=True)
class EchoReply:
    xid: int = 0


@dataclass(frozen=True)
class BarrierRequest:
    """Ordering fence (§7.3.8): the switch replies only after every message
    received before the barrier has been fully processed."""

    xid: int = 0


@dataclass(frozen=True)
class BarrierReply:
    xid: int = 0
