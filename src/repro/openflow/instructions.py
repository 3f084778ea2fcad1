"""OpenFlow instructions attached to flow entries.

The subset the paper's pipelines use: apply-actions, write-actions /
clear-actions (action-set manipulation), write-metadata, and goto-table.
Processing terminates when the matched entry carries no goto-table
(Section 2), at which point the accumulated action set executes.

An instruction list is compiled once into an :class:`ActionTemplate`, the
composite the paper's action templates collapse into; a flow table keeps
one per distinct list and every rule carrying that list points at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.openflow.actions import Action, DecTtl, SetField
from repro.openflow.groups import GroupAction
from repro.openflow.meters import MeterInstruction


@dataclass(frozen=True)
class Instruction:
    """Base class for all instructions."""


@dataclass(frozen=True)
class ApplyActions(Instruction):
    """Execute actions immediately, in order."""

    actions: tuple[Action, ...]

    def __init__(self, actions: Iterable[Action]):
        object.__setattr__(self, "actions", tuple(actions))


@dataclass(frozen=True)
class WriteActions(Instruction):
    """Merge actions into the packet's action set (executed at pipeline end)."""

    actions: tuple[Action, ...]

    def __init__(self, actions: Iterable[Action]):
        object.__setattr__(self, "actions", tuple(actions))


@dataclass(frozen=True)
class ClearActions(Instruction):
    """Clear the packet's accumulated action set."""


@dataclass(frozen=True)
class WriteMetadata(Instruction):
    """``metadata = (metadata & ~mask) | (value & mask)``."""

    value: int
    mask: int = field(default=(1 << 64) - 1)


@dataclass(frozen=True)
class GotoTable(Instruction):
    """Continue processing at a later flow table."""

    table_id: int

    def __post_init__(self) -> None:
        if self.table_id < 0:
            raise ValueError(f"invalid table id {self.table_id}")


class ActionTemplate:
    """An instruction list and what it compiles to, in one object.

    It stands in for the instruction tuple — it iterates, indexes,
    compares and hashes as ``instructions`` does, so a plain tuple of equal
    instructions finds it in a dict — and carries what a datapath needs
    after a match, computed once (slots: the drivers read them per hop):

    * ``apply_actions`` / ``write_actions`` / ``clear_actions`` /
      ``metadata_write`` / ``goto`` / ``meter`` — the instructions' effect,
      repeated apply/write lists merged, a clear wiping earlier writes;
    * ``set_fields`` / ``depth`` — the fields its actions rewrite and the
      parser layer they need (the action half of a feature fingerprint);
    * ``facts`` — ``(goto, writes, metadata, meter)``, what a linker
      specialises a whole-pipeline driver on.

    ``is_miss`` / ``to_controller`` are set on the two table-miss
    templates only (:data:`repro.core.codegen.MISS_RULES`).
    """

    __slots__ = (
        "instructions", "_hash", "apply_actions", "write_actions",
        "clear_actions", "metadata_write", "goto", "meter", "set_fields",
        "depth", "facts", "is_miss", "to_controller",
    )

    def __init__(self, instructions: Iterable[object] = ()):
        self.instructions = tuple(instructions)
        self._hash = hash(self.instructions)
        self.is_miss = self.to_controller = False
        apply_actions: tuple[Action, ...] = ()
        write_actions: tuple[Action, ...] = ()
        self.clear_actions = False
        self.metadata_write: "tuple[int, int] | None" = None
        self.goto: "int | None" = None
        #: a MeterInstruction checked before the rule's actions, or None.
        self.meter: "MeterInstruction | None" = None
        for instr in self.instructions:
            if isinstance(instr, MeterInstruction):
                self.meter = instr
            elif isinstance(instr, ApplyActions):
                apply_actions += instr.actions
            elif isinstance(instr, WriteActions):
                write_actions += instr.actions
            elif isinstance(instr, ClearActions):
                self.clear_actions = True
                write_actions = ()
            elif isinstance(instr, WriteMetadata):
                self.metadata_write = (instr.value, instr.mask)
            elif isinstance(instr, GotoTable):
                self.goto = instr.table_id
        self.apply_actions = apply_actions
        self.write_actions = write_actions
        names: set[str] = set()
        depth = 2
        for action in apply_actions + write_actions:
            if isinstance(action, SetField):
                names.add(action.field)
            elif isinstance(action, DecTtl):
                depth = max(depth, 3)
            elif isinstance(action, GroupAction):
                depth = 4  # SELECT bucket choice hashes the 5-tuple
        self.set_fields = tuple(sorted(names))
        self.depth = depth
        self.facts = (
            self.goto,
            bool(write_actions),
            self.metadata_write is not None,
            self.meter is not None,
        )

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is ActionTemplate:
            other = other.instructions
        return self.instructions == other

    def __reduce__(self):
        # Recompiled where it lands: a meter or group instruction hashes
        # by the identity of the table it binds, which is per process.
        return ActionTemplate, (self.instructions,)

    def __repr__(self) -> str:
        return repr(self.instructions)
