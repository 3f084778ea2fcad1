"""Outcomes: the pre-compiled result a table lookup returns.

Template specialization bakes each flow entry's consequences into a single
:class:`Outcome` object referenced as a constant from the generated code —
the analogue of the paper's action templates "collapsed into composite
action sets" and "shared across flows" (interning makes structurally equal
outcomes one object).
"""

from __future__ import annotations

from repro.openflow.actions import Action
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.meters import MeterInstruction


class Outcome:
    """What happens after a match (or a miss): actions + the next jump."""

    __slots__ = (
        "apply_actions",
        "write_actions",
        "clear_actions",
        "metadata_write",
        "goto",
        "entry",
        "is_miss",
        "to_controller",
        "meter",
    )

    def __init__(
        self,
        apply_actions: tuple[Action, ...] = (),
        write_actions: tuple[Action, ...] = (),
        clear_actions: bool = False,
        metadata_write: "tuple[int, int] | None" = None,
        goto: "int | None" = None,
        entry: "FlowEntry | None" = None,
        is_miss: bool = False,
        to_controller: bool = False,
        meter=None,
    ):
        self.apply_actions = apply_actions
        self.write_actions = write_actions
        self.clear_actions = clear_actions
        self.metadata_write = metadata_write
        self.goto = goto
        self.entry = entry
        self.is_miss = is_miss
        self.to_controller = to_controller
        #: a MeterInstruction checked before the entry's actions, or None.
        self.meter = meter

    def __repr__(self) -> str:
        if self.is_miss:
            return f"Outcome(miss->{'controller' if self.to_controller else 'drop'})"
        parts = []
        if self.apply_actions:
            parts.append(f"apply={list(self.apply_actions)}")
        if self.write_actions:
            parts.append(f"write={list(self.write_actions)}")
        if self.goto is not None:
            parts.append(f"goto={self.goto}")
        return f"Outcome({', '.join(parts) or 'no-op'})"


def outcome_of(entry: FlowEntry) -> Outcome:
    """Compile one flow entry's instruction list into an outcome."""
    apply_actions: tuple[Action, ...] = ()
    write_actions: tuple[Action, ...] = ()
    clear = False
    metadata: "tuple[int, int] | None" = None
    goto: "int | None" = None
    meter = None
    for instr in entry.instructions:
        if isinstance(instr, MeterInstruction):
            meter = instr
        elif isinstance(instr, ApplyActions):
            apply_actions = apply_actions + instr.actions
        elif isinstance(instr, WriteActions):
            write_actions = write_actions + instr.actions
        elif isinstance(instr, ClearActions):
            clear = True
            write_actions = ()
        elif isinstance(instr, WriteMetadata):
            metadata = (instr.value, instr.mask)
        elif isinstance(instr, GotoTable):
            goto = instr.table_id
    return Outcome(
        apply_actions=apply_actions,
        write_actions=write_actions,
        clear_actions=clear,
        metadata_write=metadata,
        goto=goto,
        entry=entry,
        meter=meter,
    )


def miss_outcome(table: FlowTable) -> Outcome:
    """The outcome of a table miss under the table's policy."""
    return Outcome(
        is_miss=True,
        to_controller=table.miss_policy is TableMissPolicy.CONTROLLER,
    )
