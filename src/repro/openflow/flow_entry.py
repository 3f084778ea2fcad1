"""Flow entries: rule + counters + instructions (Section 2)."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.openflow.actions import Action
from repro.openflow.instructions import ActionTemplate, ApplyActions, Instruction
from repro.openflow.match import Match

#: the timeouts of every permanent entry, shared: most entries never expire.
_PERMANENT = (0.0, 0.0)


class FlowEntry:
    """One rule in a flow table.

    ``priority`` orders lookup (higher first); ``match`` designates the flow;
    ``instructions`` establish its processing. The common single-table idiom
    "match → actions" is expressed as ``FlowEntry(match, actions=[...])``
    which wraps the actions in an apply-actions instruction.

    Installing the entry in a :class:`~repro.openflow.flow_table.FlowTable`
    points ``instructions`` at the table's shared
    :class:`~repro.openflow.instructions.ActionTemplate` for that list:
    the same sequence of instructions, now one object for every rule
    that carries it.

    ``packets`` / ``bytes`` are the rule's own statistics: every datapath
    adds a hit to the rule its lookup returned.

    ``entry_id`` is the rule id: 0 until a table installs the entry, then
    the id that table minted for it (:meth:`FlowTable.rule
    <repro.openflow.flow_table.FlowTable.rule>`), unique within a pipeline.
    It travels with the entry when the pipeline is pickled, and an undone
    batch puts the entry back under it, so replicas that apply the same
    flow-mods in the same order name every rule alike.
    """

    __slots__ = (
        "entry_id",
        "priority",
        "match",
        "instructions",
        "packets",
        "bytes",
        "cookie",
        "_timeouts",
        "origin",
        "_slot",
    )

    def __init__(
        self,
        match: Match,
        priority: int = 0,
        instructions: Sequence[Instruction] | None = None,
        actions: Iterable[Action] | None = None,
        cookie: int = 0,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
    ):
        if instructions is not None and actions is not None:
            raise ValueError("pass either instructions or actions, not both")
        if priority < 0 or priority > 0xFFFF:
            raise ValueError(f"priority out of range: {priority}")
        if idle_timeout < 0 or hard_timeout < 0:
            raise ValueError("timeouts must be non-negative")
        self.entry_id = 0
        self.priority = priority
        self.match = match
        if actions is not None:
            self.instructions: tuple[Instruction, ...] = (ApplyActions(actions),)
        elif type(instructions) is ActionTemplate:
            self.instructions = instructions  # already compiled: keep sharing
        else:
            self.instructions = tuple(instructions or ())
        self.packets = 0
        self.bytes = 0
        #: the logical entry this one stands in for, or None. A leaf
        #: minted by flow table decomposition points back at the rule it
        #: carries the instructions of; the compiler stores that rule, not
        #: the leaf, as the lookup's answer, so a hit counts on the rule.
        self.origin: "FlowEntry | None" = None
        #: where the last flow table to number this entry held it: a
        #: hint that table checks by identity before trusting (None: unset).
        self._slot: "int | None" = None
        self.cookie = cookie
        # One slot for both (set once, read-only after): ten slots keep an
        # entry in pymalloc's 112-byte block; an eleventh would take 128.
        self._timeouts = (
            (idle_timeout, hard_timeout)
            if idle_timeout or hard_timeout else _PERMANENT
        )

    @property
    def idle_timeout(self) -> float:
        """Seconds of inactivity after which the entry expires (0 = never)."""
        return self._timeouts[0]

    @property
    def hard_timeout(self) -> float:
        """Seconds after installation at which the entry expires (0 = never)."""
        return self._timeouts[1]

    @property
    def template(self) -> ActionTemplate:
        """The compiled instruction list: the table's shared copy once
        installed, a private one (compiled on first use) before that."""
        template = self.instructions
        if type(template) is not ActionTemplate:
            template = self.instructions = ActionTemplate(template)
        return template

    @property
    def goto_table(self) -> "int | None":
        """Target of the goto-table instruction, if any."""
        return self.template.goto

    @property
    def apply_actions(self) -> tuple[Action, ...]:
        return self.template.apply_actions

    @property
    def write_actions(self) -> tuple[Action, ...]:
        return self.template.write_actions

    def same_rule(self, other: "FlowEntry") -> bool:
        """True if this entry designates the same flow (match + priority)."""
        return self.priority == other.priority and self.match == other.match

    def __repr__(self) -> str:
        return (
            f"FlowEntry(prio={self.priority}, {self.match!r}, "
            f"instructions={list(self.instructions)!r})"
        )
