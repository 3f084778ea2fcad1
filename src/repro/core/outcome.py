"""Outcomes: what a table lookup returns.

The paper's action templates are "collapsed into composite action sets"
that are "shared across flows". Here the composite is the
:class:`~repro.openflow.instructions.ActionTemplate` a flow table compiles
once per distinct instruction list, and an :class:`Outcome` is the two-slot
record a lookup yields: the rule that matched and a pointer to that shared
template. The action fields live on the template and nowhere per rule.
"""

from __future__ import annotations

from operator import attrgetter

from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable, TableMissPolicy
from repro.openflow.instructions import ActionTemplate


class Outcome:
    """The matched rule (None on a miss) and its shared action template.

    The datapaths read ``template`` once per hop and take everything else
    from it; the template's fields also answer on the outcome itself
    (``out.goto``, ``out.is_miss``, …) for inspection.
    """

    __slots__ = ("entry", "template")

    def __init__(self, entry: "FlowEntry | None", template: ActionTemplate):
        self.entry = entry
        self.template = template

    # Properties, not ``__getattr__``: a class with that hook loses the
    # interpreter's fast path for ``out.entry`` / ``out.template`` too.
    (is_miss, to_controller, apply_actions, write_actions, clear_actions,
     metadata_write, goto, meter) = (
        property(attrgetter(f"template.{name}"))
        for name in ("is_miss", "to_controller", "apply_actions",
                     "write_actions", "clear_actions", "metadata_write",
                     "goto", "meter")
    )

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
    """Pair one flow entry with its compiled instruction list."""
    return Outcome(entry, entry.template)


def _miss_template(to_controller: bool) -> ActionTemplate:
    template = ActionTemplate()
    template.is_miss = True
    template.to_controller = to_controller
    return template


_MISS_TEMPLATES = {
    policy: _miss_template(policy is TableMissPolicy.CONTROLLER)
    for policy in TableMissPolicy
}


def miss_outcome(table: FlowTable) -> Outcome:
    """The outcome of a table miss under the table's policy."""
    return Outcome(None, _MISS_TEMPLATES[table.miss_policy])
