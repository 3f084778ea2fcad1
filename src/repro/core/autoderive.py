"""Automatic derivation of analytic performance models from compiled
datapaths — the extension the paper sketches in Section 5:

  "In the future ESWITCH could be easily taught to derive such models
  automatically, by programmatically composing template model 'atoms' …
  This would make it possible to not only produce efficient specialized
  datapaths but also to deliver reliable performance promises for these
  datapaths in real time."

:func:`derive_model` walks a compiled switch's trampoline along a given
table path (or the longest goto chain when none is given) and composes
each rung's own cost atom (``CompiledTable.stage``) into an
:class:`~repro.simcpu.model.AnalyticModel`, exactly the way Section 4.4
builds the gateway model by hand. The switch can thus quote
model-lb/model-ub packet-rate promises for its *current* configuration,
and re-quote after every update.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.eswitch import ESwitch
from repro.simcpu.model import AnalyticModel, StageCost
from repro.simcpu.platform import Platform, XEON_E5_2620


def _longest_goto_chain(switch: ESwitch) -> list[int]:
    """The deepest table path a packet can take, by goto-DAG DFS."""
    successors = {
        tid: {goto for goto, *_flags in compiled.facts if goto is not None}
        for tid, compiled in switch.datapath.trampoline.items()
    }
    first = switch.datapath.first_table
    best: list[int] = []
    stack: list[tuple[int, list[int]]] = [(first, [first])]
    while stack:
        node, path = stack.pop()
        if len(path) > len(best):
            best = path
        for nxt in successors.get(node, ()):
            if nxt not in path and nxt in successors:  # goto DAG: no cycles
                stack.append((nxt, path + [nxt]))
    return best


def derive_model(
    switch: ESwitch,
    path: "Sequence[int] | None" = None,
    platform: Platform = XEON_E5_2620,
) -> AnalyticModel:
    """Compose an analytic model for one table path of a compiled switch.

    Args:
        switch: a compiled :class:`ESwitch`.
        path: compiled-table ids the modeled packet traverses; defaults to
            the longest goto chain from the first table (the deepest, and
            typically dominant, pipeline direction).
    """
    costs = switch.costs
    if path is None:
        path = _longest_goto_chain(switch)

    stages: list[StageCost] = [
        StageCost("PKT_IN", costs.pkt_in, 0, "DPDK packet receive IO"),
        StageCost("dispatch", costs.es_dispatch, 0, "runtime dispatch"),
    ]
    layer = switch.datapath.parser_layer
    parser = costs.parser_l2
    if layer >= 3:
        parser += costs.parser_l3
    if layer >= 4:
        parser += costs.parser_l4
    stages.append(StageCost("parser template", parser, 0, f"L2–L{layer} parse"))

    for hop, tid in enumerate(path):
        stages.append(switch.datapath.table(tid).stage(costs))
        if hop + 1 < len(path):
            stages.append(
                StageCost("goto trampoline", costs.goto_trampoline, 0, "")
            )

    stages.append(StageCost("action templates", costs.action_set, 0,
                            "action set processing"))
    stages.append(StageCost("PKT_OUT", costs.pkt_out, 0, "DPDK packet transmit IO"))
    return AnalyticModel(stages, platform)
