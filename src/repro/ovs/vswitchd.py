"""``vswitchd`` — the complete OpenFlow pipeline (the OVS slow path).

Classifies with per-table tuple space search (:mod:`repro.ovs.classifier`),
applies the OpenFlow instruction semantics, and — the crucial byproduct —
computes the megaflow wildcards for the traversal: every probed subtable's
mask signature is folded into the megaflow mask, keyed on the packet's
*ingress* field values.

Functionally this traversal must agree packet-for-packet with the
reference interpreter (:meth:`repro.openflow.pipeline.Pipeline.process`);
the differential tests enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.openflow.actions import Action, Output, SetField
from repro.openflow.fields import field_by_name
from repro.openflow.flow_table import TableMissPolicy
from repro.openflow.instructions import (
    ApplyActions,
    ClearActions,
    GotoTable,
    WriteActions,
    WriteMetadata,
)
from repro.openflow.meters import MeterInstruction
from repro.openflow.pipeline import MAX_TABLE_HOPS, Pipeline, PipelineError, Verdict
from repro.ovs.classifier import TssClassifier
from repro.ovs.flowkey import extract_key
from repro.ovs.megaflow import MegaflowEntry, _add_prereq_fields
from repro.packet import parser as pp
from repro.packet.packet import Packet


@dataclass
class UpcallResult:
    """Everything one slow-path pass produces."""

    verdict: Verdict
    megaflow: "MegaflowEntry | None"
    subtables_probed: int
    tables_visited: int


class Vswitchd:
    """The slow-path classifier over a pipeline."""

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline
        self._classifiers: dict[int, TssClassifier] = {}
        self.upcalls = 0

    def classifier(self, table_id: int) -> TssClassifier:
        clf = self._classifiers.get(table_id)
        if clf is None:
            clf = self._classifiers[table_id] = TssClassifier(self.pipeline.table(table_id))
        return clf

    def subtable_count(self, table_id: int) -> int:
        return len(self.classifier(table_id).subtables)

    def upcall(
        self,
        pkt: Packet,
        view: "pp.ParsedPacket | None" = None,
        key: "dict | None" = None,
    ) -> UpcallResult:
        """Full pipeline traversal + megaflow generation for one packet.

        ``view``/``key`` let the datapath hand over the parse and key
        extraction it already paid for on the fast-path probe (the key is
        snapshotted before mutation, so callers may pass theirs directly).
        """
        self.upcalls += 1
        verdict = Verdict()
        if view is None:
            view = pp.parse(pkt)
        if key is None:
            key = extract_key(view)
        ingress_key = dict(key)

        mask_bits: dict[str, int] = {}
        steps: list = []  # (meter, actions, entry) replay program steps
        write_set: list[Action] = []
        subtables_probed = 0
        tables_visited = 0
        cacheable = True

        table_id = min(t.table_id for t in self.pipeline.tables)
        hops = 0
        while True:
            hops += 1
            if hops > MAX_TABLE_HOPS:
                raise PipelineError("pipeline loop detected")
            tables_visited += 1
            clf = self.classifier(table_id)
            entry, probed = clf.lookup(key)
            subtables_probed += len(probed)
            for sub in probed:
                for name, mask in sub.sig:
                    mask_bits[name] = mask_bits.get(name, 0) | mask
                    _add_prereq_fields(
                        mask_bits, field_by_name(name).proto_required
                    )
            verdict.path.append((table_id, entry))

            if entry is None:
                verdict.table_miss = True
                table = self.pipeline.table(table_id)
                if table.miss_policy is TableMissPolicy.CONTROLLER:
                    verdict.to_controller = True
                    cacheable = False  # the controller may install new state
                else:
                    verdict.dropped = True
                # Apply-actions already executed stay executed (their
                # outputs have left the switch); only the pending
                # write-action set dies with the packet.
                write_set = []
                break

            entry.packets += 1
            entry.bytes += len(pkt)
            # Meters run before the entry's other instructions. A fired
            # band drops the packet now; the decision is transient, so
            # nothing is cached (the next conforming packet will install
            # the megaflow, meter step included).
            meter = None
            for instr in entry.instructions:
                if isinstance(instr, MeterInstruction):
                    meter = instr
                    break
            if meter is not None and not meter.allow():
                verdict.dropped = True
                cacheable = False
                break

            step_actions: list[Action] = []
            next_table: int | None = None
            for instr in entry.instructions:
                if isinstance(instr, ApplyActions):
                    for action in instr.actions:
                        step_actions.append(action)
                        action.apply(view, verdict)
                        self._refresh_key(action, view, key, verdict)
                elif isinstance(instr, WriteActions):
                    write_set.extend(instr.actions)
                elif isinstance(instr, ClearActions):
                    write_set.clear()
                elif isinstance(instr, WriteMetadata):
                    view.pkt.metadata = (view.pkt.metadata & ~instr.mask) | (
                        instr.value & instr.mask
                    )
                    key["metadata"] = view.pkt.metadata
                elif isinstance(instr, GotoTable):
                    next_table = instr.table_id
            steps.append((meter, tuple(step_actions), entry))
            if verdict.dropped:
                break
            if next_table is None:
                break
            table_id = next_table

        if write_set and not verdict.dropped and not verdict.table_miss:
            ordered = [a for a in write_set if not isinstance(a, Output)] + [
                a for a in write_set if isinstance(a, Output)
            ]
            for action in ordered:
                action.apply(view, verdict)
                self._refresh_key(action, view, key, verdict)
            steps.append((None, tuple(ordered), None))

        megaflow: MegaflowEntry | None = None
        if cacheable:
            sig = tuple(sorted(mask_bits.items()))
            masked_key = tuple(
                (ingress_key.get(name) & mask)
                if ingress_key.get(name) is not None
                else None
                for name, mask in sig
            )
            megaflow = MegaflowEntry(
                sig=sig,
                masked_key=masked_key,
                program=tuple(steps),
                dropped=verdict.dropped,
            )
        return UpcallResult(
            verdict=verdict,
            megaflow=megaflow,
            subtables_probed=subtables_probed,
            tables_visited=tables_visited,
        )

    @staticmethod
    def _refresh_key(action: Action, view, key: dict, verdict: Verdict) -> None:
        """Keep the lookup key coherent with packet mutations."""
        if isinstance(action, SetField):
            key[action.field] = field_by_name(action.field).extract(view)
        elif verdict.reparse_needed:
            # push/pop VLAN moved header offsets: reparse and re-extract.
            new_view = pp.parse(view.pkt)
            view.proto = new_view.proto
            view.l3 = new_view.l3
            view.l4 = new_view.l4
            view.l4_proto = new_view.l4_proto
            view.eth_type = new_view.eth_type
            key.update(extract_key(view))
            verdict.reparse_needed = False
