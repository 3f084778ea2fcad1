"""The compiled datapath: trampoline, driver loop, and parser dispatch.

After per-table specialization, linking combines the tables into a running
datapath (Section 3.3):

* within-table jumps are already Python control flow inside the generated
  functions;
* ``goto_table`` jumps go **via a trampoline** — here a mutable dict from
  table id to compiled table — so that a table rebuilt side-by-side can be
  inserted "by atomically redirecting all referring goto_table jumps to the
  address of the new code" (Section 3.4): one dict-slot assignment.

The driver also embodies the parser templates: pipelines that match only
L2 fields never parse L3/L4 headers ("for pure L2 MAC forwarding it is
completely superfluous to parse L3 and L4 header fields", Section 3.1),
and the cost model charges only the parser layers actually composed.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.codegen import CompiledTable
from repro.openflow.actions import Action, Output
from repro.openflow.fields import max_layer
from repro.openflow.pipeline import MAX_TABLE_HOPS, Pipeline, PipelineError, Verdict
from repro.packet import parser as pp
from repro.packet.packet import Packet
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.recorder import Meter, NULL_METER, active_meter


def required_layer(pipeline: Pipeline) -> int:
    """Deepest protocol layer the pipeline's matches *and actions* need.

    Reads each table's :meth:`~repro.openflow.flow_table.FlowTable.
    feature_counts` fingerprint multiset — one key per distinct entry
    *shape* — instead of rescanning every entry's actions. Flow-mod
    handling calls this once per update, so at million-entry tables the
    O(entries) walk was the update bottleneck; this is O(shapes).
    """
    deepest = 2
    names: set[str] = set()
    for table in pipeline:
        for (_prio, sig, set_names, depth) in table.feature_counts():
            if depth > deepest:
                deepest = depth
            names.update(n for n, _m in sig)
            names.update(set_names)
    if names:
        deepest = max(deepest, max_layer(names))
    return deepest


_PARSERS = {2: pp.parse_l2, 3: pp.parse_l3, 4: pp.parse}


class CompiledDatapath:
    """Executes compiled tables over packets; the ESWITCH fast path.

    Two execution engines share the same compiled tables:

    * the **trampoline** — goto_table resolved through a mutable dict, so
      any single table can be swapped atomically (always correct, always
      available);
    * the **fused driver** (:mod:`repro.core.fuse`) — the whole pipeline
      linked into one code object, valid for one value of
      :attr:`generation`.

    ``generation`` is the invalidation contract: it moves when something
    the fused driver baked in moves. Every ``install``/``uninstall``/
    ``set_parser_layer`` bumps it; a caller that updates a compiled
    table in place calls :meth:`bump_generation` when the table's
    ``relinks`` moved or no current driver stands
    (:class:`~repro.core.eswitch.ESwitch` does), and not for an update
    that only changed a store's content under a standing driver. ``process``/
    ``process_burst`` run the fused driver while it matches the current
    generation and lazily re-fuse on the first packet after a change —
    the compile happens off the update critical path, with the trampoline
    serving packets in the window and for shapes the fuser rejects.

    Both engines charge every atom behind ``meter is not None``:
    ``process``/``process_burst`` turn a meter that records nothing into
    ``None`` once (:func:`~repro.simcpu.recorder.active_meter`), and that
    one value reaches the driver, the trampoline and every table alike.
    """

    def __init__(
        self,
        first_table: int,
        parser_layer: int = 4,
        costs: CostBook = DEFAULT_COSTS,
        enable_fusion: bool = True,
    ):
        if parser_layer not in _PARSERS:
            raise ValueError(f"parser layer must be 2, 3, or 4, not {parser_layer}")
        self.trampoline: dict[int, CompiledTable] = {}
        self.first_table = first_table
        self.parser_layer = parser_layer
        self.costs = costs
        self.enable_fusion = enable_fusion
        self.generation = 0
        self._fused = None
        self._fuse_failed_gen = -1
        #: fusion attempts that degraded to the trampoline (fail-static
        #: accounting: a fuse failure is a health event, never a crash).
        self.fuse_failures = 0
        self.last_fuse_error = ""
        #: seconds ``fuse_datapath`` spent linking drivers for this datapath.
        self.link_s = 0.0
        self.set_parser_layer(parser_layer)

    def set_parser_layer(self, parser_layer: int) -> None:
        """Re-plan the parser templates (updates can deepen match fields)."""
        if parser_layer not in _PARSERS:
            raise ValueError(f"parser layer must be 2, 3, or 4, not {parser_layer}")
        self.parser_layer = parser_layer
        costs = self.costs
        self._parser_cost = costs.parser_l2
        if parser_layer >= 3:
            self._parser_cost += costs.parser_l3
        if parser_layer >= 4:
            self._parser_cost += costs.parser_l4
        self.generation += 1

    # -- linking ------------------------------------------------------------

    def bump_generation(self) -> None:
        """Invalidate the fused driver after an in-place table update
        that moved something it baked in (``CompiledTable.relinks``)."""
        self.generation += 1

    def install(self, compiled: CompiledTable) -> None:
        """Atomically (re)link one table into the trampoline."""
        self.trampoline[compiled.table_id] = compiled
        self.generation += 1

    def uninstall(self, table_id: int) -> None:
        self.trampoline.pop(table_id, None)
        self.generation += 1

    def table(self, table_id: int) -> CompiledTable:
        return self.trampoline[table_id]

    # -- fusion ------------------------------------------------------------

    @property
    def fused(self):
        """The current fused driver, or None (inspection only)."""
        return self._fused

    def ensure_fused(self):
        """Force the lazy re-fuse now; returns the driver or None.

        Normally fusion runs on the first packet after a generation bump
        (off the update critical path). Replica orchestration wants the
        opposite trade: the sharded engine's epoch barrier calls this so
        a worker only acknowledges an update after its new fused
        datapath is actually standing (see :meth:`ESwitch.warm`).
        """
        return self._fused_fresh()

    def _fused_fresh(self):
        """The fused driver if valid for this generation, fusing lazily."""
        if not self.enable_fusion:
            return None
        fused = self._fused
        generation = self.generation
        if fused is not None and fused.generation == generation:
            return fused
        if self._fuse_failed_gen == generation:
            return None
        from repro.core.fuse import fuse_datapath

        try:
            fused = fuse_datapath(self)
        except Exception as exc:
            # Containment: *any* fusion failure — an unfusable shape
            # (FuseError) or an unexpected codegen bug — degrades to the
            # trampoline, which is always correct. The failure is recorded
            # for health reporting and retried only on the next generation
            # (which any applied update starts while no driver stands).
            self._fused = None
            self._fuse_failed_gen = generation
            self.fuse_failures += 1
            self.last_fuse_error = f"{type(exc).__name__}: {exc}"
            return None
        self._fused = fused
        return fused

    def force_fuse_failure(self, reason: str = "forced degradation") -> None:
        """Degrade this generation to the trampoline, as a real fusion
        failure would. Drops any standing fused driver and pins the
        *current* generation as failed — the next update (generation
        bump) retries fusion normally. The differential fuzzer uses this
        to hold a backend in the middle rung of the fallback chain;
        production code paths reach the same state through
        :meth:`_fused_fresh`'s containment."""
        self._fused = None
        self._fuse_failed_gen = self.generation
        self.fuse_failures += 1
        self.last_fuse_error = reason

    # -- the fast path -----------------------------------------------------------

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        """The entry atom (IO, dispatch, parser), then the fused driver
        while one stands, else the trampoline; a NullMeter runs as None."""
        meter = active_meter(meter)
        if meter is not None:
            costs = self.costs
            meter.charge(costs.pkt_in + costs.es_dispatch + self._parser_cost)
        fused = self._fused_fresh()
        if fused is not None:
            return fused.run(pkt, meter)
        return self._forward(pkt, meter, _PARSERS[self.parser_layer], self.trampoline)

    def process_burst(
        self,
        pkts: "Sequence[Packet]",
        meter: Meter = NULL_METER,
        on_verdict=None,
    ) -> list[Verdict]:
        """Run one IO burst through the datapath (Section 4.2's batching).

        The per-burst framework cost (PMD poll, doorbells, descriptor ring
        maintenance) is charged **once**, here, before either engine runs
        the first packet; each packet then pays the scalar per-packet cost
        minus the reference-burst amortization already baked into ``pkt_in`` — a
        burst of ``costs.reference_burst`` packets costs exactly what that
        many scalar :meth:`process` calls cost.

        Parser dispatch, the trampoline, and the cost-book loads are
        hoisted out of the per-packet loop. Per-packet meter windows
        (``begin_packet``/``end_packet``) are driven here when the meter
        supports them, so the per-burst cost lands in the burst's first
        window — the packet that really pays for the poll. A meter that
        records nothing runs as ``None``, as in :meth:`process`.

        ``on_verdict(pkt, verdict)``, if given, runs after each packet
        (packet-in delivery, deferred rebuild flushes); a truthy return
        signals that datapath state may have changed and the hoisted
        dispatch is re-read.

        While a fused driver is fresh the whole burst runs inside it; a
        truthy ``on_verdict`` hands the rest of the burst back to the
        trampoline (which re-reads the live datapath), and the next burst
        re-fuses lazily.
        """
        if not pkts:
            return []
        meter = active_meter(meter)
        if meter is not None:
            meter.charge(self.costs.io_burst_cost)
        fused = self._fused_fresh()
        if fused is not None:
            verdicts, resume = fused.burst(pkts, meter, on_verdict)
            if resume < 0:
                return verdicts
            return self._trampoline_burst(
                pkts, meter, on_verdict, verdicts=verdicts, start=resume
            )
        return self._trampoline_burst(pkts, meter, on_verdict)

    def _trampoline_burst(
        self,
        pkts: "Sequence[Packet]",
        meter: "Meter | None",
        on_verdict,
        verdicts: "list[Verdict] | None" = None,
        start: int = 0,
    ) -> list[Verdict]:
        """The dict-dispatch burst loop (also the fused driver's resume
        path: ``start > 0`` picks up mid-burst)."""
        verdicts = [] if verdicts is None else verdicts
        costs = self.costs
        begin = getattr(meter, "begin_packet", None)
        end = getattr(meter, "end_packet", None)
        parse = _PARSERS[self.parser_layer]
        trampoline = self.trampoline
        per_pkt = (
            costs.pkt_in + costs.es_dispatch + self._parser_cost
            - costs.io_burst_share
        )
        for pkt in pkts[start:] if start else pkts:
            if begin is not None:
                begin()
            if meter is not None:
                meter.charge(per_pkt)
            verdict = self._forward(pkt, meter, parse, trampoline)
            if end is not None:
                end()
            verdicts.append(verdict)
            if on_verdict is not None and on_verdict(pkt, verdict):
                # Control work ran between packets: re-hoist the dispatch.
                parse = _PARSERS[self.parser_layer]
                trampoline = self.trampoline
                per_pkt = (
                    costs.pkt_in + costs.es_dispatch + self._parser_cost
                    - costs.io_burst_share
                )
        return verdicts

    def _forward(self, pkt: Packet, meter: "Meter | None", parse, trampoline) -> Verdict:
        costs = self.costs
        view = parse(pkt)
        data = pkt.data
        l3, l4, proto = view.l3, view.l4, view.proto
        nxt = view.l4_proto
        etype = view.eth_type

        verdict = Verdict()
        write_set: list[Action] = []
        tid = self.first_table
        did_work = False
        hops = 0
        while True:
            hops += 1
            if hops > MAX_TABLE_HOPS:
                raise PipelineError("compiled pipeline loop detected")
            compiled = trampoline.get(tid)
            if compiled is None:
                raise PipelineError(f"goto_table to unlinked table {tid}")
            hit = compiled.fn(data, pkt, l3, l4, proto, etype, nxt, meter)
            out = hit.instructions  # the table's shared action template

            if out.is_miss:
                verdict.path.append((tid, None))
                verdict.table_miss = True
                if out.to_controller:
                    verdict.to_controller = True
                else:
                    verdict.dropped = True
                if meter is not None:
                    meter.charge(costs.table_miss)
                return verdict

            verdict.path.append((tid, hit))
            hit.counters.record(len(data))
            if out.meter is not None and not out.meter.allow():
                verdict.dropped = True
                return verdict
            if out.apply_actions:
                did_work = True
                for action in out.apply_actions:
                    action.apply(view, verdict)
                    if verdict.reparse_needed:
                        view = parse(pkt)
                        data = pkt.data
                        l3, l4, proto = view.l3, view.l4, view.proto
                        nxt = view.l4_proto
                        etype = view.eth_type
                        verdict.reparse_needed = False
            if out.clear_actions:
                write_set.clear()
            if out.write_actions:
                write_set.extend(out.write_actions)
            if out.metadata_write is not None:
                value, mask = out.metadata_write
                pkt.metadata = (pkt.metadata & ~mask) | (value & mask)
            if verdict.dropped:
                break
            if out.goto is None:
                break
            if meter is not None:
                meter.charge(costs.goto_trampoline)
            tid = out.goto

        if write_set and not verdict.dropped:
            did_work = True
            ordered = [a for a in write_set if not isinstance(a, Output)] + [
                a for a in write_set if isinstance(a, Output)
            ]
            for action in ordered:
                action.apply(view, verdict)
                if verdict.reparse_needed:
                    view = parse(pkt)
                    verdict.reparse_needed = False

        if meter is not None:
            if did_work:
                meter.charge(costs.action_set)
            if verdict.forwarded:
                meter.charge(costs.pkt_out)
        return verdict
