"""The compiled datapath: the trampoline, the fused driver, parser dispatch.

After per-table specialization, linking combines the tables into a running
datapath (Section 3.3):

* within-table jumps are already Python control flow inside the generated
  functions;
* ``goto_table`` jumps go **via a trampoline** — here a mutable dict from
  table id to compiled table — so that a table rebuilt side-by-side can be
  inserted "by atomically redirecting all referring goto_table jumps to the
  address of the new code" (Section 3.4): one dict-slot assignment;
* the fused driver links the same hop text statically
  (:mod:`repro.core.fuse`), valid until the next such assignment.

The driver also embodies the parser templates: pipelines that match only
L2 fields never parse L3/L4 headers ("for pure L2 MAC forwarding it is
completely superfluous to parse L3 and L4 header fields", Section 3.1),
and the cost model charges only the parser layers actually composed.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import fuse, templates
from repro.core.codegen import CompiledTable
from repro.openflow.fields import max_layer
from repro.openflow.pipeline import Pipeline, Verdict
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


#: the trampoline's text, loaded once, when this module is imported: before
#: any pipeline exists, so no pipeline's fuse failure can reach it. Held
#: here, so neither ``templates.clear()``, an eviction under the cache's
#: byte bound nor a failing ``compile()`` can take it away.
_TRAMPOLINE = templates.load(fuse.TRAMPOLINE_TEXT, "trampoline")


class CompiledDatapath:
    """Executes compiled tables over packets; the ESWITCH fast path.

    One hop text (:mod:`repro.core.fuse`) runs the compiled tables under
    two linkages:

    * the **trampoline** — goto_table resolved through the mutable dict
      :attr:`trampoline`, so any single table can be swapped atomically
      (always correct, always available). Its text is shared by every
      datapath; each binds its own ``run``/``burst`` over its dict,
      parser and cost book, and re-binds them in :meth:`set_parser_layer`;
    * the **fused driver** — the whole pipeline linked into one code
      object, valid for one value of :attr:`generation`.

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

    Both linkages charge every atom behind ``meter is not None``:
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
        self.trampoline: dict[int, CompiledTable] = {}
        self.first_table = first_table
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
        """Re-plan the parser templates (updates can deepen match fields)
        and re-bind the trampoline over the new plan."""
        if parser_layer not in fuse.PARSERS:
            raise ValueError(f"parser layer must be 2, 3, or 4, not {parser_layer}")
        self.parser_layer = parser_layer
        costs = self.costs
        self._parser_cost = costs.parser_l2
        if parser_layer >= 3:
            self._parser_cost += costs.parser_l3
        if parser_layer >= 4:
            self._parser_cost += costs.parser_l4
        namespace = fuse.trampoline_namespace(self)
        _TRAMPOLINE.bind(namespace)
        self._run, self._burst = namespace["_run"], namespace["_burst"]
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
        try:
            fused = fuse.fuse_datapath(self)
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
        return self._run(pkt, meter)

    def process_burst(
        self,
        pkts: "Sequence[Packet]",
        meter: Meter = NULL_METER,
        on_verdict=None,
    ) -> list[Verdict]:
        """Run one IO burst through the datapath (Section 4.2's batching).

        The per-burst framework cost (PMD poll, doorbells, descriptor ring
        maintenance) is charged **once**, here, before either linkage runs
        the first packet; each packet then pays the scalar per-packet cost
        minus the reference-burst amortization already baked into ``pkt_in`` — a
        burst of ``costs.reference_burst`` packets costs exactly what that
        many scalar :meth:`process` calls cost.

        Per-packet meter windows (``begin_packet``/``end_packet``) are
        driven by the burst loop when the meter supports them, so the
        per-burst cost lands in the burst's first window — the packet that
        really pays for the poll. A meter that records nothing runs as
        ``None``, as in :meth:`process`.

        ``on_verdict(pkt, verdict)``, if given, runs after each packet
        (packet-in delivery, deferred rebuild flushes); a truthy return
        signals that datapath state may have changed: the rest of the
        burst runs on the trampoline as that control work left it (its
        parser, tables and per-packet cost), and the next burst re-fuses
        lazily.
        """
        if not pkts:
            return []
        meter = active_meter(meter)
        if meter is not None:
            meter.charge(self.costs.io_burst_cost)
        fused = self._fused_fresh()
        burst = self._burst if fused is None else fused.burst
        verdicts, resume = burst(pkts, meter, on_verdict)
        while resume >= 0:
            # Control work ran: ``self._burst`` is bound as it left things.
            rest, ran = self._burst(pkts[resume:], meter, on_verdict)
            verdicts += rest
            resume = -1 if ran < 0 else resume + ran
        return verdicts
