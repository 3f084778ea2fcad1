"""The ESWITCH facade: compile a pipeline, run packets, apply updates.

Ties together analysis → (optional) decomposition → specialization →
linking, and implements the update semantics of Section 3.4:

* templates that support it (compound hash, LPM, linked list) are updated
  **non-destructively** in place;
* the direct code template is rebuilt unconditionally, and any update that
  violates the current template's prerequisite triggers a **fallback
  rebuild** — both built side by side and linked in atomically through the
  trampoline;
* batches are **transactional**: a failing flow-mod rolls the whole batch
  back — the logical tables through the pipeline's undo record, the
  compiled artifacts through the same per-mod update path, one rule key
  at a time.

Unlike OVS, no update invalidates any datapath state beyond the single
table it touches — the property Fig. 18 measures.

Fail-static guardrails (ISSUE 5) sit on top of the update semantics:

* **admission control** (:meth:`ESwitch.submit_flow_mods`, admitting
  through :meth:`~repro.openflow.pipeline.Pipeline.admit_flow_mods`):
  malformed mods, out-of-space table ids, dangling or backward goto
  targets, and per-table ``max_entries`` overflows are answered with typed
  :class:`~repro.openflow.messages.ErrorMsg` s (``TABLE_FULL``,
  ``BAD_TABLE_ID``, …) *before any switch state is touched* — a rejected
  batch is bit-invisible: logical tables, compiled artifacts, the fused
  driver object, counters, and modeled cycles are all exactly as if it
  had never been sent;
* **compile-failure containment**: template selection or codegen raising
  does not crash the control path — the offending table is *quarantined*
  onto the linked-list universal representation (the template with no
  prerequisite, Fig. 4's bottom rung) and the degradation is reported
  through :meth:`ESwitch.health`; whole-pipeline fusion failures already
  degrade to the trampoline (:mod:`repro.core.datapath`), completing the
  paper's fallback chain fused → trampoline → linked list. A table too
  big for the template it was steered to (``codegen.MAX_DIRECT_ENTRIES``)
  is one such failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core import templates
from repro.core.analysis import (
    CompileConfig,
    DEFAULT_CONFIG,
    TemplateKind,
    select,
)
from repro.core.codegen import CompiledTable, compile_table
from repro.core.datapath import CompiledDatapath, required_layer
from repro.core.decompose import decomposable, decompose_table
from repro.openflow.flow_table import FlowTable
from repro.openflow.messages import (
    ErrorMsg,
    FlowMod,
    FlowModReply,
    PacketIn,
    reply_to_flow_mods,
)
from repro.openflow.pipeline import Pipeline, Verdict
from repro.openflow.stats import BurstStats
from repro.packet.packet import Packet
from repro.simcpu.costs import CostBook, DEFAULT_COSTS
from repro.simcpu.recorder import Meter, NULL_METER

#: the first compiled id a decomposed group's sub-tables take: past
#: OpenFlow's table ids (0–254) and ``OFPTT_ALL`` (255), so no logical
#: table a flow-mod creates can land on one.
FIRST_INTERNAL_ID = 256


@dataclass
class UpdateStats:
    """How updates were absorbed (Fig. 18's mechanism)."""

    incremental: int = 0
    rebuilds: int = 0
    fallbacks: int = 0
    group_rebuilds: int = 0
    #: template re-selections the compiled rung answered without walking
    #: the entries (``CompiledTable.holds``).
    kind_stable_skips: int = 0
    #: mods that provably changed nothing (a DELETE matching no live
    #: entry — including predicates that would only have hit tombstoned
    #: slots): no version bump, no re-fuse, no template re-selection.
    noop_mods: int = 0
    #: batches undone after a mod raised (each an ``UNKNOWN`` or
    #: ``TABLE_FULL`` reject out of ``submit_flow_mods``).
    rollbacks: int = 0
    cycles: float = 0.0


@dataclass(frozen=True)
class SwitchHealth:
    """Control-plane degradation report of one switch (read-only snapshot).

    Attributes:
        quarantined: ``(table_id, reason)`` pairs for tables pinned to the
            linked-list universal template after a compile failure; healed
            (removed) by the next clean rebuild of that table.
        compile_failures: total template-compile failures contained so far.
        fuse_failures: whole-pipeline fusion attempts that degraded to the
            trampoline.
        last_fuse_error: message of the most recent fusion failure, or "".
        fused_active: the current generation is served by a fused driver
            (False = trampoline dispatch, the middle rung of the chain).
        generation: the datapath's update generation counter.
        footprint_bytes: estimated resident bytes across every compiled
            table (stores, generated source, rule lists).
        link_s: seconds this switch's datapath has spent linking fused
            drivers (``core.fuse.link_s``).
        templates: the template loader's counters (``core.codegen.*``:
            ``compile_calls``, ``compile_s``, ``template_hits``,
            ``patches``, resident ``templates`` and their ``bytes``) —
            process-wide, the same numbers on every switch.
    """

    quarantined: tuple[tuple[int, str], ...] = ()
    compile_failures: int = 0
    fuse_failures: int = 0
    last_fuse_error: str = ""
    fused_active: bool = False
    generation: int = 0
    footprint_bytes: int = 0
    link_s: float = 0.0
    templates: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        # Trampoline dispatch counts as degradation only when a fusion
        # attempt actually failed — a freshly built (or freshly updated)
        # switch is merely *lazy*: its fuse runs on the next packet.
        return bool(self.quarantined) or (
            self.fuse_failures > 0 and not self.fused_active
        )

    def as_dict(self) -> dict:
        return {
            "quarantined": {tid: reason for tid, reason in self.quarantined},
            "compile_failures": self.compile_failures,
            "fuse_failures": self.fuse_failures,
            "last_fuse_error": self.last_fuse_error,
            "fused_active": self.fused_active,
            "generation": self.generation,
            "footprint_bytes": self.footprint_bytes,
            "link_s": self.link_s,
            "templates": {"shared": True, **self.templates},
        }


@dataclass
class _Group:
    """One logical table's compiled representation."""

    logical_id: int
    compiled_ids: list[int]
    decomposed: bool = False
    live_rules: int = 0  #: decomposed: rules on a leaf (the rest are shadowed)


class ESwitch:
    """An OpenFlow switch with a fully compiled, specialized datapath."""

    def __init__(
        self,
        pipeline: Pipeline,
        config: CompileConfig = DEFAULT_CONFIG,
        costs: CostBook = DEFAULT_COSTS,
        packet_in_handler=None,
    ):
        pipeline.validate()
        self.pipeline = pipeline
        self.config = config
        self.costs = costs
        self.packet_in_handler = packet_in_handler
        self.update_stats = UpdateStats()
        self.burst_stats = BurstStats()
        self._groups: dict[int, _Group] = {}
        #: decomposed groups whose rebuild is deferred to the next packet —
        #: the "constructed side by side with the running datapath"
        #: semantics of Section 3.4: the control path returns immediately,
        #: the old compiled tables keep processing until the swap.
        self._dirty_groups: set[int] = set()
        self._next_internal_id = FIRST_INTERNAL_ID
        #: tables whose preferred template failed to compile and are pinned
        #: to the linked-list universal representation: id -> reason.
        self.quarantined: dict[int, str] = {}
        self.compile_failures = 0
        self.datapath = CompiledDatapath(
            first_table=pipeline.first_table.table_id,
            parser_layer=required_layer(pipeline),
            costs=costs,
            enable_fusion=config.fuse,
        )
        for table in pipeline.tables:
            self._compile_group(table)

    @classmethod
    def from_pipeline(
        cls,
        pipeline: Pipeline,
        config: CompileConfig = DEFAULT_CONFIG,
        costs: CostBook = DEFAULT_COSTS,
        packet_in_handler=None,
    ) -> "ESwitch":
        return cls(pipeline, config, costs, packet_in_handler)

    # -- the fast path ----------------------------------------------------

    def process(self, pkt: Packet, meter: Meter = NULL_METER) -> Verdict:
        """Run one packet through the compiled datapath."""
        if self._dirty_groups:
            self._flush_rebuilds()
        verdict = self.datapath.process(pkt, meter)
        if verdict.to_controller and self.packet_in_handler is not None:
            self._packet_in(pkt, verdict)
        return verdict

    def _packet_in(self, pkt: Packet, verdict: Verdict) -> None:
        table_id = self.logical_table_id(verdict.path[-1][0]) if verdict.path else 0
        self.packet_in_handler(PacketIn(pkt=pkt, table_id=table_id))

    def process_burst(
        self, pkts: "Sequence[Packet]", meter: Meter = NULL_METER
    ) -> list[Verdict]:
        """Run one IO burst through the compiled datapath.

        Semantically identical to calling :meth:`process` on each packet in
        order — packet-ins fire and deferred rebuilds flush *between*
        packets, so a reactive controller's flow-mods take effect for the
        rest of the burst exactly as they would scalar-wise. The per-burst
        IO framework cost is charged once (see
        :meth:`CompiledDatapath.process_burst`).
        """
        if not pkts:
            return []
        if self._dirty_groups:
            self._flush_rebuilds()
        cycles_before = getattr(meter, "total_cycles", 0.0)
        # Without a packet-in handler no between-packet control work can
        # arise mid-burst (deferred rebuilds were flushed above, and only
        # packet-ins can queue new ones), so skip the per-packet callback.
        on_verdict = (
            self._burst_packet_done if self.packet_in_handler is not None else None
        )
        verdicts = self.datapath.process_burst(pkts, meter, on_verdict=on_verdict)
        self.burst_stats.record(
            len(pkts), getattr(meter, "total_cycles", 0.0) - cycles_before
        )
        return verdicts

    def _burst_packet_done(self, pkt: Packet, verdict: Verdict) -> bool:
        """Between-packet control work inside a burst; True = state mutated."""
        mutated = False
        if verdict.to_controller and self.packet_in_handler is not None:
            self._packet_in(pkt, verdict)
            mutated = True
        if self._dirty_groups:
            self._flush_rebuilds()
            mutated = True
        return mutated

    def warm(self) -> bool:
        """Stand the current pipeline generation up, off the packet path.

        Flushes any deferred side-by-side rebuilds and forces the lazy
        re-fuse now, so the *next* packet runs the fused driver
        immediately instead of paying the compile. This is the epoch-
        barrier hook of the sharded engine: a replica acks a broadcast
        flow-mod batch only after ``warm()`` returns, guaranteeing every
        shard serves the same fused generation before any burst of the
        new epoch is scattered. Returns True when a fused driver is up
        (False means the trampoline serves this shape).
        """
        if self._dirty_groups:
            self._flush_rebuilds()
        for table in self.pipeline:
            table.prime()  # lazy rule indexes, off the first-mod path
        return self.datapath.ensure_fused() is not None

    # -- inspection -----------------------------------------------------------

    def table_kinds(self) -> dict[int, str]:
        """Logical table id -> template kind (or 'decomposed[n tables,
        live/total rules]'; a rule is live when a packet can reach it)."""
        if self._dirty_groups:
            self._flush_rebuilds()
        out: dict[int, str] = {}
        for logical_id, group in self._groups.items():
            if group.decomposed:
                total = len(self.pipeline.table(logical_id))
                out[logical_id] = (
                    f"decomposed[{len(group.compiled_ids)} tables, "
                    f"{group.live_rules}/{total} rules]"
                )
            else:
                out[logical_id] = self.datapath.table(logical_id).kind.value
        return out

    def logical_table_id(self, compiled_id: int) -> int:
        """The logical table a compiled table id serves: a decomposed
        group's sub-tables answer for the table they were cut from, the
        id the reference interpreter reports (a packet-in's table)."""
        if compiled_id < FIRST_INTERNAL_ID:
            return compiled_id
        for group in self._groups.values():
            if compiled_id in group.compiled_ids:
                return group.logical_id
        return compiled_id

    def compiled_table(self, table_id: int) -> CompiledTable:
        if self._dirty_groups:
            self._flush_rebuilds()
        return self.datapath.table(table_id)

    def compiled_sources(self) -> dict[int, str]:
        """All generated sources, keyed by compiled table id."""
        return {
            tid: ct.source for tid, ct in sorted(self.datapath.trampoline.items())
        }

    @property
    def compiled_table_count(self) -> int:
        return len(self.datapath.trampoline)

    def health(self) -> SwitchHealth:
        """Degradation snapshot: quarantines, contained failures, fusion
        state. Read-only — computing it never triggers a rebuild or fuse."""
        dp = self.datapath
        fused = dp._fused
        return SwitchHealth(
            quarantined=tuple(sorted(self.quarantined.items())),
            compile_failures=self.compile_failures,
            fuse_failures=dp.fuse_failures,
            last_fuse_error=dp.last_fuse_error,
            fused_active=fused is not None and fused.generation == dp.generation,
            generation=dp.generation,
            footprint_bytes=sum(
                ct.footprint()["bytes"] for ct in dp.trampoline.values()
            ),
            link_s=dp.link_s,
            templates=templates.stats(),
        )

    def footprint(self) -> dict:
        """Per-rung memory telemetry: every compiled table's estimated
        resident bytes (see :meth:`CompiledTable.footprint`), plus the
        total, and beside it the ``templates`` row: the code objects every
        switch of the process shares, counted in no switch's total.
        Flushes deferred rebuilds first so the report reflects the
        structures the next packet would actually probe."""
        if self._dirty_groups:
            self._flush_rebuilds()
        tables = {
            tid: ct.footprint()
            for tid, ct in sorted(self.datapath.trampoline.items())
        }
        shared = templates.stats()
        return {
            "total_bytes": sum(fp["bytes"] for fp in tables.values()),
            "tables": tables,
            "templates": {
                "shared": True,
                "resident": shared["templates"],
                "bytes": shared["bytes"],
            },
        }

    # -- compilation ---------------------------------------------------------------

    def _compile_group(self, table: FlowTable, selected: "tuple | None" = None) -> _Group:
        """Compile one logical table, containing any compile failure.

        Template selection, decomposition, or codegen raising must never
        crash the control path: the failing table is *quarantined* onto the
        linked-list universal template (the one with no prerequisite) and
        reported through :meth:`health`. A later clean rebuild heals it.
        ``selected`` is a ``select(table, config)`` the caller already ran.
        """
        try:
            group = self._compile_group_preferred(table, selected)
        except Exception as exc:  # containment boundary, deliberately broad
            return self._quarantine(table, f"{type(exc).__name__}: {exc}")
        self.quarantined.pop(table.table_id, None)
        self._groups[table.table_id] = group
        return group

    def _quarantine(self, table: FlowTable, reason: str) -> _Group:
        """Pin ``table`` to the linked-list template and book the failure."""
        self.compile_failures += 1
        self.quarantined[table.table_id] = reason
        self.datapath.install(
            compile_table(
                table, self.config, self.costs, kind=TemplateKind.LINKED_LIST
            )
        )
        group = _Group(logical_id=table.table_id, compiled_ids=[table.table_id])
        self._groups[table.table_id] = group
        return group

    def force_quarantine(self, table_id: int, reason: str = "forced") -> None:
        """Drive one logical table into the quarantine state on demand.

        Exactly the containment path of :meth:`_compile_group`, minus the
        triggering exception: the table is pinned to the linked-list
        universal template, the quarantine is reported through
        :meth:`health`, and the next clean rebuild (e.g. a flow-mod whose
        template re-selection succeeds) heals it. The differential fuzzer
        uses this to hold backends in the degraded state and assert they
        still agree packet-for-packet.
        """
        old = self._groups.get(table_id)
        self._quarantine(self.pipeline.table(table_id), reason)
        self._dirty_groups.discard(table_id)
        if old is not None:
            for tid in old.compiled_ids:
                if tid != table_id:
                    self.datapath.uninstall(tid)

    def _compile_group_preferred(self, table: FlowTable, selected: "tuple | None") -> _Group:
        kind, plan = selected or select(table, self.config)
        tables = None
        if kind is TemplateKind.LINKED_LIST and self.config.decompose:
            tables = decompose_table(table, self._next_internal_id)
        if tables is not None:
            self._next_internal_id = max(
                self._next_internal_id, max(t.table_id for t in tables) + 1
            )
            # Compile every sub-table *before* installing any, so a failure
            # partway through leaks no trampoline entries for the
            # containment path to clean up.
            compiled = [
                compile_table(sub, self.config, self.costs) for sub in tables
            ]
            for ct in compiled:
                ct.grouped = len(compiled) > 1  # sub-tables with fresh ids
                self.datapath.install(ct)
            return _Group(
                logical_id=table.table_id,
                compiled_ids=[t.table_id for t in tables],
                decomposed=True,
                live_rules=len(
                    {id(e.origin) for sub in tables for e in sub} - {id(None)}
                ),
            )
        self.datapath.install(
            compile_table(table, self.config, self.costs, kind=kind, plan=plan)
        )
        return _Group(logical_id=table.table_id, compiled_ids=[table.table_id])

    def _flush_rebuilds(self) -> None:
        for logical_id in sorted(self._dirty_groups):
            self._rebuild_group(logical_id)
        self._dirty_groups.clear()

    def _rebuild_group(self, logical_id: int, selected: "tuple | None" = None) -> None:
        """Side-by-side rebuild of one logical table, then atomic swap."""
        self._dirty_groups.discard(logical_id)
        old = self._groups.get(logical_id)
        table = self.pipeline.table(logical_id)
        new_group = self._compile_group(table, selected)  # installs over/new ids
        if old is not None:
            for tid in old.compiled_ids:
                if tid not in new_group.compiled_ids:
                    self.datapath.uninstall(tid)

    # -- updates ----------------------------------------------------------------------

    def apply_flow_mod(self, mod: FlowMod) -> float:
        """Apply one flow-mod; returns the estimated update cost in cycles.

        Raises :class:`~repro.openflow.messages.FlowModFailed` (a typed
        ``TABLE_FULL``) when an ADD would exceed the table's advertised
        ``max_entries``; inside :meth:`apply_flow_mods` the transactional
        rollback makes the whole batch invisible. Prefer
        :meth:`submit_flow_mods`, which answers with error replies instead
        of raising and never mutates on reject.
        """
        return self._apply(mod, self.pipeline.apply_flow_mod)

    def _apply(self, mod: FlowMod, write) -> float:
        """Run one logical write — ``write(mod) -> (removed, added)``, a
        forward mod or a rollback step — and bring the compiled state
        after it."""
        table = self.pipeline.get_or_create(mod.table_id)
        new_table = mod.table_id not in self._groups
        shapes_before = table.shapes_version
        removed, added = write(mod)
        if not removed and added is None and not new_table:
            # Nothing matched: logical and compiled state are already
            # consistent, and touching the template (e.g. a phantom
            # hash-store removal) would desynchronize them. The table
            # did not bump its version either, so no re-fuse or
            # template re-selection follows — count the no-op.
            self.update_stats.noop_mods += 1
            return 0.0
        # Updates can deepen (or shallow) the fields in play: re-plan the
        # parser templates before the next packet. Only this table mutated,
        # so when its shape *set* provably did not move (steady-state churn
        # inside existing classes) the pipeline-wide answer cannot have
        # changed either — skip the O(tables × shapes) recompute.
        reshaped = new_table or table.shapes_version != shapes_before
        if reshaped:
            self._replan_parser()
        cycles = self._recompile_after_update(table, mod, new_table, reshaped)
        self.update_stats.cycles += cycles
        return cycles

    def _replan_parser(self) -> None:
        layer = required_layer(self.pipeline)
        if layer != self.datapath.parser_layer:
            self.datapath.set_parser_layer(layer)

    def apply_flow_mods(self, mods: Sequence[FlowMod]) -> float:
        """Transactional batch: either every mod applies or none does."""
        undo = self.pipeline.undo_record(mods)
        cycles_before = self.update_stats.cycles
        total = 0.0
        try:
            for mod in mods:
                total += self.apply_flow_mod(mod)
        except BaseException:
            for table_id in undo.created:
                self.drop_table(table_id)
            for mod, write in self.pipeline.undo_steps(undo):
                self._apply(mod, write)
            # The rolled-back mods must leave no trace in the modeled cost
            # accounting (the cycles half of batch invisibility); the
            # mechanism counters stand — they record work that really ran.
            self.update_stats.cycles = cycles_before
            self.update_stats.rollbacks += 1
            raise
        return total

    def drop_table(self, table_id: int) -> None:
        """Forget a logical table and everything compiled from it — the
        undo of a table a batch created. The caller vouches no rule still
        jumps to it."""
        self.pipeline.drop_table(table_id)
        group = self._groups.pop(table_id, None)
        if group is not None:
            for cid in group.compiled_ids:
                self.datapath.uninstall(cid)
        # A deferred rebuild queued for the vanished table must die with
        # it, or the next packet's flush crashes looking it up.
        self._dirty_groups.discard(table_id)
        self.quarantined.pop(table_id, None)
        self._replan_parser()

    # -- admission control ------------------------------------------------------

    def admit_flow_mods(self, mods: Sequence[FlowMod]) -> list[ErrorMsg]:
        """Admission is a property of the tables, not of the compiler."""
        return self.pipeline.admit_flow_mods(mods)

    def submit_flow_mods(self, mods: Sequence[FlowMod]) -> FlowModReply:
        """Admission-controlled batch apply: the control-plane entry point.

        A rejected batch is answered with the full list of typed errors
        and is **bit-invisible**: admission runs before any mutation, so
        logical tables, compiled artifacts, the fused driver object,
        update accounting, and the datapath generation are exactly as if
        the batch had never been sent. An accepted batch applies
        transactionally and reports its modeled switch-side cycles.
        """
        return reply_to_flow_mods(self.admit_flow_mods, self.apply_flow_mods, mods)

    def _recompile_after_update(
        self, table: FlowTable, mod: FlowMod, new_table: bool, reshaped: bool
    ) -> float:
        costs = self.costs
        stats = self.update_stats

        if new_table:
            self._compile_group(table)
            stats.rebuilds += 1
            return costs.es_update_rebuild_base + costs.es_update_rebuild_per_entry * len(
                table
            )

        group = self._groups[table.table_id]
        if group.decomposed:
            # Queue a side-by-side rebuild; the control path pays only the
            # enqueue, the compile runs off the update's critical path.
            self._dirty_groups.add(table.table_id)
            stats.group_rebuilds += 1
            return costs.es_update_incremental

        compiled = self.datapath.table(table.table_id)
        if compiled.holds(table, mod, self.config):
            stats.kind_stable_skips += 1
        elif (selected := select(table, self.config))[0] is not compiled.kind or (
            # Still linked-list-bound, but a fresh compile would offer the
            # table to decomposition first: so does this one, whenever
            # the shape set (all the uniform-mask prerequisite reads) moved.
            reshaped
            and compiled.kind is TemplateKind.LINKED_LIST
            and self.config.decompose
            and table.table_id not in self.quarantined
            and decomposable(table)
        ):
            # Prerequisite changed: fall back (or upgrade) with a rebuild
            # from the rung and plan just selected.
            stats.fallbacks += 1
            self._rebuild_group(table.table_id, selected)
            return costs.es_update_rebuild_base + costs.es_update_rebuild_per_entry * len(
                table
            )

        relinks = compiled.relinks
        if compiled.update(table, mod):
            stats.incremental += 1
            dp = self.datapath
            fused = dp.fused
            if compiled.relinks != relinks or fused is None or not fused.is_current(dp):
                # Something the fused driver baked in moved (a rebound
                # miss arm, the fact set): invalidate it; the re-fuse is
                # lazy. A content-only update leaves a standing driver
                # standing — it closes over the stores just mutated. No
                # current driver: nothing to keep, and a new generation
                # retries a failed fuse. Rebuilds go through install().
                dp.bump_generation()
            return costs.es_update_incremental

        stats.rebuilds += 1
        self._rebuild_group(table.table_id)
        return costs.es_update_rebuild_base + costs.es_update_rebuild_per_entry * len(
            table
        )

    def __repr__(self) -> str:
        return (
            f"ESwitch(tables={len(self._groups)}, "
            f"compiled={self.compiled_table_count})"
        )
