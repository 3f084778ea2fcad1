"""The compiled pipeline's driver: one hop text, two linkages.

What a table hop means — look the packet up, record the rule, run its
actions, follow its ``goto_table`` — is written once, here, as the text of
``_run(pkt, meter)`` and the burst loop ``_burst`` around it. The emitter
links that text two ways:

* **dynamic linkage, the trampoline**: ``goto_table`` is resolved through
  the datapath's mutable table dict, so a rebuilt table is swapped in by
  one slot assignment (Section 3.4). Every branch is on and the
  ``MAX_TABLE_HOPS`` loop guard stays. The text names no pipeline, parser
  layer, first table or cost-book value — it reads them as globals of the
  namespace each :class:`~repro.core.datapath.CompiledDatapath` binds it
  over — so it is :data:`TRAMPOLINE_TEXT`, one text per process, loaded
  when :mod:`repro.core.datapath` is imported;
* **static linkage, the fused driver** (:func:`fuse_datapath`): the
  paper's last linking step, which "atomically redirect[s] all referring
  goto_table jumps to the address of the new code" (Section 3.3–3.4) so
  the pipeline runs as one straight-line instruction stream. It is loaded
  like any table's text (:mod:`repro.core.templates`: compiled on first
  sight of the shape, then patched).

The static linkage specializes the same text:

* ``goto_table`` becomes a local jump — an ``if tid == N`` dispatch over
  compile-time-known table ids. The rungs whose text is fixed by the
  table's fields and masks (hash, LPM: :attr:`~repro.core.codegen.
  CompiledTable.inlinable`) are **textually inlined**; the others — direct
  code, whose text grows with its entries, and the linked list, whose
  body returns from inside a loop — are **called** through a namespace
  name, ``_t{tid}_fn``, that each link rebinds. A decomposed group's
  direct tables are inlined too: the group is rebuilt whole under fresh
  sub-table ids, so its driver text moves anyway;
* the first-table id and every cost-book constant are baked in as
  literals; the loop guard and the write-set, metadata and
  flow-meter machinery are elided where the tables' facts prove them
  dead (:func:`_pipeline_facts`). An elided branch charges no atom and
  could never fire, so both linkages charge the same ``m.charge``/
  ``m.touch`` atoms in the same order: modeled cycles are bit-identical
  with fusion on or off — fusion buys real wall-clock, not model drift.

Either way there is one ``_run(pkt, meter)`` for both meter modes: each
atom, the driver's and the tables', sits behind ``if meter is not
None:``, and a caller that meters nothing passes ``None``, so the code
the functional run executes is the code the measured run executes.

The fused driver text therefore depends on the pipeline's *structure* — which
tables exist, the rung each sits on, their fields, masks and fact sets,
the parser layer — and on nothing a direct table holds. A direct table
rebuilt for a new key or a new entry count (a tenant's arrival) is
swapped in by rebinding its name: the re-link is a cache hit and a
``bind()``, as the paper's re-link only redirects the jumps to the new
code (Sections 3.3–3.4). The table ids an inlined body's cost atoms name
are key slots, filled with the driver's other constants at link time.

Validity is governed by :attr:`CompiledDatapath.generation`, which moves
exactly when something baked in here moved: ``install``/``uninstall``/
``set_parser_layer``, and — via :class:`~repro.core.eswitch.ESwitch` — an
in-place update that rebound a name an inlined body copied or changed a
table's fact set (:attr:`CompiledTable.relinks`). The datapath then
lazily re-fuses on the next packet — off the update critical path, with
the trampoline serving the window in between. An update that only
changes the *content* of a hash, LPM or linked-list store leaves the
driver standing: it closes over the stores, which mutate in place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.core import templates
from repro.openflow.actions import Output
from repro.openflow.pipeline import MAX_TABLE_HOPS, PipelineError, Verdict
from repro.packet import parser as pp

if TYPE_CHECKING:
    from repro.core.datapath import CompiledDatapath


class FuseError(Exception):
    """Raised when a datapath cannot be fused (the trampoline still runs)."""


#: the parser template composed for each protocol layer a pipeline needs.
PARSERS = {2: pp.parse_l2, 3: pp.parse_l3, 4: pp.parse}

_IDENT = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
_RETURN = re.compile(r"^(\s*)return\s+(.+)$")

#: slots of the inlined table with id ``tid`` start at ``tid *
#: _TABLE_SLOTS`` in the driver text (an inlined body holds one).
_TABLE_SLOTS = 1 << 20


@dataclass
class FusedPipeline:
    """One datapath generation's fused driver."""

    generation: int
    #: the key-free driver text and the keys its slots take.
    text: str
    keys: dict
    namespace: dict
    table_ids: tuple[int, ...]
    #: tables whose bodies the driver text holds, and tables it calls.
    inlined_ids: tuple[int, ...]
    called_ids: tuple[int, ...]
    #: ``(pkt, meter) -> Verdict`` — one packet, its entry atom already
    #: charged; ``meter`` is None when nothing meters.
    run: Callable
    #: ``(pkts, meter, on_verdict) -> (verdicts, resume)``, as
    #: :func:`_emit_burst` says; the burst's IO atom is the caller's.
    burst: Callable

    @cached_property
    def source(self) -> str:
        """The generated driver source with the keys visible."""
        return templates.render(self.text, self.keys)

    def is_current(self, datapath: "CompiledDatapath") -> bool:
        """Whether this driver still serves the datapath's generation.

        The multi-replica sync contract: a shard replica is "standing"
        for an epoch exactly when its datapath's fused driver exists and
        ``is_current`` holds — the sharded engine's update barrier waits
        for that state on every worker before releasing the next burst,
        so no two replicas ever answer the same burst from different
        pipeline generations.
        """
        return self.generation == datapath.generation


def _pipeline_facts(dp: "CompiledDatapath") -> tuple[bool, dict]:
    """Whole-datapath facts read from every table's :attr:`~repro.core.
    codegen.CompiledTable.facts` — O(tables × distinct fact tuples),
    whatever the tables hold.

    Returns ``(acyclic, flags)``:

    * ``acyclic`` — no chain of static ``goto`` targets can revisit a
      table, so the fused driver may drop the per-hop loop guard (the
      trampoline's ``MAX_TABLE_HOPS`` counter exists only to catch goto
      cycles, which a DAG cannot have);
    * ``flags`` — which driver machinery any rule actually needs
      (``write`` action sets, ``meta``\\ data writes, flow ``meter``
      checks); the emitter elides what no rule can trigger — the
      specialization move of the paper, applied to our own driver.

    A table's fact set moving bumps the generation, so a standing driver
    was always fused from the current sets.
    """
    edges = {
        tid: {goto for goto, _w, _m, _t in compiled.facts if goto is not None}
        for tid, compiled in dp.trampoline.items()
    }
    state: dict[int, int] = {}  # 1 = on stack, 2 = done

    def dfs(tid: int) -> bool:
        state[tid] = 1
        for nxt in edges.get(tid, ()):
            mark = state.get(nxt)
            if mark == 1:
                return False
            if mark is None and nxt in edges and not dfs(nxt):
                return False
        state[tid] = 2
        return True

    acyclic = all(state.get(tid) == 2 or dfs(tid) for tid in edges)
    everything = {f for compiled in dp.trampoline.values() for f in compiled.facts}
    flags = {
        # clear_actions without any write_actions anywhere is a no-op on
        # an always-empty action set, so "write" alone gates the machinery.
        "write": any(write for _g, write, _m, _t in everything),
        "meta": any(meta for _g, _w, meta, _t in everything),
        "meter": any(meter for _g, _w, _m, meter in everything),
    }
    return acyclic, flags


def _rename_body(body: list[str], mapping: dict[str, str]) -> list[str]:
    """Token-rename identifiers in generated source lines (one pass, so
    ``_O1``/``_O10`` style prefix collisions cannot mis-rewrite)."""

    def sub(match: "re.Match[str]") -> str:
        return mapping.get(match.group(0), match.group(0))

    return [_IDENT.sub(sub, line) for line in body]


def _inline_body(compiled, prefix: str, namespace: dict) -> list[str]:
    """One table's generated body, rewritten for inlining.

    ``return X`` becomes ``hit = X`` + ``break`` (the caller wraps the body
    in a one-iteration ``while True``), the constants the body names are
    re-bound under ``prefix`` into the fused namespace, ``m`` becomes the
    driver's ``meter`` and the slots move under the table's id. The
    rewritten lines are kept on the compiled table: a re-link re-renders
    only tables rebuilt since.
    """
    rendered = compiled.inlined
    if rendered is None:
        lines, names = compiled.body()
        mapping = {"m": "meter"}
        mapping.update((key, prefix + key) for key in names)
        out = []
        for line in _rename_body(lines, mapping):
            matched = _RETURN.match(line)
            if matched:
                indent, expr = matched.groups()
                out.append(f"{indent}hit = {expr}")
                out.append(f"{indent}break")
            else:
                out.append(line)
        base = compiled.table_id * _TABLE_SLOTS
        out = templates.shift_slots("\n".join(out), base).split("\n")
        rendered = compiled.inlined = (out, tuple(names))
    out, names = rendered
    for key in names:
        namespace[prefix + key] = compiled.namespace[key]
    return out


#: a hop's lookup call: every rung's function takes the hoisted header view.
_ARGS = "(data, pkt, l3, l4, proto, etype, nxt, meter)"
_UNLINKED = 'raise _PipelineError(f"goto_table to unlinked table {tid}")'


def _emit_dispatch(dp: "CompiledDatapath", namespace: dict) -> tuple[
    list[str], tuple[int, ...]
]:
    """The static dispatch, an ``if tid == N`` chain: inlinable rungs are
    spliced in textually, the rest are called through a name this link
    binds to the table's function."""
    order = [dp.first_table] if dp.first_table in dp.trampoline else []
    order += [tid for tid in sorted(dp.trampoline) if tid not in order]
    lines: list[str] = []
    inlined: list[int] = []
    for pos, tid in enumerate(order):
        compiled = dp.trampoline[tid]
        head = "if" if pos == 0 else "elif"
        lines.append(f"        {head} tid == {tid}:")
        if compiled.inlinable:
            lines.append("            while True:")
            body = _inline_body(compiled, f"_t{tid}", namespace)
            lines.extend("            " + line for line in body)
            inlined.append(tid)
        else:
            namespace[f"_t{tid}_fn"] = compiled.fn
            lines.append(f"            hit = _t{tid}_fn{_ARGS}")
    lines.append("        else:")
    lines.append(f"            {_UNLINKED}")
    return lines, tuple(inlined)


#: the dynamic dispatch: one lookup in the datapath's live table dict,
#: whose one-slot assignment is Section 3.4's atomic swap.
_DYNAMIC_DISPATCH = [
    "        compiled = _trampoline.get(tid)",
    "        if compiled is None:",
    f"            {_UNLINKED}",
    f"        hit = compiled.fn{_ARGS}",
]


def _constants(dp: "CompiledDatapath") -> dict:
    """What a datapath fixes that the hop text names: the first table and
    the cost-book atoms the driver charges. The static linkage writes each
    as a literal, the dynamic one reads it as the global ``_<name>``."""
    costs = dp.costs
    return {
        "first": dp.first_table,
        "table_miss": costs.table_miss,
        "goto": costs.goto_trampoline,
        "action_set": costs.action_set,
        "pkt_out": costs.pkt_out,
        # A burst's per-packet entry atom: what a scalar ``process`` call
        # charges, less the burst's amortized share, summed in that order.
        "per_pkt": (
            costs.pkt_in + costs.es_dispatch + dp._parser_cost
            - costs.io_burst_share
        ),
    }


def _emit_run(
    dispatch: list[str], lit: Callable[[str], str], acyclic: bool, flags: dict
) -> list[str]:
    """The hop loop, around ``dispatch`` (which leaves the table's answer
    in ``hit``), with each of :func:`_constants` spelled by ``lit``.

    ``acyclic`` drops the loop-detection guard and ``flags`` keep only the
    write-set / metadata / flow-meter machinery some rule can trigger
    (:func:`_pipeline_facts`); the dynamic linkage keeps all of it.
    """
    lines = ["def _run(pkt, meter):"]
    lines.append("    view = _parse(pkt)")
    lines.append("    data = pkt.data")
    # Actions that change the frame length always request a reparse, so the
    # hoisted length stays exact at every counters-update site.
    lines.append("    dlen = len(data)")
    lines.append("    l3 = view.l3")
    lines.append("    l4 = view.l4")
    lines.append("    proto = view.proto")
    lines.append("    nxt = view.l4_proto")
    lines.append("    etype = view.eth_type")
    lines.append("    verdict = _Verdict()")
    lines.append("    path = verdict.path")
    if flags["write"]:
        lines.append("    write_set = None")
    lines.append(f"    tid = {lit('first')}")
    lines.append("    did_work = False")
    if not acyclic:
        lines.append("    hops = 0")
    lines.append("    while True:")
    if not acyclic:
        lines.append("        hops += 1")
        lines.append(f"        if hops > {MAX_TABLE_HOPS}:")
        lines.append(
            '            raise _PipelineError("compiled pipeline loop detected")'
        )
    lines.extend(dispatch)
    # A lookup returns the rule; its actions are its table's shared template.
    lines.append("        out = hit.instructions")
    lines.append("        if out.is_miss:")
    lines.append("            path.append((tid, None))")
    lines.append("            verdict.table_miss = True")
    lines.append("            if out.to_controller:")
    lines.append("                verdict.to_controller = True")
    lines.append("            else:")
    lines.append("                verdict.dropped = True")
    lines.append("            if meter is not None:")
    lines.append(f"                meter.charge({lit('table_miss')})")
    lines.append("            return verdict")
    lines.append("        path.append((tid, hit))")
    lines.append("        hit.packets += 1")
    lines.append("        hit.bytes += dlen")
    if flags["meter"]:
        lines.append("        if out.meter is not None and not out.meter.allow():")
        lines.append("            verdict.dropped = True")
        lines.append("            return verdict")
    lines.append("        acts = out.apply_actions")
    lines.append("        if acts:")
    lines.append("            did_work = True")
    lines.append("            for action in acts:")
    lines.append("                action.apply(view, verdict)")
    lines.append("                if verdict.reparse_needed:")
    lines.append("                    view = _parse(pkt)")
    lines.append("                    data = pkt.data")
    lines.append("                    dlen = len(data)")
    lines.append("                    l3 = view.l3")
    lines.append("                    l4 = view.l4")
    lines.append("                    proto = view.proto")
    lines.append("                    nxt = view.l4_proto")
    lines.append("                    etype = view.eth_type")
    lines.append("                    verdict.reparse_needed = False")
    if flags["write"]:
        lines.append("        if out.clear_actions:")
        lines.append("            write_set = None")
        lines.append("        if out.write_actions:")
        lines.append("            if write_set is None:")
        lines.append("                write_set = list(out.write_actions)")
        lines.append("            else:")
        lines.append("                write_set.extend(out.write_actions)")
    if flags["meta"]:
        lines.append("        if out.metadata_write is not None:")
        lines.append("            value, mask = out.metadata_write")
        lines.append(
            "            pkt.metadata = (pkt.metadata & ~mask) | (value & mask)"
        )
    lines.append("        if verdict.dropped:")
    lines.append("            break")
    lines.append("        tid = out.goto")
    lines.append("        if tid is None:")
    lines.append("            break")
    lines.append("        if meter is not None:")
    lines.append(f"            meter.charge({lit('goto')})")
    if flags["write"]:
        lines.append("    if write_set is not None and not verdict.dropped:")
        lines.append("        did_work = True")
        lines.append(
            "        ordered = [a for a in write_set if not isinstance(a, _Output)]"
        )
        lines.append(
            "        ordered += [a for a in write_set if isinstance(a, _Output)]"
        )
        lines.append("        for action in ordered:")
        lines.append("            action.apply(view, verdict)")
        lines.append("            if verdict.reparse_needed:")
        lines.append("                view = _parse(pkt)")
        lines.append("                verdict.reparse_needed = False")
    lines.append("    if meter is not None:")
    lines.append("        if did_work:")
    lines.append(f"            meter.charge({lit('action_set')})")
    lines.append("        if verdict.forwarded:")
    lines.append(f"            meter.charge({lit('pkt_out')})")
    lines.append("    return verdict")
    return lines


def _emit_burst(lit: Callable[[str], str]) -> list[str]:
    """The burst loop around ``_run``, per-packet meter windows included.

    It returns ``(verdicts, resume)``: ``resume`` is -1 when the whole
    burst ran, else the index of the first packet not run — a truthy
    ``on_verdict`` means control work may have changed the datapath, and
    the caller finishes the burst on a linkage that reads it afresh.
    """
    return [
        "def _burst(pkts, meter, on_verdict):",
        "    if meter is None and on_verdict is None:",
        "        return [_run(pkt, None) for pkt in pkts], -1",
        "    verdicts = []",
        '    begin = getattr(meter, "begin_packet", None)',
        '    end = getattr(meter, "end_packet", None)',
        "    i = 0",
        "    n = len(pkts)",
        "    while i < n:",
        "        pkt = pkts[i]",
        "        if begin is not None:",
        "            begin()",
        "        if meter is not None:",
        f"            meter.charge({lit('per_pkt')})",
        "        verdict = _run(pkt, meter)",
        "        if end is not None:",
        "            end()",
        "        verdicts.append(verdict)",
        "        i += 1",
        "        if on_verdict is not None and on_verdict(pkt, verdict):",
        "            return verdicts, i",
        "    return verdicts, -1",
    ]


def _text(run: list[str], burst: list[str]) -> str:
    return "\n".join(run + [""] + burst) + "\n"


def _namespace(dp: "CompiledDatapath") -> dict:
    """The globals every linkage of the hop text reads."""
    return {
        "_parse": PARSERS[dp.parser_layer],
        "_Verdict": Verdict,
        "_PipelineError": PipelineError,
        "_Output": Output,
    }


_DYNAMIC = "_{}".format

#: the trampoline: the hop text with dispatch left dynamic and every
#: branch on. It names nothing a datapath fixes, so one text serves every
#: pipeline; :func:`trampoline_namespace` supplies what it reads.
TRAMPOLINE_TEXT = _text(
    _emit_run(
        _DYNAMIC_DISPATCH, _DYNAMIC, acyclic=False,
        flags={"write": True, "meta": True, "meter": True},
    ),
    _emit_burst(_DYNAMIC),
)


def trampoline_namespace(dp: "CompiledDatapath") -> dict:
    """The globals :data:`TRAMPOLINE_TEXT` runs over for ``dp``: its live
    table dict (installs and swaps land without a re-bind), its parser,
    and its :func:`_constants`."""
    namespace = _namespace(dp)
    namespace["_trampoline"] = dp.trampoline
    for name, value in _constants(dp).items():
        namespace[_DYNAMIC(name)] = value
    return namespace


def fuse_datapath(dp: "CompiledDatapath") -> FusedPipeline:
    """Stitch every linked table into one compiled driver object.

    Raises :class:`FuseError` when nothing is linked or the generated
    driver does not load; the caller falls back to the trampoline, which
    handles everything. The seconds spent add to ``dp.link_s``.
    """
    if not dp.trampoline:
        raise FuseError("nothing linked: trampoline is empty")
    namespace = _namespace(dp)
    begun = perf_counter()
    generation = dp.generation
    try:
        acyclic, flags = _pipeline_facts(dp)
        dispatch, inlined = _emit_dispatch(dp, namespace)
        constants = _constants(dp)

        def lit(name: str) -> str:
            return repr(constants[name])

        text = _text(_emit_run(dispatch, lit, acyclic, flags), _emit_burst(lit))
        keys = {
            tid * _TABLE_SLOTS + i: key
            for tid in inlined
            for i, key in enumerate(dp.trampoline[tid].slot_values)
        }
        templates.load(text, "fused").bind(namespace, keys)
    except Exception as exc:
        # An emitter bug producing unloadable driver source is a *fusion*
        # failure, not a datapath one: surface it as FuseError so every
        # caller takes the same trampoline-fallback path.
        raise FuseError(f"generated driver failed to load: {exc}") from exc
    finally:
        dp.link_s += perf_counter() - begun
    return FusedPipeline(
        generation=generation,
        text=text,
        keys=keys,
        namespace=namespace,
        table_ids=tuple(sorted(dp.trampoline)),
        inlined_ids=inlined,
        called_ids=tuple(tid for tid in sorted(dp.trampoline) if tid not in inlined),
        run=namespace["_run"],
        burst=namespace["_burst"],
    )
