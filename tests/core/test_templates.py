"""The template loader: patched ≡ freshly compiled, and sharing is safe.

A compiled table (and the fused driver) is a cached code object with the
table's keys patched into ``co_consts`` (:mod:`repro.core.templates`).
The proof obligation is the one a switch compiler owes its spec: the
specialised artefact is diffed against the reference artefact — here the
instruction stream a fresh ``compile()`` of the rendered ``.source``
yields — on every shape the use cases, the corpus and the fuzz generator
produce. The rest pins what a process-wide cache must not do: share
state, resurrect a failure, tear under threads, or change a result by
being warm, cold or evicted.
"""

import dis
import glob
import linecache
import multiprocessing
import os
import pickle
import sys
import threading
import traceback
from pathlib import Path

import pytest

from repro.core import CompileConfig, ESwitch, templates
from repro.core.analysis import TemplateKind
from repro.core.codegen import compile_table
from repro.fuzz.diff import _EswitchBackend
from repro.fuzz.gen import RUNGS, generate
from repro.fuzz.scenario import Scenario
from repro.openflow.actions import Output
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.flow_table import FlowTable
from repro.openflow.instructions import ApplyActions
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.openflow.pipeline import Pipeline
from repro.openflow.timeouts import ExpiryManager
from repro.packet import PacketBuilder
from repro.parallel import ShardedESwitch
from repro.simcpu.recorder import NULL_METER
from repro.usecases import acl, firewall, gateway, l2, l3, loadbalancer

CORPUS = sorted(glob.glob(str(Path(__file__).parents[1] / "fuzz_corpus" / "*.json")))

USECASES = {
    "acl37": lambda: acl.build(37),
    "acl101": lambda: acl.build(101),
    "acl369": lambda: acl.build(369),
    "firewall_single": firewall.build_single_stage,
    "firewall_multi": firewall.build_multi_stage,
    "gateway": lambda: gateway.build(n_ce=4, users_per_ce=3, n_prefixes=200)[0],
    "l2_16": lambda: l2.build(16)[0],
    "l2_1000": lambda: l2.build(1000)[0],
    "l3_100": lambda: l3.build(100)[0],
    "lb_single": lambda: loadbalancer.build_single_table(8),
    "lb_multi": lambda: loadbalancer.build_multi_stage(8),
}

CONFIGS = {
    "default": CompileConfig(),
    "keys_in_data": CompileConfig(keys_in_code=False),
}


def compile_calls() -> int:
    return templates.stats()["compile_calls"]


def texts_of(switch: ESwitch) -> set:
    """Every text a warm switch loaded: each table's and the driver's."""
    return ({ct.text for ct in switch.datapath.trampoline.values()}
            | {switch.datapath.fused.text})


# -- patched ≡ freshly compiled -------------------------------------------------


def stream(code) -> list:
    """``code``'s instructions with every operand resolved: constants by
    value (nested code objects by their own stream), names by name, jumps
    by the index of the instruction they land on. ``EXTENDED_ARG`` is
    encoding, not behaviour: a fresh compile dedupes equal keys into one
    constant, so its operand indices (and prefix bytes) differ."""
    real, index, start = [], {}, None
    for ins in dis.get_instructions(code):
        if start is None:
            start = ins.offset
        if ins.opname == "EXTENDED_ARG":
            continue
        index[start] = index[ins.offset] = len(real)
        real.append(ins)
        start = None
    jumps = set(dis.hasjrel) | set(dis.hasjabs)
    out = []
    for ins in real:
        if ins.opcode in jumps:
            arg = ("->", index[ins.argval])
        elif ins.opcode in dis.hasconst and hasattr(ins.argval, "co_code"):
            arg = stream(ins.argval)
        elif ins.opcode in dis.hasconst:
            arg = (type(ins.argval).__name__, ins.argval)
        else:
            arg = ins.argval
        out.append((ins.opname, arg))
    return out


def fresh_functions(source: str) -> dict:
    module = compile(source, "<fresh>", "exec")
    return {c.co_name: c for c in module.co_consts if hasattr(c, "co_code")}


def assert_patched_is_fresh(namespace: dict, source: str, where: str) -> None:
    for name, fresh in fresh_functions(source).items():
        patched = namespace[name].__code__
        assert stream(patched) == stream(fresh), f"{where}: {name}"


def assert_switch_patched_is_fresh(switch: ESwitch, where: str) -> None:
    switch.warm()
    for tid, compiled in switch.datapath.trampoline.items():
        assert_patched_is_fresh(
            compiled.namespace, compiled.source, f"{where}: table {tid}"
        )
        for fn in getattr(compiled, "ll_matchers", {}).values():
            assert_patched_is_fresh({"_sig": fn}, fn._source, f"{where}: sig")
    fused = switch.datapath.fused
    if fused is not None:
        assert_patched_is_fresh(fused.namespace, fused.source, f"{where}: fused")


def scenario_config(scenario: Scenario) -> CompileConfig:
    if scenario.direct_threshold is None:
        return CompileConfig()
    return CompileConfig(direct_threshold=scenario.direct_threshold)


class TestPatchedIsFreshlyCompiled:
    def test_the_normaliser_tells_streams_apart(self):
        a = fresh_functions("def f(x):\n    return x == 0x5\n")["f"]
        b = fresh_functions("def f(x):\n    return x == 0x6\n")["f"]
        assert stream(a) == stream(a) and stream(a) != stream(b)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("usecase", sorted(USECASES))
    def test_usecases(self, usecase, config):
        switch = ESwitch(USECASES[usecase](), CONFIGS[config])
        assert_switch_patched_is_fresh(switch, f"{usecase}/{config}")

    @pytest.mark.parametrize("path", CORPUS, ids=[Path(p).stem for p in CORPUS])
    def test_corpus(self, path):
        scenario = Scenario.load(path)
        switch = ESwitch(scenario.build_pipeline(), scenario_config(scenario))
        assert_switch_patched_is_fresh(switch, Path(path).stem)

    @pytest.mark.parametrize("rung", RUNGS)
    def test_fuzz_seeds_pinned_to_each_rung(self, rung):
        for seed in range(100):
            scenario = generate(seed, force_rungs=(rung,))
            switch = ESwitch(scenario.build_pipeline(), scenario_config(scenario))
            assert_switch_patched_is_fresh(switch, f"seed {seed} on {rung}")

    def test_duplicate_keys_take_one_slot_each(self):
        # A fresh compile folds the two 80s into one constant; the patch
        # keeps a slot per key, and the streams still agree.
        table = FlowTable(0)
        table.add(FlowEntry(Match(tcp_dst=80), priority=2, actions=[Output(1)]))
        table.add(FlowEntry(Match(tcp_src=80), priority=1, actions=[Output(2)]))
        compiled = compile_table(table)
        assert compiled.kind is TemplateKind.DIRECT and compiled.keys == (80, 80)
        assert "0x50" in compiled.source and "0x1" + "0" * 40 in compiled.text
        assert_patched_is_fresh(compiled.namespace, compiled.source, "duplicates")
        # ... with the keys as operands of the instruction stream, not data.
        loads = [op for op in stream(compiled.fn.__code__) if op[0] == "LOAD_CONST"]
        assert loads.count(("LOAD_CONST", ("int", 80))) == 2

    def test_rules_behind_a_catch_all_are_dropped_alike(self):
        # The compiler removes code after an unconditional return: the
        # slots there have nowhere to land, patched or fresh.
        table = FlowTable(0)
        table.add(FlowEntry(Match(), priority=5, actions=[Output(1)]))
        table.add(FlowEntry(Match(tcp_dst=80), priority=1, actions=[Output(2)]))
        compiled = compile_table(table, kind=TemplateKind.DIRECT)
        assert_patched_is_fresh(compiled.namespace, compiled.source, "dead rule")


# -- sharing -------------------------------------------------------------------


def mac_pkt(mac, in_port=1):
    return PacketBuilder(in_port=in_port).eth(dst=mac).ipv4().udp().build()


def port_table(ports):
    table = FlowTable(0)
    for i, port in enumerate(ports):
        table.add(FlowEntry(Match(in_port=port), priority=9 - i,
                            actions=[Output(10 + port)]))
    return table


class TestSharing:
    def test_hash_and_lpm_share_the_code_object_itself(self):
        a, b = ESwitch(l2.build(16, seed=1)[0]), ESwitch(l2.build(16, seed=2)[0])
        ta, tb = a.compiled_table(0), b.compiled_table(0)
        assert ta.kind is TemplateKind.HASH
        assert ta.fn.__code__ is tb.fn.__code__ and ta.fn is not tb.fn
        assert ta.namespace is not tb.namespace
        assert ta.hash_store is not tb.hash_store
        la = ESwitch(l3.build(40, seed=1)[0]).compiled_table(0)
        lb = ESwitch(l3.build(40, seed=2)[0]).compiled_table(0)
        assert la.kind is TemplateKind.LPM and la.fn.__code__ is lb.fn.__code__
        assert la.lpm_store is not lb.lpm_store and la._out is not lb._out
        # Two switches share code, never a rule. Only the process-wide miss
        # rule is in both, like the miss template: l2 has no catch-all, and
        # l3's catch-all is each table's own rule.
        assert ta.miss is tb.miss
        assert set(map(id, ta.rules()[1:])).isdisjoint(map(id, tb.rules()[1:]))
        assert set(map(id, la.rules())).isdisjoint(map(id, lb.rules()))

    def test_direct_tables_share_the_template_not_the_keys(self):
        a, b = compile_table(port_table([1, 2])), compile_table(port_table([3, 4]))
        assert a.text == b.text and a.keys == (1, 2) and b.keys == (3, 4)
        assert templates.load(a.text, "direct") is templates.load(b.text, "direct")
        assert a.fn.__code__ is not b.fn.__code__
        assert a.fn.__code__.co_code == b.fn.__code__.co_code
        assert a.source != b.source and "== 0x3" in b.source
        assert a.miss is b.miss  # the process-wide miss rule, by design
        assert set(map(id, a.rules()[1:])).isdisjoint(map(id, b.rules()[1:]))

    def test_two_tables_of_one_shape_in_one_pipeline_compile_once(self):
        templates.clear()
        tables = [port_table([1, 2]), port_table([3, 4])]
        tables[1].table_id = 1
        before = compile_calls()
        switch = ESwitch(Pipeline(tables), CompileConfig(fuse=False))
        assert switch.table_kinds() == {0: "direct", 1: "direct"}
        assert compile_calls() == before + 1

    def test_a_mod_on_one_switch_leaves_the_other_untouched(self):
        a, b = ESwitch(Pipeline([port_table([1, 2])])), ESwitch(
            Pipeline([port_table([1, 2])]))
        assert a.warm() and b.warm()
        assert a.datapath.fused.text == b.datapath.fused.text
        assert a.datapath.fused.namespace is not b.datapath.fused.namespace
        pkt = mac_pkt(0x0200_0000_0001, in_port=2)
        assert b.process(pkt.copy()).output_ports == [12]
        counters = [e.packets for e in b.pipeline.table(0).entries]
        generation = b.datapath.generation
        reply = a.submit_flow_mods([
            FlowMod(FlowModCommand.DELETE, 0, Match(in_port=2), priority=8,
                    strict=True),
            FlowMod(FlowModCommand.ADD, 0, Match(in_port=5), priority=8,
                    instructions=(ApplyActions([Output(99)]),)),
        ])
        assert reply.accepted
        assert a.process(mac_pkt(1, in_port=5)).output_ports == [99]
        assert a.process(pkt.copy()).output_ports == []
        assert b.datapath.generation == generation
        assert [e.packets for e in b.pipeline.table(0).entries] == counters
        assert b.process(pkt.copy()).output_ports == [12]
        assert b.process(mac_pkt(1, in_port=5)).output_ports == []


# -- zero compiles where the paper has none -----------------------------------


def small_gateway():
    return gateway.build(n_ce=3, users_per_ce=2, n_prefixes=50)[0]


def rekey_table0(switch, new_port):
    """Strict DELETE + ADD of table 0's network-port rule under a new
    ``in_port``: the table's shape returns to what it was, one key moved."""
    old = next(e for e in switch.pipeline.table(0).entries
               if e.match.fields == ("in_port",) and e.priority == 10)
    return switch.submit_flow_mods([
        FlowMod(FlowModCommand.DELETE, 0, old.match, priority=10, strict=True),
        FlowMod(FlowModCommand.ADD, 0, Match(in_port=new_port), priority=10,
                instructions=tuple(old.instructions)),
    ])


class TestZeroCompiles:
    def test_second_build_and_key_only_rebuild_and_refuse(self):
        templates.clear()
        first = ESwitch(small_gateway())
        assert first.warm() and rekey_table0(first, 7).accepted and first.warm()
        cold = compile_calls()

        second = ESwitch(small_gateway())
        assert second.warm()
        assert compile_calls() == cold  # every shape seen: hits and patches
        assert second.table_kinds()[0] == "direct"
        patches = templates.stats()["patches"]
        generation = second.datapath.generation
        assert rekey_table0(second, 9).accepted
        assert compile_calls() == cold  # the direct rebuilds were patches
        assert second.datapath.generation > generation
        assert second.warm()
        assert compile_calls() == cold  # and so was the re-fuse
        assert templates.stats()["patches"] >= patches + 3
        assert "== 0x9" in second.compiled_sources()[0]
        # The driver calls table 0: the re-link rebound its name.
        rebuilt = second.compiled_table(0)
        assert second.datapath.fused.namespace["_t0_fn"] is rebuilt.fn

    def test_a_new_direct_shape_compiles_once_per_new_text(self):
        templates.clear()
        switch = ESwitch(Pipeline([port_table([1, 2])]))
        assert switch.warm()
        before = compile_calls()
        add = FlowMod(FlowModCommand.ADD, 0, Match(in_port=3), priority=1,
                      instructions=(ApplyActions([Output(13)]),))
        assert switch.submit_flow_mods([add]).accepted and switch.warm()
        # The table's one text; the driver calls the table, so its text
        # is one the cache has seen.
        assert compile_calls() == before + 1
        assert templates.stats()["compiles_by_label"]["direct"] >= 1

    def test_tenant_arrivals_relink_and_never_recompile_the_driver(self):
        """Users 1–4 arrive on one CE: its table and the reverse-NAT
        table are direct code going 0 → 4 entries. The driver calls them,
        so its text never changes and compiles once; the same arrivals on
        another switch compile nothing at all."""

        def arrivals():
            switch = ESwitch(gateway.build(n_ce=2, users_per_ce=4, n_prefixes=50,
                                           provision_users=False)[0])
            assert switch.warm()
            texts = [switch.datapath.fused.text]
            for user in range(4):
                mods = gateway.nat_flow_mods(ce=0, user=user)
                assert switch.submit_flow_mods(mods).accepted and switch.warm()
                texts.append(switch.datapath.fused.text)
            return switch, texts

        def fused_compiles():
            return templates.stats()["compiles_by_label"].get("fused", 0)

        templates.clear()
        before = fused_compiles()
        first, texts = arrivals()
        assert len(set(texts)) == 1 and fused_compiles() == before + 1
        tables = (gateway.CE_TABLE_BASE, gateway.REVERSE_TABLE)
        assert [len(first.pipeline.table(tid)) for tid in tables] == [4, 4]
        assert all(first.table_kinds()[tid] == "direct" for tid in tables)
        assert set(tables) <= set(first.datapath.fused.called_ids)
        cold = compile_calls()
        second, again = arrivals()
        assert compile_calls() == cold
        assert again == texts

    def test_thread_replicas_stand_up_after_the_shadow_without_compiling(self):
        templates.clear()
        before = compile_calls()
        with ShardedESwitch(small_gateway(), workers=2, backend="thread") as engine:
            assert compile_calls() == before + len(texts_of(engine.shadow))
            probe = [mac_pkt(0x0200_0000_0001) for _ in range(8)]
            assert len(engine.process_burst(probe)) == 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_replica_inherits_every_template(self):
        blob = pickle.dumps(small_gateway())
        shadow = ESwitch(pickle.loads(blob))
        assert shadow.warm()
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe(duplex=False)

        def replica():  # what parallel.worker.shard_worker_main stands up
            before = compile_calls()
            switch = ESwitch(pickle.loads(blob))
            theirs.send((switch.warm(), compile_calls() - before))

        child = ctx.Process(target=replica, daemon=True)
        child.start()
        assert ours.poll(30), "the forked replica never answered"
        assert ours.recv() == (True, 0)
        child.join(10)
        assert not child.is_alive()


# -- cold ≡ warm ≡ evicted -----------------------------------------------------


def replay(scenario: Scenario):
    """The fused backend's whole observable run of ``scenario``."""
    backend = _EswitchBackend("fused", scenario, scenario_config(scenario))
    expiry, verdicts = None, []
    for event in scenario.events:
        if "burst" in event:
            verdicts.append(backend.burst(scenario.build_packets(event["burst"]))[0])
        elif "tick" in event:
            expiry = expiry or ExpiryManager(backend.switch)
            expiry.tick(float(event["tick"]))
        else:
            backend.switch.submit_flow_mods(
                scenario.build_mods(event["mods"], backend.pipeline))
    switch = backend.switch
    switch.warm()
    fused = switch.datapath.fused
    return (switch.compiled_sources(), fused.source if fused else None,
            verdicts, backend.cycles)


class TestColdIsWarm:
    def test_corpus_replays_alike_cold_and_warm_in_any_order(self):
        scenarios = [Scenario.load(path) for path in CORPUS]
        cold = []
        for scenario in scenarios:
            templates.clear()
            cold.append(replay(scenario))
        hits = templates.stats()["template_hits"]
        templates.clear()
        for scenario in scenarios:  # fills the cache in corpus order
            replay(scenario)
        warm = [replay(scenario) for scenario in reversed(scenarios)][::-1]
        assert templates.stats()["template_hits"] > hits
        assert warm == cold

    def test_an_evicted_shape_rebuilds_to_the_same_result(self, monkeypatch):
        templates.clear()
        first = compile_table(port_table([1, 2]))
        filename = templates.load(first.text, "direct").filename
        assert linecache.getline(filename, 1).startswith("def _match(")
        monkeypatch.setattr(templates, "MAX_BYTES", 4096)
        for n in range(3, 12):  # each a new shape, each bigger than the last
            compile_table(port_table(range(1, n)), kind=TemplateKind.DIRECT)
        stats = templates.stats()
        assert stats["bytes"] <= 4096 or stats["templates"] == 1
        assert filename not in linecache.cache  # dropped with its template
        before = compile_calls()
        again = compile_table(port_table([1, 2]))
        assert compile_calls() == before + 1
        assert again.source == first.source
        assert stream(again.fn.__code__) == stream(first.fn.__code__)
        pkt = mac_pkt(1, in_port=2)
        args = (pkt.data, pkt, 14, 34, 0, 0x0800, 17, NULL_METER)
        hit, was = again.fn(*args), first.fn(*args)
        assert hit.priority == was.priority
        assert hit.instructions.apply_actions == was.instructions.apply_actions


class TestConcurrentLoads:
    def test_racing_builds_load_each_shape_once_or_twice_never_torn(self):
        templates.clear()
        before = compile_calls()
        built, errors = [], []

        def build():
            try:
                switch = ESwitch(small_gateway())
                assert switch.warm()
                built.append(switch)
            except BaseException as exc:  # surfaced below, on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(built) == 4
        assert all(not thread.is_alive() for thread in threads)
        shapes = texts_of(built[0])
        loaded = compile_calls() - before
        assert len(shapes) <= loaded <= 4 * len(shapes)
        stats = templates.stats()
        assert stats["templates"] == len(shapes)  # one resident entry a shape
        sources = {sw.datapath.fused.source for sw in built}
        assert len(sources) == 1
        pkt = PacketBuilder(in_port=1).eth().ipv4(dst="10.0.0.9").udp().build()
        verdicts = {str(sw.process(pkt.copy()).summary()) for sw in built}
        assert len(verdicts) == 1


# -- observability -------------------------------------------------------------


class TestObservability:
    def test_health_and_footprint_carry_the_shared_row(self):
        switch = ESwitch(small_gateway())
        total = switch.footprint()["total_bytes"]
        assert switch.health().link_s == 0.0
        assert switch.warm()
        health = switch.health()
        assert health.link_s > 0.0
        shared = health.templates
        assert shared == templates.stats()
        assert shared["compile_calls"] >= 1 and shared["compile_s"] > 0.0
        assert {"template_hits", "patches", "templates", "bytes"} <= set(shared)
        row = health.as_dict()["templates"]
        assert row["shared"] is True and row["templates"] == shared["templates"]
        footprint = switch.footprint()
        assert footprint["templates"] == {
            "shared": True, "resident": shared["templates"], "bytes": shared["bytes"],
        }
        assert footprint["total_bytes"] == total  # shared bytes are nobody's

    def test_a_traceback_through_generated_code_prints_the_line(self):
        compiled = compile_table(port_table([1, 2]))
        try:
            compiled.fn(b"", None, 0, 0, 0, 0, 0, NULL_METER)  # no pkt.in_port
        except AttributeError:
            text = traceback.format_exc()
        filename = compiled.fn.__code__.co_filename
        assert filename.startswith("eswitch:direct:") and filename in text
        assert "if (pkt.in_port) ==" in text
