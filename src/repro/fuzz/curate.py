"""Corpus curation: pick seeds that pin every template rung and
degradation state, verify them against the full backend matrix, and
write every non-regression file of ``tests/fuzz_corpus/``.

Run as ``python -m repro.fuzz.curate [corpus_dir]``. Curation is
deterministic — it scans seeds upward from zero and takes the first
clean scenario satisfying each slot's requirement, a predicate on the
finished scenario — so re-running it on an unchanged tree rewrites the
corpus byte for byte (a tier-1 test holds it to that). Scenarios that
encode *fixed bugs* (``regression-*.json``) are not rebuilt here: they
were minimized against the pre-fix tree and are pinned by hand, with
provenance in their ``note`` field.
"""

from __future__ import annotations

import sys

from repro.core.analysis import TemplateKind
from repro.core.eswitch import ESwitch
from repro.fuzz.diff import run_scenario
from repro.fuzz.gen import (
    RUNGS, GenerationError, generate, generate_churn, generate_fabric_outage,
)
from repro.fuzz.scenario import Scenario

_KIND_OF = {
    "direct": TemplateKind.DIRECT,
    "hash": TemplateKind.HASH,
    "lpm": TemplateKind.LPM,
    "linked_list": TemplateKind.LINKED_LIST,
}


def _warm_switch(scenario: Scenario) -> ESwitch:
    switch = ESwitch(scenario.build_pipeline())
    switch.warm()
    return switch


def _rung_hit(scenario: Scenario, rung: str) -> bool:
    switch = _warm_switch(scenario)
    if rung == "decompose":
        # Decomposition compiles *into* dispatch+leaf tables; success
        # shows up as extra compiled tables, all non-linked-list.
        return len(switch.datapath.trampoline) > len(switch.pipeline.tables)
    return _KIND_OF[rung] in {c.kind for c in switch.datapath.trampoline.values()}


def _prunes_rules(scenario: Scenario) -> bool:
    """Every table decomposes, each around rules set pruning found dead."""
    switch = _warm_switch(scenario)
    return all(
        group.decomposed and group.live_rules < len(switch.pipeline.table(tid))
        for tid, group in switch._groups.items()
    )


def _undegraded(s: Scenario) -> bool:
    return not (s.quarantine or s.degrade_fuse)


def _quiet(s: Scenario) -> bool:
    """Undegraded, and no meter that fires: a slot about something else
    keeps these out of the way."""
    return _undegraded(s) and not s.tight_meter


def _find(requirement, make=generate, *, max_seed: int = 2000, **kwargs) -> Scenario:
    """First seed whose clean-running ``make(seed, **kwargs)`` satisfies
    ``requirement``."""
    for seed in range(max_seed):
        try:
            scenario = make(seed, **kwargs)
        except GenerationError:
            continue
        try:
            if not requirement(scenario):
                continue
        except Exception:
            continue
        if not run_scenario(scenario):
            return scenario
    raise SystemExit(f"no clean seed < {max_seed} satisfies {requirement}")


def curate(corpus_dir: str) -> list[str]:
    import os

    os.makedirs(corpus_dir, exist_ok=True)
    written = []

    def save(name: str, scenario: Scenario, note: "str | None" = None) -> None:
        """Write ``name``.json; ``note=None`` keeps a preset's own name and
        note."""
        if note is not None:
            scenario.name, scenario.note = name, note
        path = os.path.join(corpus_dir, f"{name}.json")
        scenario.save(path)
        written.append(path)
        print(f"  {name}: seed {scenario.seed}, {scenario.total_packets()} pkts")

    for rung in RUNGS:
        save(f"rung-{rung}",
             _find(lambda s, r=rung: _quiet(s) and _rung_hit(s, r),
                   force_rungs=(rung,), max_tables=2),
             f"every table targets the {rung} template rung")
    save("state-degrade-fuse", _find(lambda s: s.degrade_fuse and not s.quarantine),
         "fusion forced to fail: fused backend runs on the trampoline")
    save("state-quarantine", _find(lambda s: s.quarantine and not s.degrade_fuse),
         "quarantined tables compile to the universal linked list")
    save("traffic-flow-mod-churn",
         _find(lambda s: _undegraded(s) and sum("mods" in e for e in s.events) >= 2),
         "mid-stream flow-mod batches between bursts, rejections included")
    save("traffic-tight-meter", _find(lambda s: _undegraded(s) and s.tight_meter),
         "meters tight enough to fire (sharded@4 excluded by design)")
    save("traffic-decompose-shadowed",
         _find(lambda s: _quiet(s) and _prunes_rules(s),
               force_rungs=("decompose", "decompose")),
         "two decomposed tables, each holding rules an earlier rule shadows")
    save("traffic-malformed",
         _find(lambda s: _quiet(s) and any(
             len(bytes.fromhex(p["data"])) < 34
             for e in s.events for p in e.get("burst", ()))),
         "burst includes truncated/garbage frames")
    save("traffic-churn-expiry", _find(lambda s: True, generate_churn, max_seed=64),
         "churn wall: a strict-delete storm crosses the tombstone "
         "compaction threshold, expiry-clock ticks drive every "
         "backend's ExpiryManager (idle, hard, and refresh paths), "
         "and no-op re-deletes of expired rules bump nothing")
    save("traffic-fabric-outage",
         _find(lambda s: True, generate_fabric_outage, max_seed=64))
    return written


if __name__ == "__main__":
    corpus = sys.argv[1] if len(sys.argv) > 1 else "tests/fuzz_corpus"
    files = curate(corpus)
    print(f"wrote {len(files)} scenarios to {corpus}")
