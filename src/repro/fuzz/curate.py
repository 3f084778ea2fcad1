"""Corpus curation: pick seeds that pin every template rung and
degradation state, verify them against the full backend matrix, and
write them to ``tests/fuzz_corpus/``.

Run as ``python -m repro.fuzz.curate [corpus_dir]``. Curation is
deterministic — it scans seeds upward from zero and takes the first
scenario satisfying each slot's requirement — so re-running it after a
generator change rebuilds an equivalent corpus rather than a drifted
one. Scenarios that encode *fixed bugs* (``regression-*.json``) are not
rebuilt here: they were minimized against the pre-fix tree and are
pinned by hand, with provenance in their ``note`` field.
"""

from __future__ import annotations

import sys

from repro.core.analysis import TemplateKind
from repro.core.eswitch import ESwitch
from repro.fuzz.diff import run_scenario
from repro.fuzz.gen import RUNGS, GenerationError, generate, generate_churn
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


def _find(requirement, *, max_seed: int = 2000, **gen_kwargs) -> Scenario:
    """First seed whose clean-running scenario satisfies ``requirement``."""
    for seed in range(max_seed):
        try:
            scenario = generate(seed, **gen_kwargs)
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

    def save(name: str, scenario: Scenario, note: str) -> None:
        scenario.name = name
        scenario.note = note
        path = os.path.join(corpus_dir, f"{name}.json")
        scenario.save(path)
        written.append(path)
        print(f"  {name}: seed {scenario.seed}, {scenario.total_packets()} pkts")

    quiet = dict(
        allow_quarantine=False, allow_degrade=False, allow_tight_meter=False
    )
    for rung in RUNGS:
        save(
            f"rung-{rung}",
            _find(lambda s, r=rung: _rung_hit(s, r),
                  force_rungs=(rung,), max_tables=2, **quiet),
            f"every table targets the {rung} template rung",
        )

    save(
        "state-degrade-fuse",
        _find(lambda s: s.degrade_fuse, allow_quarantine=False),
        "fusion forced to fail: fused backend runs on the trampoline",
    )
    save(
        "state-quarantine",
        _find(lambda s: s.quarantine, allow_degrade=False),
        "quarantined tables compile to the universal linked list",
    )
    save(
        "traffic-flow-mod-churn",
        _find(
            lambda s: sum(1 for e in s.events if "mods" in e) >= 2,
            allow_quarantine=False, allow_degrade=False,
        ),
        "mid-stream flow-mod batches between bursts, rejections included",
    )
    save(
        "traffic-tight-meter",
        _find(lambda s: s.tight_meter, allow_quarantine=False,
              allow_degrade=False),
        "meters tight enough to fire (sharded@4 excluded by design)",
    )
    save(
        "traffic-decompose-shadowed",
        _find(_prunes_rules, force_rungs=("decompose", "decompose"), **quiet),
        "two decomposed tables, each holding rules an earlier rule shadows",
    )
    save(
        "traffic-malformed",
        _find(
            lambda s: any(
                len(bytes.fromhex(p["data"])) < 34
                for e in s.events for p in e.get("burst", ())
            ),
            **quiet,
        ),
        "burst includes truncated/garbage frames",
    )
    for seed in range(64):
        scenario = generate_churn(seed)
        if not run_scenario(scenario):
            save(
                "traffic-churn-expiry",
                scenario,
                "churn wall: a strict-delete storm crosses the tombstone "
                "compaction threshold, expiry-clock ticks drive every "
                "backend's ExpiryManager (idle, hard, and refresh paths), "
                "and no-op re-deletes of expired rules bump nothing",
            )
            break
    else:
        raise SystemExit("no clean churn seed < 64")
    return written


if __name__ == "__main__":
    corpus = sys.argv[1] if len(sys.argv) > 1 else "tests/fuzz_corpus"
    files = curate(corpus)
    print(f"wrote {len(files)} scenarios to {corpus}")
