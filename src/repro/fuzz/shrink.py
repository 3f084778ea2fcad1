"""Greedy scenario minimization: from a fuzz failure to a corpus seed.

Delta-debugs a failing scenario document down to (near-)minimal form:
drop events, packets, mods, tables, entries, groups, meters; strip match
fields and instruction decorations; clear degradation flags. A candidate
is kept whenever the differential oracle still reports *any* divergence
— pinning the first-found defect precisely is less valuable than a
small, stable reproducer, and the corpus test replays the minimized
document against the full oracle anyway.

Everything is plain ``dict``/``list`` surgery on the JSON form, so the
shrinker composes with any predicate (tests inject synthetic ones).
"""

from __future__ import annotations

import copy
import json


def _without_index(seq: list, i: int) -> list:
    return seq[:i] + seq[i + 1:]


def _candidates(obj: dict):
    """Yield reduced copies of ``obj``, most aggressive first."""
    events = obj.get("events", [])

    # 1. Whole events.
    for i in range(len(events) - 1, -1, -1):
        new = copy.deepcopy(obj)
        new["events"] = _without_index(events, i)
        yield new

    # 2. Packets within bursts, mods within batches.
    for ei, event in enumerate(events):
        key = "burst" if "burst" in event else "mods"
        items = event.get(key, ())  # a tick has none
        for i in range(len(items) - 1, -1, -1):
            if len(items) == 1:
                break  # dropping the last item == dropping the event (pass 1)
            new = copy.deepcopy(obj)
            new["events"][ei][key] = _without_index(items, i)
            yield new

    # 3. Tables (highest id first: later tables are goto leaves).
    tables = obj.get("pipeline", {}).get("tables", [])
    if len(tables) > 1:
        for i in range(len(tables) - 1, -1, -1):
            new = copy.deepcopy(obj)
            new["pipeline"]["tables"] = _without_index(tables, i)
            yield new

    # 4. Entries.
    for ti, table in enumerate(tables):
        entries = table.get("entries", [])
        for i in range(len(entries) - 1, -1, -1):
            new = copy.deepcopy(obj)
            new["pipeline"]["tables"][ti]["entries"] = _without_index(entries, i)
            yield new

    # 5. Groups and meters.
    for key in ("groups", "meters"):
        items = obj.get("pipeline", {}).get(key, [])
        for i in range(len(items) - 1, -1, -1):
            new = copy.deepcopy(obj)
            new["pipeline"][key] = _without_index(items, i)
            if not new["pipeline"][key]:
                del new["pipeline"][key]
            yield new

    # 6. Entry simplifications: drop match fields and decorations.
    for ti, table in enumerate(tables):
        for ei, entry in enumerate(table.get("entries", [])):
            for name in sorted(entry.get("match", {})):
                new = copy.deepcopy(obj)
                del new["pipeline"]["tables"][ti]["entries"][ei]["match"][name]
                yield new
            for key in ("write", "clear", "metadata", "goto", "meter"):
                if key in entry:
                    new = copy.deepcopy(obj)
                    del new["pipeline"]["tables"][ti]["entries"][ei][key]
                    yield new
            if entry.get("apply") not in (None, [{"output": 1}]):
                new = copy.deepcopy(obj)
                new["pipeline"]["tables"][ti]["entries"][ei]["apply"] = [
                    {"output": 1}
                ]
                yield new

    # 7. Degradation flags and scenario metadata.
    for key in ("quarantine", "degrade_fuse", "tight_meter", "note"):
        if obj.get(key):
            new = copy.deepcopy(obj)
            del new[key]
            yield new


def minimize(obj: dict, predicate, budget: int = 600) -> dict:
    """Smallest found document for which ``predicate`` still holds.

    ``predicate`` takes a scenario document and returns truthiness
    (normally :func:`repro.fuzz.diff.diverges`); ``budget`` caps total
    predicate evaluations. The input must itself satisfy the predicate.
    """
    if not predicate(obj):
        raise ValueError("minimize() needs a failing scenario to start from")
    current = copy.deepcopy(obj)
    spent = 0
    progress = True
    while progress and spent < budget:
        progress = False
        for candidate in _candidates(current):
            if spent >= budget:
                break
            spent += 1
            if predicate(candidate):
                current = candidate
                progress = True
                break  # restart the pass ladder from the smaller document
    return current


def size_of(obj: dict) -> int:
    """Rough document weight, for progress reporting."""
    return len(json.dumps(obj))
