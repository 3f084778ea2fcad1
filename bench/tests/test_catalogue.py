"""BENCHMARK.json is the catalogue in the acceptance driver's shape."""

import json
import re
from pathlib import Path

import metrics
import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_keys_command_and_paths():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == run.RUN_SECONDS
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_matches_and_is_bounded():
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.driver_end_to_end()]
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_per_layer_matches():
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.driver_per_layer()]
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_names_and_units_are_within_the_drivers_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_scoped_metrics_name_real_workloads():
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        assert set(m.workloads) <= set(WORKLOADS), m.name
        assert set(m.demoted) <= set(WORKLOADS), m.name
    assert [m.name for m in metrics.driver_end_to_end()] == list(
        metrics.DRIVER_END_TO_END)
    for m in metrics.driver_end_to_end():
        assert not m.workloads and not m.demoted and m.bound
