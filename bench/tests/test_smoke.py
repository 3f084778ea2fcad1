"""Every workload end to end at 1/50 work: plumbing, not measurement."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parents[1] / "run.py"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_applicable_metric(name, tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--smoke",
         "--seconds", "1", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["smoke"] is True
    assert doc["meta"]["cpu_count"] >= 1 and "noisy" in doc["meta"]
    result = doc["workloads"][name]
    assert result["failed"] == 0, result["failures"]

    end_to_end = result["end_to_end"]
    assert end_to_end["failed_share"]["value"] == 0
    reported = {**result["per_layer"], **end_to_end}
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        if metric.applies(name):
            assert metric.name in reported, metric.name
            assert reported[metric.name]["unit"] == metric.unit, metric.name
        else:
            assert metric.name not in reported, metric.name

    # The driver's line: every per-layer name, 0 where not exercised.
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == [
        m.name for m in metrics.driver_per_layer()]
    for metric in metrics.driver_per_layer():
        entry = line["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        if not metric.applies(name):
            assert entry["value"] == 0.0
    assert (RUN.parent / "out" / f"trace_{name}.json").exists()
