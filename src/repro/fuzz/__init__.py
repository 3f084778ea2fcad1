"""Differential compiler fuzzing for the ESWITCH backend matrix.

The subsystem's main parts, one module each:

* :mod:`repro.fuzz.gen` — seeded random pipelines (one template rung per
  table) and boundary-biased traffic/flow-mod schedules, plus three
  structured presets (large, churn, fabric outage);
* :mod:`repro.fuzz.scenario` — the JSON-round-trippable test-case
  container pinned in ``tests/fuzz_corpus/``;
* :mod:`repro.fuzz.diff` — the differential oracle over the backend
  matrix (listed there);
* :mod:`repro.fuzz.shrink` — greedy minimization of failures into
  corpus seeds;
* :mod:`repro.fuzz.outage` — the session-layer parity harness: a
  disconnect-reconnect run must converge to the never-disconnected
  run's verdicts after resync.

Entry points: ``repro fuzz`` (CLI) and ``tests/test_differential_fuzz.py``.
"""

from repro.fuzz.diff import DEFAULT_WORKERS, Divergence, diverges, run_scenario
from repro.fuzz.gen import (
    GenerationError,
    RUNGS,
    generate,
    generate_churn,
    generate_fabric_outage,
    generate_large,
)
from repro.fuzz.outage import run_outage_parity
from repro.fuzz.scenario import Scenario, packet_to_obj
from repro.fuzz.shrink import minimize

__all__ = [
    "DEFAULT_WORKERS",
    "Divergence",
    "GenerationError",
    "RUNGS",
    "Scenario",
    "diverges",
    "generate",
    "generate_churn",
    "generate_fabric_outage",
    "generate_large",
    "minimize",
    "packet_to_obj",
    "run_outage_parity",
    "run_scenario",
]
