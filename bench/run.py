#!/usr/bin/env python3
"""One ruler: end-to-end and per-layer benchmark over five named workloads.

    python bench/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                        [--seconds S] [--smoke] [--out FILE]

Without ``--workload`` every workload runs, each in its own fresh
interpreter, one after the other. Each run builds its inputs from the
seed, checks every output against the reference interpreter, measures,
and prints every metric by name with its unit. ``--trace`` adds a second,
separate traced run that yields the per-layer numbers and writes the
spans to ``bench/out/trace_<workload>.json``.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the bounded
end-to-end metrics untraced, every per-layer metric traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"bench: the program under test is missing ({SRC}/repro)")
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # String hashing is randomised per process, and with it the layout of
    # every dict the interpreter builds: acl_369 serves 85k or 110k pkt/s
    # depending on the draw. One fixed layout makes runs comparable.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})
sys.path.insert(0, str(SRC))

import harness  # noqa: E402  (needs src/ on the path)
import layers  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = BENCH / "out"
#: measuring time the frozen window sizes add up to on the seed commit;
#: BENCHMARK.json's ``run_seconds``. ``--seconds S`` runs S/10 of each.
RUN_SECONDS = 10
SMOKE_SCALE = 50


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _meta(seed: int, seconds: float, load_start: tuple) -> dict:
    load_end = os.getloadavg()
    cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "noisy": max(load_start[0], load_end[0]) > cpus,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()} ({platform.python_compiler()})",
        "git_commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One workload, in this process; returns its result document."""
    workload = WORKLOADS[name]
    scale = SMOKE_SCALE if smoke else 1
    windows = harness.TRACED_WINDOWS if trace else workload.windows
    bench = harness.make_bench(workload, seed, scale,
                               seconds / RUN_SECONDS / scale)
    bench.set_up(keep_spare=trace)
    bench.verify()
    harness.settle_gc()

    bench.warm_up()
    untraced = bench.null_leg(windows)
    end_to_end = harness.leg_metrics(untraced)

    cycle = None
    if workload.cycle_window:
        cycle_windows, meters = bench.cycle_leg()
        cycle = ({
            "cycle_wall_pps": stats.summarize(
                [w.pps() for w in cycle_windows], "pkt/s"),
            "modeled_cycles_per_pkt": stats.exact(
                meters[0].mean_cycles_per_packet, "cycles"),
        }, meters)
        end_to_end.update(cycle[0])
    end_to_end["peak_rss_mb"] = stats.exact(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    per_layer = None
    if trace:
        tracer = Tracer()
        bench.attach(tracer)
        traced = bench.null_leg(windows)
        bench.detach()
        per_layer = layers.Ledger(
            bench, end_to_end, untraced, traced, cycle, tracer).collect()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace_{name}.json")

    # The fabric stands one up per window, so its builds end with the legs.
    end_to_end["setup_s"] = stats.summarize(bench.setup_samples, "s")
    checks = bench.checks
    end_to_end["failed_share"] = stats.exact(
        checks.failed / checks.attempted, "ratio")
    ordered = {m.name: end_to_end[m.name] for m in metrics.END_TO_END
               if m.name in end_to_end}
    return {
        "why": workload.why,
        "seed": seed,
        "facts": bench.inputs.facts,
        "windows": len(untraced),
        "clock_factor": stats.summarize([w.factor for w in untraced], "ratio"),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.notes,
        "end_to_end": ordered,
        "per_layer": per_layer,
    }


# -- output ------------------------------------------------------------------


def _row(name: str, m: dict) -> str:
    extra = ""
    if m["n"] > 1:
        extra = f"  [q1 {m['q1']:.6g} .. q3 {m['q3']:.6g}, n={m['n']}]"
    if "percentile" in m and m["percentile"] not in (50.0, 90.0, 99.0):
        extra += f"  (p{m['percentile']:.1f}: the sample supports no higher)"
    return f"  {name:<42} {m['value']:>14.6g} {m['unit']:<10}{extra}"


def print_result(name: str, result: dict) -> None:
    print(f"== {name}  seed={result['seed']}  closed loop, 1 client, "
          f"burst 32, {result['windows']} windows  {result['facts']}")
    print("end-to-end (untraced run)")
    for metric, value in result["end_to_end"].items():
        print(_row(metric, value))
    if result["per_layer"] is not None:
        print("per-layer (traced run and isolated calls)")
        for metric, value in result["per_layer"].items():
            print(_row(metric, value))
    print(f"  checked operations: {result['attempted']}, "
          f"failed: {result['failed']}")
    for note in result["failures"]:
        print(f"  FAILED: {note}")


def driver_line(name: str, result: dict, trace: bool) -> str:
    """The acceptance driver's result object (last line of stdout)."""
    if trace:
        have = {**result["end_to_end"], **result["per_layer"]}
        wanted = metrics.driver_per_layer()
    else:
        have = result["end_to_end"]
        wanted = metrics.driver_end_to_end()
    out = {}
    for metric in wanted:
        # A layer this workload never exercises reads 0.
        value = have[metric.name]["value"] if metric.name in have else 0.0
        out[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    })


def _write(path: "str | None", doc: dict) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def run_all(args, load_start: tuple) -> int:
    """Every workload in its own interpreter; merges their documents."""
    OUT.mkdir(exist_ok=True)
    results: dict = {}
    for name in WORKLOADS:
        merged = None
        for trace in (0, 1) if args.trace else (0,):
            part = OUT / f"part_{name}_{trace}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(part),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command)
            if done.returncode:
                return done.returncode
            with open(part) as fh:
                result = json.load(fh)["workloads"][name]
            part.unlink()
            if merged is None:
                merged = result
            else:  # end-to-end numbers always come from the untraced run
                merged["per_layer"] = result["per_layer"]
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                merged["failures"] += result["failures"]
        results[name] = merged
    failed = sum(r["failed"] for r in results.values())
    print(f"all workloads: {failed} failed operations")
    _write(args.out, {
        "meta": _meta(args.seed, args.seconds, load_start),
        "smoke": args.smoke,
        "workloads": results,
    })
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="work of one run, in seconds it takes on the "
                             "seed commit (scales every window)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 work, output stamped smoke")
    parser.add_argument("--out", help="write the result document here")
    args = parser.parse_args(argv)
    load_start = os.getloadavg()
    if args.workload is None:
        return run_all(args, load_start)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    print_result(args.workload, result)
    _write(args.out, {
        "meta": _meta(args.seed, args.seconds, load_start),
        "smoke": args.smoke,
        "workloads": {args.workload: result},
    })
    print(driver_line(args.workload, result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
