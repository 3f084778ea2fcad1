#!/usr/bin/env python3
"""Compare two result documents of ``bench/run.py --out``.

    python bench/compare.py A.json B.json

One row per workload and end-to-end metric: both values with their
quartiles, the ratio B/A (A is the base), the bound, and a verdict:

* ``worse``/``better``: B is worse (better) than A by more than the bound;
* ``same``: within the bound;
* ``unresolved``: the spread between one side's own samples exceeds the
  bound, so the pair cannot tell a change from noise.

A metric without a bound is a count that must repeat exactly: any
difference is ``better`` or ``worse``. A workload of A, or a metric that
applies to it, that either document lacks is ``worse``: nothing is
skipped in silence. A metric demoted on a workload is shown there with
its verdict in brackets and never counted. Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys

import metrics


def verdict(metric: metrics.Metric, a: "dict | None", b: "dict | None"
            ) -> str:
    """The verdict on B against base A for one metric."""
    if a is None or b is None:
        return "worse"
    base, new = a["value"], b["value"]
    gain = new - base if metric.better == "higher" else base - new
    if metric.bound is None:
        return "same" if gain == 0 else "better" if gain > 0 else "worse"
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > metric.bound:
        return "unresolved"
    share = gain / abs(base) if base else 0.0
    if share < -metric.bound:
        return "worse"
    if share > metric.bound:
        return "better"
    return "same"


def rows(doc_a: dict, doc_b: dict) -> list[dict]:
    out = []
    for workload, result_a in doc_a["workloads"].items():
        result_b = doc_b["workloads"].get(workload, {"end_to_end": {}})
        for metric in metrics.END_TO_END:
            if not metric.applies(workload):
                continue
            a = result_a["end_to_end"].get(metric.name)
            b = result_b["end_to_end"].get(metric.name)
            out.append({
                "workload": workload, "metric": metric.name, "a": a, "b": b,
                "bound": metric.bound,
                "ratio": b["value"] / a["value"] if a and b and a["value"]
                else None,
                "verdict": verdict(metric, a, b),
                "demoted": workload in metric.demoted,
            })
    return out


def _cell(m: "dict | None") -> str:
    if m is None:
        return "missing"
    return f"{m['value']:.6g} [{m['q1']:.4g}..{m['q3']:.4g}]"


def render(table: list[dict]) -> str:
    lines = [f"{'workload':<18} {'metric':<22} {'A [q1..q3]':<32} "
             f"{'B [q1..q3]':<32} {'B/A':>7} {'bound':>6}  verdict"]
    for row in table:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        bound = "exact" if row["bound"] is None else f"{row['bound']:.0%}"
        shown = f"[{row['verdict']}]" if row["demoted"] else row["verdict"]
        lines.append(
            f"{row['workload']:<18} {row['metric']:<22} {_cell(row['a']):<32} "
            f"{_cell(row['b']):<32} {ratio:>7} {bound:>6}  {shown}"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path) as fh:
            docs.append(json.load(fh))
    if docs[0].get("smoke") or docs[1].get("smoke"):
        print("note: a smoke document is plumbing, not a measurement")
    table = rows(*docs)
    print(render(table))
    counts = {v: sum(r["verdict"] == v and not r["demoted"] for r in table)
              for v in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
