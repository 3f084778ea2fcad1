"""Shared plumbing for the benchmark rigs: print a table and archive it
under ``benchmarks/results/``."""

from __future__ import annotations

import os
from typing import Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def render_table(title: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def publish(name: str, text: str) -> None:
    """Print the rig's table and archive it under results/."""
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
