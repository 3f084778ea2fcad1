"""Order statistics the benchmark reports: medians, quartiles, tails.

Every reported value is a median over windows with the quartiles and the
sample count beside it, and a tail percentile is only ever the highest
one the sample supports (choosing-metrics guide: at least ten samples
beyond it).
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: samples that must lie beyond a reported percentile.
TAIL_SUPPORT = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles(n=4)``, the rule
    the acceptance driver uses); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def supported_percentile(n: int, wanted: float) -> float:
    """The highest percentile <= ``wanted`` with at least
    :data:`TAIL_SUPPORT` of ``n`` samples beyond it (never below 50)."""
    if n <= 0:
        raise ValueError("no samples")
    ceiling = 100.0 * (1.0 - TAIL_SUPPORT / n)
    return max(50.0, min(wanted, ceiling))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(len(ordered) * p / 100.0))
    return ordered[rank]


def tail(values: Sequence[float], wanted: float) -> tuple[float, float]:
    """``(value, percentile actually used)`` under the support rule."""
    used = supported_percentile(len(values), wanted)
    return percentile(values, used), used


def summarize(values: Sequence[float], unit: str, **extra: object) -> dict:
    """The JSON shape of one reported metric: the median is the value,
    and ``spread`` says how far the run's own samples disagree."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return {"value": mid, "unit": unit, "median": mid, "q1": q1, "q3": q3,
            "n": len(values), "spread": spread(values), **extra}


def exact(value: float, unit: str, **extra: object) -> dict:
    """A metric that is one number (a count, a ratio, an RSS reading)."""
    return summarize([value], unit, **extra)
