"""The yardstick: what the host's clock is worth at this moment.

The hosts this runs on drift between regimes for tens of seconds at a
time (a neighbour on the sibling hyperthread, boost on a quiet core): six
back-to-back runs of one commit served ``gateway`` at 116k to 192k pkt/s
as measured, a spread no median over windows removes because a whole run
sits inside one regime, and no bound the benchmark may set (at most a
quarter) survives it. A regime scales compute-bound Python evenly, so a
fixed integer loop read beside the measurement tracks it: the same six
runs read 143k to 151k once every sample is divided by its yardstick.

So the *reference clock* is defined by the yardstick: one pass of the
loop takes ``REFERENCE_S`` on it. The *clock factor* of a moment is the
yardstick reading taken then over ``REFERENCE_S``; 0.8 means the host is
running 25% faster than the reference clock. A timing sample is divided
by the factor read at most ``REFRESH_S`` before it, in three places only:
the window loops of ``harness.py`` (end-to-end metrics), ``timed`` below
(a build, an isolated per-layer call) and once per traced leg for span
totals (``layers.Ledger``). Spans and the span files stay as measured,
and the run's median factor is reported as ``host.clock_factor``, so
``value x factor`` gives the measured time back.

The loop allocates nothing the collector tracks and touches no memory to
speak of, so its reading depends on the host alone, never on the heap the
program under test has built. The price: memory-bound work slows under
contention by more than arithmetic does and is under-corrected.
"""

from __future__ import annotations

from time import perf_counter

_PASS_ITERATIONS = 4_000
#: yardstick reading that defines the reference clock (the ordinary
#: regime of the 2.1 GHz host the window sizes were frozen on).
REFERENCE_S = 200e-6
#: a window loop takes a new reading when its last is older than this.
REFRESH_S = 0.010


def yardstick() -> float:
    """Seconds one pass of the fixed integer loop takes right now: the
    median of three, so one pass an interrupt landed in is ignored."""
    passes = []
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for i in range(_PASS_ITERATIONS):
            x += i * i % 7
        passes.append(perf_counter() - t0)
    return sorted(passes)[1]


def factor() -> float:
    """The clock factor right now: divide a duration measured now by it."""
    return yardstick() / REFERENCE_S


def timed(fn) -> "tuple[object, float]":
    """``(fn(), seconds at the reference clock)`` of one isolated call,
    with a reading on either side."""
    before = factor()
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    return result, elapsed / ((before + factor()) / 2.0)
