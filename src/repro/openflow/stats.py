"""Controller-side statistics collection (OFPMP_FLOW).

Works against any switch in this repo: the statistics live on the logical
flow entries, which all three datapaths keep truthful (the compiled fast
path records per-outcome, the OVS caches attribute hits back through the
megaflow's ``stat_entries``, and the interpreter records directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro.openflow.match import Match
from repro.openflow.pipeline import Pipeline


class BurstStats:
    """Per-switch burst telemetry: how the IO driver fed the datapath.

    Every ``process_burst`` call records one burst here — count, size
    histogram, and the cycles the burst cost (when a cycle meter was
    attached). The numbers quantify the batching amortization Section 4.2
    credits for substrate throughput.

    Cycles accumulate **exactly**: floats are dyadic rationals, so the
    internal accumulator is a :class:`fractions.Fraction` and every
    ``record``/``merge`` is an exact rational add. That makes merging
    fully associative and order-independent — merge shard stats in any
    order (or any grouping) and the result is bit-identical — which is
    what the sharded engine's gather requires, and it also fixes the
    silent precision drift the old ``float +=`` accumulator suffered
    once a long run's total dwarfed a single burst's cost.
    """

    __slots__ = ("bursts", "packets", "_cycles", "histogram")

    def __init__(self) -> None:
        self.reset()

    def record(self, size: int, cycles: float = 0.0) -> None:
        """Account one burst of ``size`` packets costing ``cycles``."""
        self.bursts += 1
        self.packets += size
        self._cycles += Fraction(cycles)
        self.histogram[size] = self.histogram.get(size, 0) + 1

    @property
    def cycles(self) -> float:
        """Total cycles, correctly rounded from the exact rational sum."""
        return float(self._cycles)

    def merge(self, other: "BurstStats") -> "BurstStats":
        """Fold another shard's telemetry into this one (in place).

        Exact and therefore associative/commutative:
        ``a.merge(b).merge(c)`` equals ``a.merge(c).merge(b)`` equals
        merging ``b.merge(c)`` into ``a``, bit for bit.
        """
        self.bursts += other.bursts
        self.packets += other.packets
        self._cycles += other._cycles
        for size, count in other.histogram.items():
            self.histogram[size] = self.histogram.get(size, 0) + count
        return self

    @classmethod
    def merged(cls, shards: "Iterable[BurstStats]") -> "BurstStats":
        """A fresh, order-independent merge of many shards' telemetry."""
        out = cls()
        for stats in shards:
            out.merge(stats)
        return out

    @property
    def mean_burst_size(self) -> float:
        return self.packets / self.bursts if self.bursts else 0.0

    @property
    def cycles_per_burst(self) -> float:
        return self.cycles / self.bursts if self.bursts else 0.0

    def snapshot(self) -> dict:
        """A plain-dict view (for Measurement.extra / CLI reporting)."""
        return {
            "bursts": self.bursts,
            "packets": self.packets,
            "cycles": self.cycles,
            "mean_burst_size": self.mean_burst_size,
            "cycles_per_burst": self.cycles_per_burst,
            "histogram": dict(sorted(self.histogram.items())),
        }

    def reset(self) -> None:
        self.bursts = 0
        self.packets = 0
        self._cycles = Fraction(0)
        self.histogram: dict[int, int] = {}

    def __repr__(self) -> str:
        return (
            f"BurstStats(bursts={self.bursts}, packets={self.packets}, "
            f"mean={self.mean_burst_size:.1f})"
        )


def collect_burst_stats(switch) -> "BurstStats | None":
    """The switch's burst telemetry, if it has a burst driver (duck-typed)."""
    stats = getattr(switch, "burst_stats", None)
    return stats if isinstance(stats, BurstStats) else None


@dataclass(frozen=True)
class FlowStatsEntry:
    """One rule's statistics, as a flow-stats reply would carry them."""

    table_id: int
    priority: int
    match: Match
    packets: int
    bytes: int
    cookie: int


def collect_flow_stats(
    pipeline: Pipeline,
    table_id: "int | None" = None,
    match: "Match | None" = None,
    cookie: "int | None" = None,
) -> list[FlowStatsEntry]:
    """Flow statistics, optionally filtered.

    ``match`` filters like an OpenFlow stats request: a rule is reported
    when its match is *covered by* the filter (the filter is equal or more
    general).
    """
    out: list[FlowStatsEntry] = []
    for table in pipeline:
        if table_id is not None and table.table_id != table_id:
            continue
        for entry in table:
            if match is not None and not match.covers(entry.match):
                continue
            if cookie is not None and entry.cookie != cookie:
                continue
            out.append(
                FlowStatsEntry(
                    table_id=table.table_id,
                    priority=entry.priority,
                    match=entry.match,
                    packets=entry.packets,
                    bytes=entry.bytes,
                    cookie=entry.cookie,
                )
            )
    return out
