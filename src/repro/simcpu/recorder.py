"""Meters: where datapaths charge cycles and report memory touches.

A :class:`Meter` receives two kinds of events while a datapath processes a
packet:

* ``charge(cycles)`` — fixed instruction-cost atoms;
* ``touch(line)`` — a memory access to an abstract cache line, whose
  latency depends on the cache hierarchy's current state.

:class:`NullMeter` ignores everything (functional runs, differential
tests); :class:`CycleMeter` drives a :class:`CacheHierarchy` and
accumulates per-packet and aggregate statistics (the measurement runs).
"""

from __future__ import annotations

from typing import Hashable

from repro.simcpu.cache import CacheHierarchy
from repro.simcpu.platform import Platform


class Meter:
    """Interface; see :class:`NullMeter` and :class:`CycleMeter`."""

    def charge(self, cycles: float) -> None:
        raise NotImplementedError

    def touch(self, line: Hashable) -> None:
        raise NotImplementedError

    def walk(self, base: float, per_entry: float, count: int, line) -> None:
        """A table walk that stopped after ``count`` entries, charged there
        (so a lookup without a meter tests for one once): ``charge(base)``,
        then per entry ``charge(per_entry)`` and, unless ``line`` is None,
        ``touch((*line, i >> 2))`` — four entries to a cache line."""
        self.charge(base)
        for i in range(count):
            self.charge(per_entry)
            if line is not None:
                self.touch((*line, i >> 2))


class NullMeter(Meter):
    """A meter that costs (almost) nothing and records nothing."""

    __slots__ = ()

    def charge(self, cycles: float) -> None:
        pass

    def touch(self, line: Hashable) -> None:
        pass


#: Shared do-nothing meter for functional runs.
NULL_METER = NullMeter()


def active_meter(meter: "Meter | None") -> "Meter | None":
    """``meter``, or None when it records nothing (None or any
    :class:`NullMeter`): the one "no meter" test, asked once at a
    datapath's boundary; its code then tests ``meter is not None``."""
    return None if meter is None or isinstance(meter, NullMeter) else meter


class CycleMeter(Meter):
    """Accumulates cycles against a simulated cache hierarchy.

    Usage per packet::

        meter.begin_packet()
        ...  # datapath charges and touches
        cycles = meter.end_packet()
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self.cache = CacheHierarchy(platform)
        self._factor = platform.cycle_factor
        self._packet_cycles = 0.0
        self.total_cycles = 0.0
        self.packets = 0
        self._packet_history: list[float] = []
        self.keep_history = False

    def begin_packet(self) -> None:
        """Open a packet's accounting window.

        Deliberately does **not** zero the accumulator: cycles charged
        between packets — per-burst IO framework cost, control-plane work
        at a burst boundary — attach to the *next* packet instead of
        vanishing. ``end_packet`` already resets the accumulator, so in a
        plain begin/end loop this is indistinguishable from a reset.
        """

    def end_packet(self) -> float:
        cycles = self._packet_cycles
        self.total_cycles += cycles
        self.packets += 1
        if self.keep_history:
            self._packet_history.append(cycles)
        self._packet_cycles = 0.0
        return cycles

    def charge(self, cycles: float) -> None:
        self._packet_cycles += cycles * self._factor

    def touch(self, line: Hashable) -> None:
        self._packet_cycles += self.cache.access(line)

    def walk(self, base: float, per_entry: float, count: int, line) -> None:
        # Meter.walk with charge() and touch() inlined: the same additions
        # in the same order (a bit-identical sum) in one call; ``while``,
        # as a range() costs more than the short walks it counts.
        cycles = self._packet_cycles + base * self._factor
        step = per_entry * self._factor
        i = 0
        while i < count:
            cycles += step
            if line is not None:
                cycles += self.cache.access((line[0], line[1], i >> 2))
            i += 1
        self._packet_cycles = cycles

    def touch_ddio(self, line: Hashable) -> None:
        """Packet-buffer access: the NIC DMAs the frame into L3 first."""
        self.cache.install_l3(line)
        self._packet_cycles += self.cache.access(line)

    def absorb(self, cycles: float, packets: int = 0, llc_misses: int = 0) -> None:
        """Fold another core's already-metered totals into this meter.

        The sharded engine's gather path: each shard meters on its own
        per-core :class:`CycleMeter` (private caches) and reports deltas;
        the caller-facing meter absorbs them **as-is** — no
        ``cycle_factor`` rescaling (the shard already applied it), no
        cache simulation (the misses happened on the shard's hierarchy,
        they are only tallied here for ``llc_misses_per_packet``).
        """
        self.total_cycles += cycles
        self.packets += packets
        self.cache.stats.accesses += llc_misses
        self.cache.stats.dram_accesses += llc_misses

    # -- results --------------------------------------------------------------

    @property
    def mean_cycles_per_packet(self) -> float:
        if not self.packets:
            return 0.0
        return self.total_cycles / self.packets

    @property
    def packet_history(self) -> list[float]:
        return list(self._packet_history)

    def mean_pps(self) -> float:
        """Packet rate implied by the mean per-packet cost (NIC-capped)."""
        mean = self.mean_cycles_per_packet
        if mean <= 0:
            return 0.0
        rate = self.platform.freq_hz / mean
        if self.platform.nic_pps_limit is not None:
            rate = min(rate, self.platform.nic_pps_limit)
        return rate

    def llc_misses_per_packet(self) -> float:
        if not self.packets:
            return 0.0
        return self.cache.stats.llc_misses / self.packets

    def reset(self) -> None:
        self.cache.clear()
        self._packet_cycles = 0.0
        self.total_cycles = 0.0
        self.packets = 0
        self._packet_history.clear()
