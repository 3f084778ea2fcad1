"""Tests for the cache-hierarchy simulator and meters."""

from repro.simcpu.cache import CacheHierarchy
from repro.simcpu.platform import Platform, XEON_E5_2620
from repro.simcpu.recorder import CycleMeter, Meter, NULL_METER

TINY = Platform(
    name="tiny",
    freq_hz=1e9,
    l1_lines=2,
    l2_lines=4,
    l3_lines=8,
    lat_l1=1,
    lat_l2=10,
    lat_l3=100,
    lat_dram=1000,
)


class TestHierarchy:
    def test_cold_miss_costs_dram(self):
        c = CacheHierarchy(TINY)
        assert c.access("a") == 1000
        assert c.stats.dram_accesses == 1

    def test_warm_hit_costs_l1(self):
        c = CacheHierarchy(TINY)
        c.access("a")
        assert c.access("a") == 1
        assert c.stats.l1_hits == 1

    def test_l1_eviction_falls_to_l2(self):
        c = CacheHierarchy(TINY)
        c.access("a")
        c.access("b")
        c.access("c")  # evicts "a" from L1 (capacity 2)
        assert c.access("a") == 10
        assert c.stats.l2_hits == 1

    def test_l2_eviction_falls_to_l3(self):
        c = CacheHierarchy(TINY)
        for line in "abcde":
            c.access(line)  # 5 lines > l2 capacity 4
        assert c.access("a") == 100

    def test_lru_order(self):
        c = CacheHierarchy(TINY)
        c.access("a")
        c.access("b")
        c.access("a")  # refresh "a"
        c.access("c")  # evicts "b", not "a"
        assert c.access("a") == 1

    def test_working_set_in_l3(self):
        c = CacheHierarchy(TINY)
        lines = [f"x{i}" for i in range(8)]
        for _ in range(3):
            for line in lines:
                c.access(line)
        stats = c.stats
        # After warm-up rounds, no DRAM accesses: everything fits L3.
        assert stats.dram_accesses == 8  # only the cold pass

    def test_install_l3_models_ddio(self):
        c = CacheHierarchy(TINY)
        c.install_l3("pkt")
        assert c.access("pkt") == 100

    def test_clear(self):
        c = CacheHierarchy(TINY)
        c.access("a")
        c.clear()
        assert c.access("a") == 1000


class TestMeters:
    def test_null_meter_is_free(self):
        NULL_METER.charge(100)
        NULL_METER.touch("x")  # no exception, no state

    def test_cycle_meter_accumulates(self):
        m = CycleMeter(TINY)
        m.begin_packet()
        m.charge(5)
        m.touch("a")  # cold: 1000
        assert m.end_packet() == 1005
        m.begin_packet()
        m.charge(5)
        m.touch("a")  # warm: 1
        assert m.end_packet() == 6
        assert m.packets == 2
        assert m.mean_cycles_per_packet == (1005 + 6) / 2

    def test_pps_conversion_and_nic_cap(self):
        platform = Platform(
            name="capped", freq_hz=1e9, l1_lines=2, l2_lines=4, l3_lines=8,
            lat_l1=1, lat_l2=10, lat_l3=100, lat_dram=1000, nic_pps_limit=1000.0,
        )
        m = CycleMeter(platform)
        m.begin_packet()
        m.charge(10)
        m.end_packet()
        assert m.mean_pps() == 1000.0  # 1e8 uncapped, NIC-capped to 1000

    def test_history(self):
        m = CycleMeter(TINY)
        m.keep_history = True
        for cycles in (3, 7):
            m.begin_packet()
            m.charge(cycles)
            m.end_packet()
        assert m.packet_history == [3, 7]

    def test_walk_is_its_charges_and_touches_bit_for_bit(self):
        """CycleMeter.walk inlines Meter.walk: the same float sum and the
        same cache state, on a factor that makes the sum order-sensitive."""
        platform = Platform(
            name="odd", freq_hz=1e9, l1_lines=2, l2_lines=4, l3_lines=8,
            lat_l1=1, lat_l2=10, lat_l3=100, lat_dram=1000, cycle_factor=0.1,
        )
        fast, spelled = CycleMeter(platform), CycleMeter(platform)
        for count, line in ((0, None), (3, None), (9, ("es_ll", 4)),
                            (5, ("es_keys", 7)), (9, ("es_ll", 4))):
            fast.walk(2.3, 0.7, count, line)
            Meter.walk(spelled, 2.3, 0.7, count, line)
            assert fast._packet_cycles == spelled._packet_cycles
        for level in ("_l1", "_l2", "_l3"):  # same lines, same LRU order
            assert list(getattr(fast.cache, level)) == list(
                getattr(spelled.cache, level))
        counters = fast.cache.stats.__slots__
        assert [getattr(fast.cache.stats, c) for c in counters] == [
            getattr(spelled.cache.stats, c) for c in counters]

    def test_reset(self):
        m = CycleMeter(TINY)
        m.begin_packet()
        m.touch("a")
        m.end_packet()
        m.reset()
        assert m.packets == 0 and m.total_cycles == 0
        m.begin_packet()
        assert m.touch("a") is None  # cold again after reset
        assert m.end_packet() == 1000


class TestPlatformNumbers:
    def test_table1_values(self):
        p = XEON_E5_2620
        assert p.freq_hz == 2.0e9
        assert p.lat_l1 == 4 and p.lat_l2 == 12 and p.lat_l3 == 29
        assert p.l1_lines == 512          # 32 KB
        assert p.l2_lines == 4096         # 256 KB
        assert p.l3_lines == 245760       # 15 MB

    def test_latency_accessor(self):
        assert XEON_E5_2620.latency(1) == 4
        assert XEON_E5_2620.latency(4) == XEON_E5_2620.lat_dram

    def test_pps(self):
        assert XEON_E5_2620.pps(200) == 1e7
