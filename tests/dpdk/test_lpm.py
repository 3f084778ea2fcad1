"""Tests for the DIR-24-8 LPM, including equivalence with a naive oracle."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.dpdk import lpm as lpm_mod
from repro.dpdk.lpm import ENTRIES_PER_LINE, TBL24_ENTRIES, Dir24_8Lpm, LpmFullError


def naive_lpm(rules: dict, ip: int):
    """Oracle: scan all rules, pick the longest matching prefix."""
    best = None
    best_depth = 0
    for (prefix, depth), hop in rules.items():
        mask = ((1 << depth) - 1) << (32 - depth)
        if (ip & mask) == prefix and depth >= best_depth:
            best, best_depth = hop, depth
    return best


class TestBasics:
    def test_empty_lookup(self):
        assert Dir24_8Lpm(max_tbl8_groups=2).lookup(0x01020304) is None

    def test_short_prefix(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=2)
        lpm.add(0x0A000000, 8, 1)
        assert lpm.lookup(0x0A123456) == 1
        assert lpm.lookup(0x0B000000) is None

    def test_nested_prefixes(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=2)
        lpm.add(0x0A000000, 8, 1)
        lpm.add(0x0A010000, 16, 2)
        lpm.add(0x0A010100, 24, 3)
        assert lpm.lookup(0x0A020202) == 1
        assert lpm.lookup(0x0A01FF00) == 2
        assert lpm.lookup(0x0A010177) == 3

    def test_deep_prefix_uses_tbl8(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=2)
        lpm.add(0x0A010100, 24, 1)
        lpm.add(0x0A010180, 25, 2)
        assert lpm.lookup(0x0A010101) == 1
        assert lpm.lookup(0x0A0101C0) == 2
        # Deep lookup takes two memory accesses, shallow takes one.
        _, lines = lpm.lookup_traced(0x0A0101C0)
        assert len(lines) == 2
        lpm2 = Dir24_8Lpm(max_tbl8_groups=2)
        lpm2.add(0x0A010100, 24, 1)
        _, lines = lpm2.lookup_traced(0x0A010101)
        assert len(lines) == 1

    def test_host_route(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=2)
        lpm.add(0x0A010101, 32, 9)
        assert lpm.lookup(0x0A010101) == 9
        assert lpm.lookup(0x0A010102) is None

    def test_update_same_prefix(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=2)
        lpm.add(0x0A000000, 8, 1)
        lpm.add(0x0A000000, 8, 7)
        assert lpm.lookup(0x0A123456) == 7
        assert len(lpm) == 1

    def test_validation(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=1)
        with pytest.raises(ValueError):
            lpm.add(0, 0, 1)
        with pytest.raises(ValueError):
            lpm.add(0, 33, 1)
        with pytest.raises(ValueError):
            lpm.add(1 << 32, 8, 1)
        with pytest.raises(ValueError):
            lpm.add(0, 8, -1)

    def test_tbl8_exhaustion(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=1)
        lpm.add(0x0A010180, 25, 1)
        with pytest.raises(LpmFullError):
            lpm.add(0x0B010180, 25, 2)


class TestDelete:
    def test_delete_restores_parent(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=2)
        lpm.add(0x0A000000, 8, 1)
        lpm.add(0x0A010000, 16, 2)
        assert lpm.delete(0x0A010000, 16)
        assert lpm.lookup(0x0A010101) == 1

    def test_delete_without_parent_invalidates(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=2)
        lpm.add(0x0A010000, 16, 2)
        assert lpm.delete(0x0A010000, 16)
        assert lpm.lookup(0x0A010101) is None

    def test_delete_missing(self):
        assert not Dir24_8Lpm(max_tbl8_groups=2).delete(0x0A000000, 8)

    def test_delete_deep_recycles_group(self):
        lpm = Dir24_8Lpm(max_tbl8_groups=1)
        lpm.add(0x0A010180, 25, 1)
        assert lpm.delete(0x0A010180, 25)
        # The group must be free again for another deep prefix.
        lpm.add(0x0B010180, 25, 2)
        assert lpm.lookup(0x0B0101C0) == 2


DEPTHS = (8, 12, 16, 20, 24, 26, 28, 32)


def _random_rule(rng: random.Random, depths=DEPTHS) -> tuple[int, int, int]:
    depth = rng.choice(depths)
    prefix = rng.getrandbits(32) & (((1 << depth) - 1) << (32 - depth))
    return prefix, depth, rng.randrange(16)


def _assert_matches_oracle(lpm: Dir24_8Lpm, rules: dict, probes: list) -> list:
    """Lookups equal the naive scan, traced lookups equal plain ones and
    name the lines the structure really read; returns the traced answers."""
    traced = []
    for ip in probes:
        want = naive_lpm(rules, ip)
        assert lpm.lookup(ip) == want, f"ip={ip:#010x}"
        hop, lines = lpm.lookup_traced(ip)
        assert hop == want, f"ip={ip:#010x}"
        assert lines[0] == (ip >> 8) // ENTRIES_PER_LINE
        extended = int(lpm._tbl24[ip >> 8]) < 0
        assert len(lines) == (2 if extended else 1)
        if extended:
            assert lines[1] >= TBL24_ENTRIES // ENTRIES_PER_LINE
        traced.append((hop, lines))
    # Residency accounting: every page holding an entry is marked written.
    holding = lpm._tbl24.reshape(-1, lpm_mod._PAGE_ENTRIES).any(axis=1)
    assert not (holding & ~lpm._tbl24_pages).any()
    return traced


class TestOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_tables_match_oracle(self, seed):
        rng = random.Random(seed)
        lpm = Dir24_8Lpm(max_tbl8_groups=128)
        rules: dict = {}
        for _ in range(rng.randrange(1, 40)):
            prefix, depth, hop = _random_rule(rng)
            lpm.add(prefix, depth, hop)
            rules[(prefix, depth)] = hop
        # One bulk load; 40 rules of one depth take the vectorised path.
        bulk = [_random_rule(rng) for _ in range(rng.randrange(0, 20))]
        bulk += [_random_rule(rng, (rng.choice(DEPTHS[:5]),)) for _ in range(40)]
        rng.shuffle(bulk)
        lpm.add_bulk(bulk)
        rules.update({(prefix, depth): hop for prefix, depth, hop in bulk})
        # Mix in some deletions.
        for key in list(rules):
            if rng.random() < 0.3:
                assert lpm.delete(*key)
                del rules[key]
        assert lpm.rules == rules
        probes = [rng.getrandbits(32) for _ in range(200)]
        # Bias probes into rule ranges so hits actually occur.
        for (prefix, depth), _hop in list(rules.items())[:20]:
            probes.append(prefix | rng.getrandbits(32 - depth) if depth < 32 else prefix)
        _assert_matches_oracle(lpm, rules, probes)
        lpm.compact()
        traced = _assert_matches_oracle(lpm, rules, probes)
        # Copies come back on sparse memory, bit-identical and independent.
        for clone in (pickle.loads(pickle.dumps(lpm)), copy.deepcopy(lpm)):
            assert _assert_matches_oracle(clone, rules, probes) == traced
            assert clone.footprint() == lpm.footprint()
            assert np.array_equal(clone._tbl24_depth, lpm._tbl24_depth)
            clone.add(probes[0], 32, 15)
            assert clone.lookup(probes[0]) == 15
            assert lpm.lookup(probes[0]) == naive_lpm(rules, probes[0])


class TestResidency:
    def test_footprint_counts_written_pages(self):
        page = lpm_mod._PAGE_BYTES
        lpm = Dir24_8Lpm()
        assert lpm.footprint()["tbl24_bytes"] == 0
        assert lpm.footprint()["tbl24_virtual_bytes"] == TBL24_ENTRIES * 5
        lpm.add(0x0A010100, 24, 1)  # one tbl24 page, one depth page
        assert lpm.footprint()["tbl24_bytes"] == 2 * page
        lpm.add(0x0A010180, 25, 2)  # extends an entry already written
        assert lpm.footprint()["tbl24_bytes"] == 2 * page
        lpm.delete(0x0A010180, 25)  # a zeroed page stays resident
        lpm.delete(0x0A010100, 24)
        assert lpm.footprint()["tbl24_bytes"] == 2 * page
        lpm.add(0x14000000, 8, 3)  # 2^16 entries: 4-byte and 1-byte each
        fp = lpm.footprint()
        assert fp["tbl24_bytes"] == 2 * page + (1 << 16) * 5
        assert fp["bytes"] == fp["tbl24_bytes"] + fp["tbl8_bytes"] + 100
        assert json.loads(json.dumps(fp)) == fp  # bench documents carry it

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="ru_maxrss units and huge-page advice are Linux's",
    )
    def test_six_gateway_fibs_stay_under_32_mb(self):
        """The fabric's six LPM tables held 420 MB when numpy's huge-page
        advice made every written entry fault in 2 MB."""
        script = (
            "import resource\n"
            "from repro.dpdk.lpm import Dir24_8Lpm\n"
            "from repro.usecases.l3 import synthetic_fib\n"
            "fib = synthetic_fib(200)\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "tables = [Dir24_8Lpm() for _ in range(6)]\n"
            "for table in tables:\n"
            "    table.add_bulk(fib)\n"
            "assert all(t.lookup(fib[0][0]) is not None for t in tables)\n"
            "print(peak() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        grown_kb = int(out.stdout)
        assert grown_kb < 32 * 1024, f"six FIBs grew peak RSS by {grown_kb} kB"
