"""Scale behavior of the collision-free hash: amortized growth, no
rebuild storms under churn, and the typed give-up path.

The hash rung at 1e5 entries only works if incremental insertion stays
amortized O(1): geometric slot growth means a build-from-empty of n keys
pays at most O(log n) full rebuilds and moves O(n) keys in total, and
steady-state churn (insert+remove around a fixed size) must not rebuild
at all. These tests pin those bounds with the telemetry counters, at
sizes small enough for CI but large enough that a per-insert rebuild
would blow the bound by orders of magnitude.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpdk import hash as hash_mod
from repro.dpdk.hash import CollisionFreeHash, HashBuildError, _GOLD, _MASK64, _mix


class TestAmortizedGrowth:
    N = 50_000

    def test_sequential_fill_rebuilds_log_n_times(self):
        h = CollisionFreeHash()
        for i in range(self.N):
            h.insert(i, i * 3)
        t = h.telemetry
        # Geometric sizing: one full rebuild per slot-array doubling,
        # plus the handful of collision-driven ones.
        bound = int(math.log2(self.N * h.OVERSIZE_FACTOR)) + 8
        assert t["rebuild_count"] <= bound
        # Total keys moved across all rebuilds telescopes to O(n).
        assert t["rebuild_keys"] <= 4 * self.N
        assert len(h) == self.N
        for probe in (0, 1, self.N // 2, self.N - 1):
            assert h.get(probe) == probe * 3

    def test_load_factor_invariant_holds_throughout(self):
        h = CollisionFreeHash()
        for i in range(10_000):
            h.insert(i, i)
            assert len(h) * h.OVERSIZE_FACTOR <= h.slot_count

    def test_tuple_keys_scale(self):
        h = CollisionFreeHash()
        n = 20_000
        for i in range(n):
            h.insert((i & 0xFFFF, i >> 16), i)
        assert len(h) == n
        assert h.telemetry["rebuild_count"] <= int(
            math.log2(n * h.OVERSIZE_FACTOR)
        ) + 8
        assert h.get((123, 0)) == 123


class TestChurnStability:
    def test_steady_state_churn_never_rebuilds_for_size(self):
        """Alternating insert/remove around a fixed size: the load factor
        never crosses the growth threshold, so any rebuilds are
        collision-driven (rare) — not a storm."""
        h = CollisionFreeHash({i: i for i in range(10_000)})
        base = h.telemetry["rebuild_count"]
        next_key = 1 << 32
        for i in range(2_000):
            h.insert(next_key + i, i)
            assert h.remove(next_key + i)
        assert h.telemetry["rebuild_count"] - base <= 3
        assert len(h) == 10_000

    def test_remove_never_rebuilds(self):
        h = CollisionFreeHash({i: i for i in range(4_096)})
        base = h.telemetry["rebuild_count"]
        for i in range(4_096):
            assert h.remove(i)
        assert h.telemetry["rebuild_count"] == base
        assert len(h) == 0

    def test_refill_after_drain_reuses_capacity(self):
        h = CollisionFreeHash({i: i for i in range(8_192)})
        for i in range(8_192):
            h.remove(i)
        slots = h.slot_count
        base = h.telemetry["rebuild_count"]
        for i in range(8_192):
            h.insert((1 << 40) + i, i)  # fresh keys, not the drained ones
        # Refilling to the old size fits the existing slot array: growth
        # rebuilds can't fire (collision reseeds may, rebuilds should not
        # exceed a trivial few).
        assert h.slot_count == slots
        assert h.telemetry["rebuild_count"] - base <= 3


class TestBuildDoesNoPerKeyWork:
    def test_1e5_keys_never_call_the_scalar_mix(self, monkeypatch):
        """Counts work, not seconds: the build of 1e5 MAC-sized keys mixes
        them as one column. The scalar ``_mix`` (one interpreted call and,
        in the old builder, one ``(h, key)`` tuple per key) stays for
        single-key updates and for keys numpy cannot hold."""
        calls = 0

        def counting(key, seed):
            nonlocal calls
            calls += 1
            return _mix(key, seed)

        monkeypatch.setattr(hash_mod, "_mix", counting)
        n = 100_000
        h = CollisionFreeHash({(i * 0x9E3779B1) % (1 << 48): i for i in range(n)})
        assert len(h) == n
        assert calls == 0
        h.insert(1 << 50, "one more")
        assert 0 < calls <= 8  # the update path: this key, maybe its bucket


class TestBuildFailure:
    def test_exhausted_seeds_raise_typed_error(self):
        class Hostile(CollisionFreeHash):
            MAX_SEED_TRIES = 0

        with pytest.raises(HashBuildError):
            Hostile({i: i for i in range(64)})

    def test_insert_path_surfaces_build_error(self):
        class Hostile(CollisionFreeHash):
            MAX_SEED_TRIES = 0

        h = CollisionFreeHash()  # healthy build
        h.__class__ = Hostile
        with pytest.raises(HashBuildError):
            for i in range(10_000):  # growth rebuild must eventually fire
                h.insert(i, i)

    def test_error_is_runtime_error(self):
        assert issubclass(HashBuildError, RuntimeError)


class TestPropertyScale:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 48),
                 min_size=1, max_size=400),
        st.data(),
    )
    def test_single_probe_and_model_parity_under_churn(self, keys, data):
        """After any interleaving of inserts and removes, every resident
        key resolves in exactly one probe to its latest value."""
        h = CollisionFreeHash()
        model: dict = {}
        for key in keys:
            if key in model and data.draw(st.booleans()):
                h.remove(key)
                del model[key]
            else:
                value = data.draw(st.integers(min_value=0, max_value=1 << 16))
                h.insert(key, value)
                model[key] = value
        assert len(h) == len(model)
        for key, want in model.items():
            assert h.get(key) == want  # one probe, latest value
        # Collision-freedom, asserted on the layout itself: every resident
        # key has its own slot, and no stale slot stays marked.
        taken = set()
        for key in h:
            m = _mix(key, h._seed)
            taken.add(((m ^ h._disp[m & h._bmask]) * _GOLD & _MASK64) >> h._shift)
        assert len(taken) == len(model)
        assert [i for i, b in enumerate(h._occupied) if b] == sorted(taken)
        assert dict(h.items()) == model
