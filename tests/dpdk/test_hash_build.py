"""The full build against its spec, the key rule, and insert atomicity.

``CollisionFreeHash._try_build`` computes mix and bucket grouping
columnwise; the layout it must produce is *defined* by the scalar
algorithm it replaced, kept here as :class:`ScalarReference` — one
``_mix`` call and one ``(h, key)`` tuple per key, ``sorted`` by bucket
size. Every modeled cycle depends on the layout (slot index → cache-line
id), so parity is bit-for-bit: seed, displacements, each slot's
``(key, value)``, per-bucket keys and telemetry, at build time and through
any insert/update/remove program that follows. Both sides hold their
contents in one dict, their buckets as one list and their slots as an
occupancy array (lookups, inserts, removes and the choice of keys a
rebuild lays out are shared code); :func:`slots` reads each key's slot
from the layout and :func:`buckets` reads the buckets back. After every
step the table must also answer like a plain dict.

Lookups of keys the table can never hold (negative components) used to
spin forever; those regressions run the lookup in a subprocess under a
timeout, so a reintroduced hang fails instead of hanging the suite.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpdk.hash import (
    CollisionFreeHash,
    HashBuildError,
    HashKeyError,
    RebuildRequired,
    _GOLD,
    _MASK64,
    _bucket_of,
    _members,
    _mix,
)


class ScalarReference(CollisionFreeHash):
    """The build as specified: per-key scalar mix, dict-of-lists buckets.

    Only the layout search is its own: which keys a build lays out, and in
    what order (the caller's mapping at construction, the resident keys in
    slot order on every later rebuild), reaches it through the same
    ``_build(keys)`` the table uses.
    """

    def _try_build(self, slot_bits: int, seed: int, keys: list) -> None:
        nslots = 1 << slot_bits
        nbuckets = max(2, nslots // self.OVERSIZE_FACTOR)
        bmask = nbuckets - 1
        shift = 64 - slot_bits
        buckets: dict = {}
        for key in keys:
            h = _mix(key, seed)
            buckets.setdefault(h & bmask, []).append((h, key))
        slot_keys: list = [None] * nslots
        disp = [0] * nbuckets
        for bucket, members in sorted(buckets.items(), key=lambda kv: -len(kv[1])):
            hashes = [h for h, _ in members]
            if len(set(hashes)) != len(hashes):
                raise RebuildRequired("dup")
            for d in range(self.MAX_DISP_TRIES):
                self.reseed_probes += 1
                indexes = [((h ^ d) * _GOLD & _MASK64) >> shift for h in hashes]
                if len(set(indexes)) == len(indexes) and all(
                    slot_keys[i] is None for i in indexes
                ):
                    for (_, k), i in zip(members, indexes):
                        slot_keys[i] = k
                    disp[bucket] = d
                    break
            else:
                raise RebuildRequired("grow")
        self._seed = seed
        self._occupied = bytearray(k is not None for k in slot_keys)
        self._nslots = nslots
        self._shift = shift
        self._bmask = bmask
        self._disp = disp
        self._bucket_keys = [None] * nbuckets
        for b, members in buckets.items():
            self._bucket_keys[b] = _bucket_of(tuple(k for _, k in members))


def slot_of(h: CollisionFreeHash, key) -> int:
    """``key``'s slot under ``h``'s layout."""
    m = _mix(key, h._seed)
    return ((m ^ h._disp[m & h._bmask]) * _GOLD & _MASK64) >> h._shift


def slots(h: CollisionFreeHash) -> list:
    """Each slot as ``(key, value)``, or None where it is empty; the
    occupancy array marks exactly the slots the keys take."""
    held: list = [None] * h._nslots
    for key, value in h.items():
        i = slot_of(h, key)
        assert held[i] is None, "two keys in one slot"
        held[i] = (key, value)
    assert list(h._occupied) == [int(pair is not None) for pair in held]
    return held


def buckets(h: CollisionFreeHash) -> dict:
    """Each occupied bucket's keys, as a set; every entry is in its one
    form (None when empty, a lone non-tuple key bare, else a tuple)."""
    assert len(h._bucket_keys) == h._bmask + 1
    for held in h._bucket_keys:
        assert held is None or held == _bucket_of(_members(held))
    return {b: set(_members(held)) for b, held in enumerate(h._bucket_keys)
            if held is not None}


def layout(h: CollisionFreeHash) -> tuple:
    return (
        h._seed, h._nslots, h._shift, h._bmask, h._disp, slots(h), buckets(h),
        list(h.items()),
        h.telemetry,
    )


def assert_like(h: CollisionFreeHash, model: dict) -> None:
    """The table answers like the plain dict ``model``."""
    assert len(h) == len(model)
    assert set(h) == set(model)
    assert dict(h.items()) == model
    assert all(key in h and h.get(key) == value for key, value in model.items())


def assert_same(fast: CollisionFreeHash, spec: CollisionFreeHash) -> None:
    assert layout(fast) == layout(spec)
    for key in spec:
        assert fast.get_traced(key) == spec.get_traced(key)


small = st.integers(0, (1 << 32) - 1)
medium = st.integers(1 << 32, (1 << 64) - 1)
wide = st.integers(1 << 64, (1 << 130))
any_width = st.one_of(small, medium, wide)

key_sets = st.one_of(
    st.sets(small, max_size=300),
    st.sets(medium, max_size=300),
    st.sets(wide, max_size=100),
    st.sets(any_width, max_size=200),
    # Dense small ranges: many keys per bucket, displacement retries.
    st.sets(st.integers(0, 400), max_size=300),
    # Compound keys: one arity, components of every width class.
    st.sets(st.tuples(small, st.one_of(small, medium)), max_size=200),
    st.sets(st.tuples(small, medium, small), max_size=200),
    st.sets(st.tuples(st.integers(0, 3), wide), max_size=100),
    st.sets(st.tuples(any_width), max_size=100),
    # Ragged arity and ints beside tuples: numpy cannot column these.
    st.sets(
        st.one_of(st.tuples(small), st.tuples(small, small), st.integers(1, 1 << 40)),
        max_size=100,
    ),
)

programs = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "remove", "rebuild"]),
              st.integers(0, 1 << 16)),
    max_size=60,
)


def on_both(fast, spec, call):
    """Apply ``call`` to both tables; they must answer — or refuse — alike."""
    results = []
    for h in (fast, spec):
        try:
            results.append(("ok", call(h)))
        except HashBuildError:
            results.append(("no layout", None))
    assert results[0] == results[1]
    return results[0][0] == "ok"


class TestBuilderParity:
    @settings(max_examples=200, deadline=None)
    @given(key_sets, programs)
    def test_layout_equals_the_scalar_spec(self, keys, program):
        keys = sorted(keys, key=repr)  # any fixed order; both sides share it
        items = {k: ("v", i) for i, k in enumerate(keys)}
        built = []
        # A ragged set may hold ``5`` beside ``(5,)``: then neither builds.
        if not on_both(CollisionFreeHash, ScalarReference,
                       lambda cls: built.append(cls(items))):
            return
        fast, spec = built
        assert_same(fast, spec)
        model = dict(items)
        assert_like(fast, model)
        # … and they stay equal: growth rebuilds and bucket reseeds along
        # the way start from the same state on both sides.
        pool = keys or [0]
        sample = pool[0]
        for op, n in program:
            # Resident keys and fresh ones of the key set's own form.
            key = pool[n % len(pool)]
            if n & 1:
                key = (
                    tuple(c + n for c in sample) if isinstance(sample, tuple)
                    else sample + n
                )
            if op == "update" and model:
                key = sorted(model, key=repr)[n % len(model)]
            if op == "rebuild":
                on_both(fast, spec, lambda h: h.rebuild())
            elif op == "remove":
                on_both(fast, spec, lambda h: h.remove(key))
                model.pop(key, None)
            elif on_both(fast, spec, lambda h: h.insert(key, ("new", n))):
                model[key] = ("new", n)
            assert_same(fast, spec)
            assert_like(fast, model)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33])
    def test_min_slots_and_doubling_boundaries(self, n):
        items = {(i * 2654435761) % (1 << 48): i for i in range(n)}
        fast, spec = CollisionFreeHash(items), ScalarReference(items)
        assert_same(fast, spec)
        assert fast.slot_count >= max(CollisionFreeHash.MIN_SLOTS, 4 * n)

    @pytest.mark.parametrize("items", [
        {(): "lone empty key"},  # a key with no column to mix
        {(): "a", (0,): "b", (0, 0): "c"},
        {(1 << 63) - 1: "a", 1 << 63: "b"},  # either side of the int64 column
        {((1 << 63) - 1, 5): "a", (1 << 63, 5): "b"},
        {True: "a", 2: "b"},
    ])
    def test_corner_key_sets(self, items):
        assert_same(CollisionFreeHash(items), ScalarReference(items))

    @pytest.mark.parametrize("cls", [CollisionFreeHash, ScalarReference])
    def test_duplicate_mix_set_still_gives_up(self, cls):
        """``0`` and ``(0,)`` mix alike under every seed: a typed error
        after exactly MAX_SEED_TRIES, never a loop — and the same
        telemetry as the spec on the way there."""
        h = cls({5: "a"})
        before = h.telemetry
        with pytest.raises(HashBuildError):
            h.insert((5,), "b")
        after = h.telemetry
        assert after["seed_attempts"] - before["seed_attempts"] == cls.MAX_SEED_TRIES
        with pytest.raises(HashBuildError):
            cls({0: "a", (0,): "b"})

    def test_duplicate_mix_telemetry_matches(self):
        fast, spec = CollisionFreeHash({5: "a"}), ScalarReference({5: "a"})
        for h in (fast, spec):
            with pytest.raises(HashBuildError):
                h.insert((5,), "b")
        assert_same(fast, spec)

    def test_large_mac_table(self):
        import random

        rng = random.Random(1)
        items = {rng.getrandbits(48): i for i in range(20_000)}
        assert_same(CollisionFreeHash(items), ScalarReference(items))


def one_key_buckets_displaced(h: CollisionFreeHash) -> int:
    return sum(
        1 for bucket, keys in buckets(h).items()
        if len(keys) == 1 and h._disp[bucket]
    )


class TestChunkedPlacement:
    """The build converts its columns a chunk at a time, and a search
    that lands on a claim in a later chunk leaves it on the heap for that
    chunk. Chunk edges change no choice: any chunk size lays out the
    spec's table."""

    @settings(max_examples=150, deadline=None)
    @given(key_sets, st.integers(1, 9))
    def test_any_chunk_size_lays_out_the_spec(self, keys, chunk):
        chunked = type("Chunked", (CollisionFreeHash,), {"CHUNK_BUCKETS": chunk})
        items = {k: ("v", i) for i, k in enumerate(sorted(keys, key=repr))}
        built = []
        if on_both(chunked, ScalarReference, lambda cls: built.append(cls(items))):
            assert_same(*built)

    def test_one_chunk_and_many_agree_at_scale(self):
        items = {(i * 2654435761) % (1 << 48): i for i in range(5_000)}
        chunked = type("Chunked", (CollisionFreeHash,), {"CHUNK_BUCKETS": 7})
        whole = type("Whole", (CollisionFreeHash,), {"CHUNK_BUCKETS": 1 << 20})
        assert_same(chunked(items), whole(items))
        assert_same(chunked(items), ScalarReference(items))


class TestSearchedBuckets:
    """Failed attempts count the probes the spec counts: the buckets
    before the failing one that no search reached took d = 0, one probe
    each, and the failing bucket its own."""

    @staticmethod
    def failed_attempts(cls, keys) -> dict:
        table = cls.__new__(cls)
        with pytest.raises(HashBuildError):
            table._start(dict.fromkeys(keys), keys)
        return table.telemetry

    def test_equal_hashes_late_in_the_order(self):
        """``0`` and ``(0,)`` mix alike under every seed; coming last,
        their bucket fails late in CHD order on every attempt."""
        import random

        rng = random.Random(3)
        keys = list({rng.getrandbits(48) | 1 for _ in range(3_000)}) + [0, (0,)]
        fast = self.failed_attempts(CollisionFreeHash, keys)
        assert fast == self.failed_attempts(ScalarReference, keys)
        assert fast["seed_attempts"] == CollisionFreeHash.MAX_SEED_TRIES
        # Hundreds of buckets go before the pair's on each attempt (about
        # 700 hold several keys; the pair's is last among its size).
        assert fast["reseed_probes"] > 200 * CollisionFreeHash.MAX_SEED_TRIES

    @settings(max_examples=100, deadline=None)
    @given(key_sets, st.integers(1, 3))
    def test_a_tight_budget_fails_as_the_spec_does(self, keys, tries):
        """With a displacement budget of a few tries, attempts fail on
        ``grow`` (and the table grows) as often as they succeed."""
        fast = type("Tight", (CollisionFreeHash,), {"MAX_DISP_TRIES": tries})
        spec = type("TightSpec", (ScalarReference,), {"MAX_DISP_TRIES": tries})
        items = {k: ("v", i) for i, k in enumerate(sorted(keys, key=repr))}
        built = []
        if on_both(fast, spec, lambda cls: built.append(cls(items))):
            assert_same(*built)


class TestFromColumns:
    """A key column and a value column build the table the first-row
    dict of those rows builds: a repeated key keeps its first value."""

    @settings(max_examples=100, deadline=None)
    @given(key_sets, st.lists(st.integers(0, 1 << 16), max_size=40))
    def test_columns_build_the_first_row_dict_s_table(self, keys, repeats):
        keys = sorted(keys, key=repr)
        rows = [(k, ("v", i)) for i, k in enumerate(keys)]
        if keys:  # repeated keys, each with a value of its own, anywhere
            for j, n in enumerate(repeats):
                rows.insert(n % (len(rows) + 1), (keys[n % len(keys)], ("again", j)))
        first: dict = {}
        for key, value in rows:
            first.setdefault(key, value)
        try:
            built = CollisionFreeHash.from_columns([k for k, _v in rows], [v for _k, v in rows])
        except HashBuildError:  # a ragged set may hold ``5`` beside ``(5,)``
            with pytest.raises(HashBuildError):
                CollisionFreeHash(first)
            return
        assert_same(built, CollisionFreeHash(first))
        assert_like(built, first)

    def test_the_first_row_wins(self):
        h = CollisionFreeHash.from_columns([7, (1, 2), 7, (1, 2)], ["a", "b", "c", "d"])
        assert len(h) == 2 and h.get(7) == "a" and h.get((1, 2)) == "b"
        assert h.rebuild_count == 1  # one build, as ``cls(items)`` makes

    def test_the_first_row_wins_at_scale(self):
        """Repeats spread over a large column, some of them rows after
        their first by tens of thousands."""
        import random

        rng = random.Random(11)
        keys = list({rng.getrandbits(48) for _ in range(20_000)})
        rows = [(k, ("v", i)) for i, k in enumerate(keys)]
        for j in range(500):
            rows.insert(rng.randrange(len(rows) + 1),
                        (keys[rng.randrange(len(keys))], ("again", j)))
        first: dict = {}
        for key, value in rows:
            first.setdefault(key, value)
        built = CollisionFreeHash.from_columns([k for k, _v in rows], [v for _k, v in rows])
        assert_same(built, ScalarReference(first))
        assert_like(built, first)


class TestParityAtScale:
    """The hypothesis sets stop at 300 keys; the searches, their ``d >= 1``
    arms and the claims a search lands on need a crowded table to run."""

    N = 20_000

    def check(self, items):
        fast, spec = CollisionFreeHash(items), ScalarReference(items)
        assert_same(fast, spec)
        assert one_key_buckets_displaced(fast) > 0

    def test_l2_macs(self):
        from repro.usecases import l2

        _pipeline, macs = l2.build(self.N, seed=3)
        self.check({mac: i for i, mac in enumerate(macs)})

    def test_1e5_random_macs(self):
        import random

        rng = random.Random(9)
        items: dict = {}
        while len(items) < 100_000:
            items.setdefault(rng.getrandbits(48), len(items))
        self.check(items)

    def test_compound_keys(self):
        import random

        rng = random.Random(5)
        items: dict = {}
        while len(items) < self.N:
            key = (rng.randrange(64), rng.getrandbits(12), rng.getrandbits(48))
            items.setdefault(key, len(items))
        self.check(items)


def run_isolated(body: str, timeout: float = 30.0) -> str:
    """Run ``body`` in a fresh interpreter that dies at ``timeout``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-c", "from repro.dpdk.hash import *\n" + body],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestNegativeKeys:
    """Header fields are naturals. Storing a negative component is a typed
    error; looking one up terminates and misses."""

    def test_lookups_of_negative_keys_return(self):
        out = run_isolated(
            "h = CollisionFreeHash({1: 'x', (2, 3): 'y'})\n"
            "print(h.get(-5), h.get_traced(-5)[0], -1 in h,\n"
            "      h.get((2, -3)), h.get(-(1 << 70), 'dflt'), h.get(1))\n"
        )
        assert out == "None None False None dflt x"

    def test_lookup_on_an_empty_table_returns(self):
        assert run_isolated("print(CollisionFreeHash().get(-1))") == "None"

    def test_construction_rejects_negative_components(self):
        for items in ({-5: "x"}, {1: "a", -1: "b"}, {(1, -2): "x"},
                      {-(1 << 70): "x"}, {(1 << 70, -1): "x"}):
            with pytest.raises(HashKeyError):
                CollisionFreeHash(items)

    def test_minus_one_and_one_no_longer_collide_silently(self):
        # The old fold mapped -1 onto 1 under every seed: two distinct
        # keys, HashBuildError after 64 seeds. Now it is the key's fault,
        # said so at once.
        with pytest.raises(HashKeyError):
            CollisionFreeHash({-1: "a", 1: "b"})

    def test_insert_rejects_and_leaves_the_table_alone(self):
        h = CollisionFreeHash({1: "a", 2: "b"})
        before = layout(h)[:-1]  # telemetry counts attempts, failed ones too
        for key in (-1, (3, -4), -(1 << 80)):
            with pytest.raises(HashKeyError):
                h.insert(key, "x")
        assert layout(h)[:-1] == before
        assert len(h) == 2 and set(h) == {1, 2}

    @pytest.mark.parametrize("cls", [CollisionFreeHash, ScalarReference])
    def test_rejected_insert_on_a_growth_step_builds_nothing(self, cls):
        """The key is checked before the growth decision: a rejected key
        that would have grown the table leaves its telemetry alone too."""
        h = cls({1: "a"})
        h.insert(2, "b")  # the next new key crosses the load factor
        before = layout(h)
        with pytest.raises(HashKeyError):
            h.insert(-5, "x")
        assert layout(h) == before
        assert h.rebuild_count == 1 and h.rebuild_keys == 1

    def test_key_error_is_a_value_error(self):
        assert issubclass(HashKeyError, ValueError)


class TestInsertIsAtomic:
    """A failed insert leaves exactly the table that was there."""

    @staticmethod
    def structure(h):
        return (dict(h.items()), slots(h), list(h._disp), list(h._bucket_keys))

    def test_growth_rebuild_failure_restores_absence(self):
        class Hostile(CollisionFreeHash):
            MAX_SEED_TRIES = 0

        h = CollisionFreeHash({1: "a", 2: "b"})  # 8 slots: a third key grows
        before = self.structure(h)
        h.__class__ = Hostile
        with pytest.raises(HashBuildError):
            h.insert(3, "c")
        assert len(h) == 2
        assert set(h) == {1, 2}
        assert 3 not in h and h.get(3) is None
        assert self.structure(h) == before
        assert h.get(1) == "a" and h.get(2) == "b"

    def test_collision_path_failure_restores_bucket_membership(self):
        class Hostile(CollisionFreeHash):
            MAX_SEED_TRIES = 0
            MAX_DISP_TRIES = 0  # every bucket reseed escalates to a build

        h = CollisionFreeHash({i: i for i in range(100)})
        # A fresh key whose slot another key already holds.
        for key in range(1_000, 100_000):
            if h._occupied[slot_of(h, key)]:
                break
        before = self.structure(h)
        h.__class__ = Hostile
        with pytest.raises(HashBuildError):
            h.insert(key, "x")
        assert self.structure(h) == before
        assert len(h) == 100 and key not in h
        assert all(h.get(i) == i for i in range(100))


class TestRebuildOrder:
    """The layout of a rebuild depends on the order its keys come in (CHD
    breaks ties among equal-size buckets by first appearance), so that
    order is pinned: the resident keys in slot order, then the newcomer,
    never the dict's order of first storage."""

    def test_growth_rebuild_lays_out_the_resident_keys_in_slot_order(self):
        h = CollisionFreeHash({(i * 2654435761) % (1 << 48): i for i in range(32)})
        assert h.slot_count == 128  # a 33rd key crosses the load factor
        by_slot = [pair[0] for pair in slots(h) if pair is not None]
        assert by_slot != list(h)  # the two orders differ here
        laid: list = []
        build = h._build
        h._build = lambda keys: (laid.append(list(keys)), build(keys))
        h.insert(7, "newcomer")
        assert laid == [by_slot + [7]]
