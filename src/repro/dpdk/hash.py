"""A collision-free hash table — the compound hash template's backing store.

The paper's compound hash template uses "a collision free hash; even though
it requires more memory and more time to build, it supports fast constant
time lookups, a key to a robust datapath performance" (Section 3.1), and the
switch rebuilds it "periodically … to minimize hash collisions"
(Section 3.4).

Lookups are a single probe: one seeded mix over the key, then

    bucket = h & bucket_mask
    index  = ((h ^ disp[bucket]) * GOLD mod 2^64) >> shift

where ``disp`` is a small per-bucket displacement (a CHD-style two-level
perfect hash). A colliding ``insert()`` therefore only reseeds the one
bucket it lands in — the displacement search re-homes that bucket's handful
of keys into free slots — instead of re-hashing the whole table. Full
redistributions happen only on geometric growth (table doubles when the
load factor crosses 1/OVERSIZE_FACTOR), so a build-from-empty of n keys
does O(log n) full rebuilds and O(n) total redistributed keys, and the
whole insert sequence is amortized O(n log n) work. The old implementation
reseeded the *entire* table on every collision — a rebuild storm at 10⁶
entries.

Keys are integers or tuples of integers (compound keys: the template "runs
together relevant header fields into a single key").

Key components are header-field values and therefore naturals: a negative
component is rejected with a typed :class:`HashKeyError` when the key is
stored (construction, ``insert``); a *lookup* of one terminates and misses.

Adversarial key sets (distinct keys whose mix collides under every seed,
e.g. ``0`` and ``(0,)``) are detected and rejected with a typed
:class:`HashBuildError` after a bounded number of seed attempts instead of
looping forever.

A full build computes the mix and the bucket grouping of every key at once
(numpy columns), then runs the sequential displacement search over plain
int lists, converted one chunk of buckets at a time; see DESIGN.md §10 for
why each key's slot index is pinned. :meth:`CollisionFreeHash.from_columns`
builds from a key column and a value column, with no key dict.
The slots are two parallel columns (``_slot_keys``, ``_slot_vals``), and
they are the only place a key and its value live: length, iteration and
updates read them, and a rebuild takes the resident keys in slot order.
Bucket membership is one list indexed by bucket (None, a lone non-tuple
key held bare, or a tuple of keys), so a stored key costs the cyclic
collector no container of the table's own.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

Key = "int | tuple[int, ...]"

#: Slots per 64-byte cache line assumed by the cost model (16-byte entries).
SLOTS_PER_LINE = 4

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
#: Fibonacci multiplier for the multiply-shift slot hash (odd, well mixed).
_GOLD = 0x9E3779B97F4A7C15


class HashKeyError(ValueError):
    """A key with a negative component was offered for storage."""


def _mix(key: "int | tuple[int, ...]", seed: int) -> int:
    """A seeded FNV-1a style mix over the key's integer components."""
    h = (_FNV_OFFSET ^ seed) & _MASK64
    if isinstance(key, int):
        components: tuple[int, ...] = (key,)
    else:
        components = key
    for part in components:
        if part < 0:
            raise HashKeyError(f"negative key component in {key!r}")
        while True:
            h = ((h ^ (part & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
            part >>= 32
            if not part:
                break
    h ^= h >> 33
    return h


_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S33 = np.uint64(33)
_NP_PRIME = np.uint64(_FNV_PRIME)
_NP_GOLD = np.uint64(_GOLD)


def _mix_all(keys: list, seed: int) -> "np.ndarray":
    """:func:`_mix` of every key, as one ``uint64`` column.

    Keys whose components all fit a signed 64-bit column are mixed
    columnwise (``uint64`` arithmetic wraps exactly like ``& _MASK64``;
    such a component has at most two 32-bit chunks, the second skipped
    where it is zero). Anything numpy cannot hold that way — wider
    components, ragged or mixed int/tuple key sets — and any negative
    component goes through the scalar :func:`_mix`, which is the spec.
    """
    try:
        columns = np.array(keys, dtype=np.int64)
    except (OverflowError, ValueError, TypeError):
        columns = None
    if (
        columns is None
        or columns.ndim != (1 if isinstance(keys[0], int) else 2)
        or not columns.size  # the lone key ``()``: no column to mix
        or columns.min() < 0
    ):
        return np.array([_mix(key, seed) for key in keys], dtype=np.uint64)
    columns = columns.view(np.uint64)
    h = np.uint64((_FNV_OFFSET ^ seed) & _MASK64)  # broadcasts over the column
    for part in (columns,) if columns.ndim == 1 else columns.T:
        h = (h ^ (part & _U32)) * _NP_PRIME
        high = part >> _S32
        wide = high != 0
        if wide.any():
            h = np.where(wide, (h ^ high) * _NP_PRIME, h)
    h ^= h >> _S33
    return h


class RebuildRequired(RuntimeError):
    """Internal signal: no collision-free layout found at the current size."""


class HashBuildError(RuntimeError):
    """No collision-free layout exists within the attempt budget.

    Raised for adversarial key sets — distinct keys whose mix collides
    under every seed — instead of looping forever growing the table.
    """


class CollisionFreeHash:
    """Two-level (bucket-displaced) perfect hash with single-probe lookups."""

    #: Slots allocated per key (the memory-for-speed trade).
    OVERSIZE_FACTOR = 4
    #: Top-level seeds tried per full build before giving up (typed error).
    MAX_SEED_TRIES = 64
    #: Displacement values tried per bucket before escalating to a rebuild.
    MAX_DISP_TRIES = 256
    MIN_SLOTS = 8

    #: Occupied buckets placed per chunk of a full build: only one
    #: chunk's slice of each column is held as Python ints at a time.
    CHUNK_BUCKETS = 1 << 10

    def __init__(self, items: "dict | None" = None):
        items = items or {}
        self._start(list(items), list(items.values()))

    @classmethod
    def from_columns(cls, keys: list, values: list) -> "CollisionFreeHash":
        """The table mapping ``keys[i]`` to ``values[i]``, built from the two
        columns without a key dict: a repeated key keeps its first row.
        The same table as ``cls(items)`` over those rows."""
        if len(set(keys)) < len(keys):
            keys, values = _first_rows(keys, values)
        table = cls.__new__(cls)
        table._start(keys, values)
        return table

    def _start(self, keys: list, values: list) -> None:
        self._count = 0
        self._seed = 0
        #: the slots as two columns: a key (None = empty) and its value
        self._slot_keys: list = []
        self._slot_vals: list = []
        self._nslots = 0
        self._shift = 64
        self._bmask = 0
        self._disp: list = []
        #: keys per bucket: None, a lone non-tuple key, or a tuple of keys
        self._bucket_keys: list = []
        # -- telemetry (the cycle model and the scale tests read these) --
        self.rebuild_count = 0  # full redistributions (growth / rebuild())
        self.bucket_reseeds = 0  # bucket-local displacement searches
        self.displaced_keys = 0  # existing keys re-homed by bucket reseeds
        self.seed_attempts = 0  # top-level seeds tried across all builds
        self.reseed_probes = 0  # displacement candidates tried, total
        self.rebuild_keys = 0  # keys redistributed by full rebuilds, total
        self._build(keys, values)

    # -- lookups ----------------------------------------------------------

    def get(self, key: Key, default: object = None) -> object:
        """Single-probe lookup (the ``_mix`` loop inlined: this runs per
        packet, and the call frame would cost more than the mix itself)."""
        h = (_FNV_OFFSET ^ self._seed) & _MASK64
        for part in (key,) if isinstance(key, int) else key:
            while True:
                h = ((h ^ (part & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
                part >>= 32
                if part <= 0:  # <= : a negative (never stored) key ends too
                    break
        h ^= h >> 33
        index = ((h ^ self._disp[h & self._bmask]) * _GOLD & _MASK64) >> self._shift
        if self._slot_keys[index] == key:
            return self._slot_vals[index]
        return default

    def get_traced(self, key: Key, default: object = None) -> tuple[object, int]:
        """Lookup plus the abstract cache-line id probed (for the cost model)."""
        h = (_FNV_OFFSET ^ self._seed) & _MASK64
        for part in (key,) if isinstance(key, int) else key:
            while True:
                h = ((h ^ (part & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
                part >>= 32
                if part <= 0:  # <= : a negative (never stored) key ends too
                    break
        h ^= h >> 33
        index = ((h ^ self._disp[h & self._bmask]) * _GOLD & _MASK64) >> self._shift
        line = index // SLOTS_PER_LINE
        if self._slot_keys[index] == key:
            return self._slot_vals[index], line
        return default, line

    def __contains__(self, key: Key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator:
        return (key for key in self._slot_keys if key is not None)

    def items(self) -> Iterator[tuple]:
        """``(key, value)`` pairs, in slot order."""
        return ((k, v) for k, v in zip(self._slot_keys, self._slot_vals) if k is not None)

    @property
    def slot_count(self) -> int:
        return self._nslots

    @property
    def telemetry(self) -> dict:
        """Counters for the scale tests and bench points."""
        return {
            "rebuild_count": self.rebuild_count,
            "bucket_reseeds": self.bucket_reseeds,
            "displaced_keys": self.displaced_keys,
            "seed_attempts": self.seed_attempts,
            "reseed_probes": self.reseed_probes,
            "rebuild_keys": self.rebuild_keys,
        }

    def footprint(self) -> dict:
        """Estimated resident bytes of the lookup structure.

        Slots are the two columns, 16 bytes each (the cost model's entry
        size); the displacement array and the bucket index 8 bytes per
        bucket each. Keys and values are the caller's objects.
        """
        nbuckets = self._bmask + 1
        return {
            "kind": "hash",
            "entries": self._count,
            "slots": self._nslots,
            "buckets": nbuckets,
            "bytes": self._nslots * 16 + nbuckets * 16,
        }

    # -- updates -------------------------------------------------------------

    def insert(self, key: Key, value: object) -> None:
        """Insert or update. Amortized O(1): in-slot place on the fast path,
        a bucket-local reseed on collision, a full (geometric) rebuild only
        when the load factor crosses 1/OVERSIZE_FACTOR.

        Atomic: when no layout is found (:class:`HashBuildError`) or the
        key is rejected (:class:`HashKeyError`), the table is exactly what
        it was before the call — its telemetry too, for a rejected key,
        which is mixed before anything else. A failed reseed puts back the
        slots it freed and a failed build assigns nothing, so there is
        nothing to undo.
        """
        h = _mix(key, self._seed)
        bucket = h & self._bmask
        index = ((h ^ self._disp[bucket]) * _GOLD & _MASK64) >> self._shift
        held = self._slot_keys[index]
        if held == key:  # resident: a value update
            self._slot_vals[index] = value
        elif (self._count + 1) * self.OVERSIZE_FACTOR > self._nslots:
            self._build(*self._laid_out((key, value)))
        elif held is None:
            self._slot_keys[index] = key
            self._slot_vals[index] = value
            self._bucket_keys[bucket] = _bucket_of(_members(self._bucket_keys[bucket]) + (key,))
            self._count += 1
        elif not self._reseed_bucket(bucket, key, value):
            self._build(*self._laid_out((key, value)))

    def remove(self, key: Key) -> bool:
        """Remove a key; no rebuild needed (the slot just empties)."""
        if key not in self:
            return False
        h = _mix(key, self._seed)
        bucket = h & self._bmask
        index = ((h ^ self._disp[bucket]) * _GOLD & _MASK64) >> self._shift
        self._slot_keys[index] = self._slot_vals[index] = None
        self._count -= 1
        keys = _members(self._bucket_keys[bucket])
        i = keys.index(key)
        self._bucket_keys[bucket] = _bucket_of(keys[:i] + keys[i + 1:])
        return True

    def rebuild(self) -> None:
        """Force the periodic rebuild of Section 3.4."""
        self._build(*self._laid_out())

    # -- internals -------------------------------------------------------------

    def _laid_out(self, *newcomer: tuple) -> "tuple[list, list]":
        """What every rebuild after construction lays out: the resident
        keys and values in slot order, then a newcomer's ``(key, value)``."""
        pairs = [*self.items(), *newcomer]
        return [k for k, _v in pairs], [v for _k, v in pairs]

    def _reseed_bucket(self, bucket: int, key: Key, value: object) -> bool:
        """Re-home one bucket's keys and the newcomer ``key`` (which holds
        no slot yet) under a fresh displacement.

        Only this bucket's keys move; every other bucket's slots are
        untouched. Returns False when no displacement works within the
        budget (caller escalates to a full rebuild).
        """
        keys = _members(self._bucket_keys[bucket]) + (key,)
        hashes = [_mix(k, self._seed) for k in keys]
        if len(set(hashes)) != len(keys):
            return False  # un-separable within this bucket: escalate
        shift = self._shift
        slot_keys, slot_vals = self._slot_keys, self._slot_vals
        # Free the old members' slots so they count as candidates.
        old_disp = self._disp[bucket]
        old = [((h ^ old_disp) * _GOLD & _MASK64) >> shift for h in hashes[:-1]]
        values = [slot_vals[i] for i in old] + [value]
        for i in old:
            slot_keys[i] = slot_vals[i] = None
        self.bucket_reseeds += 1
        for disp in range(old_disp + 1, old_disp + 1 + self.MAX_DISP_TRIES):
            self.reseed_probes += 1
            indexes = [((h ^ disp) * _GOLD & _MASK64) >> shift for h in hashes]
            if len(set(indexes)) == len(indexes) and all(
                slot_keys[i] is None for i in indexes
            ):
                for k, v, i in zip(keys, values, indexes):
                    slot_keys[i] = k
                    slot_vals[i] = v
                self._disp[bucket] = disp
                self._bucket_keys[bucket] = _bucket_of(keys)
                self._count += 1
                self.displaced_keys += len(keys) - 1
                return True
        # Nothing worked: put the old members back, so the table stays
        # consistent for the full rebuild that follows.
        for k, v, i in zip(keys, values, old):
            slot_keys[i] = k
            slot_vals[i] = v
        return False

    def _build(self, keys: list, values: list) -> None:
        """Full redistribution: pick sizes and a seed, place ``keys``.

        Geometric sizing (power-of-two slots ≥ OVERSIZE_FACTOR·n) bounds
        full rebuilds at O(log n) over any insert sequence. A key set that
        defeats MAX_SEED_TRIES seeds raises :class:`HashBuildError`.
        """
        self.rebuild_count += 1
        n = len(keys)
        self.rebuild_keys += n
        slot_bits = 3  # MIN_SLOTS == 8
        while (1 << slot_bits) < n * self.OVERSIZE_FACTOR:
            slot_bits += 1
        base_seed = self._seed
        for attempt in range(self.MAX_SEED_TRIES):
            seed = (base_seed + attempt + 1) * _GOLD & _MASK64
            self.seed_attempts += 1
            try:
                self._try_build(slot_bits, seed, keys, values)
                self._count = n
                return
            except RebuildRequired as exc:
                # Growth only helps when keys actually hash apart; a
                # duplicate full hash needs a different seed, not memory.
                if exc.args and exc.args[0] == "grow":
                    slot_bits += 1
        raise HashBuildError(
            f"no collision-free layout for {n} keys after "
            f"{self.MAX_SEED_TRIES} seeds (adversarial key set?)"
        )

    def _try_build(self, slot_bits: int, seed: int, keys: list, values: list) -> None:
        nslots = 1 << slot_bits
        nbuckets = max(2, nslots // self.OVERSIZE_FACTOR)
        shift = 64 - slot_bits
        placed = self._place_all(seed, nslots, nbuckets, shift, keys, values)
        self._seed = seed
        self._slot_keys, self._slot_vals, self._disp, self._bucket_keys = placed
        self._nslots = nslots
        self._shift = shift
        self._bmask = nbuckets - 1

    def _place_all(
        self, seed: int, nslots: int, nbuckets: int, shift: int, keys: list, values: list
    ) -> "tuple[list, list, list, list]":
        """``(slot_keys, slot_vals, disp, bucket_keys)`` holding every key
        with its value, or raise :class:`RebuildRequired`.

        Mix, bucket grouping and the bucket order are computed columnwise;
        the displacement search stays sequential because each bucket's
        choice depends on the slots every earlier bucket took. Buckets go
        largest first (classic CHD: they need the most freedom), ties in
        order of first appearance among ``keys``, and a bucket's keys keep
        their order there. The one-key buckets therefore close the
        order (about two thirds of the occupied buckets at load 1/4), and
        they are placed key by key: the first free slot of
        ``d = 0, 1, …``, which is the search above with nothing to keep
        apart. The search walks the order ``CHUNK_BUCKETS`` buckets at a
        time, so its per-key ints and lists are one chunk's, not the
        table's; the chunking changes no choice it makes.
        """
        slot_keys: list = [None] * nslots
        slot_vals: list = [None] * nslots
        disp = [0] * nbuckets
        bucket_keys: list = [None] * nbuckets
        if not keys:
            return slot_keys, slot_vals, disp, bucket_keys
        # ndarray methods and in-place ufuncs rather than the np.diff /
        # np.append / np.flatnonzero wrappers: a 16-key table pays every
        # call's fixed cost, and gateway builds six of those in 8 ms.
        n = len(keys)
        hashes = _mix_all(keys, seed)
        buckets = hashes & np.uint64(nbuckets - 1)
        by_bucket = buckets.argsort(kind="stable")
        grouped = buckets[by_bucket]
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=is_start[1:])
        starts = is_start.nonzero()[0]
        sizes = np.empty_like(starts)
        sizes[:-1] = starts[1:]
        sizes[-1] = n
        sizes -= starts
        # Stable grouping: a bucket's first member is its first appearance.
        ranked = np.lexsort((by_bucket[starts], -sizes))
        starts, sizes = starts[ranked], sizes[ranked]
        ends = sizes.cumsum()
        # Key indexes laid out bucket after bucket, in processing order.
        layout = by_bucket[(starts - (ends - sizes)).repeat(sizes) + np.arange(n)]
        hashes = hashes[layout]
        first_try = (hashes * _NP_GOLD) >> np.uint64(shift)  # d = 0
        order = grouped[starts]
        several = int((sizes > 1).sum())  # ranked first: sizes descend
        occupied = len(order)
        step = self.CHUNK_BUCKETS
        max_tries = self.MAX_DISP_TRIES
        probes = 0
        lo = 0
        try:
            # The buckets in order, a chunk at a time: only the chunk's
            # slice of each column becomes Python ints and lists. A table
            # that fits one chunk converts the columns whole.
            for b0 in range(0, occupied, step):
                b1 = min(b0 + step, occupied)
                if occupied <= step:
                    hi = n
                    mixed, tried, rows = hashes.tolist(), first_try.tolist(), layout.tolist()
                    ids, counts = order.tolist(), sizes.tolist()
                else:
                    hi = n if b1 == occupied else int(ends[b1 - 1])
                    mixed, tried = hashes[lo:hi].tolist(), first_try[lo:hi].tolist()
                    rows = layout[lo:hi].tolist()
                    ids, counts = order[b0:b1].tolist(), sizes[b0:b1].tolist()
                laid_keys = [keys[i] for i in rows]
                laid_vals = [values[i] for i in rows]
                multi = max(0, min(b1, several) - b0)  # this chunk's several
                at = 0
                for bucket, size in zip(islice(ids, multi), counts):
                    end = at + size
                    mine = mixed[at:end]
                    if len(set(mine)) != size:
                        raise RebuildRequired("dup")  # same hash: reseed, don't grow
                    indexes = tried[at:end]
                    for d in range(max_tries):
                        probes += 1
                        if d:
                            indexes = [((h ^ d) * _GOLD & _MASK64) >> shift for h in mine]
                        if len(set(indexes)) == size:
                            for i in indexes:
                                if slot_keys[i] is not None:
                                    break
                            else:
                                break  # every candidate slot is free: take them
                    else:
                        raise RebuildRequired("grow")
                    members = tuple(laid_keys[at:end])
                    for i, key, value in zip(indexes, members, laid_vals[at:end]):
                        slot_keys[i] = key
                        slot_vals[i] = value
                    disp[bucket] = d
                    bucket_keys[bucket] = members
                    at = end
                for bucket, j in zip(islice(ids, multi, None), range(at, hi - lo)):
                    i = tried[j]
                    d = 0
                    probes += 1
                    if slot_keys[i] is not None:
                        h = mixed[j]
                        for d in range(1, max_tries):
                            probes += 1
                            i = ((h ^ d) * _GOLD & _MASK64) >> shift
                            if slot_keys[i] is None:
                                break
                        else:
                            raise RebuildRequired("grow")
                    key = laid_keys[j]
                    slot_keys[i] = key
                    slot_vals[i] = laid_vals[j]
                    disp[bucket] = d
                    bucket_keys[bucket] = (key,) if isinstance(key, tuple) else key
                lo = hi
        finally:
            self.reseed_probes += probes
        return slot_keys, slot_vals, disp, bucket_keys


def _first_rows(keys: list, values: list) -> "tuple[list, list]":
    """The key and value columns of each key's first row, in row order
    (the dict that finds them is gone before anything is placed)."""
    first: dict = {}
    for key, value in zip(keys, values):
        first.setdefault(key, value)
    return list(first), list(first.values())


def _members(held: object) -> tuple:
    """A bucket's keys, from its entry: None, a lone non-tuple key, or a tuple."""
    return () if held is None else held if isinstance(held, tuple) else (held,)


def _bucket_of(keys: tuple) -> object:
    """The entry for a bucket's ``keys``: a lone non-tuple key is held bare."""
    if len(keys) == 1 and not isinstance(keys[0], tuple):
        return keys[0]
    return keys or None
