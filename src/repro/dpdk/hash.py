"""A collision-free hash table — the compound hash template's backing store.

The paper's compound hash template uses "a collision free hash; even though
it requires more memory and more time to build, it supports fast constant
time lookups, a key to a robust datapath performance" (Section 3.1), and the
switch rebuilds it "periodically … to minimize hash collisions"
(Section 3.4).

The table is two things. One dict holds each key with its value; it
answers ``get``, ``in``, ``len``, iteration and ``items``, and lives as
long as the table. Beside it, the perfect hash is only a *layout*: the
slot the model prices for each key (Section 4.4 charges the cache line a
probe touches, not the instructions that find it). A key's slot is one
seeded mix over the key, then

    bucket = h & bucket_mask
    index  = ((h ^ disp[bucket]) * GOLD mod 2^64) >> shift

where ``disp`` is a small per-bucket displacement (a CHD-style two-level
perfect hash). A colliding ``insert()`` therefore only reseeds the one
bucket it lands in — the displacement search re-homes that bucket's handful
of keys into free slots — instead of re-hashing the whole table. Full
redistributions happen only on geometric growth (table doubles when the
load factor crosses 1/OVERSIZE_FACTOR), so a build-from-empty of n keys
does O(log n) full rebuilds and O(n) total redistributed keys, and the
whole insert sequence is amortized O(n log n) work.

Keys are integers or tuples of integers (compound keys: the template "runs
together relevant header fields into a single key").

Key components are header-field values and therefore naturals: a negative
component is rejected with a typed :class:`HashKeyError` when the key is
stored (construction, ``insert``); a *lookup* of one terminates and misses.

Adversarial key sets (distinct keys whose mix collides under every seed,
e.g. ``0`` and ``(0,)``) are detected and rejected with a typed
:class:`HashBuildError` after a bounded number of seed attempts instead of
looping forever.

A full build computes the mix, the bucket order and most displacements
of every key at once (numpy columns); Python searches only the buckets
whose ``d = 0`` slots an earlier bucket may take, over int lists converted
one chunk of buckets at a time. See DESIGN.md §10 for why each key's slot
index is pinned. The layout keeps what the model prices and what an
incremental ``insert`` needs: the seed, the displacements, bucket
membership (one list indexed by bucket: None, a lone non-tuple key held
bare, or a tuple of keys, so a stored key costs the cyclic collector no
container of the table's own) and one occupancy byte per slot. A
rebuild takes the resident keys in slot order, computed from the layout.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from typing import ItemsView, Iterator

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


def _mix_all(keys: list, seed: int) -> "tuple[np.ndarray, int]":
    """:func:`_mix` of every key, as one ``uint64`` column, and the keys'
    form: 1 when they are ints, 2 when they are tuples of one arity, 0
    when that is not known.

    Keys whose components all fit an unsigned 64-bit column are mixed
    columnwise (``uint64`` arithmetic wraps exactly like ``& _MASK64``;
    such a component has at most two 32-bit chunks, the second skipped
    where it is zero). Anything numpy cannot hold that way — components
    of 2⁶⁴ or more, negative ones, ragged or mixed int/tuple key sets —
    goes through the scalar :func:`_mix`, which is the spec.
    """
    try:
        columns = np.array(keys, dtype=np.uint64)
    except (OverflowError, ValueError, TypeError):  # ≥ 2⁶⁴ or negative; ragged
        columns = None
    if (
        columns is None
        or columns.ndim != (1 if isinstance(keys[0], int) else 2)
        or not columns.size  # the lone key ``()``: no column to mix
    ):
        return np.array([_mix(key, seed) for key in keys], dtype=np.uint64), 0
    h = (_FNV_OFFSET ^ seed) & _MASK64  # broadcasts over the column
    for part in (columns,) if columns.ndim == 1 else columns.T:
        h = (h ^ (part & _U32)) * _NP_PRIME
        high = part >> _S32
        if high.any():
            h = np.where(high != 0, (h ^ high) * _NP_PRIME, h)
    h ^= h >> _S33
    return h, columns.ndim


class RebuildRequired(RuntimeError):
    """Internal signal: no collision-free layout found at the current size."""


class HashBuildError(RuntimeError):
    """No collision-free layout exists within the attempt budget.

    Raised for adversarial key sets — distinct keys whose mix collides
    under every seed — instead of looping forever growing the table.
    """


class CollisionFreeHash:
    """A key -> value dict beside its two-level (bucket-displaced)
    perfect-hash layout."""

    #: Slots allocated per key (the memory-for-speed trade).
    OVERSIZE_FACTOR = 4
    #: Top-level seeds tried per full build before giving up (typed error).
    MAX_SEED_TRIES = 64
    #: Displacement values tried per bucket before escalating to a rebuild.
    MAX_DISP_TRIES = 256
    MIN_SLOTS = 8

    #: Occupied buckets per chunk of a full build: only one chunk's slice
    #: of each column is held as Python ints at a time.
    CHUNK_BUCKETS = 1 << 10

    def __init__(self, items: "dict | None" = None):
        items = dict(items or {})
        self._start(items, list(items))

    @classmethod
    def from_columns(cls, keys: list, values: list) -> "CollisionFreeHash":
        """The table mapping ``keys[i]`` to ``values[i]``: a repeated key
        keeps its first row. The same table as ``cls(items)`` over those
        rows."""
        items = dict(zip(keys, values))
        if len(items) != len(keys):  # a key on two rows: the first wins
            items = {}
            for key, value in zip(keys, values):
                items.setdefault(key, value)
            keys = list(items)
        table = cls.__new__(cls)
        table._start(items, keys)
        return table

    def _start(self, items: dict, keys: list) -> None:
        """Hold ``items`` and lay out its keys, in the order ``keys`` lists."""
        #: each key and its value, the table's one copy of either
        self._map = items
        #: the dict's own lookup: one C call per packet, no mix
        self.get = items.get
        self._seed = 0
        #: one byte per slot, 1 where a key's slot is
        self._occupied = bytearray()
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
        self._build(keys)

    # -- lookups ----------------------------------------------------------

    def get_traced(self, key: Key, default: object = None) -> tuple[object, int]:
        """Lookup plus the abstract cache-line id probed (for the cost model):
        the key's slot under the layout (the ``_mix`` loop inlined), its
        value from the dict."""
        h = (_FNV_OFFSET ^ self._seed) & _MASK64
        for part in (key,) if isinstance(key, int) else key:
            while True:
                h = ((h ^ (part & 0xFFFFFFFF)) * _FNV_PRIME) & _MASK64
                part >>= 32
                if part <= 0:  # <= : a negative (never stored) key ends too
                    break
        h ^= h >> 33
        index = ((h ^ self._disp[h & self._bmask]) * _GOLD & _MASK64) >> self._shift
        return self._map.get(key, default), index // SLOTS_PER_LINE

    def __contains__(self, key: Key) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self) -> Iterator:
        return iter(self._map)

    def items(self) -> ItemsView:
        """``(key, value)`` pairs, in the order the keys were first stored."""
        return self._map.items()

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

        The layout the cost model prices: 16 bytes a slot (its entry
        size), and the displacement array and the bucket index 8 bytes per
        bucket each. Keys and values are the caller's objects.
        """
        nbuckets = self._bmask + 1
        return {
            "kind": "hash",
            "entries": len(self._map),
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
        slots it freed, a failed build assigns nothing, and the dict takes
        the key last, so there is nothing to undo.
        """
        h = _mix(key, self._seed)
        if key not in self._map:  # a newcomer needs a slot first
            bucket = h & self._bmask
            index = ((h ^ self._disp[bucket]) * _GOLD & _MASK64) >> self._shift
            if (len(self._map) + 1) * self.OVERSIZE_FACTOR > self._nslots:
                self._build(self._laid_out(key))
            elif not self._occupied[index]:
                self._occupied[index] = 1
                self._bucket_keys[bucket] = _bucket_of(_members(self._bucket_keys[bucket]) + (key,))
            elif not self._reseed_bucket(bucket, key):
                self._build(self._laid_out(key))
        self._map[key] = value

    def remove(self, key: Key) -> bool:
        """Remove a key; no rebuild needed (the slot just empties)."""
        if key not in self._map:
            return False
        h = _mix(key, self._seed)
        bucket = h & self._bmask
        index = ((h ^ self._disp[bucket]) * _GOLD & _MASK64) >> self._shift
        self._occupied[index] = 0
        del self._map[key]
        keys = _members(self._bucket_keys[bucket])
        i = keys.index(key)
        self._bucket_keys[bucket] = _bucket_of(keys[:i] + keys[i + 1:])
        return True

    def rebuild(self) -> None:
        """Force the periodic rebuild of Section 3.4."""
        self._build(self._laid_out())

    # -- internals -------------------------------------------------------------

    def _laid_out(self, *newcomer: Key) -> list:
        """What every rebuild after construction lays out: the resident
        keys in slot order, then a newcomer key."""
        keys = list(self._map)
        if keys:
            hashes, _form = _mix_all(keys, self._seed)
            disp = np.array(self._disp, dtype=np.uint64)
            disp = disp[(hashes & np.uint64(self._bmask)).view(np.int64)]
            slots = ((hashes ^ disp) * _NP_GOLD) >> np.uint64(self._shift)
            keys = [keys[i] for i in slots.argsort().tolist()]
        return keys + list(newcomer)

    def _reseed_bucket(self, bucket: int, key: Key) -> bool:
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
        occupied = self._occupied
        # Free the old members' slots so they count as candidates.
        old_disp = self._disp[bucket]
        old = [((h ^ old_disp) * _GOLD & _MASK64) >> shift for h in hashes[:-1]]
        for i in old:
            occupied[i] = 0
        self.bucket_reseeds += 1
        for disp in range(old_disp + 1, old_disp + 1 + self.MAX_DISP_TRIES):
            self.reseed_probes += 1
            indexes = [((h ^ disp) * _GOLD & _MASK64) >> shift for h in hashes]
            if len(set(indexes)) == len(indexes) and not any(
                occupied[i] for i in indexes
            ):
                for i in indexes:
                    occupied[i] = 1
                self._disp[bucket] = disp
                self._bucket_keys[bucket] = _bucket_of(keys)
                self.displaced_keys += len(keys) - 1
                return True
        # Nothing worked: put the old members back, so the table stays
        # consistent for the full rebuild that follows.
        for i in old:
            occupied[i] = 1
        return False

    def _build(self, keys: list) -> None:
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
                self._try_build(slot_bits, seed, keys)
                return
            except RebuildRequired as exc:
                # Growth only helps when keys actually hash apart; a
                # duplicate full hash needs a different seed, not memory.
                if exc.args[0] == "grow":
                    slot_bits += 1
        raise HashBuildError(
            f"no collision-free layout for {n} keys after "
            f"{self.MAX_SEED_TRIES} seeds (adversarial key set?)"
        )

    def _try_build(self, slot_bits: int, seed: int, keys: list) -> None:
        nslots = 1 << slot_bits
        nbuckets = max(2, nslots // self.OVERSIZE_FACTOR)
        shift = 64 - slot_bits
        placed = self._place_all(seed, nslots, nbuckets, shift, keys)
        self._seed = seed
        self._occupied, self._disp, self._bucket_keys = placed
        self._nslots = nslots
        self._shift = shift
        self._bmask = nbuckets - 1

    def _place_all(
        self, seed: int, nslots: int, nbuckets: int, shift: int, keys: list
    ) -> "tuple[bytearray, list, list]":
        """``(occupancy, disp, bucket_keys)`` laying out every key, or raise
        :class:`RebuildRequired`.

        The layout is CHD's sequential search: buckets largest first, ties
        in order of first appearance among ``keys`` (a bucket's keys keep
        their order there), and each bucket takes the first ``d = 0, 1, …``
        whose slots are distinct and free. Mix, grouping and order are
        computed columnwise, and so is the answer for most buckets. A row
        *claims* its ``d = 0`` slot when no row before it in the order
        wants that slot; a bucket whose rows all hold their claims takes
        ``d = 0``, unless a bucket before it lands on a claimed slot at
        ``d ≥ 1`` — no bucket before it takes one at ``d = 0``. Python
        searches only the rest, in order: the buckets with a row that lost
        its claim, and each bucket a search lands on (a heap of claimed
        rows). Bucket members are written a run of equal-size buckets at a
        time, the occupancy in one scatter at the end. Columns become
        Python lists ``CHUNK_BUCKETS`` buckets at a time.
        """
        # What the table keeps comes first: the build's scratch then
        # sits above it, and once freed leaves room that the rule index
        # warm() builds next reuses, instead of raising the peak RSS.
        occupancy = bytearray(nslots)
        disp = [0] * nbuckets
        bucket_keys: list = [None] * nbuckets
        if not keys:
            return occupancy, disp, bucket_keys
        n = len(keys)
        hashes, form = _mix_all(keys, seed)
        layout, order, sizes, rows = _chd_order(hashes, nbuckets)
        hashes = hashes[layout]
        slots = ((hashes * _NP_GOLD) >> shift).view(np.int64)  # d = 0
        ends = sizes.cumsum()
        heads = ends - sizes  # each bucket's first row in the order
        # Each slot's claim: the first row whose d = 0 slot it is (n: none;
        # -1 once a search has placed a row there).
        claims = np.full(nslots, n, dtype=np.int32)
        np.minimum.at(claims, slots, rows)
        max_tries = self.MAX_DISP_TRIES
        pending = (  # the buckets with a row that lost its claim, by rank
            np.logical_or.reduceat(claims[slots] != rows, heads).nonzero()[0].tolist()
            if max_tries else [0]  # no d to try: the first bucket fails
        )
        del rows
        claim = memoryview(claims)
        occupied = len(order)
        pending.append(occupied)  # past the last rank
        step = self.CHUNK_BUCKETS
        heap: list = []  # claimed rows a search landed on
        moved: list = []  # the rows the searches placed, and their slots
        landed: list = []
        p = searched = probes = lo = 0
        last = -1  # first row of the bucket searched last
        try:
            for b0 in range(0, occupied, step):
                b1 = min(b0 + step, occupied)
                # Only the chunk's slice of each column becomes Python
                # ints; a table that fits one chunk converts them whole.
                if occupied <= step:
                    hi = n
                    ids, counts, laid = order.tolist(), sizes.tolist(), layout.tolist()
                else:
                    hi = n if b1 == occupied else int(ends[b1 - 1])
                    ids, counts = order[b0:b1].tolist(), sizes[b0:b1].tolist()
                    laid = layout[lo:hi].tolist()
                laid_keys = [keys[i] for i in laid]
                _hold_members(bucket_keys, ids, counts, laid_keys, form)
                if not (pending[p] < b1 or heap and heap[0] < hi):
                    lo = hi
                    continue  # no bucket of this chunk needs a search
                if occupied <= step:
                    mixed, tried, firsts = hashes.tolist(), slots.tolist(), heads.tolist()
                else:
                    mixed, tried = hashes[lo:hi].tolist(), slots[lo:hi].tolist()
                    firsts = heads[b0:b1].tolist()
                # The searches, in order: pending buckets and claimed rows.
                while True:
                    rank = pending[p]
                    at = firsts[rank - b0] if rank < b1 else hi
                    if heap and heap[0] < at:
                        k = bisect_right(firsts, heappop(heap)) - 1
                        at = firsts[k]
                        if at == last:
                            continue  # searched already
                    elif rank < b1:
                        p += 1
                        k = rank - b0
                    else:
                        break
                    last = at
                    j = at - lo
                    size = counts[k]
                    if size == 1:
                        # It holds no claim: it lost its slot's, or a
                        # search took the slot.
                        h = mixed[j]
                        i = tried[j]
                        for d in range(max_tries):
                            if d:
                                i = ((h ^ d) * _GOLD & _MASK64) >> shift
                            if claim[i] >= at:
                                break  # neither taken nor claimed before it
                        else:
                            probes += b0 + k - searched + max_tries
                            raise RebuildRequired("grow")
                        if claim[i] != n:
                            heappush(heap, claim[i])  # it cannot keep d = 0
                        claim[i] = -1
                        moved.append(at)
                        landed.append(i)
                    else:
                        end = j + size
                        mine = mixed[j:end]
                        if len(set(mine)) != size:
                            # Each bucket before it that no search reached
                            # took d = 0, one probe.
                            probes += b0 + k - searched
                            raise RebuildRequired("dup")  # same hash: reseed, don't grow
                        indexes = tried[j:end]
                        for row, i in enumerate(indexes, at):
                            if claim[i] == row:
                                claim[i] = n  # its claims are void now
                        for d in range(max_tries):
                            if d:
                                indexes = [((h ^ d) * _GOLD & _MASK64) >> shift for h in mine]
                            if len(set(indexes)) == size:
                                for i in indexes:
                                    if claim[i] < at:
                                        break
                                else:
                                    break  # every candidate slot is free: take them
                        else:
                            probes += b0 + k - searched + max_tries
                            raise RebuildRequired("grow")
                        for i in indexes:
                            if claim[i] != n:
                                heappush(heap, claim[i])
                            claim[i] = -1
                        moved.extend(range(at, at + size))
                        landed.extend(indexes)
                    probes += d + 1
                    searched += 1
                    disp[ids[k]] = d
                lo = hi
            probes += occupied - searched  # each took d = 0, one probe
        finally:
            self.reseed_probes += probes
        del claim, claims, hashes
        if moved:
            slots[moved] = landed
        np.frombuffer(occupancy, dtype=np.uint8)[slots] = 1
        return occupancy, disp, bucket_keys


def _chd_order(hashes: "np.ndarray", nbuckets: int) -> tuple:
    """CHD's order over the rows mixed to ``hashes``, as ``(layout, order,
    sizes, rows)``: the row indexes bucket after bucket, each occupied
    bucket's id and size in that order, and ``arange(n)`` as int32.
    Buckets go largest first, ties by first appearance, and a bucket's
    rows keep their order. Every sort key is distinct, so no sort needs
    to be stable."""
    # ndarray methods rather than the np.diff / np.unique wrappers: a
    # 16-key table pays every call's fixed cost, and gateway builds six.
    n = len(hashes)
    buckets = (hashes & (nbuckets - 1)).view(np.int64)
    counts = np.bincount(buckets, minlength=nbuckets)
    ids = counts.nonzero()[0]
    rows = np.arange(n, dtype=np.int32)
    first = np.full(nbuckets, n, dtype=np.int32)
    np.minimum.at(first, buckets, rows)  # each bucket's first row
    sizes = counts[ids]
    ranked = (first[ids] - sizes * n).argsort()
    order, sizes = ids[ranked], sizes[ranked]
    counts[order] = np.arange(len(order))  # each bucket's rank
    return (counts[buckets] * n + rows).argsort(), order, sizes, rows


def _hold_members(bucket_keys: list, ids: list, counts: list, laid_keys: list,
                  form: int) -> None:
    """Set the entry (see :func:`_bucket_of`) of each bucket ``ids[k]``,
    whose ``counts[k]`` keys come next in ``laid_keys``. Sizes descend, so
    each size is one run of buckets, and member ``t`` of every bucket in
    a run is one stride of it. ``form`` is :func:`_mix_all`'s: 1 when
    every key is an int, 2 when every key is a tuple."""
    k = j = 0
    while k < len(ids):
        size = counts[k]
        m = counts.count(size)
        run = laid_keys[j:j + size * m]
        if size > 1:
            held = zip(*[run[t::size] for t in range(size)])
        elif form == 1:
            held = run  # lone ints are held bare
        elif form == 2:
            held = zip(run)  # a lone tuple key in a one-tuple
        else:
            held = [(key,) if isinstance(key, tuple) else key for key in run]
        for bucket, entry in zip(ids[k:k + m], held):
            bucket_keys[bucket] = entry
        k += m
        j += size * m


def _members(held: object) -> tuple:
    """A bucket's keys, from its entry: None, a lone non-tuple key, or a tuple."""
    return () if held is None else held if isinstance(held, tuple) else (held,)


def _bucket_of(keys: tuple) -> object:
    """The entry for a bucket's ``keys``: a lone non-tuple key is held bare."""
    if len(keys) == 1 and not isinstance(keys[0], tuple):
        return keys[0]
    return keys or None
