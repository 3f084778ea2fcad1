"""DIR-24-8 longest prefix match — a reimplementation of DPDK's ``rte_lpm``.

The structure holds a direct-indexed table over the top 24 address bits
(``tbl24``) plus overflow groups of 256 entries for deeper prefixes
(``tbl8``). A lookup costs one memory access for prefixes up to /24 and two
for longer ones — exactly the 1-or-2 access profile the paper's LPM cost
atom charges (``13 + 2*Lx`` cycles, Fig. 20).

Incremental add/delete follow the DPDK algorithm: each entry remembers the
depth of the rule that wrote it, so a new rule only overwrites entries
written by shorter prefixes, and deletion substitutes the next-shorter
covering rule.

The tbl8 pool grows geometrically on demand (a million-prefix FIB holds
thousands of /25+ groups, far past the historical 256-group default), with
a lowest-first free-list allocator so group ids — and therefore the cache
line ids the cost model sees — stay deterministic under churn.
``LpmFullError`` is raised only when the caller set an explicit
``max_tbl8_groups`` ceiling. Bulk add/delete vectorize same-depth rule
batches with numpy, and ``compact()`` renumbers groups to the low end so
long-running churn does not fragment the pool.

Entry encoding (numpy ``int32``): ``0`` invalid, ``> 0`` next hop + 1,
``< 0`` extended — ``-(tbl8 group + 1)``.

``tbl24`` spans the whole 2^24 key space (80 MB with its depth shadow) but
a FIB writes a sliver of it, so it lives in zero-filled anonymous memory
whose residency follows the 4 KB pages actually written — see
:func:`_sparse_zeros`. The table pays for prefixes, not address space.
"""

from __future__ import annotations

import heapq
import mmap

import numpy as np

TBL24_ENTRIES = 1 << 24
TBL8_GROUP_SIZE = 256
#: 4-byte entries per 64-byte cache line — for cache-simulator line ids.
ENTRIES_PER_LINE = 16
#: Initial tbl8 pool capacity when no ceiling is set (grows geometrically).
DEFAULT_TBL8_GROUPS = 256
#: Keep vectorized index batches under this many entries (memory bound).
_BULK_CHUNK = 1 << 22
#: Residency is accounted in the host's small pages (4 KB on x86): this
#: many int32 tbl24 entries each, and a quarter as many pages again for
#: the one-byte depth shadow.
_PAGE_BYTES = mmap.PAGESIZE
_PAGE_ENTRIES = _PAGE_BYTES // 4


def _sparse_zeros(n: int, dtype) -> np.ndarray:
    """``np.zeros(n, dtype)`` over private anonymous memory that stays
    non-resident until written, one small page at a time.

    ``np.zeros`` gives zero pages too, but numpy advises ``MADV_HUGEPAGE``
    on every allocation of 4 MB and up; where the host honours it
    (``transparent_hugepage=madvise`` or ``always``) one written entry
    faults in a whole 2 MB page, and a 200-prefix FIB scattered over the
    address space ends up holding all 80 MB resident after paying for 40
    huge-page faults. The mapping is released when the array (and every
    view of it) is collected.
    """
    buf = mmap.mmap(-1, n * np.dtype(dtype).itemsize, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux; harmless to skip elsewhere
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=dtype)


class LpmFullError(RuntimeError):
    """No free tbl8 groups remain under an explicit user-set ceiling."""


class Dir24_8Lpm:
    """DIR-24-8 LPM table over 32-bit keys.

    Args:
        max_tbl8_groups: explicit ceiling on overflow groups for /25+
            prefixes — exceeding it raises :class:`LpmFullError`. ``None``
            (the default) starts at :data:`DEFAULT_TBL8_GROUPS` and grows
            the pool geometrically without bound.
    """

    def __init__(self, max_tbl8_groups: "int | None" = None):
        if max_tbl8_groups is not None and max_tbl8_groups < 1:
            raise ValueError("max_tbl8_groups must be >= 1")
        self._max_tbl8_groups = max_tbl8_groups
        cap = max_tbl8_groups if max_tbl8_groups is not None else DEFAULT_TBL8_GROUPS
        self._tbl24 = _sparse_zeros(TBL24_ENTRIES, np.int32)
        self._tbl24_depth = _sparse_zeros(TBL24_ENTRIES, np.uint8)
        # Which tbl24 pages hold a written entry. Only the add paths grow
        # it: a delete or compaction rewrites entries an add wrote before.
        self._tbl24_pages = np.zeros(TBL24_ENTRIES // _PAGE_ENTRIES, dtype=bool)
        self._tbl8 = np.zeros(cap * TBL8_GROUP_SIZE, dtype=np.int32)
        self._tbl8_depth = np.zeros(cap * TBL8_GROUP_SIZE, dtype=np.uint8)
        self._tbl8_used = [False] * cap
        self._tbl8_free: list[int] = list(range(cap))  # min-heap: lowest first
        self._rules: dict[tuple[int, int], int] = {}  # (prefix, depth) -> next hop
        self.tbl8_grow_events = 0

    # -- rule management ----------------------------------------------------

    def add(self, ip: int, depth: int, next_hop: int) -> None:
        """Insert (or update) the rule ``ip/depth -> next_hop``."""
        self._check(ip, depth)
        if next_hop < 0:
            raise ValueError("next hop must be non-negative")
        prefix = self._prefix(ip, depth)
        self._rules[(prefix, depth)] = next_hop
        if depth <= 24:
            self._add_depth_small(prefix, depth, next_hop)
        else:
            self._add_depth_big(prefix, depth, next_hop)

    def add_bulk(self, rules) -> None:
        """Insert many ``(ip, depth, next_hop)`` rules at once.

        Equivalent to adding every rule individually (in any order — the
        depth guard makes the final table order-independent; exact
        duplicate ``(prefix, depth)`` rules resolve last-wins). Same-depth
        batches of /24-and-shorter prefixes are disjoint ranges, so their
        tbl24 writes vectorize across rules in numpy.
        """
        deduped: dict[tuple[int, int], int] = {}
        for ip, depth, next_hop in rules:
            self._check(ip, depth)
            if next_hop < 0:
                raise ValueError("next hop must be non-negative")
            deduped[(self._prefix(ip, depth), depth)] = next_hop
        self._rules.update(deduped)  # its key tuples, not a copy of each
        by_depth: dict[int, tuple[list[int], list[int]]] = {}  # prefixes, hops
        for (prefix, depth), next_hop in deduped.items():
            prefixes, hops = by_depth.setdefault(depth, ([], []))
            prefixes.append(prefix)
            hops.append(next_hop)
        for depth in sorted(by_depth):
            prefixes, hops = by_depth[depth]
            if depth > 24:
                for prefix, next_hop in zip(prefixes, hops):
                    self._add_depth_big(prefix, depth, next_hop)
            elif len(prefixes) < 32:
                for prefix, next_hop in zip(prefixes, hops):
                    self._add_depth_small(prefix, depth, next_hop)
            else:
                self._add_small_batch(prefixes, hops, depth)

    def delete(self, ip: int, depth: int) -> bool:
        """Remove the rule ``ip/depth``. Returns False if it did not exist."""
        self._check(ip, depth)
        prefix = self._prefix(ip, depth)
        if (prefix, depth) not in self._rules:
            return False
        del self._rules[(prefix, depth)]
        parent = self._find_parent(prefix, depth)
        if parent is None:
            sub_hop, sub_depth = 0, 0  # invalidate
            sub_valid = False
        else:
            (_, sub_depth), sub_hop = parent
            sub_valid = True
        if depth <= 24:
            self._delete_depth_small(prefix, depth, sub_valid, sub_hop, sub_depth)
        else:
            self._delete_depth_big(prefix, depth, sub_valid, sub_hop, sub_depth)
        return True

    def get_rule(self, ip: int, depth: int) -> "int | None":
        """The next hop stored for exactly ``ip/depth`` (no LPM semantics)."""
        self._check(ip, depth)
        return self._rules.get((self._prefix(ip, depth), depth))

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> dict[tuple[int, int], int]:
        """A copy of the rule set as ``{(prefix, depth): next_hop}``."""
        return dict(self._rules)

    @property
    def tbl8_capacity(self) -> int:
        """Current tbl8 pool capacity in groups."""
        return len(self._tbl8_used)

    @property
    def tbl8_groups_used(self) -> int:
        return sum(self._tbl8_used)

    def footprint(self) -> dict:
        """Resident bytes of the lookup structure: ``tbl24`` counts the
        small pages that hold a written entry (its full span is reported
        apart as ``tbl24_virtual_bytes``), the tbl8 pool is dense and
        exact, the rule dict is estimated at ~100 bytes/rule."""
        pages = self._tbl24_pages
        # One depth page shadows four tbl24 pages: four flags to a word.
        tbl24_bytes = _PAGE_BYTES * int(
            np.count_nonzero(pages) + np.count_nonzero(pages.view(np.uint32))
        )
        tbl8_bytes = self._tbl8.nbytes + self._tbl8_depth.nbytes
        return {
            "kind": "lpm",
            "rules": len(self._rules),
            "tbl24_bytes": tbl24_bytes,
            "tbl24_virtual_bytes": self._tbl24.nbytes + self._tbl24_depth.nbytes,
            "tbl8_bytes": tbl8_bytes,
            "tbl8_groups": self.tbl8_groups_used,
            "tbl8_capacity": self.tbl8_capacity,
            "bytes": tbl24_bytes + tbl8_bytes + len(self._rules) * 100,
        }

    def compact(self) -> int:
        """Renumber used tbl8 groups to the low end and shrink the pool.

        Long-running churn allocates and recycles groups; compaction keeps
        the pool dense so footprint tracks live state. Returns the number
        of capacity groups released. Lookups stay valid throughout (tbl24
        pointers are rewritten in one vectorized pass).
        """
        cap = len(self._tbl8_used)
        used = [g for g in range(cap) if self._tbl8_used[g]]
        moved = [(old, new) for new, old in enumerate(used) if old != new]
        for old, new in moved:  # new < old always: ascending copy is safe
            ob, nb = old * TBL8_GROUP_SIZE, new * TBL8_GROUP_SIZE
            self._tbl8[nb : nb + TBL8_GROUP_SIZE] = self._tbl8[ob : ob + TBL8_GROUP_SIZE]
            self._tbl8_depth[nb : nb + TBL8_GROUP_SIZE] = self._tbl8_depth[
                ob : ob + TBL8_GROUP_SIZE
            ]
        if moved:
            lut = np.arange(cap, dtype=np.int32)
            for old, new in moved:
                lut[old] = new
            ext = self._tbl24 < 0
            self._tbl24[ext] = -(lut[-self._tbl24[ext] - 1] + 1)
        if self._max_tbl8_groups is not None:
            new_cap = cap  # explicit ceilings keep their full allocation
        else:
            new_cap = DEFAULT_TBL8_GROUPS
            while new_cap < len(used):
                new_cap *= 2
        if new_cap != cap:
            self._tbl8 = self._tbl8[: new_cap * TBL8_GROUP_SIZE].copy()
            self._tbl8_depth = self._tbl8_depth[: new_cap * TBL8_GROUP_SIZE].copy()
        tail = self._tbl8[len(used) * TBL8_GROUP_SIZE :]
        tail[:] = 0
        self._tbl8_depth[len(used) * TBL8_GROUP_SIZE :] = 0
        self._tbl8_used = [True] * len(used) + [False] * (new_cap - len(used))
        self._tbl8_free = list(range(len(used), new_cap))
        heapq.heapify(self._tbl8_free)
        return cap - new_cap

    # -- pickling --------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship tbl24 as its written pages only (pickle and ``deepcopy``):
        the copy comes back on fresh sparse memory, bit-identical, instead
        of as 80 MB of dense array."""
        state = self.__dict__.copy()
        pages = self._tbl24_pages
        state["_tbl24"] = self._tbl24.reshape(-1, _PAGE_ENTRIES)[pages]
        state["_tbl24_depth"] = self._tbl24_depth.reshape(-1, _PAGE_ENTRIES)[pages]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        pages = self._tbl24_pages
        for name, dtype in (("_tbl24", np.int32), ("_tbl24_depth", np.uint8)):
            table = _sparse_zeros(TBL24_ENTRIES, dtype)
            table.reshape(-1, _PAGE_ENTRIES)[pages] = state[name]
            setattr(self, name, table)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, ip: int) -> "int | None":
        """Longest-prefix match; returns the next hop or None."""
        entry = int(self._tbl24[ip >> 8])
        if entry > 0:
            return entry - 1
        if entry == 0:
            return None
        group = -entry - 1
        sub = int(self._tbl8[group * TBL8_GROUP_SIZE + (ip & 0xFF)])
        return sub - 1 if sub > 0 else None

    def lookup_traced(self, ip: int) -> tuple["int | None", tuple[int, ...]]:
        """Lookup plus the abstract cache-line ids it touched.

        Line-id namespaces: tbl24 lines are non-negative, tbl8 lines are
        offset past the tbl24 range — disjoint addresses for the cache
        simulator.
        """
        idx24 = ip >> 8
        lines = [idx24 // ENTRIES_PER_LINE]
        entry = int(self._tbl24[idx24])
        if entry > 0:
            return entry - 1, (lines[0],)
        if entry == 0:
            return None, (lines[0],)
        group = -entry - 1
        idx8 = group * TBL8_GROUP_SIZE + (ip & 0xFF)
        tbl8_line = TBL24_ENTRIES // ENTRIES_PER_LINE + idx8 // ENTRIES_PER_LINE
        sub = int(self._tbl8[idx8])
        return (sub - 1 if sub > 0 else None), (lines[0], tbl8_line)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _check(ip: int, depth: int) -> None:
        if not 0 <= ip < (1 << 32):
            raise ValueError(f"IPv4 key out of range: {ip:#x}")
        if not 1 <= depth <= 32:
            raise ValueError(f"depth out of range: {depth}")

    @staticmethod
    def _prefix(ip: int, depth: int) -> int:
        mask = ((1 << depth) - 1) << (32 - depth)
        return ip & mask

    def _find_parent(self, prefix: int, depth: int) -> "tuple[tuple[int, int], int] | None":
        """The longest remaining rule strictly shorter than ``depth`` covering it."""
        for d in range(depth - 1, 0, -1):
            candidate = self._prefix(prefix, d)
            hop = self._rules.get((candidate, d))
            if hop is not None:
                return (candidate, d), hop
        return None

    def _add_depth_small(self, prefix: int, depth: int, next_hop: int) -> None:
        start = prefix >> 8
        count = 1 << (24 - depth)
        t24 = self._tbl24[start : start + count]
        d24 = self._tbl24_depth[start : start + count]
        # Extended entries (rare) are walked one by one; the rest vectorize.
        for off in np.nonzero(t24 < 0)[0]:
            group = -int(t24[off]) - 1
            base = group * TBL8_GROUP_SIZE
            sel = self._tbl8_depth[base : base + TBL8_GROUP_SIZE] <= depth
            self._tbl8[base : base + TBL8_GROUP_SIZE][sel] = next_hop + 1
            self._tbl8_depth[base : base + TBL8_GROUP_SIZE][sel] = depth
        sel24 = (t24 >= 0) & (d24 <= depth)
        t24[sel24] = next_hop + 1
        d24[sel24] = depth
        # Every entry of the range is written now or was by a deeper add.
        self._tbl24_pages[
            start // _PAGE_ENTRIES : (start + count - 1) // _PAGE_ENTRIES + 1
        ] = True

    def _add_small_batch(self, prefixes: "list[int]", hops: "list[int]", depth: int) -> None:
        """Vectorized same-depth (≤ /24) insertion across disjoint ranges."""
        count = 1 << (24 - depth)
        per_chunk = max(1, _BULK_CHUNK // count)
        offsets = np.arange(count, dtype=np.int64)
        for lo in range(0, len(prefixes), per_chunk):
            starts = np.array(prefixes[lo : lo + per_chunk], dtype=np.int64) >> 8
            vals = np.array([h + 1 for h in hops[lo : lo + per_chunk]], dtype=np.int32)
            idx = (starts[:, None] + offsets).reshape(-1)
            rep = np.repeat(vals, count)
            t24v = self._tbl24[idx]
            ext = t24v < 0
            if ext.any():
                for pos in np.nonzero(ext)[0]:
                    group = -int(t24v[pos]) - 1
                    base = group * TBL8_GROUP_SIZE
                    sel = self._tbl8_depth[base : base + TBL8_GROUP_SIZE] <= depth
                    self._tbl8[base : base + TBL8_GROUP_SIZE][sel] = int(rep[pos])
                    self._tbl8_depth[base : base + TBL8_GROUP_SIZE][sel] = depth
            sel = (t24v >= 0) & (self._tbl24_depth[idx] <= depth)
            tgt = idx[sel]
            self._tbl24[tgt] = rep[sel]
            self._tbl24_depth[tgt] = depth
            # Ranges are count-aligned: one sample per page they span.
            self._tbl24_pages[idx[:: min(count, _PAGE_ENTRIES)] // _PAGE_ENTRIES] = True

    def _add_depth_big(self, prefix: int, depth: int, next_hop: int) -> None:
        idx24 = prefix >> 8
        entry = int(self._tbl24[idx24])
        if entry >= 0:
            group = self._alloc_tbl8()
            base = group * TBL8_GROUP_SIZE
            # Seed the group with the shallower tbl24 entry it replaces.
            self._tbl8[base : base + TBL8_GROUP_SIZE] = entry
            self._tbl8_depth[base : base + TBL8_GROUP_SIZE] = (
                self._tbl24_depth[idx24] if entry > 0 else 0
            )
            self._tbl24[idx24] = -(group + 1)
            self._tbl24_depth[idx24] = 0
            self._tbl24_pages[idx24 // _PAGE_ENTRIES] = True
        else:
            group = -entry - 1
            base = group * TBL8_GROUP_SIZE
        low = prefix & 0xFF
        count = 1 << (32 - depth)
        sel = self._tbl8_depth[base + low : base + low + count] <= depth
        self._tbl8[base + low : base + low + count][sel] = next_hop + 1
        self._tbl8_depth[base + low : base + low + count][sel] = depth

    def _delete_depth_small(
        self, prefix: int, depth: int, sub_valid: bool, sub_hop: int, sub_depth: int
    ) -> None:
        start = prefix >> 8
        count = 1 << (24 - depth)
        new24 = sub_hop + 1 if sub_valid else 0
        t24 = self._tbl24[start : start + count]
        d24 = self._tbl24_depth[start : start + count]
        for off in np.nonzero(t24 < 0)[0]:
            group = -int(t24[off]) - 1
            base = group * TBL8_GROUP_SIZE
            sel = self._tbl8_depth[base : base + TBL8_GROUP_SIZE] == depth
            self._tbl8[base : base + TBL8_GROUP_SIZE][sel] = new24
            self._tbl8_depth[base : base + TBL8_GROUP_SIZE][sel] = sub_depth
            self._maybe_recycle(start + int(off), group)
        sel24 = (t24 >= 0) & (d24 == depth)
        t24[sel24] = new24
        d24[sel24] = sub_depth

    def _delete_depth_big(
        self, prefix: int, depth: int, sub_valid: bool, sub_hop: int, sub_depth: int
    ) -> None:
        idx24 = prefix >> 8
        entry = int(self._tbl24[idx24])
        if entry >= 0:
            return  # rule was never materialized (shouldn't happen)
        group = -entry - 1
        base = group * TBL8_GROUP_SIZE
        low = prefix & 0xFF
        count = 1 << (32 - depth)
        sel = self._tbl8_depth[base + low : base + low + count] == depth
        self._tbl8[base + low : base + low + count][sel] = sub_hop + 1 if sub_valid else 0
        self._tbl8_depth[base + low : base + low + count][sel] = sub_depth
        self._maybe_recycle(idx24, group)

    def _alloc_tbl8(self) -> int:
        if not self._tbl8_free:
            if self._max_tbl8_groups is not None:
                raise LpmFullError("out of tbl8 groups")
            self._grow_tbl8()
        group = heapq.heappop(self._tbl8_free)
        self._tbl8_used[group] = True
        return group

    def _grow_tbl8(self) -> None:
        """Double the tbl8 pool (unbounded mode only)."""
        cap = len(self._tbl8_used)
        new_cap = max(1, cap) * 2
        grown = np.zeros(new_cap * TBL8_GROUP_SIZE, dtype=np.int32)
        grown[: cap * TBL8_GROUP_SIZE] = self._tbl8
        self._tbl8 = grown
        grown_d = np.zeros(new_cap * TBL8_GROUP_SIZE, dtype=np.uint8)
        grown_d[: cap * TBL8_GROUP_SIZE] = self._tbl8_depth
        self._tbl8_depth = grown_d
        self._tbl8_used.extend([False] * (new_cap - cap))
        for group in range(cap, new_cap):
            heapq.heappush(self._tbl8_free, group)
        self.tbl8_grow_events += 1

    def _maybe_recycle(self, idx24: int, group: int) -> None:
        """Collapse a tbl8 group back into tbl24 if it became uniform."""
        base = group * TBL8_GROUP_SIZE
        values = self._tbl8[base : base + TBL8_GROUP_SIZE]
        depths = self._tbl8_depth[base : base + TBL8_GROUP_SIZE]
        if not bool((depths > 24).any()):
            first = int(values[0])
            if bool((values == first).all()) and bool((depths == depths[0]).all()):
                self._tbl24[idx24] = first
                self._tbl24_depth[idx24] = int(depths[0])
                values[:] = 0
                depths[:] = 0
                if self._tbl8_used[group]:
                    self._tbl8_used[group] = False
                    heapq.heappush(self._tbl8_free, group)
