"""SPSC shared-memory rings: the shard boundary without syscalls.

A ``multiprocessing.Pipe`` crossing costs two kernel round-trips (write
+ read) per message, each copying the whole buffer through the kernel,
plus a wakeup.  DPDK's answer is the ``rte_ring``: a preallocated
single-producer / single-consumer ring in shared memory, where
enqueue/dequeue are a memcpy and two cursor stores, and the consumer
acknowledges a whole *burst* with one cursor write.  This module is
that idiom over :mod:`multiprocessing.shared_memory`.

Layout of one ring segment (capacity ``C``)::

    [0..8)      head   u64, monotonic — bytes ever published (producer)
    [64..72)    tail   u64, monotonic — bytes ever released  (consumer)
    [128..128+C)  data, position = cursor % C

Head and tail live 64 bytes apart so the two writers never share a
cache line (the false-sharing rule every ring paper repeats).  Cursors
are *monotonic byte counts*: ``head - tail`` is the exact number of
unread bytes, with no full/empty ambiguity and no modulo until a
buffer index is needed.

Records are ``u32 length prefix + frame``, always contiguous.  A record
that would straddle the wrap point is preceded by a **wrap marker**
(length prefix ``0xFFFFFFFF``), telling the consumer to skip to the
next capacity boundary; a tail gap too small for even the marker is
skipped implicitly (the consumer does the same arithmetic).

Ack coalescing: :meth:`Ring.pop` advances only the consumer's *local*
cursor; :meth:`Ring.commit_reads` publishes it — one shared-memory
store per drained burst, not per message.  The producer likewise reads
the shared tail only when its cached copy suggests the ring is full.

The GIL serializes one process, not two: what the other side sees of a
cursor is whatever the store instruction sequence leaves in memory.
``struct.pack_into`` zero-fills its destination before writing, so a
cursor published that way transiently reads 0 from the peer — and a
consumer that catches it pops the record one full lap behind, a valid
old frame with a valid checksum. Both cursors are therefore stored and
loaded as single aligned native 8-byte items of a ``memoryview`` cast
to ``"Q"`` (one ``mov`` each way, never torn, never zeroed), and because
cursors are monotonic both sides treat a value that moved backwards as
"not yet" rather than trusting it. Record bytes are written before the
head store that publishes them, in program order on x86's store
ordering.

Teardown hygiene: the engine *creates* segments and owns their
lifetime — :meth:`RingPair.destroy` closes **and unlinks** them, and is
called on engine close and on every worker crash/respawn (a fresh pair
per worker generation, so a wedged worker can never scribble on its
successor's ring).  Workers :func:`attach` by name and only ever close
their mapping; the attach helper also untracks the segment from the
worker's ``resource_tracker`` so a dying worker cannot reap a segment
the engine still owns (Python < 3.13 has no ``track=False``).
"""

from __future__ import annotations

import secrets
import struct

try:  # pragma: no cover - exercised only where shm is unavailable
    from multiprocessing import shared_memory as _shm
except ImportError:  # e.g. stripped-down platforms
    _shm = None

__all__ = [
    "RingError",
    "RingFull",
    "RingClosed",
    "Ring",
    "RingPair",
    "attach_pair",
    "shared_memory_available",
    "DEFAULT_CAPACITY",
]

_DATA_OFF = 128
#: cursor slots in the header viewed as sixteen native u64 items.
_HEAD = 0
_TAIL = 8  # byte 64: its own cache line
_LEN = struct.Struct("<I")
_WRAP = 0xFFFFFFFF
#: Largest frame a ring of capacity C accepts: one record must leave a
#: byte of slack so head == tail never means both full and empty.
DEFAULT_CAPACITY = 1 << 20


class RingError(RuntimeError):
    """Base for transport-layer (not codec-layer) failures."""


class RingFull(RingError):
    """The frame does not fit in the ring's free space right now."""


class RingClosed(RingError):
    """The segment backing this ring is gone."""


def shared_memory_available() -> bool:
    """Can this platform create + attach a shared-memory segment?"""
    if _shm is None:
        return False
    try:
        seg = _shm.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    try:
        seg.close()
        seg.unlink()
    except OSError:  # pragma: no cover - best-effort probe cleanup
        pass
    return True


def _untrack(seg) -> None:
    """Detach ``seg`` from this process's resource tracker.

    An attaching process does not own the segment; without this, the
    first worker to exit would unlink rings the engine and its sibling
    workers still use (resource_tracker reaps on process death).
    """
    try:  # pragma: no cover - tracker layout is an implementation detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracking is best-effort hygiene
        pass


class Ring:
    """One direction of the transport: a SPSC byte ring.

    Exactly one process calls :meth:`push`, exactly one calls
    :meth:`pop`/:meth:`commit_reads`.  The role is a usage contract,
    not enforced state — both ends construct a :class:`Ring` over the
    same segment.
    """

    __slots__ = ("_seg", "_buf", "_cursors", "_capacity", "_head", "_tail",
                 "_cached_tail", "_cached_head")

    def __init__(self, seg):
        self._seg = seg
        self._buf = seg.buf
        self._cursors = seg.buf[:_DATA_OFF].cast("Q")
        self._capacity = len(seg.buf) - _DATA_OFF
        head = self._cursors[_HEAD]
        tail = self._cursors[_TAIL]
        self._head = head          # producer's local head
        self._tail = tail          # consumer's local tail
        self._cached_tail = tail   # producer's last view of the tail
        self._cached_head = head   # consumer's last view of the head

    @property
    def name(self) -> str:
        return self._seg.name

    @property
    def capacity(self) -> int:
        return self._capacity

    def fits(self, nbytes: int) -> bool:
        """Could a frame of ``nbytes`` *ever* fit (ignoring occupancy)?"""
        # The margin must cover the double-buffered engine's worst case:
        # two in-flight records, each possibly burning a wrap marker plus
        # the dead space at the buffer tail — so a quarter each keeps
        # "fits" a static property that can never deadlock a push.
        return _LEN.size + nbytes <= self._capacity // 4

    # -- producer side ----------------------------------------------------

    def push(self, frame) -> None:
        """Copy one frame into the ring; raises :class:`RingFull`."""
        buf = self._buf
        if buf is None:
            raise RingClosed("ring segment is closed")
        cap = self._capacity
        need = _LEN.size + len(frame)
        head = self._head
        pos = head % cap
        room_to_wrap = cap - pos
        if room_to_wrap < need:
            # Record will not sit contiguously: burn the gap.
            need_total = room_to_wrap + need
        else:
            need_total = need
        if cap - (head - self._cached_tail) < need_total:
            # Monotonic: a tail behind the one already seen is not news.
            self._cached_tail = max(self._cached_tail, self._cursors[_TAIL])
            if cap - (head - self._cached_tail) < need_total:
                raise RingFull(
                    f"{need_total}B frame vs {cap - (head - self._cached_tail)}B free"
                )
        if room_to_wrap < need:
            if room_to_wrap >= _LEN.size:
                _LEN.pack_into(buf, _DATA_OFF + pos, _WRAP)
            head += room_to_wrap
            pos = 0
        start = _DATA_OFF + pos + _LEN.size
        buf[start:start + len(frame)] = frame
        _LEN.pack_into(buf, _DATA_OFF + pos, len(frame))
        self._head = head + need
        self._cursors[_HEAD] = self._head

    # -- consumer side ----------------------------------------------------

    def readable(self) -> bool:
        """Any unread record? (refreshes the consumer's head view)."""
        if self._buf is None:
            raise RingClosed("ring segment is closed")
        if self._cached_head == self._tail:
            # Monotonic: a head behind our own tail is not yet a head.
            self._cached_head = max(self._tail, self._cursors[_HEAD])
        return self._cached_head != self._tail

    def pop(self):
        """Dequeue one frame as ``bytes``, or ``None`` if empty.

        Advances only the local cursor — call :meth:`commit_reads` after
        draining a burst to publish the release (the batched ack).
        """
        if not self.readable():
            return None
        buf = self._buf
        cap = self._capacity
        tail = self._tail
        pos = tail % cap
        if cap - pos < _LEN.size:
            tail += cap - pos  # implicit wrap: gap too small for a marker
            pos = 0
        else:
            length = _LEN.unpack_from(buf, _DATA_OFF + pos)[0]
            if length == _WRAP:
                tail += cap - pos
                pos = 0
            else:
                start = _DATA_OFF + pos + _LEN.size
                frame = bytes(buf[start:start + length])
                self._tail = tail + _LEN.size + length
                return frame
        length = _LEN.unpack_from(buf, _DATA_OFF + pos)[0]
        if length == _WRAP:
            raise RingError("wrap marker at buffer start")
        start = _DATA_OFF + pos + _LEN.size
        frame = bytes(buf[start:start + length])
        self._tail = tail + _LEN.size + length
        return frame

    def commit_reads(self) -> None:
        """Publish the local tail: one ack for everything popped."""
        if self._buf is None:
            raise RingClosed("ring segment is closed")
        self._cursors[_TAIL] = self._tail

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._seg is not None:
            self._buf = None
            # The derived view pins the mapping: release it first.
            self._cursors.release()
            try:
                self._seg.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
            self._seg = None

    def unlink(self) -> None:
        """Remove the segment from the system (owner only)."""
        if self._seg is not None:
            try:
                self._seg.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass


class RingPair:
    """The engine-side handle: request ring out, reply ring back."""

    __slots__ = ("req", "rep")

    def __init__(self, req: Ring, rep: Ring):
        self.req = req
        self.rep = rep

    @classmethod
    def create(cls, capacity: int = DEFAULT_CAPACITY) -> "RingPair":
        """Allocate a fresh pair of segments (engine side, owner)."""
        if _shm is None:
            raise RingError("multiprocessing.shared_memory unavailable")
        tag = secrets.token_hex(4)
        segs = []
        try:
            for direction in ("rq", "rp"):
                segs.append(_shm.SharedMemory(
                    create=True, size=_DATA_OFF + capacity,
                    name=f"repro_{direction}_{tag}",
                ))
        except (OSError, ValueError) as exc:
            for seg in segs:
                try:
                    seg.close()
                    seg.unlink()
                except OSError:  # pragma: no cover
                    pass
            raise RingError(f"cannot allocate ring segments: {exc}") from None
        for seg in segs:
            seg.buf[:_DATA_OFF] = bytes(_DATA_OFF)
        return cls(Ring(segs[0]), Ring(segs[1]))

    @property
    def names(self) -> "tuple[str, str]":
        """Segment names to hand a worker (its attach credentials)."""
        return (self.req.name, self.rep.name)

    def destroy(self) -> None:
        """Close **and unlink** both segments (engine close / respawn)."""
        for ring in (self.req, self.rep):
            ring.unlink()
            ring.close()

    def close(self) -> None:
        """Close the mappings without unlinking (attached side)."""
        self.req.close()
        self.rep.close()


def attach_pair(names: "tuple[str, str]", *, untrack: bool = True) -> RingPair:
    """Worker side: map an existing pair by name, untracked.

    The worker pops requests from ``names[0]`` and pushes replies into
    ``names[1]`` — the same objects the engine calls ``req``/``rep``.
    ``untrack=False`` is for same-process attaches (thread backend,
    tests), where the mapping shares the creator's resource tracking.
    """
    if _shm is None:
        raise RingError("multiprocessing.shared_memory unavailable")
    segs = []
    try:
        for name in names:
            seg = _shm.SharedMemory(name=name)
            if untrack:
                _untrack(seg)
            segs.append(seg)
    except (OSError, ValueError) as exc:
        for seg in segs:
            try:
                seg.close()
            except OSError:  # pragma: no cover
                pass
        raise RingError(f"cannot attach ring segments: {exc}") from None
    return RingPair(Ring(segs[0]), Ring(segs[1]))
