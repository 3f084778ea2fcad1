"""An SPSC byte ring: the bench ruler's ``parallel.rings.push_pop_us`` row.

Kept only for that row of ``bench/layers.py``, which times one frame's
push and pop over a heap segment of its own; it goes with that row in
the next change to the benchmark. No shard uses it: a shard's frames
ride its connection (:mod:`repro.parallel.channel`).

Layout of one ring segment (capacity ``C``)::

    [0..8)      head   u64, monotonic — bytes ever published (producer)
    [64..72)    tail   u64, monotonic — bytes ever released  (consumer)
    [128..128+C)  data, position = cursor % C

Head and tail live 64 bytes apart so the two writers never share a
cache line. Cursors are *monotonic byte counts*: ``head - tail`` is the
exact number of unread bytes, with no full/empty ambiguity and no
modulo until a buffer index is needed.

Records are ``u32 length prefix + frame``, always contiguous.  A record
that would straddle the wrap point is preceded by a **wrap marker**
(length prefix ``0xFFFFFFFF``), telling the consumer to skip to the
next capacity boundary; a tail gap too small for even the marker is
skipped implicitly (the consumer does the same arithmetic).

Ack coalescing: :meth:`Ring.pop` advances only the consumer's *local*
cursor; :meth:`Ring.commit_reads` publishes it — one store per drained
burst, not per message.  The producer likewise reads the shared tail
only when its cached copy suggests the ring is full. Both cursors are
stored and loaded as single aligned native 8-byte items of a
``memoryview`` cast to ``"Q"``, and because cursors are monotonic both
sides treat a value that moved backwards as "not yet".
"""

from __future__ import annotations

import struct

__all__ = ["RingError", "RingFull", "RingClosed", "Ring"]

_DATA_OFF = 128
#: cursor slots in the header viewed as sixteen native u64 items.
_HEAD = 0
_TAIL = 8  # byte 64: its own cache line
_LEN = struct.Struct("<I")
_WRAP = 0xFFFFFFFF


class RingError(RuntimeError):
    """Base for transport-layer (not codec-layer) failures."""


class RingFull(RingError):
    """The frame does not fit in the ring's free space right now."""


class RingClosed(RingError):
    """The segment backing this ring is gone."""


class Ring:
    """A SPSC byte ring over one segment: any object with a writable
    ``buf`` and a ``close()``.

    Exactly one party calls :meth:`push`, exactly one calls
    :meth:`pop`/:meth:`commit_reads`.  The role is a usage contract,
    not enforced state.
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
    def capacity(self) -> int:
        return self._capacity

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
