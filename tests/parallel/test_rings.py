"""SPSC byte-ring mechanics.

:class:`~repro.parallel.rings.Ring` is what the benchmark's
``parallel.rings.push_pop_us`` row times, over a heap segment of its
own; these tests pin the mechanics that row relies on — wraparound,
occupancy-checked pushes, typed errors, monotonic cursors — over the
same kind of segment.
"""

import pytest

from repro.parallel import rings


class _HeapSegment:
    """A ring segment on the heap (same-process push/pop)."""

    def __init__(self, capacity: int):
        self.buf = memoryview(bytearray(128 + capacity))

    def close(self) -> None:
        self.buf.release()


def make_ring(capacity=4096):
    return rings.Ring(_HeapSegment(capacity))


def _numbered_frame(i: int) -> bytes:
    return i.to_bytes(8, "little") * 8


class TestRingMechanics:
    def test_byte_round_trip(self):
        ring = make_ring()
        ring.push(b"hello")
        ring.push(b"world!!")
        assert ring.pop() == b"hello"
        assert ring.pop() == b"world!!"
        ring.commit_reads()
        assert not ring.readable()
        ring.close()

    def test_wraparound_many_records(self):
        """Thousands of variable-size records through a small ring —
        every wrap boundary crossed, every record intact."""
        ring = make_ring(capacity=2048)
        for i in range(5000):
            frame = bytes([i % 251]) * (1 + (i * 37) % 300)
            ring.push(frame)
            got = ring.pop()
            ring.commit_reads()
            assert got == frame, f"record {i} damaged across wrap"
        ring.close()

    def test_interleaved_backlog_across_wrap(self):
        """A reader lagging the writer by a few records stays coherent
        through wrap points."""
        ring = make_ring(capacity=4096)
        sent = []
        seq = 0
        for _round in range(400):
            while len(sent) < 3:
                frame = seq.to_bytes(4, "little") * (5 + seq % 40)
                ring.push(frame)
                sent.append(frame)
                seq += 1
            assert ring.pop() == sent.pop(0)
            ring.commit_reads()
        ring.close()

    def test_push_is_occupancy_checked(self):
        """``push`` enforces live occupancy with :class:`RingFull`, and
        draining plus one ack restores room."""
        ring = make_ring(capacity=1024)
        with pytest.raises(rings.RingFull):
            ring.push(b"x" * 2048)  # larger than the ring itself
        frame = b"y" * 64
        pushed = 0
        with pytest.raises(rings.RingFull):
            for _ in range(1024):
                ring.push(frame)
                pushed += 1
        assert pushed > 0
        while ring.readable():
            ring.pop()
        ring.commit_reads()
        ring.push(frame)
        ring.close()

    def test_closed_ring_raises_typed(self):
        ring = make_ring()
        ring.close()
        ring.close()  # idempotent
        with pytest.raises(rings.RingClosed):
            ring.push(b"late")
        with pytest.raises(rings.RingClosed):
            ring.pop()

    def test_cursor_that_moved_backwards_is_not_yet(self):
        """Cursors are monotonic: a head behind the consumer's own tail,
        or a tail behind the one the producer already saw, is stale."""
        seg = _HeapSegment(4096)
        ring = rings.Ring(seg)
        shared = seg.buf[:128].cast("Q")
        for i in range(3):
            ring.push(_numbered_frame(i))
        assert [ring.pop() for _ in range(3)] == [
            _numbered_frame(i) for i in range(3)
        ]
        ring.commit_reads()
        head = shared[0]
        # A head behind the consumer's own tail is not a record.
        shared[0] = 0
        assert not ring.readable()
        assert ring.pop() is None
        shared[0] = head
        # A tail behind the one the producer already saw frees nothing.
        big = bytes(ring.capacity // 4 - 4)
        pushed = 0
        with pytest.raises(rings.RingFull):
            while True:
                ring.push(big)
                pushed += 1
        assert ring.pop() == big
        ring.commit_reads()
        released = shared[8]
        shared[8] = 0
        with pytest.raises(rings.RingFull):
            ring.push(big)
        shared[8] = released
        ring.push(big)
        assert [ring.pop() for _ in range(pushed)] == [big] * pushed
        shared.release()
