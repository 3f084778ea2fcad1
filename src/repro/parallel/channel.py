"""The shard channel: one wire, whichever carrier the platform gives.

A burst and its reply cross the shard boundary in exactly one form — the
packed frame of :mod:`repro.parallel.frames` — and both ends speak to
one :class:`Channel` without knowing what carries it:

* a **connection** every shard has: a ``multiprocessing`` pipe for a
  process worker, a two-queue duplex (:func:`queue_pair`) for a thread
  worker. It carries the rare control messages (flow-mod broadcasts,
  pings, stop, error reports) pickled, and frames as raw bytes; a frame
  is told from a pickle by its magic;
* a **ring pair** (:mod:`repro.parallel.rings`) when the worker is a
  process and shared memory maps: frames cross it with no syscall and no
  copy through the kernel.

The carrier decision is made here, once per channel, from the platform
(:meth:`Channel.open`); nothing upstream selects it.

**Ordering.** The ring is the order of record. A frame the ring cannot
take — no ring, or larger than its :meth:`~repro.parallel.rings.Ring.
fits` margin — rides the connection as the same bytes, and the sender
first pushes an *empty* ring record in its place; the receiver drains
the ring before the connection and, on an empty record, takes the frame
from the connection. Messages therefore arrive in the order they were
sent whatever mix of carriers took them.

**Backpressure.** Ring pushes never block and connection writes can, so
a frame goes on the connection only while nothing sent earlier is
unanswered — then the peer is idle and reading, and two blocking writes
can never face each other. Otherwise, and when the ring is full,
:meth:`Channel.send_frame` raises :class:`Busy`: the requesting end
takes its oldest reply and retries; the answering end (``block=True``)
waits for room.

**Faults.** Every way a send or receive can fail — EOF, a closed
handle, a vanished segment, a blown deadline — surfaces as
:class:`WorkerDied` or :class:`WorkerTimeout`, on both ends (to a
worker, the "dead peer" is its engine).
"""

from __future__ import annotations

import os
import pickle
import queue
import time

from repro.parallel import frames, rings

_FRAME_MAGIC = frames.MAGIC.to_bytes(2, "little")
#: The one wait loop's escalating backoff: spin while the peer is
#: mid-burst (the common case), then sleep in growing slices so an idle
#: wait costs no meaningful CPU.
_DELAYS = (0.0, 0.0, 0.0001, 0.0005, 0.002)


class ShardWorkerError(RuntimeError):
    """A shard worker reported an exception (its traceback is attached)."""


class WorkerDied(ShardWorkerError):
    """The peer's end of the channel went dead (crash, OOM kill, exit)."""


class WorkerTimeout(ShardWorkerError):
    """The peer blew the RPC deadline (hang, livelock, swap storm)."""


class Busy(Exception):
    """The frame cannot go out until an earlier reply is taken."""


def _wait(ready, deadline: "float | None", peer: str):
    """Poll ``ready()`` until it returns non-None; the only wait loop."""
    end = None if deadline is None else time.monotonic() + deadline
    spin = 0
    while True:
        got = ready()
        if got is not None:
            return got
        if end is not None and time.monotonic() > end:
            raise WorkerTimeout(f"{peer} blew the {deadline}s RPC deadline")
        time.sleep(_DELAYS[min(spin, len(_DELAYS) - 1)])
        spin += 1


class _QueueEnd:
    """One end of a two-queue duplex, shaped like a ``Connection``.

    What a thread shard has instead of a pipe. Only ``bytes`` cross it
    (frames, pickled control messages), so a thread worker is as
    shared-nothing as a forked one; ``None`` is the EOF a closing end
    leaves behind.
    """

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox, self._outbox = inbox, outbox
        self._peeked = None

    def send_bytes(self, buf: bytes) -> None:
        self._outbox.put(buf)

    def poll(self, timeout: "float | None" = 0.0) -> bool:
        """True when a message (or EOF) is ready within ``timeout``."""
        if self._peeked is None:
            try:
                self._peeked = (self._inbox.get(timeout=timeout),)
            except queue.Empty:
                return False
        return True

    def recv_bytes(self) -> bytes:
        self.poll(None)
        (buf,), self._peeked = self._peeked, None
        if buf is None:
            raise EOFError
        return buf

    def close(self) -> None:
        self._outbox.put(None)


def queue_pair() -> "tuple[_QueueEnd, _QueueEnd]":
    """Both ends of one in-process duplex connection."""
    a, b = queue.Queue(), queue.Queue()
    return _QueueEnd(a, b), _QueueEnd(b, a)


class Channel:
    """One end of a shard's duplex wire (see the module docstring)."""

    def __init__(self, conn, pair=None, *, owner: bool, peer: str):
        self._conn = conn
        #: the ring pair under this channel, or None (connection only)
        self.rings = pair
        self._owner = owner
        # ``req`` flows engine -> worker: the owner (engine) sends on it.
        self._tx, self._rx = None, None
        if pair is not None:
            self._tx, self._rx = (
                (pair.req, pair.rep) if owner else (pair.rep, pair.req)
            )
        self._peer = peer
        self._unanswered = 0  # frames sent that nothing has answered yet
        self._ppid = os.getppid()

    # -- the carrier decision ----------------------------------------------

    @classmethod
    def open(cls, cross_process: bool, *, peer: str) -> "tuple[Channel, tuple]":
        """Engine side: create the carriers the platform allows.

        Returns the engine's end and the handle to give the worker
        (:meth:`attach`). A process worker gets a pipe, plus a fresh
        ring pair where shared memory maps; a thread worker shares the
        address space and the GIL, so a queue is all it can use.
        """
        if not cross_process:
            near, far = queue_pair()
            return cls(near, owner=True, peer=peer), (far, None)
        import multiprocessing as mp

        pair = (rings.RingPair.create()
                if rings.shared_memory_available() else None)
        try:
            near, far = mp.Pipe(duplex=True)
        except BaseException:
            if pair is not None:
                pair.destroy()
            raise
        return (cls(near, pair, owner=True, peer=peer),
                (far, pair.names if pair is not None else None))

    @classmethod
    def attach(cls, handle: tuple) -> "Channel":
        """Worker side: wrap the connection, map the rings if any."""
        conn, names = handle
        # Forked workers share the engine's resource tracker, so
        # un-registering there would strip the engine's own claim; only
        # spawn platforms (one tracker per process, whose exit cleanup
        # would unlink the engine's live segments) need the untrack.
        pair = None
        if names is not None:
            pair = rings.attach_pair(names, untrack=not hasattr(os, "fork"))
        return cls(conn, pair, owner=False, peer="engine")

    @property
    def in_process(self) -> bool:
        """Does the peer live in this process (a thread shard)?"""
        return isinstance(self._conn, _QueueEnd)

    # -- sending -----------------------------------------------------------

    def send(self, msg: tuple) -> None:
        """Ship one control message (pickled, on the connection)."""
        self._conn_send(pickle.dumps(msg))

    def send_frame(self, frame: bytes, *, block: bool = False) -> None:
        """Ship one frame; raises :class:`Busy` instead of waiting
        unless ``block`` (the answering end, which owes nothing)."""
        tx = self._tx
        if tx is not None and tx.fits(len(frame)):
            self._push(frame, block)
        else:
            if self._unanswered:
                raise Busy
            if tx is not None:
                self._push(b"", block)  # "the next frame is on the connection"
            self._conn_send(frame)
        self._unanswered += 1

    def _push(self, record: bytes, block: bool) -> None:
        def attempt():
            try:
                self._tx.push(record)
            except rings.RingFull:
                if not block:
                    raise Busy from None
                if os.getppid() != self._ppid:  # orphaned: nobody will drain
                    raise WorkerDied(f"{self._peer} is gone") from None
                return None
            return True

        try:
            _wait(attempt, None, self._peer)
        except rings.RingError as exc:
            raise WorkerDied(f"ring to {self._peer} failed: {exc!r}") from None

    def _conn_send(self, buf: bytes) -> None:
        try:
            self._conn.send_bytes(buf)
        except (OSError, ValueError) as exc:
            raise WorkerDied(f"{self._peer} died mid-send: {exc!r}") from None

    # -- receiving ---------------------------------------------------------

    def recv(self, deadline: "float | None"):
        """The peer's next message, in the order it was sent: frame
        ``bytes`` or a control tuple, within ``deadline`` seconds (None:
        wait forever). An ``("error", message, traceback)`` report
        raises :class:`ShardWorkerError`."""
        if self._rx is None:
            msg = self._conn_recv(deadline)
        else:
            msg = _wait(lambda: self._ring_recv(deadline), deadline, self._peer)
        if self._unanswered:
            self._unanswered -= 1
        if type(msg) is tuple and msg[0] == "error":
            # The worker is alive and reported a logic error: that is an
            # invariant violation to raise, not a fault to supervise.
            raise ShardWorkerError(f"{msg[1]}\n{msg[2]}")
        return msg

    def _ring_recv(self, deadline):
        rx = self._rx
        try:
            frame = rx.pop()
            if frame is None:
                # Nothing on the ring. A connection message counts only
                # if the ring is *still* empty once it is seen: a
                # diverted frame's empty record is pushed before the
                # frame is written, and a reply pushed just before its
                # worker exited must win over the EOF behind it.
                if not self._conn_ready(0.0) or rx.readable():
                    return None
                return self._conn_recv(deadline)
            rx.commit_reads()
        except rings.RingError as exc:
            raise WorkerDied(f"ring from {self._peer} failed: {exc!r}") from None
        return frame or self._conn_recv(deadline)

    def _conn_ready(self, timeout: float) -> bool:
        try:
            return self._conn.poll(timeout)
        except OSError as exc:
            raise WorkerDied(f"{self._peer} died mid-RPC: {exc!r}") from None

    def _conn_recv(self, timeout: "float | None"):
        """One connection message within ``timeout`` (None: wait forever)."""
        if timeout is not None and not self._conn_ready(timeout):
            raise WorkerTimeout(f"{self._peer} blew the {timeout}s RPC deadline")
        try:
            buf = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise WorkerDied(f"{self._peer} died mid-RPC: {exc!r}") from None
        return buf if buf[:2] == _FRAME_MAGIC else pickle.loads(buf)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop this end. The owner unlinks the ring segments — on engine
        close and on every reap, so a stopped or dead worker never leaks
        ``/dev/shm`` names; the worker only unmaps them. Idempotent."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        pair, self.rings = self.rings, None
        if pair is not None:
            pair.destroy() if self._owner else pair.close()
