"""The shard channel: one connection per shard, one wire format.

A burst and its reply cross the shard boundary in exactly one form — the
packed frame of :mod:`repro.parallel.frames` — over the one
**connection** every shard has: a ``multiprocessing`` pipe to its worker
process. It carries the rare control messages (flow-mod broadcasts,
pings, stop, error reports) pickled, and frames as raw bytes; a frame is
told from a pickle by its magic.

**Ordering and backpressure.** The engine keeps one burst in flight per
worker: it sends a request and takes the reply before it sends the next,
so the two ends never block writing at each other and messages arrive in
the order they were sent.

**Faults.** Every way a send or receive can fail — EOF, a closed
handle, a blown deadline — surfaces as :class:`WorkerDied` or
:class:`WorkerTimeout`, on both ends (to a worker, the "dead peer" is
its engine).
"""

from __future__ import annotations

import pickle

from repro.parallel import frames

_FRAME_MAGIC = frames.MAGIC.to_bytes(2, "little")


class ShardWorkerError(RuntimeError):
    """A shard worker reported an exception (its traceback is attached)."""


class WorkerDied(ShardWorkerError):
    """The peer's end of the channel went dead (crash, OOM kill, exit)."""


class WorkerTimeout(ShardWorkerError):
    """The peer blew the RPC deadline (hang, livelock, swap storm)."""


class Channel:
    """One end of a shard's duplex wire (see the module docstring)."""

    def __init__(self, conn, *, peer: str):
        self._conn = conn
        self._peer = peer

    # -- sending -----------------------------------------------------------

    def send(self, msg: tuple) -> None:
        """Ship one control message (pickled)."""
        self.send_frame(pickle.dumps(msg))

    def send_frame(self, frame: bytes) -> None:
        """Ship one frame (or pickled message) as raw bytes."""
        try:
            self._conn.send_bytes(frame)
        except (OSError, ValueError) as exc:
            raise WorkerDied(f"{self._peer} died mid-send: {exc!r}") from None

    # -- receiving ---------------------------------------------------------

    def recv(self, deadline: "float | None"):
        """The peer's next message, in the order it was sent: frame
        ``bytes`` or a control tuple, within ``deadline`` seconds (None:
        wait forever). An ``("error", message, traceback)`` report
        raises :class:`ShardWorkerError`."""
        try:
            ready = deadline is None or self._conn.poll(deadline)
        except OSError as exc:
            raise WorkerDied(f"{self._peer} died mid-RPC: {exc!r}") from None
        if not ready:
            raise WorkerTimeout(f"{self._peer} blew the {deadline}s RPC deadline")
        try:
            buf = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise WorkerDied(f"{self._peer} died mid-RPC: {exc!r}") from None
        if buf[:2] == _FRAME_MAGIC:
            return buf
        msg = pickle.loads(buf)
        if msg[0] == "error":
            # The worker is alive and reported a logic error: that is an
            # invariant violation to raise, not a fault to supervise.
            raise ShardWorkerError(f"{msg[1]}\n{msg[2]}")
        return msg

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop this end (idempotent)."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
