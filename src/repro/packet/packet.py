"""The Packet container handed to switch datapaths.

A :class:`Packet` is raw wire bytes plus switch-local metadata:

* ``in_port`` — the ingress port number (OXM ``in_port``);
* ``metadata`` — the 64-bit OpenFlow metadata register;
* ``tunnel_id`` — the logical tunnel id (OXM ``tunnel_id``).

Fast paths mutate the byte buffer directly (set-field, push/pop VLAN), so
the buffer is a ``bytearray``.
"""

from __future__ import annotations


class Packet:
    """Raw packet bytes plus pipeline metadata."""

    __slots__ = ("data", "in_port", "metadata", "tunnel_id")

    def __init__(
        self,
        data: bytes | bytearray,
        in_port: int = 0,
        metadata: int = 0,
        tunnel_id: int = 0,
    ):
        self.data = bytearray(data)
        self.in_port = in_port
        self.metadata = metadata
        self.tunnel_id = tunnel_id

    def copy(self) -> "Packet":
        clone = Packet(bytes(self.data), self.in_port, self.metadata, self.tunnel_id)
        return clone

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Packet(len={len(self.data)}, in_port={self.in_port})"
