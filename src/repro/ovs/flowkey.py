"""Flow-key extraction (the OVS ``miniflow_extract`` analogue).

OVS parses every received packet once into a flow key covering all match
fields; the microflow cache exact-matches the *entire* key ("essentially
any change in the packet header inside an established flow (e.g., the IP
TTL field) results in a cache miss", Section 2.2), so the key includes
volatile fields like TTL that no OpenFlow rule may even reference.
"""

from __future__ import annotations

from typing import Mapping

from repro.packet import parser as pp
from repro.packet.parser import ParsedPacket
from repro.openflow.fields import FIELDS

#: The columns of a flow key, in registry order: every field with a
#: position in the frame or on the packet. A field without one has no
#: column, so a rule on it never matches — as in the reference.
_EXTRACTORS = [(f.name, f.extract) for f in FIELDS if f.expr is not None]
KEY_FIELDS: tuple[str, ...] = tuple(name for name, _ in _EXTRACTORS)

#: Microflow keys additionally cover volatile non-OXM header state.
EMC_KEY_FIELDS: tuple[str, ...] = KEY_FIELDS + ("ip_ttl",)


def _extract_ttl(view: ParsedPacket) -> "int | None":
    if not view.proto & pp.PROTO_IPV4:
        return None
    return view.pkt.data[view.l3 + 8]


def extract_key(view: ParsedPacket) -> dict[str, "int | None"]:
    """The full flow key: every supported field's value (None = absent)."""
    return {name: extract(view) for name, extract in _EXTRACTORS}


def emc_key(view: ParsedPacket, key: "Mapping[str, int | None] | None" = None) -> tuple:
    """The exact-match (microflow) key tuple, TTL included."""
    if key is None:
        key = extract_key(view)
    return tuple(key[name] for name in KEY_FIELDS) + (_extract_ttl(view),)


def line_key(ekey: tuple) -> tuple:
    """``ekey`` with each absent field (None) as -1: what the cost model
    names a key's cache lines from. A tuple of ints hashes alike in every
    process; on CPython before 3.12 ``hash(None)`` is the object's
    address, which address-space randomisation moves per process."""
    return tuple([-1 if value is None else value for value in ekey])
