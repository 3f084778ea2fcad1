"""The OXM match-field registry (OpenFlow 1.3, 40 fields).

A field *is* its position: each row of :data:`FIELDS` says where the value
sits, and everything that touches packet bytes is emitted from that row,
the way the paper specialises one matcher macro per field by an offset
(``IP_DST_ADDR_MATCHER`` is ``mov eax,[r13+0x10]`` behind a ``bt r15d, IP``
guard). A :class:`FieldDef` carries:

* ``expr`` — a Python expression over the fast-path locals (``data``,
  ``l3``, ``l4``, ``pkt``, ``proto``, ``etype``, ``nxt``) reading the field
  straight from packet bytes; the ESWITCH matcher templates are built from it;
* ``extract`` — the same expression as a function of a parsed packet, behind
  the protocol prerequisite (the reference interpreter and the OVS flow-key
  extractor call it);
* ``proto_required`` — protocol bitmask prerequisite, checked by the
  generated code just like the paper's ``bt r15d, IP`` guard;
* ``store`` — the writer behind the set-field action template, emitted from
  the same position for the fields marked settable.

A position is a :class:`_Slice`: ``(anchor, byte offset, byte count, right
shift)``, cut to the field's bit width. Seven fields are not one fixed slice
and are written out instead: the packet attributes (``in_port``,
``in_phy_port``, ``metadata``, ``tunnel_id``), the two the parser resolves
into preamble locals (``eth_type`` is ``etype``, ``ip_proto`` is ``nxt``),
and ``ip_dscp`` / ``ip_ecn``, which have one slice per IP family.

Fields the wire formats here don't carry (MPLS, SCTP, PBB, IPv6 ND and
extension-header flags) are registered — the spec's 40 OXM basic fields are
all here — but have no position: ``expr`` is ``None`` and they extract to
``None``, so matches on them never hit, as on a switch whose parser does
not recognize the header.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.packet import parser as pp
from repro.packet.parser import ParsedPacket

L_META, L2, L3, L4 = 0, 2, 3, 4


@dataclass(frozen=True)
class FieldDef:
    """Static description of one OXM match field.

    ``proto_required`` is an *any-of* bitmask: the packet must carry at
    least one of the flagged protocols for the field to exist. Most fields
    need exactly one protocol; dual-family fields like ``ip_proto`` accept
    IPv4 or IPv6.
    """

    name: str
    oxm_id: int
    width: int  # bits
    layer: int  # 0 = pipeline metadata, 2/3/4 = protocol layer
    proto_required: int  # any-of protocol bitmask prerequisite (0 = none)
    maskable: bool
    extract: Callable[[ParsedPacket], "int | None"]
    expr: str | None = None  # fast-path read expression, None = no position
    store: Callable[[ParsedPacket, int], None] | None = None

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1

    def __repr__(self) -> str:
        return f"FieldDef({self.name!r})"


# -- the emitter ---------------------------------------------------------------


class _Slice(NamedTuple):
    """``nbytes`` big-endian bytes at ``anchor + offset``, shifted right by
    ``shift`` and cut to the field's width."""

    anchor: str  # "" = start of frame, else the parser-resolved "l3" / "l4"
    offset: int
    nbytes: int
    shift: int = 0

    def _pos(self, i: int) -> str:
        i += self.offset
        if not self.anchor:
            return str(i)
        return f"{self.anchor}+{i}" if i else self.anchor

    def _span(self) -> str:
        return f"data[{self._pos(0)}:{self._pos(self.nbytes)}]"

    def read(self, width: int) -> str:
        n = self.nbytes
        if n > 8:
            word = f"int.from_bytes({self._span()},'big')"
        else:
            word = "|".join(
                [f"(data[{self._pos(i)}]<<{8 * (n - 1 - i)})" for i in range(n - 1)]
                + [f"data[{self._pos(n - 1)}]"]
            )
        if self.shift:
            word = f"({word})>>{self.shift}" if n > 1 else f"{word}>>{self.shift}"
        if 8 * n - self.shift > width:
            inner = f"({word})" if n > 1 or self.shift else word
            word = f"{inner}&0x{(1 << width) - 1:X}"
        return word

    def write(self, width: int) -> list[str]:
        n = self.nbytes
        if not self.shift and width == 8 * n:
            return [f"{self._span()} = value.to_bytes({n},'big')"]
        # Shares a byte with a neighbour: splice bytewise, keeping its bits.
        mask, lines = ((1 << width) - 1) << self.shift, []
        for i in range(n):
            down = 8 * (n - 1 - i)  # this byte's place in the n-byte word
            bits, up = (mask >> down) & 0xFF, self.shift - down
            part = f"value<<{up}" if up >= 0 else f"value>>{-up}"
            if bits:
                byte = f"data[{self._pos(i)}]"
                lines.append(f"{byte} = ({byte}&{0xFF ^ bits:#x})|(({part})&{bits:#x})")
        return lines


#: How a function of a parsed view loads each fast-path local.
_LOADS = {
    "pkt": "view.pkt", "data": "view.pkt.data", "l3": "view.l3", "l4": "view.l4",
    "proto": "view.proto", "etype": "view.eth_type", "nxt": "view.l4_proto",
}


def _over_view(name: str, params: str, proto: int, body: list[str]) -> Callable:
    """Compile ``body`` (statements over the fast-path locals) into a
    module-level function of a parsed view, loading only the locals it
    names; a non-zero ``proto`` guards it: header absent, ``None``."""
    code = "".join(f"    {line}\n" for line in body)
    guard = f"    if not view.proto & {proto:#x}:\n        return None\n" if proto else ""
    loads = "".join(
        f"    {n} = {src}\n" for n, src in _LOADS.items() if re.search(rf"\b{n}\b", code)
    )
    source = f"def {name}({params}):\n{guard}{loads}{code}"
    # Defined in this module's globals so pipelines holding a writer
    # (SetField) still pickle by reference.
    exec(compile(source, f"<fields:{name}>", "exec"), globals())
    return globals()[name]


def _absent(_view: ParsedPacket) -> None:
    return None


_V4, _IP = pp.PROTO_IPV4, pp.PROTO_IPV4 | pp.PROTO_IPV6


def _f(
    name: str, oxm_id: int, width: int, layer: int, proto: int, maskable: bool,
    where: "_Slice | tuple[_Slice, _Slice] | str | None" = None,
    settable: bool = False,
) -> FieldDef:
    """One registry row. ``where`` is the field's position: a slice, an
    (IPv4, IPv6) pair of slices, a hand-written expression over the
    fast-path locals, or ``None`` for a header no parser here recognises."""
    if where is None:
        return FieldDef(name, oxm_id, width, layer, proto, maskable, _absent)
    if isinstance(where, str):
        expr, write = where, [f"{where} = value"]
    elif isinstance(where, _Slice):
        expr, write = where.read(width), where.write(width)
    else:
        v4, v6 = where
        expr = f"(({v4.read(width)}) if proto & {_V4:#x} else ({v6.read(width)}))"
        write = [f"if proto & {_V4:#x}:", *(f"    {w}" for w in v4.write(width)),
                 "else:", *(f"    {w}" for w in v6.write(width))]
    return FieldDef(
        name, oxm_id, width, layer, proto, maskable,
        extract=_over_view(f"extract_{name}", "view", proto, [f"return {expr}"]),
        expr=expr,
        store=_over_view(f"store_{name}", "view, value", 0, write) if settable else None,
    )


# -- the registry -------------------------------------------------------------

_S = _Slice

FIELDS: tuple[FieldDef, ...] = (
    _f("in_port", 0, 32, L_META, 0, False, "pkt.in_port"),
    _f("in_phy_port", 1, 32, L_META, 0, False, "pkt.in_port"),
    _f("metadata", 2, 64, L_META, 0, True, "pkt.metadata", settable=True),
    _f("eth_dst", 3, 48, L2, pp.PROTO_ETH, True, _S("", 0, 6), settable=True),
    _f("eth_src", 4, 48, L2, pp.PROTO_ETH, True, _S("", 6, 6), settable=True),
    # `etype` is a preamble local: the effective (post-VLAN) ethertype the
    # L2 parser resolves.
    _f("eth_type", 5, 16, L2, pp.PROTO_ETH, False, "etype"),
    _f("vlan_vid", 6, 12, L2, pp.PROTO_VLAN, True, _S("", 14, 2), settable=True),
    _f("vlan_pcp", 7, 3, L2, pp.PROTO_VLAN, False, _S("", 14, 1, 5), settable=True),
    # dscp/ecn are the IPv4 ToS byte or the IPv6 traffic class, which
    # straddles the header's first two bytes; `proto` decides.
    _f("ip_dscp", 8, 6, L3, _IP, False, (_S("l3", 1, 1, 2), _S("l3", 0, 2, 6)), settable=True),
    _f("ip_ecn", 9, 2, L3, _IP, False, (_S("l3", 1, 1), _S("l3", 1, 1, 4)), settable=True),
    # ip_proto is semantically L3, but resolving IPv6 extension-header
    # chains is L4 parser work, so it requires the full parse. `nxt` is a
    # preamble local: the resolved IP protocol / final next header.
    _f("ip_proto", 10, 8, L4, _IP, False, "nxt"),
    _f("ipv4_src", 11, 32, L3, pp.PROTO_IPV4, True, _S("l3", 12, 4), settable=True),
    _f("ipv4_dst", 12, 32, L3, pp.PROTO_IPV4, True, _S("l3", 16, 4), settable=True),
    _f("tcp_src", 13, 16, L4, pp.PROTO_TCP, False, _S("l4", 0, 2), settable=True),
    _f("tcp_dst", 14, 16, L4, pp.PROTO_TCP, False, _S("l4", 2, 2), settable=True),
    _f("udp_src", 15, 16, L4, pp.PROTO_UDP, False, _S("l4", 0, 2), settable=True),
    _f("udp_dst", 16, 16, L4, pp.PROTO_UDP, False, _S("l4", 2, 2), settable=True),
    _f("sctp_src", 17, 16, L4, pp.PROTO_SCTP, False),
    _f("sctp_dst", 18, 16, L4, pp.PROTO_SCTP, False),
    _f("icmpv4_type", 19, 8, L4, pp.PROTO_ICMP, False, _S("l4", 0, 1)),
    _f("icmpv4_code", 20, 8, L4, pp.PROTO_ICMP, False, _S("l4", 1, 1)),
    _f("arp_op", 21, 16, L3, pp.PROTO_ARP, False, _S("l3", 6, 2)),
    _f("arp_spa", 22, 32, L3, pp.PROTO_ARP, True, _S("l3", 14, 4)),
    _f("arp_tpa", 23, 32, L3, pp.PROTO_ARP, True, _S("l3", 24, 4)),
    _f("arp_sha", 24, 48, L3, pp.PROTO_ARP, True, _S("l3", 8, 6)),
    _f("arp_tha", 25, 48, L3, pp.PROTO_ARP, True, _S("l3", 18, 6)),
    _f("ipv6_src", 26, 128, L3, pp.PROTO_IPV6, True, _S("l3", 8, 16), settable=True),
    _f("ipv6_dst", 27, 128, L3, pp.PROTO_IPV6, True, _S("l3", 24, 16), settable=True),
    _f("ipv6_flabel", 28, 20, L3, pp.PROTO_IPV6, True, _S("l3", 1, 3)),
    _f("icmpv6_type", 29, 8, L4, pp.PROTO_ICMP6, False, _S("l4", 0, 1)),
    _f("icmpv6_code", 30, 8, L4, pp.PROTO_ICMP6, False, _S("l4", 1, 1)),
    _f("ipv6_nd_target", 31, 128, L3, pp.PROTO_IPV6, False),
    _f("ipv6_nd_sll", 32, 48, L3, pp.PROTO_IPV6, False),
    _f("ipv6_nd_tll", 33, 48, L3, pp.PROTO_IPV6, False),
    _f("mpls_label", 34, 20, L2, pp.PROTO_MPLS, False),
    _f("mpls_tc", 35, 3, L2, pp.PROTO_MPLS, False),
    _f("mpls_bos", 36, 1, L2, pp.PROTO_MPLS, False),
    _f("pbb_isid", 37, 24, L2, 0, True),
    _f("tunnel_id", 38, 64, L_META, 0, True, "pkt.tunnel_id"),
    _f("ipv6_exthdr", 39, 9, L3, pp.PROTO_IPV6, True),
)

_BY_NAME: dict[str, FieldDef] = {f.name: f for f in FIELDS}


def field_by_name(name: str) -> FieldDef:
    """Look up a field definition; raises ``KeyError`` with a hint."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown OXM field {name!r}; known fields: {', '.join(sorted(_BY_NAME))}"
        ) from None


def max_layer(field_names: "list[str] | set[str] | tuple[str, ...]") -> int:
    """Deepest protocol layer any of ``field_names`` lives in (min 2).

    Decides which parser templates a compiled pipeline needs: pure-L2
    pipelines skip L3/L4 parsing entirely (Section 3.1).
    """
    deepest = 2
    for name in field_names:
        deepest = max(deepest, _BY_NAME[name].layer)
    return deepest
