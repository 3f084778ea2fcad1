"""OpenFlow matches: sets of (field, value, mask) constraints.

A :class:`Match` maps field names to ``(value, mask)`` pairs. ``mask`` is
always an explicit integer here; an exact match uses the field's full mask.
Values are canonicalized (``value & mask``) on construction so structural
equality means semantic equality field-by-field.

The class supports the relations the classifiers and the decomposition
algorithm need: evaluation against a packet, subset/overlap tests between
matches, and protocol-prerequisite computation.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.net.bits import contiguous_prefix_mask
from repro.openflow.fields import FieldDef, field_by_name
from repro.packet.parser import ParsedPacket


class Match:
    """An immutable set of field constraints.

    Construct from keyword arguments; each value may be:

    * an ``int`` — exact match;
    * a ``(value, mask)`` tuple — masked match;
    * a ``"value/prefix_len"`` or dotted-quad string for address fields.

    >>> Match(ipv4_dst=("0xC0000200", 0xFFFFFF00))     # doctest: +SKIP
    >>> Match(ipv4_dst="192.0.2.0/24", tcp_dst=80)     # doctest: +SKIP
    """

    __slots__ = ("_constraints", "_hash")

    def __init__(self, **constraints: object):
        items: dict[str, tuple[int, int]] = {}
        for name, spec in constraints.items():
            fdef = field_by_name(name)
            value, mask = _parse_spec(fdef, spec)
            if mask == 0:
                continue  # a fully wildcarded field constrains nothing
            items[name] = (value & mask, mask)
        self._constraints = dict(sorted(items.items()))
        self._hash = hash(tuple(self._constraints.items()))

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, tuple[int, int]]) -> "Match":
        """Build from an explicit ``{field: (value, mask)}`` mapping."""
        match = cls()
        items = {}
        for name, (value, mask) in pairs.items():
            fdef = field_by_name(name)
            if not 0 <= mask <= fdef.max_value:
                raise ValueError(f"mask out of range for {name}: {mask:#x}")
            if mask == 0:
                continue
            items[name] = (value & mask, mask)
        match._constraints = dict(sorted(items.items()))
        match._hash = hash(tuple(match._constraints.items()))
        return match

    # -- inspection ---------------------------------------------------------

    @property
    def fields(self) -> tuple[str, ...]:
        """Names of constrained fields, sorted."""
        return tuple(self._constraints)

    @property
    def shape(self) -> tuple[tuple[str, int], ...]:
        """The value-free ``((field, mask), ...)`` signature, sorted by
        field: what template selection and parser planning key on."""
        return tuple([(name, vm[1]) for name, vm in self._constraints.items()])

    def constraint(self, name: str) -> "tuple[int, int] | None":
        """``(value, mask)`` for a field, or None if unconstrained."""
        return self._constraints.get(name)

    def value_of(self, name: str) -> "int | None":
        pair = self._constraints.get(name)
        return pair[0] if pair else None

    def mask_of(self, name: str) -> int:
        pair = self._constraints.get(name)
        return pair[1] if pair else 0

    def is_exact(self, name: str) -> bool:
        """True if the field is constrained by its full mask."""
        pair = self._constraints.get(name)
        if pair is None:
            return False
        return pair[1] == field_by_name(name).max_value

    def is_prefix(self, name: str) -> bool:
        """True if the field's mask is a contiguous prefix mask."""
        pair = self._constraints.get(name)
        if pair is None:
            return True
        fdef = field_by_name(name)
        return contiguous_prefix_mask(pair[1], fdef.width)

    def prefix_len(self, name: str) -> int:
        """Prefix length of a contiguous mask (0 when unconstrained)."""
        pair = self._constraints.get(name)
        if pair is None:
            return 0
        return pair[1].bit_count()

    @property
    def is_catch_all(self) -> bool:
        return not self._constraints

    def required_protos(self) -> int:
        """Union of protocol prerequisites for the constrained fields."""
        bits = 0
        for name in self._constraints:
            bits |= field_by_name(name).proto_required
        return bits

    def items(self) -> Iterator[tuple[str, tuple[int, int]]]:
        return iter(self._constraints.items())

    # -- evaluation -----------------------------------------------------------

    def matches(self, view: ParsedPacket) -> bool:
        """Evaluate against a parsed packet (reference semantics)."""
        for name, (value, mask) in self._constraints.items():
            fdef = field_by_name(name)
            actual = fdef.extract(view)
            if actual is None or (actual & mask) != value:
                return False
        return True

    def matches_key(self, key: Mapping[str, "int | None"]) -> bool:
        """Evaluate against an extracted flow key (OVS-style lookup)."""
        for name, (value, mask) in self._constraints.items():
            actual = key.get(name)
            if actual is None or (actual & mask) != value:
                return False
        return True

    # -- relations -------------------------------------------------------------

    def covers(self, other: "Match") -> bool:
        """True if every packet matching ``other`` also matches ``self``."""
        for name, (value, mask) in self._constraints.items():
            pair = other._constraints.get(name)
            if pair is None:
                return False
            ovalue, omask = pair
            if (omask & mask) != mask or (ovalue & mask) != value:
                return False
        return True

    def overlaps(self, other: "Match") -> bool:
        """True if some packet could match both."""
        for name, (value, mask) in self._constraints.items():
            pair = other._constraints.get(name)
            if pair is None:
                continue
            ovalue, omask = pair
            common = mask & omask
            if (value & common) != (ovalue & common):
                return False
        return True

    def without(self, name: str) -> "Match":
        """A copy with one field's constraint removed (used by DECOMPOSE)."""
        remaining = {k: v for k, v in self._constraints.items() if k != name}
        return Match.from_pairs(remaining)

    def extended(self, name: str, value: int, mask: "int | None" = None) -> "Match":
        """A copy with an additional constraint."""
        fdef = field_by_name(name)
        full = fdef.max_value
        pairs = dict(self._constraints)
        pairs[name] = (value, full if mask is None else mask)
        return Match.from_pairs(pairs)

    # -- dunder -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._constraints == other._constraints

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._constraints:
            return "Match(*)"
        parts = []
        for name, (value, mask) in self._constraints.items():
            fdef = field_by_name(name)
            if mask == fdef.max_value:
                parts.append(f"{name}={value:#x}")
            else:
                parts.append(f"{name}={value:#x}/{mask:#x}")
        return f"Match({', '.join(parts)})"


def _parse_spec(fdef: FieldDef, spec: object) -> tuple[int, int]:
    """Normalize a user-facing constraint spec into ``(value, mask)``."""
    full = fdef.max_value
    if isinstance(spec, bool):
        raise TypeError(f"boolean is not a valid constraint for {fdef.name}")
    if isinstance(spec, int):
        if not 0 <= spec <= full:
            raise ValueError(f"value out of range for {fdef.name}: {spec:#x}")
        return spec, full
    if isinstance(spec, tuple):
        value, mask = spec
        value = _to_int(fdef, value)
        if not 0 <= mask <= full:
            raise ValueError(f"mask out of range for {fdef.name}: {mask:#x}")
        if mask != full and not fdef.maskable:
            raise ValueError(f"field {fdef.name} is not maskable")
        return value, mask
    if isinstance(spec, str):
        if "/" in spec:
            addr, _, plen_str = spec.partition("/")
            value = _to_int(fdef, addr)
            plen = int(plen_str)
            if not 0 <= plen <= fdef.width:
                raise ValueError(f"prefix length {plen} out of range for {fdef.name}")
            mask = ((full >> (fdef.width - plen)) << (fdef.width - plen)) if plen else 0
            if mask != full and not fdef.maskable:
                raise ValueError(f"field {fdef.name} is not maskable")
            return value, mask
        return _to_int(fdef, spec), full
    raise TypeError(f"cannot interpret constraint {spec!r} for field {fdef.name}")


def _to_int(fdef: FieldDef, value: object) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if ":" in value or "-" in value:
            from repro.net.addresses import mac_to_int

            return mac_to_int(value)
        if value.count(".") == 3:
            from repro.net.addresses import ip_to_int

            return ip_to_int(value)
        return int(value, 0)
    raise TypeError(f"cannot convert {value!r} to a value for field {fdef.name}")
