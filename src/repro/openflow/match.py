"""OpenFlow matches: sets of (field, value, mask) constraints.

A :class:`Match` is one key over a shared shape, as a P4 table declares
its key fields and match kinds once and each entry carries only values.
The *shape* is the value-free ``((field, mask), ...)`` signature, sorted
by field and interned here, so every rule of a shape points at one tuple;
the match is the tuple ``(shape, v1, ..., vk)`` with its hash cached.
Masks are explicit and non-zero (an exact match uses the field's full
mask) and values canonical (``value & mask``), so equal keys mean equal
semantics. Every accessor — evaluation, subset/overlap tests (a merge over
two sorted shapes), prerequisites — walks the key; none builds a dict.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.net.bits import contiguous_prefix_mask
from repro.openflow.fields import FieldDef, field_by_name
from repro.packet.parser import ParsedPacket

#: Every shape built, mapped to itself: one tuple per distinct shape.
_SHAPES: "dict[tuple, tuple]" = {(): ()}


class Match:
    """An immutable set of field constraints, keyed ``(shape, *values)``.

    Construct from keyword arguments; each value may be:

    * an ``int`` — exact match;
    * a ``(value, mask)`` tuple — masked match;
    * a ``"value/prefix_len"`` or dotted-quad string for address fields.

    Every value must lie in its field's range, ``0 <= value <= max_value``.

    >>> Match(ipv4_dst=("0xC0000200", 0xFFFFFF00))     # doctest: +SKIP
    >>> Match(ipv4_dst="192.0.2.0/24", tcp_dst=80)     # doctest: +SKIP
    """

    # Exactly two: a third slot moves a Match from pymalloc's 48-byte
    # class to 64 and slows a full collection of a 10⁵-rule heap.
    __slots__ = ("_key", "_hash")

    def __new__(cls, **constraints: object) -> "Match":
        return _built([(name, *_parse_spec(field_by_name(name), spec))
                       for name, spec in constraints.items()])

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, tuple[int, int]]) -> "Match":
        """Build from an explicit ``{field: (value, mask)}`` mapping."""
        return _built([(name, _checked(field_by_name(name), value, mask), mask)
                       for name, (value, mask) in pairs.items()])

    # -- inspection ---------------------------------------------------------

    @property
    def shape(self) -> tuple[tuple[str, int], ...]:
        """The value-free ``((field, mask), ...)`` signature, sorted by
        field: what template selection and parser planning key on. The
        interned tuple itself, shared by every match of the shape."""
        return self._key[0]

    @property
    def values(self) -> tuple[int, ...]:
        """The constrained values, in :attr:`shape` order."""
        return self._key[1:]

    @property
    def fields(self) -> tuple[str, ...]:
        """Names of constrained fields, sorted."""
        return tuple([name for name, _mask in self._key[0]])

    def constraint(self, name: str) -> "tuple[int, int] | None":
        """``(value, mask)`` for a field, or None if unconstrained."""
        key, i = self._key, 0
        for field, mask in key[0]:
            i += 1
            if field == name:
                return key[i], mask
        return None

    def value_of(self, name: str) -> "int | None":
        pair = self.constraint(name)
        return pair[0] if pair else None

    def mask_of(self, name: str) -> int:
        pair = self.constraint(name)
        return pair[1] if pair else 0

    def is_exact(self, name: str) -> bool:
        """True if the field is constrained by its full mask."""
        return self.mask_of(name) == field_by_name(name).max_value

    def is_prefix(self, name: str) -> bool:
        """True if the field's mask is a contiguous prefix mask."""
        mask = self.mask_of(name)
        return not mask or contiguous_prefix_mask(mask, field_by_name(name).width)

    def prefix_len(self, name: str) -> int:
        """Prefix length of a contiguous mask (0 when unconstrained)."""
        return self.mask_of(name).bit_count()

    @property
    def is_catch_all(self) -> bool:
        return len(self._key) == 1

    def required_protos(self) -> int:
        """Union of protocol prerequisites for the constrained fields."""
        bits = 0
        for name, _mask in self._key[0]:
            bits |= field_by_name(name).proto_required
        return bits

    def items(self) -> Iterator[tuple[str, tuple[int, int]]]:
        key = self._key
        return iter([(name, (value, mask)) for (name, mask), value in zip(key[0], key[1:])])

    # -- evaluation -----------------------------------------------------------

    def matches(self, view: ParsedPacket) -> bool:
        """Evaluate against a parsed packet (reference semantics)."""
        key = self._key
        for (name, mask), value in zip(key[0], key[1:]):
            actual = field_by_name(name).extract(view)
            if actual is None or (actual & mask) != value:
                return False
        return True

    def matches_key(self, flow_key: Mapping[str, "int | None"]) -> bool:
        """Evaluate against an extracted flow key (OVS-style lookup)."""
        key = self._key
        for (name, mask), value in zip(key[0], key[1:]):
            actual = flow_key.get(name)
            if actual is None or (actual & mask) != value:
                return False
        return True

    # -- relations -------------------------------------------------------------

    def covers(self, other: "Match") -> bool:
        """True if every packet matching ``other`` also matches ``self``."""
        key, okey = self._key, other._key
        oshape = okey[0]
        if key[0] is oshape:
            return key == okey
        j, n = 0, len(oshape)
        for (name, mask), value in zip(key[0], key[1:]):
            while j < n and oshape[j][0] < name:
                j += 1
            if j == n or oshape[j][0] != name:
                return False  # ``other`` leaves the field open
            j += 1
            if (oshape[j - 1][1] & mask) != mask or (okey[j] & mask) != value:
                return False
        return True

    def overlaps(self, other: "Match") -> bool:
        """True if some packet could match both."""
        key, okey = self._key, other._key
        oshape = okey[0]
        j, n = 0, len(oshape)
        for (name, mask), value in zip(key[0], key[1:]):
            while j < n and oshape[j][0] < name:
                j += 1
            if j == n:
                return True
            if oshape[j][0] == name:
                j += 1
                common = mask & oshape[j - 1][1]
                if (value & common) != (okey[j] & common):
                    return False
        return True

    def without(self, name: str) -> "Match":
        """A copy with one field's constraint removed."""
        return _built([(field, value, mask) for field, (value, mask) in self.items()
                       if field != name])

    def extended(self, name: str, value: int, mask: "int | None" = None) -> "Match":
        """A copy with an additional (or replacing) constraint."""
        fdef = field_by_name(name)
        mask = fdef.max_value if mask is None else mask
        value = _checked(fdef, value, mask)
        return _built([(field, v, m) for field, (v, m) in self.items() if field != name]
                      + [(name, value, mask)])

    # -- dunder -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Re-intern the shape on unpickling, and re-hash (string hashes are per process).
        return _keyed, (self._key[0], self._key[1:])

    def __repr__(self) -> str:
        parts = [f"{name}={value:#x}" if mask == field_by_name(name).max_value
                 else f"{name}={value:#x}/{mask:#x}" for name, (value, mask) in self.items()]
        return f"Match({', '.join(parts) or '*'})"


def _built(items: "list[tuple[str, int, int]]") -> Match:
    """The one builder, over checked ``(field, value, mask)`` triples with
    distinct fields and canonical values; a fully wildcarded field (mask
    0) constrains nothing and is dropped."""
    items.sort()
    shape, values = [], []
    for name, value, mask in items:
        if mask:
            shape.append((name, mask))
            values.append(value)
    return _keyed(tuple(shape), values)


def _keyed(shape: tuple, values: "tuple | list") -> Match:
    match = object.__new__(Match)
    match._key = key = (_SHAPES.setdefault(shape, shape), *values)
    match._hash = hash(key)
    return match


def _checked(fdef: FieldDef, value: object, mask: object) -> int:
    """Check one ``(value, mask)`` pair (types, ranges, maskability) and
    return the value under its mask; a full mask keeps the caller's int."""
    full = fdef.max_value
    if type(value) is not int or type(mask) is not int:  # bool included
        raise TypeError(f"{fdef.name} takes int values and masks, got {value!r}, {mask!r}")
    if not 0 <= mask <= full:
        raise ValueError(f"mask out of range for {fdef.name}: {mask:#x}")
    if not 0 <= value <= full:
        raise ValueError(f"value out of range for {fdef.name}: {value:#x}")
    if mask != full and not fdef.maskable:
        raise ValueError(f"field {fdef.name} is not maskable")
    return value if mask == full else value & mask


def _parse_spec(fdef: FieldDef, spec: object) -> tuple[int, int]:
    """Normalize a user-facing constraint spec into a checked, canonical
    ``(value, mask)``."""
    full = fdef.max_value
    if isinstance(spec, tuple):
        value, mask = spec
        value = _to_int(fdef, value)
    elif isinstance(spec, str) and "/" in spec:
        addr, _, plen_str = spec.partition("/")
        value = _to_int(fdef, addr)
        plen = int(plen_str)
        if not 0 <= plen <= fdef.width:
            raise ValueError(f"prefix length {plen} out of range for {fdef.name}")
        mask = ((full >> (fdef.width - plen)) << (fdef.width - plen)) if plen else 0
    else:
        value, mask = _to_int(fdef, spec), full
    return _checked(fdef, value, mask), mask


def _to_int(fdef: FieldDef, value: object) -> int:
    if isinstance(value, bool):
        raise TypeError(f"boolean is not a valid constraint for {fdef.name}")
    if isinstance(value, int):
        return int(value)  # the caller's own object when it is a plain int
    if isinstance(value, str):
        if ":" in value or "-" in value:
            from repro.net.addresses import mac_to_int

            return mac_to_int(value)
        if value.count(".") == 3:
            from repro.net.addresses import ip_to_int

            return ip_to_int(value)
        return int(value, 0)
    raise TypeError(f"cannot interpret constraint {value!r} for field {fdef.name}")
