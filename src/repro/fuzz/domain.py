"""Shared fuzz vocabulary: fields, value pools, masks, packet synthesis.

This module is the single source of truth for the value domains both the
hypothesis strategies (``tests/strategies.py``) and the seeded fuzzer
(:mod:`repro.fuzz.gen`) draw from. Small, collision-rich pools make
rule/packet interactions likely; the fuzzer widens them with fully random
values and **arbitrary masks** so the generated ruleset space includes
the awkward corners the curated pools never reach.

:func:`packet_for_fields` is the inverse of a match: given a field
constraint map it synthesizes a frame that satisfies every constraint
(off-mask bits randomized), which is how the traffic generator biases
bursts toward match/miss boundaries.
"""

from __future__ import annotations

import random

from repro.openflow.fields import field_by_name
from repro.packet.builder import PacketBuilder
from repro.packet.packet import Packet

V6_A = 0x20010DB8000000000000000000000001
V6_B = 0x20010DB8000000000000000000000002

#: Fields random pipelines draw from. Small value domains make
#: rule/packet collisions likely — that's the point.
FIELD_DOMAINS: dict[str, list[int]] = {
    "in_port": [1, 2, 3],
    "eth_dst": [0x0200_0000_0001, 0x0200_0000_0002, 0x0200_0000_0003],
    "ipv4_src": [0x0A000001, 0x0A000002, 0xC0A80001],
    "ipv4_dst": [0xC0000201, 0xC0000202, 0x08080808],
    "ipv6_dst": [V6_A, V6_B],
    "ip_proto": [6, 17],
    "tcp_dst": [22, 80, 443],
    "udp_dst": [53, 123],
    "vlan_vid": [100, 200],
}

#: Curated mask pools (the "nice" masks real controllers install).
MASKS = {
    "ipv4_src": [0xFFFFFFFF, 0xFFFFFF00, 0xFFFF0000, 0x80000000],
    "ipv4_dst": [0xFFFFFFFF, 0xFFFFFF00, 0xFFFF0000],
    "ipv6_dst": [(1 << 128) - 1, ((1 << 64) - 1) << 64],  # exact and /64
    "eth_dst": [0xFFFFFFFFFFFF],
}

#: Extra source-port pools the fuzzer (but not the curated strategies)
#: draws from, so source-port matches collide like destination ones.
PORT_SRC_DOMAINS: dict[str, list[int]] = {
    "tcp_src": [1024, 1025, 5000],
    "udp_src": [1024, 2048],
}

#: Coherent field subsets: a match drawn from one profile can actually
#: be satisfied by a single frame (no tcp+udp contradictions).
PROFILES: dict[str, tuple[str, ...]] = {
    "l2": ("in_port", "eth_dst", "vlan_vid"),
    "v4": ("in_port", "eth_dst", "ipv4_src", "ipv4_dst", "ip_proto"),
    "v4tcp": ("in_port", "ipv4_src", "ipv4_dst", "tcp_src", "tcp_dst"),
    "v4udp": ("in_port", "ipv4_src", "ipv4_dst", "udp_src", "udp_dst"),
    "v6": ("in_port", "eth_dst", "ipv6_dst"),
}


def full_mask(name: str) -> int:
    return field_by_name(name).max_value


def domain_value(rng: random.Random, name: str) -> int:
    """A value for ``name``: collision-rich pool most of the time,
    anywhere in the field's width otherwise."""
    pool = FIELD_DOMAINS.get(name) or PORT_SRC_DOMAINS.get(name)
    if pool is not None and rng.random() < 0.7:
        return rng.choice(pool)
    return rng.getrandbits(field_by_name(name).width)


def random_mask(rng: random.Random, name: str) -> int:
    """Full, curated, prefix, or fully arbitrary mask for ``name``."""
    fdef = field_by_name(name)
    width, full = fdef.width, fdef.max_value
    if not fdef.maskable:  # Match rejects a mask: exactly or not at all
        return full
    roll = rng.random()
    if roll < 0.55:
        return full
    if roll < 0.70 and name in MASKS:
        return rng.choice(MASKS[name])
    if roll < 0.85:  # prefix mask of random length (never /0: that's a
        # wildcard, i.e. the field simply absent from the match)
        plen = rng.randint(1, width)
        return (full << (width - plen)) & full
    # Arbitrary non-contiguous mask; reroll the (rare) all-zero draw.
    mask = rng.getrandbits(width)
    return mask or full


def random_fields(
    rng: random.Random,
    profile: "str | None" = None,
    max_fields: int = 3,
    exact_only: bool = False,
) -> dict[str, tuple[int, int]]:
    """A coherent field-constraint map ``{name: (value, mask)}``."""
    names = PROFILES[profile or rng.choice(sorted(PROFILES))]
    k = rng.randint(1, min(max_fields, len(names)))
    chosen = rng.sample(list(names), k)
    fields: dict[str, tuple[int, int]] = {}
    for name in chosen:
        mask = full_mask(name) if exact_only else random_mask(rng, name)
        fields[name] = (domain_value(rng, name) & mask, mask)
    if "ip_proto" in fields:
        # Keep the proto constraint satisfiable alongside any L4 fields.
        if any(f.startswith("tcp_") for f in fields):
            fields["ip_proto"] = (6, full_mask("ip_proto"))
        elif any(f.startswith("udp_") for f in fields):
            fields["ip_proto"] = (17, full_mask("ip_proto"))
    return fields


def perturb_fields(
    rng: random.Random, fields: dict[str, tuple[int, int]]
) -> dict[str, tuple[int, int]]:
    """Nudge one constraint toward a match/miss boundary.

    The returned map is fed to :func:`packet_for_fields`, so the
    perturbation lands in the *packet*, not the rule: off-by-one values
    cross exact-key and LPM edges, an in-mask bit flip is a near-miss, an
    off-mask flip must still match.
    """
    out = dict(fields)
    name = rng.choice(sorted(out))
    value, mask = out[name]
    full = full_mask(name)
    roll = rng.randrange(4)
    if roll == 0:
        value = (value + 1) & full
    elif roll == 1:
        value = (value - 1) & full
    elif roll == 2 and mask:  # flip the lowest set mask bit: near-miss
        value ^= mask & -mask
    else:  # flip a bit outside the mask: must still match
        hole = full & ~mask
        if hole:
            value ^= hole & -hole
        else:
            value = (value + 1) & full
    out[name] = (value, mask)
    return out


def packet_for_fields(
    rng: random.Random, fields: dict[str, tuple[int, int]]
) -> Packet:
    """A frame satisfying every constraint in ``fields``.

    Constrained bits are honored exactly; unconstrained bits (and whole
    unconstrained headers) are randomized from the domains so the frame
    still collides with *other* rules.
    """

    def fill(name: str) -> int:
        width = field_by_name(name).width
        constraint = fields.get(name)
        if constraint is None:
            return domain_value(rng, name)
        value, mask = constraint
        return (value & mask) | (rng.getrandbits(width) & ~mask & full_mask(name))

    in_port = fields["in_port"][0] if "in_port" in fields else rng.choice(
        FIELD_DOMAINS["in_port"]
    )
    builder = PacketBuilder(in_port=in_port)
    builder.eth(src=0x0200_0000_0099, dst=fill("eth_dst"))
    if "vlan_vid" in fields or rng.random() < 0.15:
        builder.vlan(vid=fill("vlan_vid") & 0xFFF)

    v4_fields = ("ipv4_src", "ipv4_dst", "ip_proto", "tcp_src", "tcp_dst",
                 "udp_src", "udp_dst")
    wants_v6 = "ipv6_dst" in fields
    wants_v4 = any(f in fields for f in v4_fields)
    if wants_v6:
        builder.ipv6(src=V6_A + 0x99, dst=fill("ipv6_dst"))
        return builder.build()
    if not wants_v4 and rng.random() < 0.2:
        return builder.build()  # L2-only frame

    proto = fields["ip_proto"][0] if "ip_proto" in fields else None
    wants_tcp = proto == 6 or any(f.startswith("tcp_") for f in fields)
    wants_udp = proto == 17 or any(f.startswith("udp_") for f in fields)
    if proto is not None and proto not in (6, 17):
        builder.ipv4(src=fill("ipv4_src"), dst=fill("ipv4_dst"), proto=proto)
        return builder.build()
    builder.ipv4(src=fill("ipv4_src"), dst=fill("ipv4_dst"))
    if wants_tcp:
        builder.tcp(src_port=fill("tcp_src") & 0xFFFF, dst_port=fill("tcp_dst") & 0xFFFF)
    elif wants_udp:
        builder.udp(src_port=fill("udp_src") & 0xFFFF, dst_port=fill("udp_dst") & 0xFFFF)
    elif rng.random() < 0.8:
        if rng.random() < 0.5:
            builder.tcp(src_port=fill("tcp_src") & 0xFFFF, dst_port=fill("tcp_dst") & 0xFFFF)
        else:
            builder.udp(src_port=fill("udp_src") & 0xFFFF, dst_port=fill("udp_dst") & 0xFFFF)
    return builder.build()


def malformed_packet(rng: random.Random) -> Packet:
    """A truncated or garbage frame: parsers must degrade identically."""
    roll = rng.random()
    if roll < 0.5:
        base = packet_for_fields(rng, random_fields(rng))
        cut = rng.randrange(0, max(1, len(base.data)))
        return Packet(bytes(base.data[:cut]), in_port=base.in_port)
    n = rng.randrange(0, 64)
    return Packet(bytes(rng.getrandbits(8) for _ in range(n)),
                  in_port=rng.choice(FIELD_DOMAINS["in_port"]))
