"""Tests for Match: construction, evaluation, and relations."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import strategies as sts

from repro.net.addresses import ip_to_int
from repro.openflow.flow_entry import FlowEntry
from repro.openflow.match import Match
from repro.packet import PacketBuilder
from repro.packet.parser import parse


class TestConstruction:
    def test_string_specs(self):
        m = Match(ipv4_dst="192.0.2.0/24", eth_dst="02:00:00:00:00:01", tcp_dst=80)
        assert m.mask_of("ipv4_dst") == 0xFFFFFF00
        assert m.is_exact("tcp_dst")
        assert m.value_of("eth_dst") == 0x020000000001

    def test_value_canonicalized_under_mask(self):
        a = Match(ipv4_dst=("192.0.2.77", 0xFFFFFF00))
        b = Match(ipv4_dst=("192.0.2.0", 0xFFFFFF00))
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_mask_dropped(self):
        assert Match(ipv4_dst=(123, 0)).is_catch_all

    def test_unknown_field(self):
        with pytest.raises(KeyError):
            Match(no_such_field=1)

    def test_unmaskable_field_rejects_mask(self):
        with pytest.raises(ValueError):
            Match(tcp_dst=(80, 0xFF00))

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            Match(tcp_dst=1 << 16)

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            Match(ipv4_dst="10.0.0.0/33")

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            Match(tcp_dst=True)

    @pytest.mark.parametrize("spec", [(70000, 0xFFFF), (-1, 0xFFFF), (1 << 16, 0xFF00)])
    def test_masked_value_out_of_range(self, spec):
        # Each was truncated under the mask (0x1170, 0xffff, 0) before.
        with pytest.raises(ValueError):
            Match(tcp_dst=spec)
        with pytest.raises(ValueError):
            Match.from_pairs({"tcp_dst": spec})

    def test_out_of_range_address_value(self):
        with pytest.raises(ValueError):
            Match(ipv4_dst=(1 << 32, 0xFFFFFF00))
        with pytest.raises(ValueError):
            Match().extended("ipv4_dst", 1 << 32, 0xFF000000)

    @pytest.mark.parametrize("pair", [(True, 0xFFFF), (80, True)])
    def test_bool_rejected_in_pairs(self, pair):
        with pytest.raises(TypeError):
            Match(tcp_dst=pair)
        with pytest.raises(TypeError):
            Match.from_pairs({"tcp_dst": pair})

    def test_from_pairs(self):
        m = Match.from_pairs({"ipv4_src": (0x0A000000, 0xFF000000)})
        assert m.prefix_len("ipv4_src") == 8


class TestEvaluation:
    def pkt(self, **kw):
        return parse(PacketBuilder(in_port=kw.pop("in_port", 1)).eth()
                     .ipv4(src=kw.pop("src", "10.0.0.1"), dst=kw.pop("dst", "192.0.2.1"))
                     .tcp(dst_port=kw.pop("dport", 80)).build())

    def test_exact_hit_and_miss(self):
        m = Match(tcp_dst=80)
        assert m.matches(self.pkt())
        assert not m.matches(self.pkt(dport=443))

    def test_masked_hit(self):
        m = Match(ipv4_dst="192.0.2.0/24")
        assert m.matches(self.pkt(dst="192.0.2.200"))
        assert not m.matches(self.pkt(dst="192.0.3.1"))

    def test_absent_header_never_matches(self):
        m = Match(tcp_dst=80)
        udp = parse(PacketBuilder().eth().ipv4().udp(dst_port=80).build())
        assert not m.matches(udp)

    def test_catch_all_matches_everything(self):
        assert Match().matches(self.pkt())

    def test_matches_key(self):
        m = Match(ipv4_dst="192.0.2.0/24", tcp_dst=80)
        assert m.matches_key({"ipv4_dst": ip_to_int("192.0.2.5"), "tcp_dst": 80})
        assert not m.matches_key({"ipv4_dst": ip_to_int("192.0.2.5"), "tcp_dst": None})


class TestRelations:
    def test_covers(self):
        broad = Match(ipv4_dst="10.0.0.0/8")
        narrow = Match(ipv4_dst="10.1.0.0/16", tcp_dst=80)
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_catch_all_covers_all(self):
        assert Match().covers(Match(tcp_dst=80))

    def test_overlap_disjoint_values(self):
        assert not Match(tcp_dst=80).overlaps(Match(tcp_dst=443))

    def test_overlap_different_fields(self):
        assert Match(tcp_dst=80).overlaps(Match(ipv4_dst="10.0.0.0/8"))

    def test_without_and_extended(self):
        m = Match(ipv4_dst="10.0.0.0/8", tcp_dst=80)
        assert m.without("tcp_dst") == Match(ipv4_dst="10.0.0.0/8")
        assert Match().extended("tcp_dst", 80) == Match(tcp_dst=80)

    @given(sts.matches(), sts.matches())
    def test_covers_implies_overlaps(self, a, b):
        if a.covers(b):
            assert a.overlaps(b)

    @given(sts.matches(), sts.packets())
    def test_covers_semantics(self, m, pkt):
        # Anything a narrower match accepts, the covering match accepts.
        view = parse(pkt)
        narrower = m  # compare m with itself extended
        if m.fields:
            name = m.fields[0]
            if m.matches(view):
                assert m.covers(narrower)

    @given(sts.matches(), sts.matches(), sts.packets())
    def test_no_overlap_means_no_common_packet(self, a, b, pkt):
        if not a.overlaps(b):
            view = parse(pkt)
            assert not (a.matches(view) and b.matches(view))


def model_of(pairs: dict) -> dict:
    """The reference model: a plain ``{field: (value & mask, mask)}`` dict,
    fully wildcarded fields dropped."""
    return {name: (value & mask, mask) for name, (value, mask) in pairs.items() if mask}


def model_covers(a: dict, b: dict) -> bool:
    return all(
        name in b and b[name][1] & mask == mask and b[name][0] & mask == value
        for name, (value, mask) in a.items()
    )


def model_overlaps(a: dict, b: dict) -> bool:
    return all(
        value & mask & b[name][1] == b[name][0] & mask & b[name][1]
        for name, (value, mask) in a.items() if name in b
    )


def model_matches_key(a: dict, key: dict) -> bool:
    return all(
        key.get(name) is not None and key[name] & mask == value
        for name, (value, mask) in a.items()
    )


flow_keys = st.fixed_dictionaries({
    name: st.one_of(st.none(), st.sampled_from(values))
    for name, values in sts.FIELD_DOMAINS.items()
})


class TestAgainstDictModel:
    """A ``Match`` is a key over a shared shape; every answer it gives must
    be the one a plain dict of ``(value, mask)`` pairs gives."""

    @given(sts.match_pairs(min_size=0), sts.match_pairs(min_size=0), flow_keys)
    def test_agrees_with_the_model(self, pa, pb, key):
        a, b = Match.from_pairs(pa), Match(**pb)
        ma, mb = model_of(pa), model_of(pb)
        assert Match(**pa) == a and Match.from_pairs(pb) == b
        assert (a == b) == (ma == mb)
        if ma == mb:
            assert hash(a) == hash(b) and a.shape is b.shape
        assert a.shape == tuple((name, mask) for name, (_v, mask) in sorted(ma.items()))
        assert list(a.items()) == sorted(ma.items())
        assert a.values == tuple(value for _n, (value, _m) in sorted(ma.items()))
        assert a.is_catch_all == (not ma)
        for name in sorted(sts.FIELD_DOMAINS):
            assert a.constraint(name) == ma.get(name)
            assert a.value_of(name) == (ma[name][0] if name in ma else None)
            assert a.mask_of(name) == (ma[name][1] if name in ma else 0)
        assert a.covers(b) == model_covers(ma, mb)
        assert b.covers(a) == model_covers(mb, ma)
        assert a.overlaps(b) == model_overlaps(ma, mb) == b.overlaps(a)
        assert a.matches_key(key) == model_matches_key(ma, key)
        for name in pa:
            rest = {n: vm for n, vm in ma.items() if n != name}
            assert dict(a.without(name).items()) == rest
        for name, (value, mask) in pb.items():
            grown = model_of({**pa, name: (value, mask)})
            assert dict(a.extended(name, value, mask).items()) == grown
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and hash(copy) == hash(a) and copy.shape is a.shape


def test_flow_entry_keeps_identity_equality():
    """``FlowTable`` keys its slot map by the entry itself: two entries for
    one rule are two keys. An ``__eq__`` or ``__hash__`` on ``FlowEntry``
    would merge them and silently break strict delete and replace."""
    assert FlowEntry.__eq__ is object.__eq__
    assert FlowEntry.__hash__ is object.__hash__
    a, b = (FlowEntry(Match(tcp_dst=80), priority=1) for _ in range(2))
    assert a != b and len({a: 0, b: 1}) == 2


class TestProtocolPrereqs:
    def test_required_protos_union(self):
        from repro.packet.parser import PROTO_IPV4, PROTO_TCP

        m = Match(ipv4_dst="10.0.0.0/8", tcp_dst=80)
        req = m.required_protos()
        assert req & PROTO_IPV4 and req & PROTO_TCP

    def test_repr_stable(self):
        m = Match(tcp_dst=80, ipv4_dst="10.0.0.0/8")
        assert "tcp_dst" in repr(m) and "ipv4_dst" in repr(m)
