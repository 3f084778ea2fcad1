"""Frame codec ⟷ wire dialect: identity, and typed rejection of damage.

The packed binary codec (ISSUE 7) must be a *lossless* re-encoding of
the PR 3 wire dialect: any burst of hypothesis-generated packets, any
verdict/delta set expressible on the wire, survives the frame round-trip
bit-exactly. And a damaged frame must never surface a bare
``struct.error`` — every failure is a :class:`FrameError` subclass the
transport can supervise on.
"""

import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

import strategies as sts

from repro.parallel import frames

# -- wire-shaped strategies (the dialect's documented value ranges) --------

ports_st = st.tuples(*[]) | st.lists(
    st.integers(0, 2**32 - 1), min_size=0, max_size=4
).map(tuple)

hop_st = st.tuples(
    st.integers(0, 2**31 - 1),                 # tid
    st.integers(0, 2**64 - 1),                 # rule id (0: miss/dispatch)
)

verdict_st = st.tuples(
    ports_st,
    st.integers(0, 7),                          # flags bitmask
    st.lists(hop_st, min_size=0, max_size=5).map(tuple),
)

delta_st = st.tuples(
    st.integers(1, 2**64 - 1),                  # rule id
    st.integers(0, 2**64 - 1),                  # d_packets
    st.integers(0, 2**64 - 1),                  # d_bytes
)


class TestRequestIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        pkts=st.lists(sts.packets(), min_size=0, max_size=12),
        epoch=st.integers(0, 2**40),
        seq=st.integers(0, 2**40),
        mode=st.sampled_from(("null", "cycle")),
        checksum=st.booleans(),
    )
    def test_packets_round_trip(self, pkts, epoch, seq, mode, checksum):
        frame = frames.request_from_packets(
            epoch, seq, mode, pkts, checksum=checksum
        )
        req, end = frames.unpack_request(frame)
        assert end == len(frame)
        assert (req.epoch, req.seq, req.mode) == (epoch, seq, mode)
        out = req.packets()
        assert len(out) == len(pkts)
        for got, want in zip(out, pkts):
            assert got.data == want.data
            assert isinstance(got.data, bytearray)
            assert got.in_port == want.in_port
            assert got.metadata == want.metadata
            assert got.tunnel_id == want.tunnel_id


class TestReplyIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        verdicts=st.lists(verdict_st, min_size=0, max_size=8),
        deltas=st.lists(delta_st, min_size=0, max_size=6),
        cycles=st.none() | st.floats(
            min_value=0, max_value=1e12, allow_nan=False
        ),
        packets=st.integers(0, 2**31 - 1),
        llc=st.integers(0, 2**40),
        checksum=st.booleans(),
    )
    def test_round_trip(self, verdicts, deltas, cycles, packets, llc, checksum):
        frame = frames.reply_from_wires(
            7, 13, cycles, packets, llc, verdicts, deltas, checksum=checksum
        )
        rep, end = frames.unpack_reply(frame)
        assert end == len(frame)
        assert (rep.epoch, rep.seq) == (7, 13)
        assert rep.cycles == cycles
        assert (rep.packets, rep.llc) == (packets, llc)
        assert rep.verdicts == verdicts
        assert rep.deltas == deltas

    def test_cycles_float_is_bit_exact(self):
        cycles = 123456.78125 + 2**-20  # not representable in fewer bits
        frame = frames.reply_from_wires(0, 0, cycles, 1, 0, [], [])
        rep, _ = frames.unpack_reply(frame)
        assert rep.cycles == cycles  # f64 crossing, no rounding


class TestTypedRejection:
    def _req(self, **kw):
        import random

        rng = random.Random(3)
        pkts = [sts.random_packet(rng) for _ in range(4)]
        return frames.request_from_packets(2, 4, "null", pkts, **kw)

    def test_every_truncation_is_typed(self):
        frame = self._req()
        for cut in range(len(frame)):
            with pytest.raises(frames.FrameError) as err:
                frames.unpack_request(frame[:cut])
            assert not isinstance(err.value, struct.error)

    def test_short_header_is_truncated(self):
        with pytest.raises(frames.FrameTruncated):
            frames.unpack_request(b"\x46\x52")

    def test_bad_magic_is_corrupt(self):
        frame = bytearray(self._req())
        frame[0] ^= 0xFF
        with pytest.raises(frames.FrameCorrupt):
            frames.unpack_request(bytes(frame))

    def test_version_skew_is_typed(self):
        frame = bytearray(self._req())
        frame[2] += 1  # the version byte
        with pytest.raises(frames.FrameVersionMismatch):
            frames.unpack_request(bytes(frame))

    def test_checksum_catches_payload_damage(self):
        frame = bytearray(self._req(checksum=True))
        frame[-1] ^= 0x01
        with pytest.raises(frames.FrameCorrupt):
            frames.unpack_request(bytes(frame))

    def test_wrong_kind_is_corrupt(self):
        rep = frames.reply_from_wires(0, 0, None, 0, 0, [], [])
        with pytest.raises(frames.FrameCorrupt):
            frames.unpack_request(rep)

    @settings(max_examples=80, deadline=None)
    @given(
        flips=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 7)),
            min_size=1, max_size=4,
        ),
        data=st.data(),
    )
    def test_random_bitflips_never_leak_struct_error(self, flips, data):
        """Any damage anywhere raises FrameError (or decodes — bitflips
        in the payload of an unchecksummed frame may legally still parse);
        the codec must never surface struct.error or slice garbage."""
        frame = bytearray(self._req())
        for pos, bit in flips:
            frame[pos % len(frame)] ^= 1 << bit
        try:
            req, _ = frames.unpack_request(bytes(frame))
        except frames.FrameError:
            return
        assert len(req.datas) == len(req.in_ports)

    def test_unencodable_values_raise_frame_error(self):
        class Fake:
            data = b"xx"
            in_port = 1
            metadata = 0
            tunnel_id = -5  # cannot pack as u64

        with pytest.raises(frames.FrameError):
            frames.request_from_packets(0, 0, "null", [Fake()])
        with pytest.raises(frames.FrameError):
            frames.reply_from_wires(
                0, 0, None, 0, 0, [((2**40,), 0, ())], []  # port > u32
            )
        with pytest.raises(frames.FrameError):
            frames.request_from_packets(0, 0, "warp", [])  # unknown mode

    def test_no_pickle_inside_the_codec(self, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - would be the failure
            raise AssertionError("pickle on the frame path")

        monkeypatch.setattr(pickle, "dumps", boom)
        monkeypatch.setattr(pickle, "loads", boom)
        import random

        rng = random.Random(1)
        pkts = [sts.random_packet(rng) for _ in range(8)]
        frame = frames.request_from_packets(1, 1, "cycle", pkts)
        req, _ = frames.unpack_request(frame)
        assert [bytes(p.data) for p in req.packets()] == [
            bytes(p.data) for p in pkts
        ]
