"""Property-based round trips and corruption handling for the frame codec.

The TCP ring's correctness rests on the codec being an exact inverse of
itself over every dtype/shape/counter combination an adapter could
produce, and on malformed bytes *failing loudly* — a reader facing a
truncated or corrupt frame must get a :class:`ProtocolError`, never an
indefinite block or a silently wrong array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.framing import (
    FRAME_MAGIC,
    KIND_BATCH,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_INGEST,
    KIND_JOIN,
    KIND_SHARD_RETIRED,
    KIND_WELCOME,
    FrameDecoder,
    ProtocolError,
    decode_batch,
    decode_heartbeat,
    decode_hello,
    decode_ingest,
    decode_join,
    decode_shard_retired,
    decode_welcome,
    encode_batch,
    encode_frame,
    encode_heartbeat,
    encode_hello,
    encode_ingest,
    encode_join,
    encode_shard_retired,
    encode_welcome,
)
from repro.distributed.interfaces import SubmodelSpec
from repro.distributed.messages import IngestMessage, ShardRetired, SubmodelMessage
from repro.optim.sgd import SGDState

DTYPES = ["<f8", "<f4", "<f2", "<i8", "<i4", "<i2", "<u1", ">f8", ">f4"]


def unwrap(frame: bytes) -> tuple[int, bytes]:
    """Parse exactly one complete frame."""
    decoder = FrameDecoder()
    frames = decoder.feed(frame)
    assert len(frames) == 1 and decoder.pending == 0
    return frames[0]


# Strategy: one wire-ready message with a random dtype/shape/counter mix.
messages = st.builds(
    lambda sid, dtype, shape, counter, epochs_left, t, n_updates, fill: SubmodelMessage(
        spec=SubmodelSpec(sid=sid, kind="prop", index=None),
        theta=np.full(shape, fill, dtype=np.dtype(dtype)),
        sgd_state=SGDState(t=t, n_updates=n_updates),
        counter=counter,
        epochs_left=epochs_left,
    ),
    sid=st.integers(0, 2**31 - 1),
    dtype=st.sampled_from(DTYPES),
    shape=st.lists(st.integers(0, 7), min_size=0, max_size=3).map(tuple),
    counter=st.integers(0, 2**31 - 1),
    epochs_left=st.integers(-1, 2**15),
    t=st.integers(0, 2**40),
    n_updates=st.integers(0, 2**40),
    fill=st.integers(0, 100),
)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(messages, min_size=0, max_size=6))
    def test_batch_roundtrip_identical(self, msgs):
        spec_by_sid = {m.spec.sid: m.spec for m in msgs}
        kind, payload = unwrap(encode_batch(msgs))
        assert kind == KIND_BATCH
        decoded = decode_batch(payload, spec_by_sid)
        assert len(decoded) == len(msgs)
        for original, copy in zip(msgs, decoded):
            assert copy.spec == original.spec
            assert copy.counter == original.counter
            assert copy.epochs_left == original.epochs_left
            assert copy.sgd_state.t == original.sgd_state.t
            assert copy.sgd_state.n_updates == original.sgd_state.n_updates
            assert copy.theta.dtype == original.theta.dtype
            assert copy.theta.shape == original.theta.shape
            assert np.array_equal(copy.theta, original.theta)

    @settings(max_examples=40, deadline=None)
    @given(messages, st.integers(1, 64))
    def test_decoder_reassembles_any_byte_split(self, msg, chunk):
        # Frames arrive from sockets in arbitrary chunks; feeding the
        # stream byte-split at any granularity yields the same frames.
        wire = encode_batch([msg]) + encode_hello(3)
        decoder = FrameDecoder()
        frames = []
        for i in range(0, len(wire), chunk):
            frames.extend(decoder.feed(wire[i : i + chunk]))
        assert [k for k, _ in frames] == [KIND_BATCH, KIND_HELLO]
        assert decoder.pending == 0
        decoder.eof()  # clean EOF at a frame boundary is fine
        (decoded,) = decode_batch(frames[0][1], {msg.spec.sid: msg.spec})
        assert np.array_equal(decoded.theta, msg.theta)

    def test_hello_roundtrip(self):
        kind, payload = unwrap(encode_hello(41))
        assert kind == KIND_HELLO
        assert decode_hello(payload) == 41

    def test_theta_copy_is_writable_and_independent(self):
        msg = SubmodelMessage(
            spec=SubmodelSpec(0, "w"), theta=np.arange(5.0), sgd_state=SGDState()
        )
        kind, payload = unwrap(encode_batch([msg]))
        (decoded,) = decode_batch(payload, {0: msg.spec})
        decoded.theta[0] = 99.0  # frombuffer views are read-only; ours must not be
        assert msg.theta[0] == 0.0


class TestMalformedInput:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(messages, min_size=1, max_size=3), st.data())
    def test_truncated_payload_raises(self, msgs, data):
        _, payload = unwrap(encode_batch(msgs))
        cut = data.draw(st.integers(0, max(len(payload) - 1, 0)))
        spec_by_sid = {m.spec.sid: m.spec for m in msgs}
        with pytest.raises(ProtocolError):
            decode_batch(payload[:cut], spec_by_sid)

    def test_trailing_garbage_raises(self):
        msg = SubmodelMessage(
            spec=SubmodelSpec(0, "w"), theta=np.arange(3.0), sgd_state=SGDState()
        )
        _, payload = unwrap(encode_batch([msg]))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_batch(payload + b"\x00\x01", {0: msg.spec})

    def test_unknown_sid_raises(self):
        msg = SubmodelMessage(
            spec=SubmodelSpec(7, "w"), theta=np.arange(3.0), sgd_state=SGDState()
        )
        _, payload = unwrap(encode_batch([msg]))
        with pytest.raises(ProtocolError, match="sid 7"):
            decode_batch(payload, {})

    def test_bad_magic_raises(self):
        frame = bytearray(encode_hello(0))
        frame[0:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(bytes(frame))

    def test_bad_version_raises(self):
        frame = bytearray(encode_hello(0))
        frame[2] = 200
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(bytes(frame))

    def test_unknown_kind_raises(self):
        frame = bytearray(encode_hello(0))
        frame[3] = 99
        with pytest.raises(ProtocolError, match="kind"):
            FrameDecoder().feed(bytes(frame))
        with pytest.raises(ProtocolError, match="kind"):
            encode_frame(99, b"")

    def test_absurd_length_fails_fast(self):
        # A corrupt length field must not make a reader buffer gigabytes
        # waiting for bytes that will never come.
        import struct

        frame = struct.pack("<2sBBI", FRAME_MAGIC, 1, KIND_HELLO, 1 << 31)
        with pytest.raises(ProtocolError, match="cap"):
            FrameDecoder().feed(frame)

    def test_eof_mid_frame_raises(self):
        # A peer dying mid-send must not hang the reader: the stream's
        # end inside a frame is a protocol error.
        wire = encode_batch(
            [
                SubmodelMessage(
                    spec=SubmodelSpec(0, "w"),
                    theta=np.arange(16.0),
                    sgd_state=SGDState(),
                )
            ]
        )
        decoder = FrameDecoder()
        assert decoder.feed(wire[: len(wire) // 2]) == []
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.eof()

    def test_corrupt_dtype_raises(self):
        msg = SubmodelMessage(
            spec=SubmodelSpec(0, "w"), theta=np.arange(3.0), sgd_state=SGDState()
        )
        _, payload = unwrap(encode_batch([msg]))
        corrupt = bytearray(payload)
        # The dtype string starts right after the count + message header;
        # stamp it with bytes numpy cannot parse as a dtype.
        start = 4 + 30  # _COUNT.size + _MSG_HEADER.size
        corrupt[start : start + 3] = b"\xff\xfe\xfd"
        with pytest.raises(ProtocolError):
            decode_batch(bytes(corrupt), {0: msg.spec})


class TestControlFrames:
    """INGEST / SHARD_RETIRED: the streaming & fault control plane."""

    def make_ingest(self, n=7, d=5, bits=4):
        rng = np.random.default_rng(0)
        return IngestMessage(
            machine=3,
            X=rng.normal(size=(n, d)),
            F=rng.normal(size=(n, d)).astype(np.float32),
            Z=(rng.random(size=(n, bits)) > 0.5).astype(np.uint8),
            indices=np.arange(100, 100 + n),
        )

    def test_ingest_roundtrip_identical(self):
        msg = self.make_ingest()
        kind, payload = unwrap(encode_ingest(msg))
        assert kind == KIND_INGEST
        out = decode_ingest(payload)
        assert out.machine == msg.machine
        for name in ("X", "F", "Z", "indices"):
            a, b = getattr(msg, name), getattr(out, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_truncated_ingest_raises(self, data):
        _, payload = unwrap(encode_ingest(self.make_ingest()))
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(ProtocolError):
            decode_ingest(payload[:cut])

    def test_inconsistent_ingest_lengths_rejected(self):
        good = self.make_ingest()
        msg = IngestMessage(
            machine=good.machine, X=good.X, F=good.F, Z=good.Z,
            indices=good.indices[:-1],
        )
        with pytest.raises(ProtocolError, match="inconsistent"):
            encode_ingest(msg)

    def test_ingest_trailing_garbage_raises(self):
        _, payload = unwrap(encode_ingest(self.make_ingest()))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_ingest(payload + b"\x00")

    def test_shard_retired_roundtrip(self):
        kind, payload = unwrap(
            encode_shard_retired(ShardRetired(machine=5, rows_lost=1234))
        )
        assert kind == KIND_SHARD_RETIRED
        assert decode_shard_retired(payload) == ShardRetired(5, 1234)

    def test_shard_retired_bad_length_raises(self):
        with pytest.raises(ProtocolError, match="bytes"):
            decode_shard_retired(b"\x00\x01")

    def test_overflowing_batch_dims_fail_fast(self):
        # A crafted/corrupt dim whose byte size overflows int64 must hit
        # the cap check, not wrap into a tiny (or negative) read.
        import struct

        msg = SubmodelMessage(
            spec=SubmodelSpec(0, "w"), theta=np.zeros(3), sgd_state=SGDState()
        )
        _, payload = unwrap(encode_batch([msg]))
        corrupt = bytearray(payload)
        # count(4) | msg header(30) | dtype "<f8"(3) | dim (q) ...
        struct.pack_into("<q", corrupt, 4 + 30 + 3, 1 << 62)
        with pytest.raises(ProtocolError, match="cap"):
            decode_batch(bytes(corrupt), {0: msg.spec})

    def test_overflowing_ingest_dims_fail_fast(self):
        import struct

        msg = self.make_ingest(n=2, d=3)
        _, payload = unwrap(encode_ingest(msg))
        corrupt = bytearray(payload)
        # machine(4) | array header(2) | dtype "<f8"(3) | first dim (q) ...
        struct.pack_into("<q", corrupt, 4 + 2 + 3, 1 << 62)
        with pytest.raises(ProtocolError, match="cap"):
            decode_ingest(bytes(corrupt))


class TestJoinWelcomeFrames:
    """The elastic handshake frames (section 4.3, streaming form 2)."""

    @given(rank=st.integers(0, 2**32 - 1))
    def test_join_roundtrip(self, rank):
        kind, payload = unwrap(encode_join(rank))
        assert kind == KIND_JOIN
        assert decode_join(payload) == rank

    @given(donor=st.integers(0, 2**32 - 1), n=st.integers(0, 2**32 - 1))
    def test_welcome_roundtrip(self, donor, n):
        kind, payload = unwrap(encode_welcome(donor, n))
        assert kind == KIND_WELCOME
        assert decode_welcome(payload) == (donor, n)

    def test_join_bad_length_raises(self):
        with pytest.raises(ProtocolError, match="bytes"):
            decode_join(b"\x00\x01\x02")

    def test_welcome_bad_length_raises(self):
        with pytest.raises(ProtocolError, match="bytes"):
            decode_welcome(b"\x00\x01\x02\x04")

    def test_welcome_model_handoff_is_framed(self):
        # The donor's hand-off: WELCOME then a BATCH of final submodels —
        # two ordinary frames any FrameDecoder can split, no pickle.
        specs = [SubmodelSpec(sid, "w") for sid in range(3)]
        finals = [
            SubmodelMessage.final(s, np.arange(4, dtype=np.float64) + s.sid)
            for s in specs
        ]
        blob = encode_welcome(7, len(finals)) + encode_batch(finals)
        decoder = FrameDecoder()
        frames = decoder.feed(blob)
        assert [k for k, _ in frames] == [KIND_WELCOME, KIND_BATCH]
        assert decoder.pending == 0
        donor, n = decode_welcome(frames[0][1])
        assert (donor, n) == (7, 3)
        got = decode_batch(frames[1][1], {s.sid: s for s in specs})
        assert len(got) == 3
        for orig, back in zip(finals, got):
            assert back.spec.sid == orig.spec.sid
            assert np.array_equal(back.theta, orig.theta)


class TestHeartbeatFrames:
    """The health plane's beats share the response pipe with replies."""

    @given(
        rank=st.integers(0, 2**32 - 1),
        seq=st.integers(0, 2**64 - 1),
        progress=st.integers(0, 2**64 - 1),
        phase=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", max_size=16),
    )
    def test_heartbeat_roundtrip(self, rank, seq, progress, phase):
        kind, payload = unwrap(encode_heartbeat(rank, seq, progress, phase))
        assert kind == KIND_HEARTBEAT
        assert decode_heartbeat(payload) == (rank, seq, progress, phase)

    def test_default_phase_is_idle(self):
        _, payload = unwrap(encode_heartbeat(1, 2, 3))
        assert decode_heartbeat(payload) == (1, 2, 3, "idle")

    def test_overlong_phase_tag_rejected(self):
        with pytest.raises(ProtocolError, match="phase tag"):
            encode_heartbeat(0, 1, 1, "w" * 256)

    @pytest.mark.parametrize("cut", [1, 5, 21])
    def test_truncated_heartbeat_raises(self, cut):
        _, payload = unwrap(encode_heartbeat(3, 9, 4, "z"))
        with pytest.raises(ProtocolError):
            decode_heartbeat(payload[:-cut])

    def test_trailing_bytes_raise(self):
        _, payload = unwrap(encode_heartbeat(3, 9, 4, "z"))
        with pytest.raises(ProtocolError, match="phase tag"):
            decode_heartbeat(payload + b"x")

    def test_non_ascii_phase_tag_raises(self):
        _, payload = unwrap(encode_heartbeat(3, 9, 4, "w"))
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_heartbeat(payload[:-1] + b"\xff")


def test_wire_state_round_trips_through_from_wire():
    spec = SubmodelSpec(sid=4, kind="w", index=None)
    msg = SubmodelMessage(
        spec=spec,
        theta=np.arange(3.0),
        sgd_state=SGDState(t=11, n_updates=7),
        counter=5,
        epochs_left=2,
    )
    back = SubmodelMessage.from_wire(spec, msg.theta, *msg.wire_state())
    assert back.wire_state() == (5, 2, 11, 7)
    assert back.spec is spec and back.theta is msg.theta
