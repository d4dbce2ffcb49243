import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit.errors import (
    BadMagic,
    ChecksumMismatch,
    FedkitError,
    LengthMismatch,
    MissingKey,
    OversizedPayload,
    ProtocolError,
    Truncated,
    UnknownConnector,
    UnsupportedVersion,
)
from fedkit.wire import (
    DataRef,
    Envelope,
    FilesystemConnector,
    MemoryConnector,
    MessageType,
    StaticTokenAuthenticator,
    decode_envelope,
    decode_frame,
    encode_envelope,
    encode_frame,
    fetch_body,
    read_frame,
    stage_body,
)

GOLDEN_CONFIG_REQUEST = bytes.fromhex("41 50 46 4c 01 01 00 00 00 00 00 00".replace(" ", ""))


class TestFrame:
    def test_golden_minimal_config_request(self):
        assert encode_frame(MessageType.CONFIG_REQUEST) == GOLDEN_CONFIG_REQUEST
        f = decode_frame(GOLDEN_CONFIG_REQUEST)
        assert f.version == 1
        assert f.msg_type == MessageType.CONFIG_REQUEST
        assert f.token == b""
        assert f.payload == b""

    def test_roundtrip_with_token_and_payload(self):
        raw = encode_frame(MessageType.UPDATE_SUBMIT, b"\x00\x01payload", token=b"secret")
        f = decode_frame(raw)
        assert f.msg_type == MessageType.UPDATE_SUBMIT
        assert f.token == b"secret"
        assert f.payload == b"\x00\x01payload"

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decode_frame(b"NOPE" + GOLDEN_CONFIG_REQUEST[4:])

    def test_unsupported_version(self):
        raw = bytearray(GOLDEN_CONFIG_REQUEST)
        raw[4] = 2
        with pytest.raises(UnsupportedVersion):
            decode_frame(bytes(raw))

    def test_unknown_message_type(self):
        raw = bytearray(GOLDEN_CONFIG_REQUEST)
        # 6 lies between assigned types without being one
        for raw_type in (99, 6):
            raw[5] = raw_type
            with pytest.raises(ProtocolError):
                decode_frame(bytes(raw))

    def test_truncated_and_trailing(self):
        raw = encode_frame(MessageType.MODEL_REPLY, b"abc")
        with pytest.raises(Truncated):
            decode_frame(raw[:-1])
        with pytest.raises(LengthMismatch):
            decode_frame(raw + b"x")

    def test_oversized_payload_rejected_both_ways(self):
        with pytest.raises(OversizedPayload):
            decode_frame(encode_frame(MessageType.MODEL_REPLY, b"12345"), max_payload=4)
        with pytest.raises(OversizedPayload):
            # declared length checked before any allocation
            header = b"APFL\x01\x04\x00\x00\xff\xff\xff\xff"
            decode_frame(header, max_payload=2**20)

    @settings(max_examples=200, deadline=None)
    @given(
        msg_type=st.sampled_from(list(MessageType)),
        token=st.binary(max_size=64),
        payload=st.binary(max_size=512),
    )
    def test_roundtrip_property(self, msg_type, token, payload):
        f = decode_frame(encode_frame(msg_type, payload, token=token))
        assert (f.msg_type, f.token, f.payload) == (msg_type, token, payload)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutation_fuzz_raises_only_typed_errors(self, data):
        base = bytearray(
            encode_frame(MessageType.UPDATE_SUBMIT, b"some payload bytes", token=b"tok")
        )
        n_mut = data.draw(st.integers(min_value=1, max_value=6))
        for _ in range(n_mut):
            pos = data.draw(st.integers(min_value=0, max_value=len(base) - 1))
            base[pos] = data.draw(st.integers(min_value=0, max_value=255))
        try:
            decode_frame(bytes(base))
        except FedkitError:
            pass  # typed rejection is the contract; anything else propagates

    def test_stream_reader_multiple_frames_then_eof(self):
        raw = encode_frame(MessageType.CONFIG_REQUEST) + encode_frame(
            MessageType.SHUTDOWN, token=b"t"
        )
        stream = io.BytesIO(raw)
        f1 = read_frame(stream)
        f2 = read_frame(stream)
        assert f1.msg_type == MessageType.CONFIG_REQUEST
        assert f2.msg_type == MessageType.SHUTDOWN
        assert read_frame(stream) is None

    def test_stream_reader_truncation(self):
        raw = encode_frame(MessageType.MODEL_REPLY, b"abcdef")
        with pytest.raises(Truncated):
            read_frame(io.BytesIO(raw[:-2]))


class TestEnvelope:
    def test_inline_roundtrip(self):
        env = Envelope({"b": "2", "a": "1"}, body=b"hello")
        out = decode_envelope(encode_envelope(env))
        assert out.meta == {"a": "1", "b": "2"}
        assert out.body == b"hello"
        assert out.ref is None

    def test_canonical_encoding_sorts_keys(self):
        a = encode_envelope(Envelope({"x": "1", "a": "2"}, body=b""))
        b = encode_envelope(Envelope({"a": "2", "x": "1"}, body=b""))
        assert a == b

    def test_ref_roundtrip(self):
        ref = DataRef("mem", "k" * 32, 1234, hashlib.sha256(b"x").digest())
        out = decode_envelope(encode_envelope(Envelope({"kind": "update"}, ref=ref)))
        assert out.ref == ref
        assert out.body is None

    def test_needs_exactly_one_of_body_or_ref(self):
        with pytest.raises(ProtocolError):
            Envelope({})
        with pytest.raises(ProtocolError):
            Envelope({}, body=b"", ref=DataRef("m", "k", 0, b"\x00" * 32))

    def test_duplicate_meta_key_rejected(self):
        raw = bytearray(encode_envelope(Envelope({"aa": "1", "ab": "2"}, body=b"")))
        # rewrite second key to collide with the first
        idx = raw.find(b"ab")
        raw[idx : idx + 2] = b"aa"
        with pytest.raises(ProtocolError):
            decode_envelope(bytes(raw))

    def test_trailing_bytes_after_ref(self):
        ref = DataRef("mem", "k", 1, hashlib.sha256(b"x").digest())
        raw = encode_envelope(Envelope({}, ref=ref))
        with pytest.raises(LengthMismatch):
            decode_envelope(raw + b"junk")

    @settings(max_examples=200, deadline=None)
    @given(
        meta=st.dictionaries(st.text(max_size=8), st.text(max_size=16), max_size=5),
        body=st.binary(max_size=128),
    )
    def test_roundtrip_property(self, meta, body):
        out = decode_envelope(encode_envelope(Envelope(meta, body=body)))
        assert out.meta == meta
        assert out.body == body


class TestConnectors:
    def test_memory_put_get(self):
        c = MemoryConnector("mem0")
        ref = c.put(b"payload bytes")
        assert ref.connector_id == "mem0"
        assert ref.size == 13
        assert c.get(ref) == b"payload bytes"

    def test_memory_missing_key(self):
        c = MemoryConnector()
        ref = DataRef("mem", "nothere", 1, hashlib.sha256(b"x").digest())
        with pytest.raises(MissingKey):
            c.get(ref)

    def test_tampered_payload_detected(self):
        c = MemoryConnector()
        ref = c.put(b"original")
        c._table[ref.key] = b"tampered"
        with pytest.raises(ChecksumMismatch):
            c.get(ref)

    def test_size_mismatch_detected(self):
        c = MemoryConnector()
        ref = c.put(b"abc")
        bad = DataRef(ref.connector_id, ref.key, 999, ref.sha256)
        with pytest.raises(ChecksumMismatch):
            c.get(bad)

    def test_filesystem_roundtrip(self, tmp_path):
        c = FilesystemConnector(tmp_path / "stage", connector_id="fs0")
        data = np.arange(100, dtype=np.float32).tobytes()
        ref = c.put(data)
        assert (tmp_path / "stage" / ref.key).is_file()
        assert c.get(ref) == data
        c.delete(ref.key)
        with pytest.raises(MissingKey):
            c.get(ref)

    def test_stage_body_spills_over_limit(self):
        c = MemoryConnector("mem")
        small = stage_body({"k": "v"}, b"x" * 10, c, inline_limit=100)
        big = stage_body({"k": "v"}, b"x" * 1000, c, inline_limit=100)
        assert decode_envelope(small).body is not None
        env = decode_envelope(big)
        assert env.ref is not None
        assert env.ref.size == 1000
        assert fetch_body(env, {"mem": c}) == b"x" * 1000

    def test_fetch_body_unknown_connector(self):
        env = Envelope({}, ref=DataRef("ghost", "k", 1, hashlib.sha256(b"x").digest()))
        with pytest.raises(UnknownConnector):
            fetch_body(env, {})

    def test_dataref_sha_length_checked(self):
        with pytest.raises(LengthMismatch):
            DataRef("m", "k", 1, b"short")


class TestAuth:
    def test_token_match(self):
        a = StaticTokenAuthenticator("hunter2")
        assert a.verify(b"hunter2")
        assert not a.verify(b"hunter3")
        assert not a.verify(b"")

    def test_empty_token_scheme(self):
        a = StaticTokenAuthenticator()
        assert a.verify(b"")
        assert not a.verify(b"anything")
