import errno
import hashlib
import io
import struct
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit import wire
from fedkit.errors import (
    BadMagic,
    ChecksumMismatch,
    FedkitError,
    LengthMismatch,
    MissingKey,
    OversizedPayload,
    ProtocolError,
    TrailingBytes,
    Truncated,
    UnknownConnector,
    UnsupportedVersion,
)
from fedkit.params import (
    FileBody,
    ParameterSet,
    Pieces,
    deserialize_params,
    serialize_params,
    serialize_pieces,
)
from fedkit.wire import (
    DataRef,
    Envelope,
    FilesystemConnector,
    MessageType,
    StaticTokenAuthenticator,
    decode_envelope,
    decode_frame,
    encode_envelope,
    encode_frame,
    fetch_body,
    read_frame,
    send_frame,
    stage_body,
)

GOLDEN_SHUTDOWN = bytes.fromhex("41 50 46 4c 02 07 00 00 00 00 00 00".replace(" ", ""))

LEAF = 2**20


def _hash_list(body) -> bytes:
    """The staged-body digest by its definition: SHA-256 of the SHA-256 of each 1 MiB leaf."""
    body = bytes(body)
    leaves = [hashlib.sha256(body[i : i + LEAF]).digest() for i in range(0, len(body), LEAF)]
    return hashlib.sha256(b"".join(leaves)).digest()


class TestFrame:
    def test_golden_minimal_shutdown(self):
        assert encode_frame(MessageType.SHUTDOWN) == GOLDEN_SHUTDOWN
        f = decode_frame(GOLDEN_SHUTDOWN)
        assert f.version == 2
        assert f.msg_type == MessageType.SHUTDOWN
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
            decode_frame(b"NOPE" + GOLDEN_SHUTDOWN[4:])

    def test_unsupported_version(self):
        raw = bytearray(GOLDEN_SHUTDOWN)
        # 1 is the version before the hash-list digest
        for version in (1, 3):
            raw[4] = version
            with pytest.raises(UnsupportedVersion):
                decode_frame(bytes(raw))
            with pytest.raises(UnsupportedVersion):
                read_frame(io.BytesIO(bytes(raw)))

    def test_unknown_message_type(self):
        raw = bytearray(GOLDEN_SHUTDOWN)
        # 6 lies between assigned types without being one; 1 and 2 were the
        # config request and reply of version 1
        for raw_type in (99, 6, 1, 2):
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
            header = b"APFL\x02\x04\x00\x00\xff\xff\xff\xff"
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

    @settings(max_examples=300, deadline=None)
    @given(
        msg_type=st.sampled_from(list(MessageType)),
        token=st.binary(max_size=8),
        payload=st.binary(max_size=32),
        data=st.data(),
    )
    def test_buffer_and_stream_parsers_agree(self, msg_type, token, payload, data):
        # one valid frame, cut short, with one byte flipped, or with bytes appended
        frame = encode_frame(msg_type, payload, token=token)
        damage = data.draw(st.sampled_from(["cut", "flip", "append"]))
        if damage == "cut":
            buf = frame[: data.draw(st.integers(0, len(frame)))]
        elif damage == "flip":
            flipped = bytearray(frame)
            flipped[data.draw(st.integers(0, len(frame) - 1))] ^= data.draw(st.integers(1, 255))
            buf = bytes(flipped)
        else:
            buf = frame + data.draw(st.binary(min_size=1, max_size=16))

        def outcome(parse):
            try:
                f = parse()
            except FedkitError as e:
                return type(e)
            return f and (f.version, f.msg_type, bytes(f.token), bytes(f.payload))

        stream = io.BytesIO(buf)
        from_stream = outcome(lambda: read_frame(stream))
        from_buffer = outcome(lambda: decode_frame(buf))
        if not buf:
            assert (from_stream, from_buffer) == (None, Truncated)
        elif isinstance(from_stream, tuple) and stream.tell() < len(buf):
            # the stream holds one frame and then more bytes
            assert from_buffer is LengthMismatch
        else:
            assert from_stream == from_buffer

    def test_stream_reader_multiple_frames_then_eof(self):
        raw = encode_frame(MessageType.MODEL_REQUEST) + encode_frame(
            MessageType.SHUTDOWN, token=b"t"
        )
        stream = io.BytesIO(raw)
        f1 = read_frame(stream)
        f2 = read_frame(stream)
        assert f1.msg_type == MessageType.MODEL_REQUEST
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

    @pytest.mark.parametrize("field", ["meta key", "meta value", "connector id", "key"])
    def test_text_that_is_not_utf8_raises_protocol_error(self, field):
        ref = DataRef("conn", "keyk", 1, hashlib.sha256(b"x").digest())
        raw = bytearray(encode_envelope(Envelope({"mkey": "mval"}, ref=ref)))
        text = {"meta key": b"mkey", "meta value": b"mval", "connector id": b"conn", "key": b"keyk"}
        idx = raw.find(text[field])
        raw[idx] = 0xFF
        with pytest.raises(ProtocolError, match="not UTF-8"):
            decode_envelope(bytes(raw))

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
    def test_put_get_keeps_the_connector_id(self, tmp_path):
        c = FilesystemConnector(tmp_path, connector_id="fs0")
        ref = c.put(b"payload bytes")
        assert ref.connector_id == "fs0"
        assert ref.size == 13
        assert c.get(ref) == b"payload bytes"

    def test_missing_key(self, tmp_path):
        c = FilesystemConnector(tmp_path)
        ref = DataRef("fs", "0" * 32, 1, hashlib.sha256(b"x").digest())
        with pytest.raises(MissingKey):
            c.get(ref)

    def test_tampered_payload_detected(self, tmp_path):
        c = FilesystemConnector(tmp_path)
        ref = c.put(b"original")
        (tmp_path / ref.key).write_bytes(b"tampered")
        with pytest.raises(ChecksumMismatch):
            c.get(ref)

    def test_size_mismatch_detected(self, tmp_path):
        c = FilesystemConnector(tmp_path)
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

    def test_stage_body_spills_over_limit(self, tmp_path):
        c = FilesystemConnector(tmp_path)
        small = stage_body({"k": "v"}, b"x" * 10, c, inline_limit=100)
        big = stage_body({"k": "v"}, b"x" * 1000, c, inline_limit=100)
        assert decode_envelope(small).body is not None
        env = decode_envelope(big)
        assert env.ref is not None
        assert env.ref.size == 1000
        assert fetch_body(env, {"fs": c}) == b"x" * 1000

    def test_fetch_body_unknown_connector(self):
        env = Envelope({}, ref=DataRef("ghost", "k", 1, hashlib.sha256(b"x").digest()))
        with pytest.raises(UnknownConnector):
            fetch_body(env, {})

    def test_dataref_sha_length_checked(self):
        with pytest.raises(LengthMismatch):
            DataRef("m", "k", 1, b"short")


def _sample_set():
    rng = np.random.default_rng(11)
    return ParameterSet(
        [
            ("W0", rng.standard_normal((64, 48)).astype(np.float32)),
            ("b0", rng.standard_normal(48)),
            ("s", np.float64(2.5)),
            ("empty", np.zeros((0, 3), dtype=np.float32)),
        ]
    )


def _stored(conn, key) -> bytes:
    return (conn.root / key).read_bytes()


def _keys(conn) -> list:
    return [f.name for f in conn.root.iterdir()]


def _overwrite(conn, key, data) -> None:
    (conn.root / key).write_bytes(bytes(data))


class _FailingRaw:
    """A file-like reader whose ``readinto`` raises ``OSError`` on call ``fail_at``."""

    def __init__(self, raw, fail_at):
        self.raw = raw
        self.calls = 0
        self.fail_at = fail_at

    def seek(self, pos):
        return self.raw.seek(pos)

    def read(self, n):
        return self.raw.read(n)

    def readinto(self, out):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(errno.EIO, "Input/output error")
        return self.raw.readinto(out)


class _RenamingRaw:
    """A file-like reader whose first read that covers byte ``at`` has ``name`` there.

    Any later read gives the stored bytes, so the header the walk reads is
    not the one stored, while the fill and a read again from the start see
    the stored file.
    """

    def __init__(self, raw, at, name):
        self.raw = raw
        self.at = at
        self.name = name
        self.pos = 0
        self.renamed = False

    def seek(self, pos):
        self.pos = pos
        return self.raw.seek(pos)

    def read(self, n):
        out = self.raw.read(n)
        lo, self.pos = self.pos, self.pos + len(out)
        if not self.renamed and lo <= self.at < self.pos:
            self.renamed = True
            i = self.at - lo
            out = out[:i] + self.name + out[i + len(self.name) :]
        return out

    def readinto(self, out):
        got = self.raw.readinto(out)
        self.pos += got
        return got


class _BrokenSha256:
    def update(self, buf):
        raise RuntimeError("hasher failed")


@pytest.mark.usefixtures("no_thread_left")
@pytest.mark.parametrize("conn", ["fs"], indirect=True)
class TestStreamedReceive:
    """``get(ref, deserialize_params)`` reads, hashes and checks in one pass.

    The hashing runs on a helper thread, which has ended when ``put`` or
    ``get`` returns or raises: every test here checks that no thread is left.
    """

    def test_roundtrip_into_fresh_native_arrays(self, conn, check_owned):
        p = _sample_set()
        ref = conn.put(serialize_pieces(p))
        q = check_owned(lambda: conn.get(ref, deserialize_params), p)
        assert q == p
        for _, a in q.items():
            assert a.dtype.isnative and a.base.flags.owndata

    def test_every_flipped_byte_raises_checksum_mismatch(self, conn):
        p = ParameterSet([("w", np.arange(3, dtype=np.float32)), ("b", np.ones(2))])
        ref = conn.put(serialize_pieces(p))
        good = _stored(conn, ref.key)
        # header bytes too: a parser error on damaged bytes still reports the damage
        for pos in range(len(good)):
            bad = bytearray(good)
            bad[pos] ^= 0x01
            _overwrite(conn, ref.key, bad)
            got = []
            with pytest.raises(ChecksumMismatch):
                got.append(conn.get(ref, deserialize_params))
            assert got == []
        _overwrite(conn, ref.key, good)
        assert conn.get(ref, deserialize_params) == p

    @pytest.mark.parametrize("change", [-1, 1])
    def test_wrong_size_rejected(self, conn, change):
        p = _sample_set()
        ref = conn.put(serialize_pieces(p))
        data = _stored(conn, ref.key)
        _overwrite(conn, ref.key, data[:-1] if change < 0 else data + b"\x00")
        # rejected on its size, before a byte is read
        with pytest.raises(ChecksumMismatch, match="reference says"):
            conn.get(ref, deserialize_params)
        with pytest.raises(ChecksumMismatch, match="reference says"):
            conn.get(ref)

    def test_claim_beyond_the_reference_is_truncated_before_allocation(self, conn):
        # one float64 tensor of 2**32-1 x 2**32-1 elements and no element bytes:
        # allocating it would fail with ValueError or MemoryError, not Truncated
        body = struct.pack(">IH", 1, 1) + b"w" + struct.pack(">BBII", 1, 2, 2**32 - 1, 2**32 - 1)
        ref = conn.put(body)
        with pytest.raises(Truncated):
            conn.get(ref, deserialize_params)
        with pytest.raises(Truncated):
            deserialize_params(body)

    def test_trailing_bytes(self, conn):
        ref = conn.put(serialize_params(_sample_set()) + b"\x00")
        with pytest.raises(TrailingBytes):
            conn.get(ref, deserialize_params)

    def test_os_error_in_the_middle_of_a_read_reaches_the_caller(self, conn, monkeypatch):
        # the second readinto is the first of the 3 MiB tensor's
        p = ParameterSet(
            [("a", np.arange(4, dtype=np.float32)), ("w", np.arange(3 << 18, dtype=np.float32))]
        )
        ref = conn.put(serialize_pieces(p))
        monkeypatch.setattr(
            wire, "FileBody",
            lambda raw, size, hasher=None: FileBody(_FailingRaw(raw, 2), size, hasher),
        )
        with pytest.raises(OSError) as err:
            conn.get(ref, deserialize_params)
        assert err.value.errno == errno.EIO
        monkeypatch.undo()
        assert conn.get(ref, deserialize_params) == p

    @pytest.mark.parametrize("case", ["read returns early", "header changes after the walk"])
    def test_the_digest_covers_exactly_the_bytes_used(self, conn, monkeypatch, case):
        p = ParameterSet([("a", np.arange(4, dtype=np.float32)), ("w", np.ones(3))])
        ref = conn.put(serialize_pieces(p))
        read = deserialize_params
        if case == "read returns early":
            # every byte but the last goes to the hasher
            read = lambda body: body.readinto(0, memoryview(bytearray(body.nbytes - 1)))
        else:
            # the walk reads the name "b" at byte 6, after count(4) + name_len(2): a
            # valid name of the same length, so the body walks and fills without error
            monkeypatch.setattr(
                wire, "FileBody",
                lambda raw, size, hasher=None: FileBody(_RenamingRaw(raw, 6, b"b"), size, hasher),
            )
        got = []
        with pytest.raises(ChecksumMismatch):
            got.append(conn.get(ref, read))
        assert got == []
        monkeypatch.undo()
        assert conn.get(ref, deserialize_params) == p

    def test_put_digest_is_the_hash_list_of_the_body(self, conn):
        p = _sample_set()
        pieces = serialize_pieces(p)
        assert 0 in map(len, pieces.parts)  # the empty tensor's bytes
        ref = conn.put(pieces)
        assert ref.sha256 == _hash_list(serialize_params(p))
        assert ref.size == len(serialize_params(p))
        assert _stored(conn, ref.key) == serialize_params(p)

    def test_helper_exception_reaches_the_caller(self, conn, monkeypatch):
        p = _sample_set()
        ref = conn.put(serialize_pieces(p))
        monkeypatch.setattr(wire, "hashlib", SimpleNamespace(sha256=_BrokenSha256))
        with pytest.raises(RuntimeError, match="hasher failed"):
            conn.get(ref, deserialize_params)
        with pytest.raises(RuntimeError, match="hasher failed"):
            conn.put(serialize_pieces(p))
        assert _keys(conn) == [ref.key]  # the failed put left nothing behind

    def test_fetch_body_reads_inline_and_staged_bodies_alike(self, conn):
        p = _sample_set()
        for limit in (1 << 30, 100):
            payload = stage_body({"k": "v"}, serialize_pieces(p), conn, limit)
            env = decode_envelope(bytes(payload))
            assert (env.ref is None) == (limit > 100)
            assert fetch_body(env, {conn.connector_id: conn}, deserialize_params) == p
            assert bytes(fetch_body(env, {conn.connector_id: conn})) == serialize_params(p)


def _body(n: int) -> bytes:
    return np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()


def _cut(body: bytes, at) -> Pieces:
    """``body`` as pieces cut at the offsets ``at``; a repeated offset gives an empty piece."""
    bounds = [0, *at, len(body)]
    return Pieces(memoryview(body)[a:b] for a, b in zip(bounds, bounds[1:]))


def _big_set() -> ParameterSet:
    # 2.4 MB of tensor bytes: the body spans three leaves
    return ParameterSet(
        [("w", np.arange(600_000, dtype=np.float32)), ("b", np.linspace(0.0, 1.0, 7))]
    )


@pytest.mark.usefixtures("no_thread_left")
def test_hasher_fed_in_any_cuts_gives_the_same_digest():
    body = _body(2 * LEAF + 11)
    rng = np.random.default_rng(5)
    for _ in range(5):
        at = np.sort(rng.integers(0, len(body), 40))
        with wire._HashThread() as hasher:
            for part in _cut(body, at).parts:
                hasher.update(part)
            assert hasher.digest() == _hash_list(body)


@pytest.mark.usefixtures("no_thread_left")
@pytest.mark.parametrize("conn", ["fs"], indirect=True)
class TestHashListDigest:
    """A staged body's digest is the SHA-256 of its 1 MiB leaves' SHA-256s, checked on ``get``."""

    @pytest.mark.parametrize("size", [0, 1, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 5])
    def test_digest_of_every_size(self, conn, size):
        body = _body(size)
        ref = conn.put(body)
        assert ref.size == size
        assert ref.sha256 == _hash_list(body)
        assert _stored(conn, ref.key) == body
        assert bytes(conn.get(ref)) == body

    def test_pieces_that_straddle_leaves(self, conn):
        body = _body(3 * LEAF + 5)
        cuts = [
            (),
            (0, 7, 7, LEAF - 3, LEAF + 2, 2 * LEAF, 2 * LEAF, 3 * LEAF + 1),
            (LEAF, 2 * LEAF, 3 * LEAF),
            (1, 2, 3, LEAF - 1, LEAF + 1, 3 * LEAF + 5),
        ]
        for at in cuts:
            pieces = _cut(body, at)
            assert len(pieces) == len(body) and bytes(pieces) == body
            ref = conn.put(pieces)
            assert ref.sha256 == _hash_list(body), at
            assert _stored(conn, ref.key) == body
            assert bytes(conn.get(ref)) == body

    @pytest.mark.parametrize("offset", [0, LEAF - 1, LEAF, -1])
    def test_flipped_byte_at_a_leaf_edge_raises_checksum_mismatch(self, conn, offset):
        p = _big_set()
        ref = conn.put(serialize_pieces(p))
        good = _stored(conn, ref.key)
        assert len(good) > LEAF + 1
        bad = bytearray(good)
        bad[offset] ^= 0x01
        _overwrite(conn, ref.key, bad)
        for read in (None, deserialize_params):
            got = []
            with pytest.raises(ChecksumMismatch):
                got.append(conn.get(ref, read))
            assert got == []
        _overwrite(conn, ref.key, good)
        assert conn.get(ref, deserialize_params) == p


@pytest.fixture
def fast_switching():
    """Hand the GIL between threads as often as the interpreter allows."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(before)


def _on_helper() -> bool:
    return threading.current_thread().name == "fedkit-sha256"


@pytest.mark.usefixtures("no_thread_left", "fast_switching")
@pytest.mark.parametrize("conn", ["fs"], indirect=True)
class TestHashHandOff:
    """The caller and the one helper thread share the leaves and give the same digest."""

    @staticmethod
    def _hold_the_helper(monkeypatch, on_helper):
        """Patch the leaf hash so that the helper takes the first full leaf and then lags.

        The caller hashes no leaf until the helper has taken one, which the
        first full leaf of a body always waits for.  The helper then runs
        ``on_helper`` and hashes its leaf only once the caller has reached
        ``digest``.  Returns the log of who hashed each leaf ("helper", or
        the caller's method) and a function that resets the hold for the
        next put or get.
        """
        leaf_digest = wire._leaf_digest
        took, release = threading.Event(), threading.Event()
        hashed_by = []

        def held(parts):
            if _on_helper():
                took.set()
                on_helper()
                assert release.wait(10), "the caller never reached digest()"
                hashed_by.append("helper")
            else:
                where = sys._getframe(1).f_code.co_name
                if where == "digest":
                    release.set()
                assert took.wait(10), "the helper never took a leaf"
                hashed_by.append(where)
            return leaf_digest(parts)

        def reset():
            took.clear()
            release.clear()

        monkeypatch.setattr(wire, "_leaf_digest", held)
        return hashed_by, reset

    def test_caller_hashes_most_leaves_when_the_helper_is_slow(self, conn, monkeypatch):
        p = ParameterSet(
            [("a", np.arange(5, dtype=np.float32)), ("w", np.arange(2 * LEAF + 3, dtype=np.float32))]
        )
        body = serialize_params(p)
        full = len(body) // LEAF
        assert full == 8 and len(body) % LEAF
        hashed_by, reset = self._hold_the_helper(monkeypatch, lambda: None)
        ref = conn.put(serialize_pieces(p))
        assert ref.sha256 == _hash_list(body)
        for read in (None, deserialize_params):
            reset()
            got = conn.get(ref, read)
            assert (bytes(got) == body) if read is None else (got == p)
        # per put or get, two full leaves wait for the lagging helper: the
        # first, and the first to fill after the helper took it.  The caller
        # hashes every other full leaf between its writes or reads, and the
        # partial last leaf and any leaf still waiting in digest()
        assert len(hashed_by) == 3 * (full + 1)
        for i in range(0, len(hashed_by), full + 1):
            leaves = hashed_by[i : i + full + 1]
            assert leaves.count("update") == full - 2
            assert leaves.count("helper") >= 1
            assert leaves.count("helper") + leaves.count("digest") == 3

    def test_helper_exception_reaches_put_and_get(self, conn, monkeypatch):
        p = _big_set()
        ref = conn.put(serialize_pieces(p))

        def fail():
            raise RuntimeError("helper failed")

        _, reset = self._hold_the_helper(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="helper failed"):
            conn.put(serialize_pieces(p))
        for read in (None, deserialize_params):
            reset()
            with pytest.raises(RuntimeError, match="helper failed"):
                conn.get(ref, read)
        assert _keys(conn) == [ref.key]  # the failed put left nothing behind

    def test_concurrent_puts_and_gets_on_more_threads_than_cores(self, conn):
        # three callers and their three helpers share the cores; a leaf digest
        # lost or stored at the wrong index changes a digest or fails its get
        bodies = [_body(3 * LEAF + k) for k in (5, 77, 1001)]
        errors = []

        def work(body):
            try:
                for _ in range(3):
                    ref = conn.put(_cut(body, (3, LEAF + 9)))
                    assert ref.sha256 == _hash_list(body)
                    assert bytes(conn.get(ref)) == body
            except BaseException as e:
                errors.append(e)

        threads = [threading.Thread(target=work, args=(b,)) for b in bodies]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []

    @pytest.mark.parametrize("size", [100, 4 * LEAF])
    def test_caller_exception_reaches_put_and_get(self, conn, monkeypatch, size):
        # 100 bytes: the caller hashes the partial leaf in digest(); 4 MiB with
        # a slow helper: the caller hashes a full leaf between its writes or reads
        p = ParameterSet([("w", np.arange(size // 4, dtype=np.float32))])
        ref = conn.put(serialize_pieces(p))
        leaf_digest = wire._leaf_digest

        def fails_on_caller(parts):
            if _on_helper():
                time.sleep(0.02)
                return leaf_digest(parts)
            raise RuntimeError("caller failed")

        monkeypatch.setattr(wire, "_leaf_digest", fails_on_caller)
        with pytest.raises(RuntimeError, match="caller failed"):
            conn.put(serialize_pieces(p))
        for read in (None, deserialize_params):
            with pytest.raises(RuntimeError, match="caller failed"):
                conn.get(ref, read)
        assert _keys(conn) == [ref.key]
        monkeypatch.undo()
        assert conn.get(ref, deserialize_params) == p


class TestStagedKeys:
    BAD_KEYS = [
        "/etc/hostname",
        "../outside",
        "..",
        "",
        "0" * 31,
        "0" * 33,
        "A" * 32,
        "0" * 32 + "/x",
        "0" * 31 + "\n",
    ]

    @pytest.mark.parametrize("key", BAD_KEYS)
    def test_keys_outside_the_spool_rejected_before_any_file_is_opened(
        self, tmp_path, monkeypatch, key
    ):
        outside = tmp_path / "outside"
        outside.write_bytes(b"secret")
        conn = FilesystemConnector(tmp_path / "spool")

        def no_open(*args, **kwargs):
            raise AssertionError("a file was opened")

        monkeypatch.setattr(wire, "open", no_open, raising=False)
        ref = DataRef("fs", key, 6, hashlib.sha256(b"secret").digest())
        with pytest.raises(ProtocolError):
            conn.get(ref)
        with pytest.raises(ProtocolError):
            conn.get(ref, deserialize_params)
        with pytest.raises(ProtocolError):
            conn.delete(key)
        assert outside.read_bytes() == b"secret"

    def test_absolute_path_key_never_reads_the_file(self, tmp_path):
        outside = tmp_path / "outside"
        outside.write_bytes(b"secret")
        conn = FilesystemConnector(tmp_path / "spool")
        ref = DataRef("fs", str(outside), 6, hashlib.sha256(b"secret").digest())
        with pytest.raises(ProtocolError):
            fetch_body(Envelope({}, ref=ref), {"fs": conn})

    def test_issued_keys_work(self, tmp_path):
        conn = FilesystemConnector(tmp_path / "spool")
        ref = conn.put(b"abc")
        assert len(ref.key) == 32
        assert conn.get(ref) == b"abc"
        conn.delete(ref.key)
        assert not any((tmp_path / "spool").iterdir())
        with pytest.raises(MissingKey):
            conn.get(ref)


class _FailingWriter:
    """A binary file whose ``write`` raises ``ENOSPC`` on call ``fail_at``."""

    def __init__(self, fh, fail_at):
        self.fh = fh
        self.calls = 0
        self.fail_at = fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, b):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(b)


@pytest.mark.usefixtures("no_thread_left")
def test_failed_staged_write_leaves_no_file(tmp_path, monkeypatch):
    conn = FilesystemConnector(tmp_path / "spool")
    monkeypatch.setattr(
        wire, "open", lambda path, mode: _FailingWriter(open(path, mode), 3), raising=False
    )
    with pytest.raises(OSError) as err:
        conn.put(serialize_pieces(_sample_set()))
    assert err.value.errno == errno.ENOSPC
    assert list(conn.root.iterdir()) == []
    monkeypatch.undo()
    ref = conn.put(serialize_pieces(_sample_set()))
    assert conn.get(ref, deserialize_params) == _sample_set()


class TestSendPieces:
    """Pieces reach their destination unjoined and make the old bytes."""

    def test_staged_file_equals_serialize_params(self, tmp_path):
        p = _sample_set()
        conn = FilesystemConnector(tmp_path / "spool")
        pieces = serialize_pieces(p)
        assert len(pieces) == len(serialize_params(p))
        ref = conn.put(pieces)
        old = serialize_params(p)
        assert (conn.root / ref.key).read_bytes() == old
        assert ref.size == len(old)
        assert ref.sha256 == _hash_list(old)

    def test_tensor_pieces_are_views_of_the_sets_arrays(self):
        p = _sample_set()
        views = [np.frombuffer(part, dtype=np.uint8) for part in serialize_pieces(p).parts[2::2]]
        for (_, a), v in zip(p.items(), views):
            assert v.nbytes == a.nbytes
            if a.nbytes:
                assert np.shares_memory(v, a)

    @pytest.mark.parametrize("n", [16, 40_000])
    def test_inline_frame_written_in_pieces_equals_the_joined_frame(self, n):
        p = ParameterSet([("w", np.arange(n, dtype=np.float32))])
        payload = stage_body({"k": "v"}, serialize_pieces(p))
        old_payload = encode_envelope(Envelope({"k": "v"}, body=serialize_params(p)))
        assert bytes(payload) == old_payload
        frame = encode_frame(MessageType.UPDATE_SUBMIT, payload, token=b"tok")
        old_frame = encode_frame(MessageType.UPDATE_SUBMIT, old_payload, token=b"tok")
        assert len(frame) == len(old_frame)
        # the tensor leaves as a view of the set's own array, not a copy
        assert np.shares_memory(np.frombuffer(frame.parts[-1], dtype=np.uint8), p["w"])
        out = io.BytesIO()
        send_frame(out, frame)
        assert out.getvalue() == old_frame
        got = read_frame(io.BytesIO(out.getvalue()))
        assert fetch_body(decode_envelope(got.payload), None, deserialize_params) == p

    def test_staged_frame_equals_the_old_frame(self, tmp_path):
        p = ParameterSet([("w", np.arange(40_000, dtype=np.float32))])
        conn = FilesystemConnector(tmp_path)
        payload = stage_body({"k": "v"}, serialize_pieces(p), conn, inline_limit=1000)
        ref = decode_envelope(payload).ref
        assert (tmp_path / ref.key).read_bytes() == serialize_params(p)
        old_payload = encode_envelope(
            Envelope(
                {"k": "v"},
                ref=DataRef(
                    "fs", ref.key, len(serialize_params(p)), _hash_list(serialize_params(p)),
                ),
            )
        )
        assert payload == old_payload
        out = io.BytesIO()
        send_frame(out, encode_frame(MessageType.MODEL_REPLY, payload))
        assert out.getvalue() == encode_frame(MessageType.MODEL_REPLY, old_payload)

    def test_decoded_frames_and_envelopes_slice_without_copying(self):
        raw = encode_frame(
            MessageType.UPDATE_SUBMIT,
            encode_envelope(Envelope({"a": "1"}, body=b"body bytes")),
            token=b"tok",
        )
        f = decode_frame(raw)
        assert isinstance(f.payload, memoryview) and f.payload.obj is raw
        env = decode_envelope(f.payload)
        assert isinstance(env.body, memoryview) and env.body.obj is raw
        assert env.body == b"body bytes"


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
