"""Binary message framing and payload staging for socket transport.

Frame layout (lengths big-endian)::

    4 bytes  magic "APFL"
    u8       protocol version (currently 1)
    u8       message type
    u16      token length, then token bytes
    u32      payload length, then payload bytes

The shortest legal frame is a ``CONFIG_REQUEST`` with empty token and
payload: ``41 50 46 4C 01 01 00 00 00 00 00 00``.

Payloads are envelopes: a small string-to-string metadata table plus a body
that is either inline bytes or a :class:`DataRef` pointing into a connector
(shared memory table, filesystem directory, ...).  Bodies above
``DEFAULT_INLINE_LIMIT`` are staged through a connector so the frame itself
stays small; the reference carries size and SHA-256 so the receiver can
verify what it fetches.
"""
from __future__ import annotations

import hashlib
import hmac
import struct
import uuid
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Optional, Union

from .errors import (
    BadMagic,
    ChecksumMismatch,
    LengthMismatch,
    MissingKey,
    OversizedPayload,
    ProtocolError,
    Truncated,
    UnknownConnector,
    UnsupportedVersion,
)

MAGIC = b"APFL"
PROTOCOL_VERSION = 1
MAX_PAYLOAD = 64 * 2**20
DEFAULT_INLINE_LIMIT = 10 * 2**20
_SHA256_LEN = 32


class MessageType(IntEnum):
    CONFIG_REQUEST = 1
    CONFIG_REPLY = 2
    MODEL_REQUEST = 3
    MODEL_REPLY = 4
    UPDATE_SUBMIT = 5
    SHUTDOWN = 7
    ERROR_REPLY = 8


@dataclass(frozen=True)
class Frame:
    version: int
    msg_type: MessageType
    token: bytes
    payload: bytes


def encode_frame(
    msg_type: Union[MessageType, int],
    payload: bytes = b"",
    token: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> bytes:
    msg_type = MessageType(msg_type)
    if len(token) > 0xFFFF:
        raise LengthMismatch(f"token too long: {len(token)} > 65535")
    if len(payload) > MAX_PAYLOAD:
        raise OversizedPayload(f"payload {len(payload)} exceeds {MAX_PAYLOAD}")
    return b"".join(
        [
            MAGIC,
            struct.pack(">BB", version, int(msg_type)),
            struct.pack(">H", len(token)),
            token,
            struct.pack(">I", len(payload)),
            payload,
        ]
    )


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise Truncated(f"need {n} bytes at offset {self.pos}, have {len(self.buf) - self.pos}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.pos


def decode_frame(buf: bytes, max_payload: int = MAX_PAYLOAD) -> Frame:
    cur = _Cursor(buf)
    if cur.take(4) != MAGIC:
        raise BadMagic("frame does not start with APFL")
    version, raw_type = cur.unpack(">BB")
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(f"version {version}, expected {PROTOCOL_VERSION}")
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {raw_type}") from None
    (token_len,) = cur.unpack(">H")
    token = cur.take(token_len)
    (payload_len,) = cur.unpack(">I")
    if payload_len > max_payload:
        raise OversizedPayload(f"payload {payload_len} exceeds {max_payload}")
    payload = cur.take(payload_len)
    if cur.remaining:
        raise LengthMismatch(f"{cur.remaining} trailing bytes after frame")
    return Frame(version, msg_type, bytes(token), bytes(payload))


def read_frame(stream, max_payload: int = MAX_PAYLOAD) -> Optional[Frame]:
    """Read one frame from a blocking binary stream.

    Returns None on clean EOF at a frame boundary; raises Truncated if the
    connection drops mid-frame.
    """

    def exactly(n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            piece = stream.read(n - got)
            if not piece:
                raise Truncated(f"stream ended {n - got} bytes short")
            chunks.append(piece)
            got += len(piece)
        return b"".join(chunks)

    head = stream.read(4)
    if not head:
        return None
    if len(head) < 4:
        raise Truncated("stream ended inside magic")
    if head != MAGIC:
        raise BadMagic("frame does not start with APFL")
    version, raw_type = struct.unpack(">BB", exactly(2))
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(f"version {version}, expected {PROTOCOL_VERSION}")
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {raw_type}") from None
    (token_len,) = struct.unpack(">H", exactly(2))
    token = exactly(token_len)
    (payload_len,) = struct.unpack(">I", exactly(4))
    if payload_len > max_payload:
        raise OversizedPayload(f"payload {payload_len} exceeds {max_payload}")
    payload = exactly(payload_len)
    return Frame(version, msg_type, token, payload)


# -- payload staging ----------------------------------------------------------


@dataclass(frozen=True)
class DataRef:
    """Pointer to an out-of-band payload plus enough to verify the fetch."""

    connector_id: str
    key: str
    size: int
    sha256: bytes

    def __post_init__(self):
        if len(self.sha256) != _SHA256_LEN:
            raise LengthMismatch(f"sha256 must be {_SHA256_LEN} bytes, got {len(self.sha256)}")


class MemoryConnector:
    """In-process staging table; fine for tests and single-host runs."""

    def __init__(self, connector_id: str = "mem"):
        self.connector_id = connector_id
        self._table: dict[str, bytes] = {}

    def put(self, data: bytes) -> DataRef:
        key = uuid.uuid4().hex
        self._table[key] = bytes(data)
        return DataRef(self.connector_id, key, len(data), hashlib.sha256(data).digest())

    def get(self, ref: DataRef) -> bytes:
        if ref.key not in self._table:
            raise MissingKey(f"no staged payload under key {ref.key!r}")
        data = self._table[ref.key]
        _verify_ref(ref, data)
        return data

    def delete(self, key: str) -> None:
        self._table.pop(key, None)

    def __len__(self) -> int:
        return len(self._table)


class FilesystemConnector:
    """Stages payloads as files under a shared directory."""

    def __init__(self, root, connector_id: str = "fs"):
        self.connector_id = connector_id
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def put(self, data: bytes) -> DataRef:
        key = uuid.uuid4().hex
        (self.root / key).write_bytes(data)
        return DataRef(self.connector_id, key, len(data), hashlib.sha256(data).digest())

    def get(self, ref: DataRef) -> bytes:
        path = self.root / ref.key
        if not path.is_file():
            raise MissingKey(f"no staged payload at {path}")
        data = path.read_bytes()
        _verify_ref(ref, data)
        return data

    def delete(self, key: str) -> None:
        path = self.root / key
        if path.is_file():
            path.unlink()


def _verify_ref(ref: DataRef, data: bytes) -> None:
    if len(data) != ref.size:
        raise ChecksumMismatch(f"staged payload is {len(data)} bytes, reference says {ref.size}")
    digest = hashlib.sha256(data).digest()
    if digest != ref.sha256:
        raise ChecksumMismatch("staged payload fails SHA-256 verification")


# -- envelopes -----------------------------------------------------------------

_FLAG_REF = 0x01


@dataclass(frozen=True)
class Envelope:
    meta: dict
    body: Optional[bytes] = None
    ref: Optional[DataRef] = None

    def __post_init__(self):
        if (self.body is None) == (self.ref is None):
            raise ProtocolError("envelope needs exactly one of body or ref")


def encode_envelope(env: Envelope) -> bytes:
    parts = [struct.pack(">BH", _FLAG_REF if env.ref is not None else 0, len(env.meta))]
    for key in sorted(env.meta):
        kb = key.encode("utf-8")
        vb = str(env.meta[key]).encode("utf-8")
        if len(kb) > 0xFFFF:
            raise LengthMismatch(f"meta key too long: {len(kb)}")
        parts.append(struct.pack(">H", len(kb)) + kb)
        parts.append(struct.pack(">I", len(vb)) + vb)
    if env.ref is not None:
        cb = env.ref.connector_id.encode("utf-8")
        keyb = env.ref.key.encode("utf-8")
        parts.append(struct.pack(">H", len(cb)) + cb)
        parts.append(struct.pack(">H", len(keyb)) + keyb)
        parts.append(struct.pack(">Q", env.ref.size))
        parts.append(env.ref.sha256)
    else:
        parts.append(env.body)
    return b"".join(parts)


def decode_envelope(buf: bytes) -> Envelope:
    cur = _Cursor(buf)
    flags, n_meta = cur.unpack(">BH")
    if flags & ~_FLAG_REF:
        raise ProtocolError(f"unknown envelope flags 0x{flags:02x}")
    meta = {}
    for _ in range(n_meta):
        (klen,) = cur.unpack(">H")
        key = cur.take(klen).decode("utf-8", errors="strict")
        (vlen,) = cur.unpack(">I")
        val = cur.take(vlen).decode("utf-8", errors="strict")
        if key in meta:
            raise ProtocolError(f"duplicate meta key {key!r}")
        meta[key] = val
    if flags & _FLAG_REF:
        (clen,) = cur.unpack(">H")
        connector_id = cur.take(clen).decode("utf-8")
        (klen,) = cur.unpack(">H")
        key = cur.take(klen).decode("utf-8")
        (size,) = cur.unpack(">Q")
        sha = cur.take(_SHA256_LEN)
        if cur.remaining:
            raise LengthMismatch(f"{cur.remaining} trailing bytes after data reference")
        return Envelope(meta, ref=DataRef(connector_id, key, size, bytes(sha)))
    return Envelope(meta, body=bytes(cur.take(cur.remaining)))


def stage_body(
    meta: dict,
    body: bytes,
    connector=None,
    inline_limit: int = DEFAULT_INLINE_LIMIT,
) -> bytes:
    """Encode an envelope, spilling large bodies through the connector."""
    if connector is not None and len(body) > inline_limit:
        return encode_envelope(Envelope(meta, ref=connector.put(body)))
    return encode_envelope(Envelope(meta, body=body))


def fetch_body(env: Envelope, connectors: Optional[dict] = None) -> bytes:
    """Materialize an envelope's body, resolving a data reference if needed."""
    if env.body is not None:
        return env.body
    connectors = connectors or {}
    if env.ref.connector_id not in connectors:
        raise UnknownConnector(f"no connector registered as {env.ref.connector_id!r}")
    return connectors[env.ref.connector_id].get(env.ref)


class StaticTokenAuthenticator:
    """Constant-time comparison against one preshared token."""

    def __init__(self, token: Union[str, bytes] = b""):
        self._token = token.encode("utf-8") if isinstance(token, str) else bytes(token)

    @property
    def token(self) -> bytes:
        return self._token

    def verify(self, presented: bytes) -> bool:
        return hmac.compare_digest(self._token, presented)
