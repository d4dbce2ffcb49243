"""Binary message framing and payload staging for socket transport.

Frame layout (lengths big-endian)::

    4 bytes  magic "APFL"
    u8       protocol version (currently 2)
    u8       message type
    u16      token length, then token bytes
    u32      payload length, then payload bytes

The shortest legal frame is a ``SHUTDOWN`` with empty token and payload:
``41 50 46 4C 02 07 00 00 00 00 00 00``.  A frame of any other version
raises :class:`UnsupportedVersion`; version 1 differed in the digest of a
:class:`DataRef` and in having message types 1 and 2 (a config request and
reply that nothing sent or answered), which now raise :class:`ProtocolError`
as unknown types.

:func:`decode_frame` (over a buffer) and :func:`read_frame` (over a stream)
share one header parser, so both check the magic, the version, the type,
the token and the declared payload length in that order, and reject a
payload above ``max_payload`` before reading it.

Payloads are envelopes: a small string-to-string metadata table plus a body
that is either inline bytes or a :class:`DataRef` to a body staged in a
:class:`FilesystemConnector`, a spool directory that both sides can read.
Bodies above ``DEFAULT_INLINE_LIMIT`` are staged so the frame itself stays
small; the reference carries the size and a digest so the receiver can
verify what it fetches.

Digest.  A staged body is cut into consecutive leaves of 1 MiB
(``params._HASHED_READ``), the last one shorter; an empty body has no
leaves.  Its digest is ``SHA-256(SHA-256(leaf_0) || ... ||
SHA-256(leaf_n-1))``, a one-level hash list, so the leaves can be hashed
apart and on two cores.

Copies.  On send there are none: a parameter set leaves as headers plus a
byte view of each of its arrays (:func:`fedkit.params.serialize_pieces`).  A
staged body is written to its connector view by view, and an inline body
goes out by ``writelines`` on the socket stream (:func:`send_frame`);
neither is joined into one bytes object.  On receive there is one: each
tensor's bytes are read into a fresh array
(:func:`fedkit.params.deserialize_params`), straight from the staged file or
from the frame's payload, which :func:`decode_frame` and
:func:`decode_envelope` slice as memoryviews.

Hashing.  A staged body's leaves are hashed while the caller writes the
body (``put``) or reads it into the arrays (``get``), 1 MiB at a time.  One
helper thread hashes the oldest leaf that waits; when the helper is behind,
the caller hashes the newest leaf itself between its writes or reads, so
the two share the hashing.  On receive, the size and the digest are checked
before the set is returned, so the bytes verified are the bytes used.
Inline bodies are never hashed.  A :class:`FilesystemConnector` opens only
the keys it issues, and removes the file of a ``put`` that fails.
"""
from __future__ import annotations

import hashlib
import hmac
import os
import queue
import re
import struct
import threading
import uuid
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Optional, Union

from .errors import (
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
from .params import _HASHED_READ, ByteStream, Pieces, _utf8

MAGIC = b"APFL"
PROTOCOL_VERSION = 2
MAX_PAYLOAD = 64 * 2**20
DEFAULT_INLINE_LIMIT = 10 * 2**20
_SHA256_LEN = 32
# bytes per leaf of a staged body's hash list, fixed by protocol version 2; equal to
# a hashing ByteStream's reads, so that each read adds to at most two leaves
_LEAF = _HASHED_READ
# bytes hashed per read when a rejected staged payload is hashed to its end
_DRAIN_CHUNK = 1 << 20


class MessageType(IntEnum):
    # 1 and 2 were CONFIG_REQUEST and CONFIG_REPLY in version 1; 6 was never assigned
    MODEL_REQUEST = 3
    MODEL_REPLY = 4
    UPDATE_SUBMIT = 5
    SHUTDOWN = 7
    ERROR_REPLY = 8


@dataclass(frozen=True)
class Frame:
    """A decoded frame; ``token`` and ``payload`` are bytes-like."""

    version: int
    msg_type: MessageType
    token: bytes
    payload: bytes


def encode_frame(
    msg_type: Union[MessageType, int],
    payload: Union[bytes, Pieces] = b"",
    token: bytes = b"",
    version: int = PROTOCOL_VERSION,
) -> Union[bytes, Pieces]:
    """The frame's bytes; a payload in :class:`Pieces` gives a frame in pieces."""
    msg_type = MessageType(msg_type)
    if len(token) > 0xFFFF:
        raise LengthMismatch(f"token too long: {len(token)} > 65535")
    if len(payload) > MAX_PAYLOAD:
        raise OversizedPayload(f"payload {len(payload)} exceeds {MAX_PAYLOAD}")
    head = b"".join(
        [
            MAGIC,
            struct.pack(">BBH", version, int(msg_type), len(token)),
            token,
            struct.pack(">I", len(payload)),
        ]
    )
    if isinstance(payload, Pieces):
        return Pieces((head, *payload.parts))
    return head + payload


def send_frame(stream, frame: Union[bytes, Pieces]) -> None:
    """Write an encoded frame to a binary stream and flush it; pieces are never joined."""
    if isinstance(frame, Pieces):
        stream.writelines(frame.parts)
    else:
        stream.write(frame)
    stream.flush()


def _parse_frame(magic, read, max_payload: int) -> Frame:
    """The frame whose first four bytes are ``magic`` and whose rest ``read(n)`` returns.

    ``read(n)`` returns exactly the next ``n`` bytes or raises
    :class:`Truncated`.  The declared payload length is checked against
    ``max_payload`` before the payload is read.
    """
    if magic != MAGIC:
        raise BadMagic("frame does not start with APFL")
    version, raw_type = struct.unpack(">BB", read(2))
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(f"version {version}, expected {PROTOCOL_VERSION}")
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {raw_type}") from None
    (token_len,) = struct.unpack(">H", read(2))
    token = read(token_len)
    (payload_len,) = struct.unpack(">I", read(4))
    if payload_len > max_payload:
        raise OversizedPayload(f"payload {payload_len} exceeds {max_payload}")
    return Frame(version, msg_type, token, read(payload_len))


def decode_frame(buf: bytes, max_payload: int = MAX_PAYLOAD) -> Frame:
    """The one frame that is all of ``buf``; its token and payload are slices of ``buf``."""
    cur = ByteStream.over(buf)
    frame = _parse_frame(cur.read(4), cur.read, max_payload)
    if cur.left:
        raise LengthMismatch(f"{cur.left} trailing bytes after frame")
    return frame


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
    return _parse_frame(head, exactly, max_payload)


# -- payload staging ----------------------------------------------------------


@dataclass(frozen=True)
class DataRef:
    """Pointer to an out-of-band payload plus enough to verify the fetch.

    ``sha256`` is the body's hash-list digest (see the module docstring).
    """

    connector_id: str
    key: str
    size: int
    sha256: bytes

    def __post_init__(self):
        if len(self.sha256) != _SHA256_LEN:
            raise LengthMismatch(f"sha256 must be {_SHA256_LEN} bytes, got {len(self.sha256)}")


def _parts(data) -> tuple:
    return data.parts if isinstance(data, Pieces) else (data,)


def _leaf_digest(parts) -> bytes:
    """SHA-256 of one leaf, given as the buffers it was cut from."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


class _HashThread:
    """The hash-list digest of the buffers given to :meth:`update`, shared with one helper thread.

    The bytes are cut into leaves of ``_LEAF`` bytes as they arrive, whatever
    the buffer boundaries (see the module docstring for the digest).  A full
    leaf waits for the helper, which hashes the oldest leaf waiting; if a
    leaf is already waiting when the next one fills, the caller hashes the
    new one itself, between its own writes or reads.  So the helper and the
    caller share the hashing (hashlib releases the GIL over large buffers).
    A buffer given to ``update`` must not change until :meth:`digest`
    returns.  ``digest`` hashes the partial last leaf and any leaf still
    waiting, ends the helper, and returns the digest, or raises what the
    helper raised; call it once.  Used as a context manager, the helper has
    ended when the block is left, however it is left.
    """

    def __init__(self):
        self._waiting = queue.SimpleQueue()  # (index, buffers) of full leaves; None ends the helper
        self._digests: list = []  # leaf digests in order; None until the leaf is hashed
        self._leaf: list = []  # buffers of the leaf being filled
        self._fill = 0
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="fedkit-sha256", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            while (item := self._waiting.get()) is not None:
                index, parts = item
                self._digests[index] = _leaf_digest(parts)
        except BaseException as e:  # raised again by digest(), in the caller
            self._error = e

    def update(self, buf) -> None:
        view = memoryview(buf).cast("B")
        pos = 0
        while pos < len(view):
            take = min(len(view) - pos, _LEAF - self._fill)
            self._leaf.append(view[pos : pos + take])
            self._fill += take
            pos += take
            if self._fill == _LEAF:
                parts, self._leaf, self._fill = self._leaf, [], 0
                index = len(self._digests)
                self._digests.append(None)
                # only the caller adds leaves, so a stale answer here only means the
                # helper has just caught up; each digest lands at its own index
                if self._waiting.empty():
                    self._waiting.put((index, parts))
                else:  # the helper is behind: this leaf is the caller's
                    self._digests[index] = _leaf_digest(parts)

    def close(self) -> None:
        """End the helper, dropping any leaf still waiting; safe to repeat."""
        try:
            while True:
                self._waiting.get_nowait()
        except queue.Empty:
            pass
        self._waiting.put(None)
        self._thread.join()

    def digest(self) -> bytes:
        if self._fill:
            self._digests.append(_leaf_digest(self._leaf))
            self._leaf, self._fill = [], 0
        try:
            while True:
                index, parts = self._waiting.get_nowait()
                self._digests[index] = _leaf_digest(parts)
        except queue.Empty:
            pass
        self.close()
        if self._error is not None:
            raise self._error
        return hashlib.sha256(b"".join(self._digests)).digest()

    def __enter__(self) -> "_HashThread":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _write_hashed(data: Union[bytes, Pieces], fh) -> bytes:
    """Write ``data`` to ``fh`` a leaf's length at a time; the digest is computed beside the writes."""
    with _HashThread() as hasher:
        for part in _parts(data):
            view = memoryview(part).cast("B")
            for start in range(0, len(view), _LEAF):
                piece = view[start : start + _LEAF]
                hasher.update(piece)
                fh.write(piece)
        return hasher.digest()


# the keys FilesystemConnector.put issues; no other name is ever joined to the root
_FS_KEY = re.compile(r"[0-9a-f]{32}")


class FilesystemConnector:
    """Stages payloads as files under a shared directory.

    Keys are the 32 hex digits of a random UUID.  Any other key, such as a
    path from the wire, raises :class:`ProtocolError` before a file is
    opened, so a reference can never name a file outside ``root``.
    """

    def __init__(self, root, connector_id: str = "fs"):
        self.connector_id = connector_id
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not isinstance(key, str) or not _FS_KEY.fullmatch(key):
            raise ProtocolError(f"{key!r} is not a staged payload key")
        return self.root / key

    def put(self, data: Union[bytes, Pieces]) -> DataRef:
        """Write ``data`` to a new file while it is hashed (see :class:`_HashThread`).

        If the write or the hashing fails, the file is removed and the helper has ended
        before the error is raised.
        """
        key = uuid.uuid4().hex
        path = self._path(key)
        try:
            with open(path, "wb") as fh:
                digest = _write_hashed(data, fh)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        return DataRef(self.connector_id, key, len(data), digest)

    def get(self, ref: DataRef, read=None):
        """The staged file, verified against ``ref``; see :func:`_read_verified`.

        A file whose size differs from ``ref.size`` is rejected before it is
        read.
        """
        path = self._path(ref.key)
        try:
            fh = open(path, "rb")
        except (FileNotFoundError, IsADirectoryError):
            raise MissingKey(f"no staged payload at {path}") from None
        with fh:
            size = os.fstat(fh.fileno()).st_size
            if size != ref.size:
                raise ChecksumMismatch(f"staged payload is {size} bytes, reference says {ref.size}")
            return _read_verified(fh, ref, read)

    def delete(self, key: str) -> None:
        path = self._path(key)
        if path.is_file():
            path.unlink()


def _read_verified(raw, ref: DataRef, read):
    """Read a staged payload of ``ref.size`` bytes from ``raw`` and check it against ``ref``.

    ``raw`` is an open binary file or file-like object.  Without ``read``
    the result is the payload's bytes; with it, the result of
    ``read(stream)`` over a :class:`~fedkit.params.ByteStream` of the
    payload, which must consume the stream to its end (as
    ``deserialize_params`` does).  Every byte read is hashed, by a helper
    thread or between reads (see :class:`_HashThread`), and nothing is
    returned until the helper is done and the bytes read were exactly
    ``ref.size`` bytes with digest ``ref.sha256``: the bytes verified are the
    bytes used.  When ``read``
    rejects the payload, the rest of it is hashed too, so damaged bytes
    raise :class:`ChecksumMismatch` wherever they are.  The helper has
    ended when this returns or raises.
    """
    with _HashThread() as hasher:
        stream = ByteStream(raw, ref.size, hasher)
        try:
            out = stream.read(stream.left) if read is None else read(stream)
        except FedkitError as e:
            try:
                while stream.left:
                    stream.read(min(stream.left, _DRAIN_CHUNK))
            except FedkitError:
                pass
            if stream.left or hasher.digest() != ref.sha256:
                raise ChecksumMismatch("staged payload fails digest verification") from e
            raise
        if stream.left or hasher.digest() != ref.sha256:
            raise ChecksumMismatch("staged payload fails digest verification")
        return out


# -- envelopes -----------------------------------------------------------------

_FLAG_REF = 0x01


@dataclass(frozen=True)
class Envelope:
    """Metadata plus either an inline ``body`` (bytes-like or :class:`Pieces`) or a ``ref``."""

    meta: dict
    body: Optional[bytes] = None
    ref: Optional[DataRef] = None

    def __post_init__(self):
        if (self.body is None) == (self.ref is None):
            raise ProtocolError("envelope needs exactly one of body or ref")


def encode_envelope(env: Envelope) -> Union[bytes, Pieces]:
    """The envelope's bytes; a body in :class:`Pieces` gives an envelope in pieces."""
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
    elif isinstance(env.body, Pieces):
        return Pieces((b"".join(parts), *env.body.parts))
    else:
        parts.append(env.body)
    return b"".join(parts)


def decode_envelope(buf: bytes) -> Envelope:
    cur = ByteStream.over(buf)
    flags, n_meta = cur.unpack(">BH")
    if flags & ~_FLAG_REF:
        raise ProtocolError(f"unknown envelope flags 0x{flags:02x}")
    meta = {}
    for _ in range(n_meta):
        (klen,) = cur.unpack(">H")
        key = _utf8(cur.read(klen), ProtocolError)
        (vlen,) = cur.unpack(">I")
        val = _utf8(cur.read(vlen), ProtocolError)
        if key in meta:
            raise ProtocolError(f"duplicate meta key {key!r}")
        meta[key] = val
    if flags & _FLAG_REF:
        (clen,) = cur.unpack(">H")
        connector_id = _utf8(cur.read(clen), ProtocolError)
        (klen,) = cur.unpack(">H")
        key = _utf8(cur.read(klen), ProtocolError)
        (size,) = cur.unpack(">Q")
        sha = cur.read(_SHA256_LEN)
        if cur.left:
            raise LengthMismatch(f"{cur.left} trailing bytes after data reference")
        return Envelope(meta, ref=DataRef(connector_id, key, size, bytes(sha)))
    return Envelope(meta, body=cur.read(cur.left))


def stage_body(
    meta: dict,
    body: Union[bytes, Pieces],
    connector=None,
    inline_limit: int = DEFAULT_INLINE_LIMIT,
) -> Union[bytes, Pieces]:
    """Encode an envelope, spilling large bodies through the connector."""
    if connector is not None and len(body) > inline_limit:
        return encode_envelope(Envelope(meta, ref=connector.put(body)))
    return encode_envelope(Envelope(meta, body=body))


def fetch_body(env: Envelope, connectors: Optional[dict] = None, read=None):
    """An envelope's body, resolving a data reference if needed.

    Without ``read`` the result is the body's bytes.  With it, the result is
    ``read(stream)`` over a :class:`~fedkit.params.ByteStream` of the body,
    and a staged body is verified as ``read`` consumes it (see
    ``FilesystemConnector.get``), so it is never held as one bytes object.
    """
    if env.body is not None:
        return env.body if read is None else read(ByteStream.over(env.body))
    connectors = connectors or {}
    if env.ref.connector_id not in connectors:
        raise UnknownConnector(f"no connector registered as {env.ref.connector_id!r}")
    return connectors[env.ref.connector_id].get(env.ref, read)


class StaticTokenAuthenticator:
    """Constant-time comparison against one preshared token."""

    def __init__(self, token: Union[str, bytes] = b""):
        self._token = token.encode("utf-8") if isinstance(token, str) else bytes(token)

    @property
    def token(self) -> bytes:
        return self._token

    def verify(self, presented: bytes) -> bool:
        return hmac.compare_digest(self._token, presented)
