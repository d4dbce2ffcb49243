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
payload above ``max_payload`` before reading it.  Frames and envelopes are
read with precompiled ``struct`` formats at running offsets, one check per
field, and written the same way.

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
the two share the hashing.  On receive, the reader walks the body's headers
and then hashes the count and header bytes of the set it builds, and each
tensor's bytes as they land in its array; the size and the digest are
checked before the set is returned, so the bytes verified are the bytes
used.  A body the reader rejects is hashed again from its start.
Inline bodies are never hashed.  A :class:`FilesystemConnector` opens only
the keys it issues, and removes the file of a ``put`` that fails.
"""
from __future__ import annotations

import functools
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
from typing import NamedTuple, Optional, Union

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
from .params import _HASHED_READ, _U16, _U32, FileBody, Pieces

MAGIC = b"APFL"
PROTOCOL_VERSION = 2
MAX_PAYLOAD = 64 * 2**20
DEFAULT_INLINE_LIMIT = 10 * 2**20
_SHA256_LEN = 32
# bytes per leaf of a staged body's hash list, fixed by protocol version 2; equal to
# a FileBody's hashed reads, so that each read adds to at most two leaves
_LEAF = _HASHED_READ
# magic, version, message type and token length: a frame's first fields
_FRAME_HEAD = struct.Struct(">4sBBH")
_ENV_HEAD = struct.Struct(">BH")  # an envelope's flags and meta count
_U64 = struct.Struct(">Q")


class MessageType(IntEnum):
    # 1 and 2 were CONFIG_REQUEST and CONFIG_REPLY in version 1; 6 was never assigned
    MODEL_REQUEST = 3
    MODEL_REPLY = 4
    UPDATE_SUBMIT = 5
    SHUTDOWN = 7
    ERROR_REPLY = 8


_MESSAGE_TYPES = {t.value: t for t in MessageType}


class Frame(NamedTuple):
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
    # an int that is no message type raises ValueError
    msg_type = _MESSAGE_TYPES.get(msg_type) or MessageType(msg_type)
    if len(token) > 0xFFFF:
        raise LengthMismatch(f"token too long: {len(token)} > 65535")
    if len(payload) > MAX_PAYLOAD:
        raise OversizedPayload(f"payload {len(payload)} exceeds {MAX_PAYLOAD}")
    head = b"".join(
        [_FRAME_HEAD.pack(MAGIC, version, msg_type, len(token)), token, _U32.pack(len(payload))]
    )
    if isinstance(payload, Pieces):
        return Pieces((head, *payload.parts), len(head) + len(payload))
    return head + payload


def send_frame(stream, frame: Union[bytes, Pieces]) -> None:
    """Write an encoded frame to a binary stream and flush it; pieces are never joined."""
    if isinstance(frame, Pieces):
        stream.writelines(frame.parts)
    else:
        stream.write(frame)
    stream.flush()


def _parse_frame(head, read, max_payload: int) -> Frame:
    """The frame whose first bytes are ``head`` and whose rest ``read(n)`` returns.

    ``head`` is the frame's first ``_FRAME_HEAD.size`` bytes and ``read(n)``
    the next ``n``, either shorter only where the bytes end.  Each field is
    checked once its bytes are there.
    """
    if len(head) < 4:
        raise Truncated("frame ends inside its magic")
    if head[:4] != MAGIC:
        raise BadMagic("frame does not start with APFL")
    if len(head) < 6:
        raise Truncated("frame ends inside its version and type")
    version, raw_type = head[4], head[5]
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(f"version {version}, expected {PROTOCOL_VERSION}")
    msg_type = _MESSAGE_TYPES.get(raw_type)
    if msg_type is None:
        raise ProtocolError(f"unknown message type {raw_type}")
    if len(head) < _FRAME_HEAD.size:
        raise Truncated("frame ends inside its token length")
    (token_len,) = _U16.unpack_from(head, 6)
    rest = read(token_len + 4)  # the token, then the payload length
    if len(rest) < token_len + 4:
        raise Truncated("frame ends inside its token or payload length")
    (payload_len,) = _U32.unpack_from(rest, token_len)
    if payload_len > max_payload:
        raise OversizedPayload(f"payload {payload_len} exceeds {max_payload}")
    payload = read(payload_len)
    if len(payload) < payload_len:
        raise Truncated(f"frame ends {payload_len - len(payload)} bytes short")
    return Frame(version, msg_type, rest[:token_len], payload)


def decode_frame(buf: bytes, max_payload: int = MAX_PAYLOAD) -> Frame:
    """The one frame that is all of ``buf``; its token and payload are slices of ``buf``."""
    view = memoryview(buf).cast("B")
    pos = _FRAME_HEAD.size

    def read(n: int) -> memoryview:
        nonlocal pos
        pos += n
        return view[pos - n : pos]

    frame = _parse_frame(view[:pos], read, max_payload)
    if pos < len(view):
        raise LengthMismatch(f"{len(view) - pos} trailing bytes after frame")
    return frame


def read_frame(stream, max_payload: int = MAX_PAYLOAD) -> Optional[Frame]:
    """Read one frame from a blocking binary stream.

    Returns None on clean EOF at a frame boundary; raises Truncated if the
    connection drops mid-frame.
    """

    def read(n: int) -> bytes:
        piece = stream.read(n)
        if len(piece) == n or not piece:
            return piece
        chunks, got = [piece], len(piece)  # a raw stream may return less than was asked
        while got < n and (piece := stream.read(n - got)):
            chunks.append(piece)
            got += len(piece)
        return b"".join(chunks)

    head = read(_FRAME_HEAD.size)
    if not head:
        return None
    return _parse_frame(head, read, max_payload)


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

    ``raw`` is an open binary file or a seekable file-like object.  Without
    ``read`` the result is the payload's bytes; with it, the result of
    ``read(body)`` over a :class:`~fedkit.params.FileBody` of the payload
    (as ``deserialize_params`` reads one).  The digest covers exactly the
    bytes handed to the hasher: every byte of the payload when ``read`` is
    None, and for ``deserialize_params`` the count and header bytes of the
    set it returns and each tensor's bytes as they land.  They are hashed by
    a helper thread or between reads (see :class:`_HashThread`), and nothing
    is returned until the helper is done and their digest is ``ref.sha256``:
    the bytes verified are the bytes used, all ``ref.size`` of them.  When
    ``read`` rejects the payload, the whole file is hashed again from its
    start, so damaged bytes raise :class:`ChecksumMismatch` wherever they
    are.  The helper has ended when this returns or raises.
    """
    with _HashThread() as hasher:
        body = FileBody(raw, ref.size, hasher)
        try:
            if read is None:
                out = body[0 : ref.size]
                hasher.update(out)
            else:
                out = read(body)
        except FedkitError as e:
            if _rehash(raw, ref.size) != ref.sha256:
                raise ChecksumMismatch("staged payload fails digest verification") from e
            raise
        # equal digests mean equal bytes: the hasher saw all ``ref.size`` of them
        if hasher.digest() != ref.sha256:
            raise ChecksumMismatch("staged payload fails digest verification")
        return out


def _rehash(raw, size: int) -> bytes:
    """The digest of the first ``size`` bytes of ``raw``, read again from its start.

    A file that ends early gives the digest of the bytes it has.
    """
    raw.seek(0)
    with _HashThread() as hasher:
        for start in range(0, size, _LEAF):
            hasher.update(raw.read(min(_LEAF, size - start)))
        return hasher.digest()


# -- envelopes -----------------------------------------------------------------

_FLAG_REF = 0x01


# not frozen: one is built per message, and a frozen dataclass takes three times as long
@dataclass(slots=True)
class Envelope:
    """Metadata plus either an inline ``body`` (bytes-like or :class:`Pieces`) or a ``ref``."""

    meta: dict
    body: Optional[bytes] = None
    ref: Optional[DataRef] = None

    def __post_init__(self):
        if (self.body is None) == (self.ref is None):
            raise ProtocolError("envelope needs exactly one of body or ref")


@functools.lru_cache(maxsize=64)
def _meta_keys(keys: tuple) -> tuple:
    """``keys`` in their order on the wire, each with its encoding: a u16 byte count, then UTF-8."""
    out = []
    for key in sorted(keys):
        kb = key.encode("utf-8")
        if len(kb) > 0xFFFF:
            raise LengthMismatch(f"meta key too long: {len(kb)}")
        out.append((key, _U16.pack(len(kb)) + kb))
    return tuple(out)


def encode_envelope(env: Envelope) -> Union[bytes, Pieces]:
    """The envelope's bytes; a body in :class:`Pieces` gives an envelope in pieces."""
    meta, body, ref = env.meta, env.body, env.ref
    parts = [_ENV_HEAD.pack(_FLAG_REF if ref is not None else 0, len(meta))]
    for key, head in _meta_keys(tuple(meta)):
        vb = str(meta[key]).encode("utf-8")
        parts += (head, _U32.pack(len(vb)), vb)
    if ref is not None:
        cb = ref.connector_id.encode("utf-8")
        keyb = ref.key.encode("utf-8")
        parts += (_U16.pack(len(cb)), cb, _U16.pack(len(keyb)), keyb)
        parts += (_U64.pack(ref.size), ref.sha256)
    elif isinstance(body, Pieces):
        head = b"".join(parts)
        return Pieces((head, *body.parts), len(head) + len(body))
    else:
        parts.append(body)
    return b"".join(parts)


def decode_envelope(buf: bytes) -> Envelope:
    """The envelope that is all of ``buf``; an inline body is a slice of ``buf``.

    Fields are checked in order: one that runs past the end raises
    :class:`Truncated`, text that is not UTF-8 or a repeated meta key
    :class:`ProtocolError`, bytes after a data reference :class:`LengthMismatch`.
    """
    view = memoryview(buf).cast("B")
    end = len(view)
    try:
        flags, n_meta = _ENV_HEAD.unpack_from(view)
        if flags & ~_FLAG_REF:
            raise ProtocolError(f"unknown envelope flags 0x{flags:02x}")
        pos = _ENV_HEAD.size
        meta = {}
        for _ in range(n_meta):
            (n,) = _U16.unpack_from(view, pos)
            pos += 2 + n
            if pos > end:
                raise Truncated(f"envelope ends {pos - end} bytes early")
            key = str(view[pos - n : pos], "utf-8")
            (n,) = _U32.unpack_from(view, pos)
            pos += 4 + n
            if pos > end:
                raise Truncated(f"envelope ends {pos - end} bytes early")
            val = str(view[pos - n : pos], "utf-8")
            if key in meta:
                raise ProtocolError(f"duplicate meta key {key!r}")
            meta[key] = val
        if not flags & _FLAG_REF:
            return Envelope(meta, body=view[pos:])
        text = []  # the connector id, then the key
        for _ in range(2):
            (n,) = _U16.unpack_from(view, pos)
            pos += 2 + n
            if pos > end:
                raise Truncated(f"envelope ends {pos - end} bytes early")
            text.append(str(view[pos - n : pos], "utf-8"))
        (size,) = _U64.unpack_from(view, pos)
        pos += 8 + _SHA256_LEN
        if pos > end:
            raise Truncated(f"envelope ends {pos - end} bytes early")
        if pos < end:
            raise LengthMismatch(f"{end - pos} trailing bytes after data reference")
        return Envelope(meta, ref=DataRef(*text, size, bytes(view[pos - _SHA256_LEN : pos])))
    except struct.error:
        raise Truncated("envelope ends inside a length field") from None
    except UnicodeDecodeError as e:
        raise ProtocolError(f"text is not UTF-8: {e}") from None


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
    ``read(body)``: an inline body is passed as its buffer, and a staged one
    as a :class:`~fedkit.params.FileBody` of the open spool file, whose
    bytes are hashed as ``read`` reads them and verified before the result
    is returned (see :func:`_read_verified`), so it is never held as one
    bytes object.
    """
    if env.body is not None:
        return env.body if read is None else read(env.body)
    connectors = connectors or {}
    if env.ref.connector_id not in connectors:
        raise UnknownConnector(f"no connector registered as {env.ref.connector_id!r}")
    return connectors[env.ref.connector_id].get(env.ref, read)


class StaticTokenAuthenticator:
    """Constant-time comparison against one preshared token."""

    def __init__(self, token: Union[str, bytes] = b""):
        self._token = token.encode("utf-8") if isinstance(token, str) else bytes(token)

    def verify(self, presented: bytes) -> bool:
        return hmac.compare_digest(self._token, presented)
