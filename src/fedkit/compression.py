"""Error-bounded lossy compression for parameter sets.

Large tensors go through the ``qz`` uniform quantizer: with relative error
bound ``eb_rel`` and value range ``r = max - min``, bin width is
``w = 2 * eb_rel * r``, each element maps to ``round((x - min) / w)``, and
indices are bit-packed at ``ceil(log2(max_index + 1))`` bits before a
lossless second stage.  Reconstruction is ``min + k * w`` clamped to
``[min, max]``, so every element lands within ``eb_rel * r`` of its
original.  The index stream is value-major and MSB-first: index ``i``
occupies bits ``i*bits`` to ``(i+1)*bits - 1`` of the stream, most
significant bit first, and the stream is ``ceil(count * bits / 8)`` bytes,
zero-padded in its last byte.  The handful of elements a dtype rounding step would push past
that bound are stored verbatim in an exception list, which makes the bound
unconditional and re-encoding a fixed point (compressing a decompressed
set reproduces the blob byte for byte).

Tensors with fewer than ``small_tensor_threshold`` parameters, and tensors
whose dtype cannot resolve the bin width, take the lossless path instead.

Blob layout (big-endian integers)::

    u32  tensor count
    per tensor:
        u16 name length + name
        u8  scheme      (0 = raw, 1 = lossless, 2 = lossy-qz)
        u8  dtype tag   (0 = float32, 1 = float64)
        u8  ndim, then u32 per dim
        u8  lossless codec id (0 = none, 1 = rle, 2 = deflate)
        u32 payload length
        u32 crc32 of payload
        ... payload

Config names accepted for interoperability with other stacks are mapped
onto the two built-in codecs; see :data:`LOSSY_ALIASES` and
:data:`LOSSLESS_ALIASES`.
"""
from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChecksumMismatch,
    CorruptBlob,
    NonFiniteValue,
    UnknownStrategyName,
)
from .params import ParameterSet, serialize_params, _TAG_TO_DTYPE, _DTYPE_TO_TAG

DEFAULT_ERROR_BOUND = 0.01
DEFAULT_SMALL_TENSOR_THRESHOLD = 1024

SCHEME_RAW = 0
SCHEME_LOSSLESS = 1
SCHEME_LOSSY_QZ = 2

_CODEC_IDS = {"none": 0, "rle": 1, "deflate": 2}
_CODEC_NAMES = {v: k for k, v in _CODEC_IDS.items()}

# Names used by other federated stacks for codecs of the same family.
LOSSY_ALIASES = {
    "qz": "qz",
    "QZCompressor": "qz",
    "SZ2Compressor": "qz",
    "SZ3Compressor": "qz",
    "SZxCompressor": "qz",
    "ZFPCompressor": "qz",
    "none": "none",
}
LOSSLESS_ALIASES = {
    "deflate": "deflate",
    "DeflateCompressor": "deflate",
    "ZlibCompressor": "deflate",
    "GzipCompressor": "deflate",
    "ZstdCompressor": "deflate",
    "BloscCompressor": "deflate",
    "rle": "rle",
    "RLECompressor": "rle",
    "none": "none",
}


def resolve_lossy_name(name: str) -> str:
    if name not in LOSSY_ALIASES:
        raise UnknownStrategyName(f"unknown lossy compressor {name!r}; known: {sorted(LOSSY_ALIASES)}")
    return LOSSY_ALIASES[name]


def resolve_lossless_name(name: str) -> str:
    if name not in LOSSLESS_ALIASES:
        raise UnknownStrategyName(
            f"unknown lossless compressor {name!r}; known: {sorted(LOSSLESS_ALIASES)}"
        )
    return LOSSLESS_ALIASES[name]


@dataclass(frozen=True)
class CodecConfig:
    lossless: str = "deflate"  # none | rle | deflate (aliases accepted)
    lossy: str = "qz"  # none | qz (aliases accepted)
    eb_rel: float = DEFAULT_ERROR_BOUND
    small_tensor_threshold: int = DEFAULT_SMALL_TENSOR_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "lossless", resolve_lossless_name(self.lossless))
        object.__setattr__(self, "lossy", resolve_lossy_name(self.lossy))
        if not 0.0 < self.eb_rel < 1.0:
            raise UnknownStrategyName(f"eb_rel must be in (0, 1), got {self.eb_rel}")
        if self.small_tensor_threshold < 0:
            raise UnknownStrategyName("small_tensor_threshold must be non-negative")


# ---------------------------------------------------------------------------
# lossless codecs


def _rle_encode(data) -> bytes:
    """(count, byte) pairs, one per run of equal bytes; runs split at 255."""
    a = np.frombuffer(data, dtype=np.uint8)
    if a.size == 0:
        return b""
    starts = np.flatnonzero(np.diff(a)) + 1
    lengths = np.diff(starts, prepend=0, append=a.size)
    pieces = (lengths + 254) // 255
    counts = np.full(int(pieces.sum()), 255, dtype=np.uint8)
    counts[np.cumsum(pieces) - 1] = lengths - 255 * (pieces - 1)
    out = np.empty((counts.size, 2), dtype=np.uint8)
    out[:, 0] = counts
    out[:, 1] = np.repeat(a[np.concatenate(([0], starts))], pieces)
    return out.tobytes()


def _rle_decode(data) -> bytes:
    pairs = np.frombuffer(data, dtype=np.uint8)
    if pairs.size % 2:
        raise CorruptBlob("rle payload has odd length")
    pairs = pairs.reshape(-1, 2)
    return np.repeat(pairs[:, 1], pairs[:, 0]).tobytes()


def _lossless_encode(codec: str, data: bytes) -> bytes:
    if codec == "none":
        return data
    if codec == "rle":
        return _rle_encode(data)
    return zlib.compress(data, level=6)


def _lossless_decode(codec_id: int, data: bytes) -> bytes:
    if codec_id not in _CODEC_NAMES:
        raise CorruptBlob(f"unknown lossless codec id {codec_id}")
    codec = _CODEC_NAMES[codec_id]
    if codec == "none":
        return data
    if codec == "rle":
        return _rle_decode(data)
    try:
        return zlib.decompress(data)
    except zlib.error as exc:
        raise CorruptBlob(f"deflate payload: {exc}") from None


# ---------------------------------------------------------------------------
# qz quantizer


def _index_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned integer type holding ``bits``-bit indices."""
    return np.min_scalar_type((1 << bits) - 1)


def _pack_indices(k: np.ndarray, bits: int) -> bytes:
    # bit j of row i is bit (bits-1-j) of k[i]: value-major, MSB first
    kk = k.astype(_index_dtype(bits), copy=False)
    m = np.empty((kk.size, bits), dtype=np.uint8)
    for j in range(bits):
        plane = m[:, j]
        np.right_shift(kk, bits - 1 - j, out=plane, casting="unsafe")
        np.bitwise_and(plane, 1, out=plane)
    # drop each buffer once read, so the peak stays near count*(bits+1) bytes
    del kk
    packed = np.packbits(m)
    del m
    return packed.tobytes()


def _unpack_indices(buf, count: int, bits: int) -> np.ndarray:
    need = count * bits
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw.size * 8 < need:
        raise CorruptBlob("packed index stream shorter than declared element count")
    m = np.unpackbits(raw, count=need).reshape(count, bits)
    k = np.zeros(count, dtype=_index_dtype(bits))
    for j in range(bits):
        k <<= 1
        k |= m[:, j]
    return k


def _reconstruct(k: np.ndarray, vmin: float, vmax: float, w: float, dtype) -> np.ndarray:
    # min + k*w in float64, clamped: addition commutes in IEEE arithmetic,
    # so adding min in place gives the same bits
    recon = np.multiply(k, w, dtype=np.float64)
    recon += vmin
    np.clip(recon, vmin, vmax, out=recon)
    return recon.astype(dtype, copy=False)


_QZ_CONSTANT = 1


_QZ_HEADER = ">BdddBI"  # flags, min, max, bin width, bits per index, exception count
_QZ_HEADER_SIZE = struct.calcsize(_QZ_HEADER)


def _qz_encode(arr: np.ndarray, eb_rel: float):
    """Quantize one tensor; returns the qz block, or None when the dtype grid
    is too coarse for the requested bound and the tensor must stay lossless."""
    x = arr.ravel()
    x64 = x.astype(np.float64, copy=False)
    vmin = float(x64.min())
    vmax = float(x64.max())
    if vmin == vmax:
        return struct.pack(">Bd", _QZ_CONSTANT, vmin)
    if x.size >= 2**32:
        return None
    r = vmax - vmin
    w = 2.0 * eb_rel * r
    if not np.isfinite(w) or w <= 0.0:
        return None
    # if one dtype ulp is comparable to a bin, quantizing cannot help and
    # index stability under re-encoding is lost: refuse and fall back
    if float(np.spacing(np.dtype(arr.dtype).type(max(abs(vmin), abs(vmax))))) > w / 4.0:
        return None
    k_top = int(np.ceil(r / w)) + 2
    # indices live in one float64 vector: its values are whole numbers
    # in [0, k_top], which every later step reads exactly
    k = np.subtract(x64, vmin)
    k /= w
    np.rint(k, out=k)
    np.clip(k, 0, k_top, out=k)
    k[x64 == vmax] = k_top
    k[x64 == vmin] = 0
    xhat = _reconstruct(k, vmin, vmax, w, arr.dtype)
    # canonical index for anything that lands on an endpoint after rounding
    k[xhat == x.dtype.type(vmax)] = k_top
    k[xhat == x.dtype.type(vmin)] = 0
    err = xhat.astype(np.float64, copy=False)
    err -= x64
    np.abs(err, out=err)
    exc_idx = np.flatnonzero(err > eb_rel * r)
    bits = max(1, int(k.max()).bit_length())
    le = _TAG_TO_DTYPE[_DTYPE_TO_TAG[arr.dtype]]  # little-endian twin of arr.dtype
    exc = b""
    if len(exc_idx):
        exc = exc_idx.astype(">u4").tobytes() + x[exc_idx].astype(le, copy=False).tobytes()
    header = struct.pack(_QZ_HEADER, 0, vmin, vmax, w, bits, len(exc_idx))
    return header + exc + _pack_indices(k, bits)


def _qz_decode(block: bytes, shape: tuple, tag: int) -> np.ndarray:
    count = math.prod(shape)
    le = _TAG_TO_DTYPE[tag]
    dtype = le.newbyteorder("=")
    if len(block) < 9:
        raise CorruptBlob("qz block shorter than its header")
    flags = block[0]
    if flags == _QZ_CONSTANT:
        if len(block) != 9:
            raise CorruptBlob("constant qz block has trailing bytes")
        (vmin,) = struct.unpack(">d", block[1:9])
        return np.full(shape, vmin, dtype=dtype)
    if flags != 0:
        raise CorruptBlob(f"unknown qz flags {flags}")
    if len(block) < _QZ_HEADER_SIZE:
        raise CorruptBlob("qz block shorter than its header")
    _, vmin, vmax, w, bits, n_exc = struct.unpack(_QZ_HEADER, block[:_QZ_HEADER_SIZE])
    if not 0 < bits <= 64 or not np.isfinite(w) or w <= 0 or not vmin < vmax:
        raise CorruptBlob("qz block has inconsistent bins")
    pos = _QZ_HEADER_SIZE
    exc_bytes = n_exc * (4 + le.itemsize)
    if len(block) < pos + exc_bytes:
        raise CorruptBlob("qz exception list truncated")
    exc_idx = np.frombuffer(block[pos : pos + 4 * n_exc], dtype=">u4").astype(np.int64)
    pos += 4 * n_exc
    exc_val = np.frombuffer(block[pos : pos + le.itemsize * n_exc], dtype=le).astype(dtype)
    pos += le.itemsize * n_exc
    k = _unpack_indices(block[pos:], count, bits)
    out = _reconstruct(k.reshape(shape), vmin, vmax, w, dtype)
    if n_exc:
        if exc_idx.max(initial=-1) >= count:
            raise CorruptBlob("qz exception index out of range")
        np.put(out, exc_idx, exc_val)
    return out


# ---------------------------------------------------------------------------
# container


def compress_params(p: ParameterSet, cfg: CodecConfig) -> bytes:
    """Encode a parameter set into a self-describing compressed blob."""
    chunks = [struct.pack(">I", len(p))]
    for name, arr in p:
        if not np.isfinite(arr).all():
            raise NonFiniteValue(f"tensor {name!r} contains NaN or Inf")
        raw_name = name.encode("utf-8")
        tag = _DTYPE_TO_TAG[arr.dtype]
        scheme = SCHEME_LOSSLESS if cfg.lossless != "none" else SCHEME_RAW
        codec = cfg.lossless
        payload = None
        if cfg.lossy != "none" and arr.size >= cfg.small_tensor_threshold:
            block = _qz_encode(arr, cfg.eb_rel)
            if block is not None:
                scheme = SCHEME_LOSSY_QZ
                payload = _lossless_encode(codec, block)
        if payload is None:
            body = arr.astype(_TAG_TO_DTYPE[tag], copy=False).tobytes(order="C")
            payload = _lossless_encode(codec, body)
        head = struct.pack(">H", len(raw_name)) + raw_name
        head += struct.pack(">BBB", scheme, tag, arr.ndim)
        head += b"".join(struct.pack(">I", d) for d in arr.shape)
        head += struct.pack(">BII", _CODEC_IDS[codec], len(payload), zlib.crc32(payload))
        chunks.append(head + payload)
    return b"".join(chunks)


class _BlobReader:
    """Cursor over a blob; ``take`` returns zero-copy memoryview slices."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf):
        self.buf = memoryview(buf).cast("B")
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CorruptBlob(f"blob truncated at offset {self.pos}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def decompress_params(blob: bytes) -> ParameterSet:
    """Decode a blob produced by :func:`compress_params`."""
    r = _BlobReader(blob)
    (count,) = r.unpack(">I")
    entries = []
    for _ in range(count):
        (name_len,) = r.unpack(">H")
        name = str(r.take(name_len), "utf-8")
        scheme, tag, ndim = r.unpack(">BBB")
        if tag not in _TAG_TO_DTYPE:
            raise CorruptBlob(f"bad dtype tag {tag} in entry {name!r}")
        shape = tuple(r.unpack(">I")[0] for _ in range(ndim))
        codec_id, payload_len, crc = r.unpack(">BII")
        payload = r.take(payload_len)
        if zlib.crc32(payload) != crc:
            raise ChecksumMismatch(f"entry {name!r}: stored crc does not match payload")
        dt = _TAG_TO_DTYPE[tag]
        n_elem = math.prod(shape)
        # each branch ends in one fresh array that the result adopts
        if scheme in (SCHEME_RAW, SCHEME_LOSSLESS):
            body = _lossless_decode(codec_id, payload)
            if len(body) != n_elem * dt.itemsize:
                raise CorruptBlob(f"entry {name!r}: element bytes disagree with shape")
            arr = np.frombuffer(body, dtype=dt).reshape(shape).astype(dt.newbyteorder("="))
        elif scheme == SCHEME_LOSSY_QZ:
            block = _lossless_decode(codec_id, payload)
            arr = _qz_decode(block, shape, tag)
        else:
            raise CorruptBlob(f"unknown scheme {scheme} in entry {name!r}")
        entries.append((name, arr))
    if r.pos != len(r.buf):
        raise CorruptBlob(f"{len(r.buf) - r.pos} trailing bytes after last entry")
    return ParameterSet._adopt(entries)


def compression_ratio(p: ParameterSet, cfg: CodecConfig) -> float:
    """Uncompressed serialized size divided by blob size."""
    return len(serialize_params(p)) / len(compress_params(p, cfg))
