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
set reproduces the blob byte for byte).  A qz block is exactly its header,
its exception list and its index stream; any other length is corrupt.

Encode and decode walk a tensor in fixed blocks of ``_QZ_BLOCK`` elements,
so their float64 temporaries stay in cache and transient memory is
O(block), not O(tensor).  Every step is elementwise, so the blocks give the
bytes a pass over the whole tensor would.  The ``deflate`` stage is zlib at
level 6.

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

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChecksumMismatch,
    CorruptBlob,
    NonFiniteValue,
    Truncated,
    UnknownStrategyName,
)
from .params import ByteStream, ParameterSet, serialize_params, _layout, _utf8, _TAG_TO_DTYPE, _DTYPE_TO_TAG

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


# Elements per block of the qz kernels. A block's float64 temporaries stay in
# cache, and no temporary outgrows a block. It is a multiple of 8, so each
# block's indices start on a byte of the index stream.
_QZ_BLOCK = 1 << 15

# Indices of up to 8 bits are packed 8 to a big-endian u64 word, one index per
# byte lane.  Each step folds the high half of every 2*unit-bit field down onto
# its low half; after the 8-, 16- and 32-bit steps the word holds the 8
# indices' ``8*bits``-bit stream, right-aligned.  Each mask picks the high
# halves.
_WORD_STEPS = tuple(
    (unit, np.uint64(sum(((1 << unit) - 1) << (2 * unit * j + unit) for j in range(32 // unit))))
    for unit in (8, 16, 32)
)


def _pack_bitplanes(kk: np.ndarray, bits: int) -> bytes:
    # bit j of row i is bit (bits-1-j) of kk[i]: value-major, MSB first
    m = np.empty((kk.size, bits), dtype=np.uint8)
    for j in range(bits):
        plane = m[:, j]
        np.right_shift(kk, bits - 1 - j, out=plane, casting="unsafe")
        np.bitwise_and(plane, 1, out=plane)
    return np.packbits(m).tobytes()


def _pack_indices(k: np.ndarray, bits: int) -> bytes:
    kk = k.astype(_index_dtype(bits), copy=False)
    if bits > 8:
        return b"".join(
            _pack_bitplanes(kk[i : i + _QZ_BLOCK], bits) for i in range(0, kk.size, _QZ_BLOCK)
        )
    # 8 indices of ``bits`` bits fill exactly ``bits`` bytes
    count = kk.size
    full = count - count % 8
    words = np.empty(-(-count // 8), dtype=np.uint64)
    words[: full // 8] = np.ascontiguousarray(kk[:full]).view(">u8")
    if full < count:
        last = np.zeros(8, dtype=np.uint8)
        last[: count - full] = kk[full:]
        words[-1] = last.view(">u8")[0]
    hi = np.empty_like(words)
    for unit, hi_mask in _WORD_STEPS:
        np.bitwise_and(words, hi_mask, out=hi)
        words ^= hi
        hi >>= np.uint64(unit * (8 - bits) // 8)
        words |= hi
    del hi
    # each word's last ``bits`` bytes, big-endian, are its share of the stream
    packed = words.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - bits :].tobytes()
    need = -(-count * bits // 8)
    return packed if len(packed) == need else packed[:need]


def _unpack_indices(buf, count: int, bits: int) -> np.ndarray:
    need = -(-count * bits // 8)
    raw = np.frombuffer(buf, dtype=np.uint8)
    if raw.size < need:
        raise CorruptBlob("packed index stream shorter than declared element count")
    if bits > 8:
        m = np.unpackbits(raw, count=count * bits).reshape(count, bits)
        k = np.zeros(count, dtype=_index_dtype(bits))
        for j in range(bits):
            k <<= 1
            k |= m[:, j]
        return k
    # each group's ``bits`` bytes, right-aligned in a big-endian u64 word,
    # unfold into one index per byte lane: the packing steps in reverse
    full = count // 8
    grouped = np.zeros((-(-count // 8), 8), dtype=np.uint8)
    grouped[:full, 8 - bits :] = raw[: full * bits].reshape(full, bits)
    rest = raw[full * bits : need]
    grouped[full:, 8 - bits : 8 - bits + rest.size] = rest
    words = grouped.reshape(-1).view(">u8").astype(np.uint64)
    del grouped
    hi = np.empty_like(words)
    for unit, hi_mask in reversed(_WORD_STEPS):
        shift = np.uint64(unit * (8 - bits) // 8)
        np.left_shift(words, shift, out=hi)
        hi &= hi_mask
        words &= ~(hi_mask >> shift)
        words |= hi
    del hi
    return words.astype(">u8").view(np.uint8)[:count]


def _reconstruct_into(out: np.ndarray, k: np.ndarray, vmin: float, vmax: float, w: float) -> np.ndarray:
    """Write ``clip(min + k*w, min, max)``, computed in float64, into ``out``
    and return ``out``.  Addition commutes in IEEE arithmetic, so adding min
    in place gives the same bits as ``min + k*w``."""
    recon = out if out.dtype == np.float64 else np.empty(out.shape, dtype=np.float64)
    np.multiply(k, w, out=recon, dtype=np.float64)
    recon += vmin
    np.clip(recon, vmin, vmax, out=recon)
    if recon is not out:
        out[...] = recon
    return out


_QZ_CONSTANT = 1


_QZ_HEADER = ">BdddBI"  # flags, min, max, bin width, bits per index, exception count
_QZ_HEADER_SIZE = struct.calcsize(_QZ_HEADER)


def _qz_encode(arr: np.ndarray, eb_rel: float):
    """Quantize one tensor; returns the qz block, or None when the dtype grid
    is too coarse for the requested bound and the tensor must stay lossless.

    The tensor is walked in blocks of ``_QZ_BLOCK`` elements.  Every step is
    elementwise, so each block's indices and exceptions are the ones a pass
    over the whole tensor would give."""
    x = arr.ravel()
    dtype = x.dtype
    # extrema of the dtype's values equal those of their float64 twins, up
    # to the sign of a zero, which the two reductions may pick differently
    vmin = float(x.min())
    vmax = float(x.max())
    if dtype != np.float64 and (vmin == 0.0 or vmax == 0.0):
        x64 = x.astype(np.float64)
        vmin = float(x64.min())
        vmax = float(x64.max())
        del x64
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
    if float(np.spacing(dtype.type(max(abs(vmin), abs(vmax))))) > w / 4.0:
        return None
    k_top = int(np.ceil(r / w)) + 2
    bound = eb_rel * r
    top_d, bottom_d = dtype.type(vmax), dtype.type(vmin)
    k = np.empty(x.size, dtype=_index_dtype(k_top.bit_length()))
    exc_idx = []
    for s in range(0, x.size, _QZ_BLOCK):
        xb = x[s : s + _QZ_BLOCK]
        xb64 = xb.astype(np.float64, copy=False)
        # indices as float64 whole numbers in [0, k_top], read exactly later
        kb = np.subtract(xb64, vmin)
        kb /= w
        np.rint(kb, out=kb)
        np.clip(kb, 0, k_top, out=kb)
        kb[xb64 == vmax] = k_top
        kb[xb64 == vmin] = 0
        xhat = _reconstruct_into(np.empty(xb.size, dtype), kb, vmin, vmax, w)
        kn = k[s : s + _QZ_BLOCK]
        kn[...] = kb
        # canonical index for anything that lands on an endpoint after rounding
        kn[xhat == top_d] = k_top
        kn[xhat == bottom_d] = 0
        err = xhat.astype(np.float64, copy=False)
        err -= xb64
        np.abs(err, out=err)
        far = np.flatnonzero(err > bound)
        if far.size:
            exc_idx.append(far + s)
    exc_idx = np.concatenate(exc_idx) if exc_idx else np.zeros(0, dtype=np.intp)
    bits = max(1, int(k.max()).bit_length())
    le = _TAG_TO_DTYPE[_DTYPE_TO_TAG[arr.dtype]]  # little-endian twin of arr.dtype
    exc = b""
    if len(exc_idx):
        exc = exc_idx.astype(">u4").tobytes() + x[exc_idx].astype(le, copy=False).tobytes()
    header = struct.pack(_QZ_HEADER, 0, vmin, vmax, w, bits, len(exc_idx))
    return header + exc + _pack_indices(k, bits)


def _qz_decode(block: bytes, tag: int, out: np.ndarray) -> None:
    """Decode a qz block of dtype tag ``tag`` into ``out``, a C-contiguous native array."""
    count = out.size
    le = _TAG_TO_DTYPE[tag]
    if len(block) < 9:
        raise CorruptBlob("qz block shorter than its header")
    flags = block[0]
    if flags == _QZ_CONSTANT:
        if len(block) != 9:
            raise CorruptBlob("constant qz block has trailing bytes")
        (vmin,) = struct.unpack(">d", block[1:9])
        out[...] = vmin
        return
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
    if len(block) != pos + exc_bytes + -(-count * bits // 8):
        raise CorruptBlob("qz index stream length disagrees with element count")
    exc_idx = np.frombuffer(block[pos : pos + 4 * n_exc], dtype=">u4").astype(np.int64)
    pos += 4 * n_exc
    exc_val = np.frombuffer(block[pos : pos + le.itemsize * n_exc], dtype=le).astype(out.dtype)
    pos += le.itemsize * n_exc
    stream = memoryview(block)[pos:]
    flat = out.reshape(-1)
    for s in range(0, count, _QZ_BLOCK):
        n = min(_QZ_BLOCK, count - s)
        kb = _unpack_indices(stream[s * bits // 8 : -(-(s + n) * bits // 8)], n, bits)
        _reconstruct_into(flat[s : s + n], kb, vmin, vmax, w)
    if n_exc:
        if exc_idx.max(initial=-1) >= count:
            raise CorruptBlob("qz exception index out of range")
        np.put(out, exc_idx, exc_val)


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


def decompress_params(blob: bytes) -> ParameterSet:
    """Decode a blob produced by :func:`compress_params`.

    The entry headers are read first, to size one buffer per dtype; then
    each entry is decoded straight into its slice of its dtype's buffer.  A
    buffer is allocated once the first payload of its dtype is inflated, so
    inflating that payload never holds the buffer too.
    """
    r = ByteStream.over(blob)
    key, entries = [], []
    try:
        (count,) = r.unpack(">I")
        for _ in range(count):
            (name_len,) = r.unpack(">H")
            name = _utf8(r.read(name_len), CorruptBlob)
            scheme, tag, ndim = r.unpack(">BBB")
            if tag not in _TAG_TO_DTYPE:
                raise CorruptBlob(f"bad dtype tag {tag} in entry {name!r}")
            if scheme not in (SCHEME_RAW, SCHEME_LOSSLESS, SCHEME_LOSSY_QZ):
                raise CorruptBlob(f"unknown scheme {scheme} in entry {name!r}")
            shape = r.unpack(f">{ndim}I")
            codec_id, payload_len, crc = r.unpack(">BII")
            payload = r.read(payload_len)
            if zlib.crc32(payload) != crc:
                raise ChecksumMismatch(f"entry {name!r}: stored crc does not match payload")
            key.append((name, _TAG_TO_DTYPE[tag].newbyteorder("="), shape))
            entries.append((name, scheme, tag, codec_id, payload))
    except Truncated as e:
        raise CorruptBlob(f"blob truncated: {e}") from None
    if r.left:
        raise CorruptBlob(f"{r.left} trailing bytes after last entry")
    layout = _layout(tuple(key))
    bufs = [None] * len(layout.dtypes)
    for (name, scheme, tag, codec_id, payload), (j, lo, hi, _) in zip(entries, layout.spans):
        body = _lossless_decode(codec_id, payload)
        if bufs[j] is None:
            bufs[j] = np.empty(layout.sizes[j], dtype=layout.dtypes[j])
        out = bufs[j][lo:hi]
        if scheme == SCHEME_LOSSY_QZ:
            _qz_decode(body, tag, out)
        elif len(body) != out.nbytes:
            raise CorruptBlob(f"entry {name!r}: element bytes disagree with shape")
        else:
            out[...] = np.frombuffer(body, dtype=_TAG_TO_DTYPE[tag])
    return ParameterSet._wrap(layout, bufs)


def compression_ratio(p: ParameterSet, cfg: CodecConfig) -> float:
    """Uncompressed serialized size divided by blob size."""
    return len(serialize_params(p)) / len(compress_params(p, cfg))
