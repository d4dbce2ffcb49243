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
bytes a pass over the whole tensor would.

The ``deflate`` stage is zlib at level 6, run per entry only where it pays:
a payload of up to ``_DEFLATE_WHOLE`` bytes (256 KiB) is deflated whole and
kept only if that made it shorter.  A larger one is first judged by a sample
of ``_SAMPLE_WINDOWS`` windows of ``_SAMPLE_WINDOW`` bytes (four of 16 KiB),
spread evenly over it: if deflate shrinks the sample by less than
``1/_MIN_GAIN_DIVISOR`` (1/32), the payload is stored as it is.  Otherwise
it is deflated whole and again kept only if shorter.  An entry stored as it
is carries lossless codec id 0 (``none``), and on the lossless path scheme 0
(raw), so no payload is ever longer than its input.  The qz indices of
weights at or near a uniform init are near-uniform, and are stored;
row-constant tensors, sparse deltas and Gaussian weights at the default
bound still deflate, to the same bytes as before.  The codec id was always
per entry, so decoders need no change and every earlier blob still decodes.
``rle`` is unchanged: it runs on every entry, and its blobs keep their bytes.

Decoding caps how far a payload may inflate at the largest body its declared
shape allows, so a short payload cannot make the decoder allocate more than
the entry it claims to be.

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
    ShapeMismatch,
    UnknownStrategyName,
)
from .params import ParameterSet, serialized_size, _layout, _name_header, _utf8, _U16, _U32
from .params import _TAG_TO_DTYPE, _DTYPE_TO_TAG
from .params import serialize_params  # noqa: F401  (perfbench/tracer.py wraps it on this module)

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


def _rle_decode(data, cap: int | None = None) -> bytes:
    """Expand (count, byte) pairs; more than ``cap`` bytes is corrupt."""
    pairs = np.frombuffer(data, dtype=np.uint8)
    if pairs.size % 2:
        raise CorruptBlob("rle payload has odd length")
    pairs = pairs.reshape(-1, 2)
    if cap is not None and int(pairs[:, 0].sum(dtype=np.int64)) > cap:
        raise CorruptBlob(f"rle payload expands past {cap} bytes")
    return np.repeat(pairs[:, 1], pairs[:, 0]).tobytes()


# Level 6 was kept over level 1 and Huffman-only after measuring them on qz
# blocks: Huffman-only leaves a row-constant tensor a hundred times larger.
_DEFLATE_LEVEL = 6
# Payloads up to this size are deflated whole to decide: a sample would be a
# quarter or more of them, so it could save at most three quarters of the
# deflate that settles the question exactly.
_DEFLATE_WHOLE = 256 << 10
# A larger payload is judged from this many windows of this many bytes, spread
# evenly over it and concatenated. A 16 KiB window holds tens of thousands of
# qz indices, enough for deflate's Huffman coding to show what it saves, and
# four of them see the start, the end and two points between of a tensor
# whose rows may differ along its length. The sample is about a tenth of a
# 784x1024 weight's qz block, so a stored entry costs a tenth of a deflate.
_SAMPLE_WINDOW = 16 << 10
_SAMPLE_WINDOWS = 4
# The sample must shrink by at least 1/32 for the whole payload to be tried.
# Near-uniform qz indices (weights at or near a uniform init) shrink by about
# 1-3%, and payloads that deflate pays on (repeats, zeros, Gaussian indices)
# by 10% and more. An entry near the line loses or gains under 3% either way.
_MIN_GAIN_DIVISOR = 32


def _deflate_if_smaller(data: bytes) -> bytes | None:
    """The level-6 deflate of ``data`` if it is shorter than ``data``, else None."""
    n = len(data)
    if n <= _DEFLATE_WHOLE:
        packed = zlib.compress(data, _DEFLATE_LEVEL)
        return packed if len(packed) < n else None
    # The first window opens both the sample's stream and the whole one, and
    # the sample goes on from a copy of that compressor: deflate's output does
    # not depend on how its input is split, so each stream has the bytes of a
    # one-shot ``zlib.compress`` while the first window is deflated once.
    view = memoryview(data)
    whole = zlib.compressobj(_DEFLATE_LEVEL)
    head = whole.compress(view[:_SAMPLE_WINDOW])
    sample = whole.copy()
    step = (n - _SAMPLE_WINDOW) // (_SAMPLE_WINDOWS - 1)
    rest = b"".join(view[i * step : i * step + _SAMPLE_WINDOW] for i in range(1, _SAMPLE_WINDOWS))
    sample_in = _SAMPLE_WINDOWS * _SAMPLE_WINDOW
    saved = sample_in - len(head) - len(sample.compress(rest)) - len(sample.flush())
    if saved * _MIN_GAIN_DIVISOR < sample_in:
        return None
    packed = b"".join((head, whole.compress(view[_SAMPLE_WINDOW:]), whole.flush()))
    return packed if len(packed) < n else None


def _inflate(data, cap: int) -> bytes:
    """Inflate one whole deflate stream of at most ``cap`` bytes."""
    d = zlib.decompressobj()
    try:
        out = d.decompress(data, cap + 1)
    except zlib.error as exc:
        raise CorruptBlob(f"deflate payload: {exc}") from None
    if len(out) > cap:
        raise CorruptBlob(f"deflate payload inflates past {cap} bytes")
    if not d.eof:
        raise CorruptBlob("deflate payload is truncated")
    if d.unused_data:
        raise CorruptBlob(f"{len(d.unused_data)} bytes after the end of the deflate stream")
    return out


def _lossless_decode(codec_id: int, data, cap: int) -> bytes:
    """Undo lossless codec ``codec_id``; a body over ``cap`` bytes is corrupt."""
    if codec_id not in _CODEC_NAMES:
        raise CorruptBlob(f"unknown lossless codec id {codec_id}")
    codec = _CODEC_NAMES[codec_id]
    if codec == "none":
        return data
    if codec == "rle":
        return _rle_decode(data, cap)
    return _inflate(data, cap)


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
    in place gives the same bits as ``min + k*w``.  Indices are not negative,
    so ``k*w >= 0`` and only the upper bound of the clip can bind."""
    recon = out if out.dtype == np.float64 else np.empty(out.shape, dtype=np.float64)
    np.multiply(k, w, out=recon, dtype=np.float64)
    recon += vmin
    np.minimum(recon, vmax, out=recon)
    if recon is not out:
        out[...] = recon
    return out


_QZ_CONSTANT = 1


_QZ_HEADER = ">BdddBI"  # flags, min, max, bin width, bits per index, exception count
_QZ_HEADER_SIZE = struct.calcsize(_QZ_HEADER)


def _qz_encode(arr: np.ndarray, eb_rel: float):
    """Quantize one tensor; returns the qz block, or None when the dtype grid
    is too coarse for the requested bound and the tensor must stay lossless,
    or when an extremum is NaN or Inf (both reductions propagate NaN, so that
    is exactly when the tensor holds one).

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
    if not (np.isfinite(vmin) and np.isfinite(vmax)):
        return None
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
    # The reconstruction of index k, rounded to the dtype, is monotone in k,
    # and it is max from k_hi up, the least such index, found by bisection.
    # Every index from k_hi up is written as the canonical k_top.  Only index
    # 0 lands on min: a dtype step is at most w/4 (checked above), so index 1
    # lands at least 7w/8 above it.
    top_d = dtype.type(vmax)
    lo, k_hi = 0, k_top
    while lo < k_hi:
        mid = (lo + k_hi) // 2
        if dtype.type(min(mid * w + vmin, vmax)) == top_d:
            k_hi = mid
        else:
            lo = mid + 1
    # an element equal to max rounds to rint(r / w), which may reconstruct
    # below it: give max itself index k_top, which reconstructs to it exactly
    fix_max = np.rint(r / w) < k_hi
    k = np.empty(x.size, dtype=_index_dtype(k_top.bit_length()))
    kbuf = np.empty(min(x.size, _QZ_BLOCK))
    xhat_buf = np.empty(kbuf.size, dtype)
    exc_idx = []
    for s in range(0, x.size, _QZ_BLOCK):
        xb = x[s : s + _QZ_BLOCK]
        xb64 = xb.astype(np.float64, copy=False)
        # indices as float64 whole numbers, read exactly later: x lies in
        # [vmin, vmax] and rounding is monotone, so they lie in [0, ceil(r/w)]
        kb = np.subtract(xb64, vmin, out=kbuf[: xb.size])
        kb /= w
        np.rint(kb, out=kb)
        if fix_max:
            kb[xb64 == vmax] = k_top
        xhat = _reconstruct_into(xhat_buf[: xb.size], kb, vmin, vmax, w)
        kn = k[s : s + _QZ_BLOCK]
        kn[...] = kb
        kn[kn >= k_hi] = k_top
        err = np.subtract(xhat, xb64, out=kb)  # in float64, as xhat's float64 twin
        np.abs(err, out=err)
        far = err > bound
        if far.any():
            exc_idx.append(np.flatnonzero(far) + s)
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
        tag = _DTYPE_TO_TAG[arr.dtype]
        body = None
        if cfg.lossy != "none" and arr.size >= cfg.small_tensor_threshold:
            body = _qz_encode(arr, cfg.eb_rel)  # a qz block implies finite extrema
        scheme = SCHEME_LOSSY_QZ
        if body is None:
            if not np.isfinite(arr).all():
                raise NonFiniteValue(f"tensor {name!r} contains NaN or Inf")
            scheme = SCHEME_LOSSLESS
            body = arr.astype(_TAG_TO_DTYPE[tag], copy=False).tobytes(order="C")
        codec, payload = cfg.lossless, body
        if codec == "rle":
            payload = _rle_encode(body)
        elif codec == "deflate":
            payload = _deflate_if_smaller(body)
            if payload is None:
                codec, payload = "none", body
        if codec == "none" and scheme == SCHEME_LOSSLESS:
            scheme = SCHEME_RAW
        head = _name_header(name) + struct.pack(">BBB", scheme, tag, arr.ndim)
        head += b"".join(struct.pack(">I", d) for d in arr.shape)
        head += struct.pack(">BII", _CODEC_IDS[codec], len(payload), zlib.crc32(payload))
        chunks += (head, payload)
    return b"".join(chunks)


def decompress_params(blob: bytes, expect: ParameterSet | None = None) -> ParameterSet:
    """Decode a blob produced by :func:`compress_params`.

    The entry headers are read first, to size one buffer per dtype.  Given
    ``expect`` (a set of the model's structure), a blob whose tensor names,
    dtypes or shapes differ from that set's raises :class:`ShapeMismatch`
    right after the headers, before any payload is inflated.  Then each
    entry is decoded straight into its slice of its dtype's buffer.  A buffer
    is allocated once the first payload of its dtype is inflated, so
    inflating that payload never holds the buffer too.  No payload inflates
    past the largest body its entry's shape allows.
    """
    view = memoryview(blob).cast("B")
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(view) - pos:
            raise CorruptBlob(f"blob truncated: need {n} bytes, only {len(view) - pos} left")
        pos += n
        return view[pos - n : pos]

    key, entries = [], []
    (count,) = _U32.unpack(take(4))
    for _ in range(count):
        (name_len,) = _U16.unpack(take(2))
        name = _utf8(take(name_len), CorruptBlob)
        scheme, tag, ndim = take(3)
        if tag not in _TAG_TO_DTYPE:
            raise CorruptBlob(f"bad dtype tag {tag} in entry {name!r}")
        if scheme not in (SCHEME_RAW, SCHEME_LOSSLESS, SCHEME_LOSSY_QZ):
            raise CorruptBlob(f"unknown scheme {scheme} in entry {name!r}")
        shape = struct.unpack(f">{ndim}I", take(4 * ndim))
        codec_id, payload_len, crc = struct.unpack(">BII", take(9))
        payload = take(payload_len)
        if zlib.crc32(payload) != crc:
            raise ChecksumMismatch(f"entry {name!r}: stored crc does not match payload")
        key.append((name, _TAG_TO_DTYPE[tag].newbyteorder("="), shape))
        entries.append((name, scheme, tag, codec_id, payload))
    if pos < len(view):
        raise CorruptBlob(f"{len(view) - pos} trailing bytes after last entry")
    if expect is not None and tuple(key) != expect._layout.key:
        raise ShapeMismatch("blob's tensor names, shapes or dtypes differ from the model's")
    layout = _layout(tuple(key))
    bufs = [None] * len(layout.dtypes)
    for (name, scheme, tag, codec_id, payload), (j, lo, hi, _) in zip(entries, layout.spans):
        count, itemsize = hi - lo, _TAG_TO_DTYPE[tag].itemsize
        if scheme == SCHEME_LOSSY_QZ:
            # header, an exception (u32 index and value) per element, 64-bit indices
            cap = _QZ_HEADER_SIZE + count * (4 + itemsize) + 8 * count
        else:
            cap = count * itemsize
        body = _lossless_decode(codec_id, payload, cap)
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
    return serialized_size(p) / len(compress_params(p, cfg))
