"""Named tensor collections: the unit of exchange between clients and servers.

A :class:`ParameterSet` is an ordered, immutable mapping from tensor names
(``"W0"``, ``"b0"``, ...) to numpy arrays of dtype float32 or float64.  All
model state, updates, and aggregation results in this package are parameter
sets, so the arithmetic and the byte-level codec live here.

Wire format (big-endian lengths, little-endian element bytes)::

    u32  entry count
    per entry:
        u16  name length in bytes
        ...  name (UTF-8)
        u8   dtype tag (0 = float32, 1 = float64)
        u8   ndim
        u32  dim_0 ... dim_{ndim-1}
        ...  raw elements, row-major, little-endian

The same byte layout is used for ``.apfm`` checkpoint files.

Representation: a set is one flat buffer per dtype, in order of first
appearance of the dtype, and one view of it per name; a dtype's tensors lie
back to back in its buffer in entry order.  That placement is the set's
layout, built once per structure and shared by the sets of that structure,
so a structure check is mostly an identity test.  The views by name are made
when a tensor is first read by name.  Whole-model operations (sums,
norms, clipping, noise, optimizer and aggregation steps) run once per
buffer.  A :class:`FlatStack` holds ``k`` models of one layout as the rows
of one (k, n) buffer per dtype, and its row ``i`` is a set.  A
:class:`DeferredSet` knows its layout at once and gets its buffers when they
are first read, and that read takes them.

Ownership: a set owns its buffers, and no set is ever mutated after it is
returned.  The public constructor and :meth:`ParameterSet.map` copy their
inputs into fresh buffers, because those arrays belong to the caller.
Buffers that fedkit fills itself (trained rows, optimizer steps, deltas,
aggregates, decoded payloads) are wrapped and frozen in place rather than
copied again.  Serialized bytes follow the same rule, so a transfer copies
each tensor once, on receive.  :func:`serialize_pieces` hands out byte views
of a set's own read-only tensors, so a body is hashed, staged or sent
without a copy; :func:`serialize_params` joins those views for callers that
need one bytes object.  A layout builds its structure's headers once
(:class:`_Wire`).  :func:`deserialize_params` has one reader: it walks a
body's entry headers by offset, which gives the body's layout, and then
reads each tensor's bytes from its offset straight into its slice of a
fresh buffer sized from the layout.  The body is a buffer, or a
:class:`FileBody` that hands the bytes to a hasher as they land.

Memory: importing this module caps glibc's malloc at one arena, so that a
model-sized block freed on one thread is reused on every other; see
:func:`_one_malloc_arena`.
"""
from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    BadDtypeTag,
    BadName,
    LengthMismatch,
    NameTooLong,
    ShapeMismatch,
    TrailingBytes,
    Truncated,
)

_M_ARENA_MAX = -8  # glibc's mallopt parameter for the most malloc arenas


def _one_malloc_arena() -> None:
    """Cap glibc's malloc at one arena for the whole process.

    fedkit hands model-sized buffers from thread to thread: a reply is
    deserialized on a client thread, an update is decoded on a server
    connection thread, and a cohort trains on ``fedkit-train`` workers.  By
    default glibc gives each thread its own arena, and each arena keeps the
    model-sized blocks it freed for that thread alone, so the process holds
    several models' worth of freed memory that the others cannot reuse.  With
    one arena, every thread reuses every freed block: a ``run_local`` over
    loopback peaks near 190 MB instead of 280-300 MB.

    Runs once, when this module is imported, which every entry point does
    before it starts a thread.  Does nothing where the C library has no
    ``mallopt`` (it is not glibc), or where ``MALLOC_ARENA_MAX`` or a
    ``glibc.malloc.arena_max`` tunable is set: that is glibc's own setting,
    and the user's choice wins.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if "MALLOC_ARENA_MAX" in os.environ or "malloc.arena_max" in tunables:
        return
    import ctypes  # numpy has imported it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no dlopen(NULL)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


_one_malloc_arena()

_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

MAX_NAME_BYTES = 0xFFFF
CHECKPOINT_SUFFIX = ".apfm"


def _stored_dtype(name, dt: np.dtype) -> np.dtype:
    """The dtype a tensor of dtype ``dt`` is stored in: float32 or float64."""
    if dt in _DTYPE_TO_TAG:
        return dt
    # everything else (ints, bools, f16) is promoted; complex is rejected
    if np.issubdtype(dt, np.complexfloating):
        raise ShapeMismatch(f"tensor {name!r}: complex dtype not supported")
    return np.dtype(np.float64)


class _Layout:
    """Where each tensor of one structure lies in the flat buffers of a set.

    ``key`` is the structure, ``(name, dtype, shape)`` per entry.  There is
    one buffer per dtype, in order of first appearance of the dtype, and a
    dtype's tensors lie back to back in its buffer in entry order: entry
    ``e`` is ``bufs[j][lo:hi]`` for ``(j, lo, hi, shape) = spans[e]``.
    """

    __slots__ = ("key", "names", "index", "dtypes", "sizes", "spans", "_wire")

    def __init__(self, key: tuple):
        self.key = key
        self._wire = None
        self.names = tuple(name for name, _, _ in key)
        self.index: dict[str, int] = {}
        sizes: dict[np.dtype, int] = {}
        spans = []
        for e, (name, dt, shape) in enumerate(key):
            if name in self.index:
                raise ShapeMismatch(f"duplicate tensor name {name!r}")
            self.index[name] = e
            lo = sizes.setdefault(dt, 0)
            sizes[dt] = hi = lo + math.prod(shape)
            spans.append((list(sizes).index(dt), lo, hi, shape))
        self.dtypes = tuple(sizes)
        self.sizes = tuple(sizes.values())
        self.spans = tuple(spans)

    def empty(self, rows: tuple = ()) -> list:
        """Uninitialised buffers, each of shape ``(*rows, size)``."""
        return [np.empty((*rows, n), dtype=dt) for dt, n in zip(self.dtypes, self.sizes)]

    def views(self, bufs) -> tuple:
        """Per entry, its view of ``bufs``; leading axes (a stack's rows) are kept."""
        rows = bufs[0].shape[:-1] if bufs else ()
        return tuple([bufs[j][..., lo:hi].reshape(rows + shape) for j, lo, hi, shape in self.spans])

    def wire(self) -> "_Wire":
        """The fixed parts of this structure's serialized bytes, built on first use."""
        if self._wire is None:
            self._wire = _Wire(self)
        return self._wire


@functools.lru_cache(maxsize=256)
def _layout(key: tuple) -> _Layout:
    """The layout of structure ``key``, built once and shared by every set of that structure."""
    return _Layout(key)


def _filled(layout: _Layout, arrays) -> list:
    """Fresh buffers of ``layout`` holding a copy of ``arrays``, one per entry."""
    bufs = layout.empty()
    for view, arr in zip(layout.views(bufs), arrays):
        view[...] = arr
    return bufs


class ParameterSet:
    """Ordered, immutable collection of named float tensors.

    >>> p = ParameterSet([("w", np.zeros(3, dtype=np.float32))])
    >>> p.param_count
    3
    >>> len(serialize_params(p))
    25
    """

    __slots__ = ("_layout", "_bufs", "_views")

    def __init__(self, entries):
        if isinstance(entries, Mapping):
            entries = entries.items()
        key, arrays = [], []
        for name, value in entries:
            if not isinstance(name, str):
                raise ShapeMismatch(f"tensor name must be str, got {type(name).__name__}")
            arr = np.asarray(value)
            key.append((name, _stored_dtype(name, arr.dtype), arr.shape))
            arrays.append(arr)
        layout = _layout(tuple(key))
        self._own(layout, _filled(layout, arrays))

    @classmethod
    def _wrap(cls, layout: _Layout, bufs) -> "ParameterSet":
        """A set over ``bufs``, one flat buffer per dtype of ``layout``, without a copy.

        The buffers must be ones fedkit just made and shares with nobody.
        Each is frozen in place, but a buffer that is a view (a row of a
        :class:`FlatStack`) keeps a writeable base, so the builder of the set
        may still finish it in place before handing it out (see
        ``client._transmitted``).
        """
        p = cls.__new__(cls)
        p._own(layout, bufs)
        return p

    def _own(self, layout: _Layout, bufs) -> None:
        for buf in bufs:
            buf.setflags(write=False)
        self._layout = layout
        self._bufs = tuple(bufs)
        self._views = None

    def _tensors(self) -> tuple:
        """Per entry, its view of the buffers, made when a tensor is first read by name."""
        if self._views is None:
            self._views = self._layout.views(self._bufs)
        return self._views

    # -- container protocol -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._layout.names

    def __len__(self) -> int:
        return len(self._layout.names)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self._layout.names, self._tensors()))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors()[self._layout.index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._layout.index

    def keys(self) -> tuple[str, ...]:
        return self._layout.names

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self)

    @property
    def param_count(self) -> int:
        return sum(self._layout.sizes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{dt.name}{list(shape)}" for n, dt, shape in self._layout.key)
        return f"ParameterSet({inner})"

    # -- structure / equality ------------------------------------------------

    def same_structure(self, other: "ParameterSet") -> bool:
        return self._layout is other._layout or self._layout.key == other._layout.key

    def check_structure(self, other: "ParameterSet") -> None:
        if not self.same_structure(other):
            raise ShapeMismatch("parameter sets differ in names, shapes, or dtypes")

    def __eq__(self, other) -> bool:
        """Bit-exact equality (names, shapes, dtypes, and element bytes)."""
        if not isinstance(other, ParameterSet):
            return NotImplemented
        if not self.same_structure(other):
            return False
        return all(
            np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
            for a, b in zip(self._bufs, other._bufs)
        )

    __hash__ = None  # type: ignore[assignment]

    def allclose(self, other: "ParameterSet", rtol: float = 1e-9, atol: float = 0.0) -> bool:
        if not self.same_structure(other):
            return False
        return all(
            np.allclose(a, b, rtol=rtol, atol=atol) for a, b in zip(self._bufs, other._bufs)
        )

    # -- conversion ----------------------------------------------------------

    def map(self, fn) -> "ParameterSet":
        """Apply ``fn(name, array) -> array`` to every tensor; results are copied."""
        return ParameterSet((n, fn(n, a)) for n, a in self)

    def astype(self, dtype) -> "ParameterSet":
        key = tuple((n, _stored_dtype(n, np.dtype(dtype)), s) for n, _, s in self._layout.key)
        layout = _layout(key)
        return ParameterSet._wrap(layout, _filled(layout, self._tensors()))


class FlatStack:
    """``k`` models of one structure as the rows of one (k, n) buffer per dtype.

    Row ``i`` of a buffer is laid out as the buffer of that dtype in a set
    of ``like``'s structure, and ``row(i)`` is the set over row ``i``.
    ``stacks`` maps every name to its (k, *shape) view over all rows, the
    form a stacked ``models.backward`` reads and writes.  ``bufs`` holds the
    (k, n) buffers in the set's buffer order, so an elementwise operation on
    a block of rows is one operation per dtype.  With ``sources`` (k sets of
    ``like``'s structure) row ``i`` starts as a copy of ``sources[i]``;
    otherwise the buffers are uninitialised.
    """

    __slots__ = ("layout", "bufs", "stacks")

    def __init__(self, like: ParameterSet, k: int, sources=None):
        self.layout = like._layout
        self.bufs = tuple(self.layout.empty((k,)))
        self.stacks = dict(zip(self.layout.names, self.layout.views(self.bufs)))
        for i, src in enumerate(sources or ()):
            for buf, s in zip(self.bufs, src._bufs):
                buf[i] = s

    def row(self, i: int) -> ParameterSet:
        """The set over row ``i``, which nothing may write to afterwards."""
        return ParameterSet._wrap(self.layout, [buf[i] for buf in self.bufs])


class DeferredSet(ParameterSet):
    """A set of a known layout whose buffers come from ``make()``, a set, on their first read.

    A structure check reads only the layout.  The first read takes the
    buffers: the set holds none afterwards, so they are freed once the
    reader lets go of them, and a second read raises.
    """

    __slots__ = ("_make",)

    def __init__(self, layout: _Layout, make):
        self._layout = layout
        self._make = make

    @property
    def _bufs(self) -> tuple:
        make, self._make = self._make, None
        if make is None:
            raise RuntimeError("a deferred set's buffers were already taken")
        p = make()
        self.check_structure(p)
        return p._bufs

    def _tensors(self) -> tuple:
        return self._layout.views(self._bufs)


def zeros_like(p: ParameterSet) -> ParameterSet:
    return ParameterSet._wrap(p._layout, [np.zeros_like(b) for b in p._bufs])


# elements per accumulation block: a block of a term, of the accumulator and
# of the scratch buffer stay in cache while the term is folded in
_ACC_BLOCK = 1 << 16


def _weighted_accumulate(like: ParameterSet, terms) -> list[np.ndarray]:
    """Per buffer of ``like``'s layout, ``sum_i w_i * x_i`` accumulated from zero in term order.

    Each term is ``(w, x, op, base)``: its buffers are those of the set
    ``x``, or ``op(x, base)`` when ``op`` is given (``np.add`` for
    delta-to-full, ``np.subtract`` for full-to-delta).  ``terms`` is any
    iterable of at least one term, and terms share ``like``'s structure.
    They are folded in one at a time: a term's buffers are read once, folded
    in block by block and let go before the next term is read, so a
    :class:`DeferredSet` is freed as soon as it is folded in.  The result is
    never zero-filled: the first term is written straight into it, and every
    later one goes through one small scratch buffer, made when the second
    term comes, so the only model-sized allocation is the result: fresh
    buffers the caller may finish in place and then wrap.
    Each element sees exactly ``acc = acc + w * x`` in term order from
    ``+0.0``: the first step is ``w0 * x0 + 0.0``, which IEEE addition makes
    equal to ``0.0 + w0 * x0`` (a lone ``-0.0`` becomes ``+0.0``, a NaN stays
    that NaN), so results are bit-identical to summing whole sets one term at
    a time.
    """
    layout = like._layout
    out = layout.empty()
    scratch, first = None, True  # the first term needs no scratch
    for w, x, op, base in terms:
        if not first and scratch is None:  # a block of any float dtype
            scratch = np.empty(min(_ACC_BLOCK, max(layout.sizes, default=0)) * 8, dtype=np.uint8)
        _fold(out, w, x, op, base, scratch)
        first = False
        del x  # let go of this term before the next one is read
    return out


def _fold(out: list, w, x: ParameterSet, op, base, scratch) -> None:
    """One term of :func:`_weighted_accumulate` into the accumulators ``out``.

    ``scratch`` is None for the first term, which is written straight into ``out``.
    """
    for acc, xj, bj in zip(out, x._bufs, out if op is None else base._bufs):
        wj = acc.dtype.type(w)
        tmp = None if scratch is None else scratch.view(acc.dtype)
        for lo in range(0, acc.size, _ACC_BLOCK):
            hi = lo + _ACC_BLOCK
            a = acc[lo:hi]
            t = a if tmp is None else tmp[: a.size]
            term = xj[lo:hi] if op is None else op(xj[lo:hi], bj[lo:hi], out=t)
            np.multiply(term, wj, out=t)
            a += 0.0 if tmp is None else t


def weighted_sum(sets: Sequence[ParameterSet], weights: Sequence[float]) -> ParameterSet:
    """Elementwise ``sum_i weights[i] * sets[i]``.

    All sets must share names, order, shapes, and dtypes; the result keeps
    that dtype.  Weights may be any floats (no normalization is applied).
    """
    if len(sets) != len(weights):
        raise LengthMismatch(f"{len(sets)} sets but {len(weights)} weights")
    if not sets:
        raise LengthMismatch("weighted_sum needs at least one set")
    first = sets[0]
    for other in sets[1:]:
        first.check_structure(other)
    terms = [(w, p, None, None) for p, w in zip(sets, weights)]
    return ParameterSet._wrap(first._layout, _weighted_accumulate(first, terms))


def axpy(alpha: float, x: ParameterSet, y: ParameterSet) -> ParameterSet:
    """``alpha * x + y`` with structure checking."""
    x.check_structure(y)
    return ParameterSet._wrap(
        x._layout, [a.dtype.type(alpha) * a + b for a, b in zip(x._bufs, y._bufs)]
    )


def norms(p: ParameterSet) -> tuple[float, float, float]:
    """(l1, l2, linf) over the concatenation of all tensors, in entry order.

    >>> norms(ParameterSet([("a", np.array([3.0, -4.0]))]))
    (7.0, 5.0, 4.0)
    """
    # a float64 set is summed in place, any other as a float64 copy in entry order
    f64 = p._layout.dtypes == (np.dtype(np.float64),)
    bufs = p._bufs if f64 else p.astype(np.float64)._bufs
    if not bufs or bufs[0].size == 0:
        return (0.0, 0.0, 0.0)
    v = bufs[0]
    return (
        float(np.sum(np.abs(v))),
        float(np.sqrt(np.sum(v * v))),
        float(np.max(np.abs(v))),
    )


# ---------------------------------------------------------------------------
# serialization

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


def serialized_size(p: ParameterSet) -> int:
    """Exact byte length ``serialize_params`` will produce, without building it."""
    return p._layout.wire().size


class Pieces:
    """A byte string held as the buffers it is made of, in order.

    ``len()`` is the total byte count and ``bytes()`` joins the buffers.  A
    consumer that takes the buffers one by one (a hash's ``update``, a
    file's or socket's ``writelines``) never builds the joined string.  A
    builder that knows the total passes it as ``nbytes``, as does one that
    puts a header in front of other pieces, so the parts' lengths are
    summed at most once.
    """

    __slots__ = ("parts", "_nbytes")

    def __init__(self, parts, nbytes: Optional[int] = None):
        self.parts = tuple(parts)
        self._nbytes = sum(map(len, self.parts)) if nbytes is None else nbytes

    def __len__(self) -> int:
        return self._nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)


def serialize_pieces(p: ParameterSet) -> Pieces:
    """The bytes of :func:`serialize_params` as the layout's headers plus a view of each tensor.

    Nothing is copied: each tensor's piece is a byte view of the set's own
    (read-only) buffer, so the pieces are valid as long as the set is.
    """
    return Pieces(_serial_parts(p), serialized_size(p))


def serialize_params(p: ParameterSet) -> bytes:
    return b"".join(_serial_parts(p))


def _name_header(name: str) -> bytes:
    """A tensor's name as both byte formats store it: a u16 byte count, then UTF-8."""
    raw = name.encode("utf-8")
    if len(raw) > MAX_NAME_BYTES:
        raise NameTooLong(f"tensor name is {len(raw)} bytes (max {MAX_NAME_BYTES})")
    return _U16.pack(len(raw)) + raw


class _Wire:
    """The parts of a structure's serialized bytes that its values do not change.

    ``size`` is the body's byte length, ``count`` its u32 entry count and
    ``heads[e]`` entry ``e``'s header (name, dtype tag, ndim, dims).  A set's
    buffer ``j`` is stored as ``(dtype, elements) = buffers[j]``, its dtype
    little-endian.  Entry ``e``'s elements are bytes ``[blo, bhi)`` of
    buffer ``j`` and start at byte ``off`` of the body, for ``(j, blo, bhi,
    off) = places[e]``, so its header ends at ``off``.
    """

    __slots__ = ("size", "count", "heads", "buffers", "places")

    def __init__(self, layout: _Layout):
        self.count = _U32.pack(len(layout.key))
        self.heads, self.places = [], []
        self.buffers = [(dt.newbyteorder("<"), n) for dt, n in zip(layout.dtypes, layout.sizes)]
        pos = 4
        for (name, dt, shape), (j, lo, hi, _) in zip(layout.key, layout.spans):
            if len(shape) > 0xFF:
                raise ShapeMismatch(f"tensor {name!r} has {len(shape)} dims (max 255)")
            head = _name_header(name) + struct.pack(
                f">BB{len(shape)}I", _DTYPE_TO_TAG[dt], len(shape), *shape
            )
            self.heads.append(head)
            pos += len(head)
            self.places.append((j, lo * dt.itemsize, hi * dt.itemsize, pos))
            pos += (hi - lo) * dt.itemsize
        self.size = pos

    def read(self, body) -> list:
        """Fresh buffers, sized from the layout, holding the tensors of ``body``.

        ``body`` is a body of this structure: a ``B`` view, from which each
        tensor is copied at its offset, or a :class:`FileBody`, from which
        each is read there.  A file body's hasher is handed this
        structure's count, then each header and the tensor after it: the
        header encoding is canonical, so these are the header bytes the
        walk read, and the hasher sees exactly the body of the set returned.
        """
        bufs = [np.empty(n, dtype=dt) for dt, n in self.buffers]
        dest = [memoryview(buf).cast("B") for buf in bufs]
        if isinstance(body, FileBody):
            body.hash(self.count)
            for head, (j, blo, bhi, off) in zip(self.heads, self.places):
                body.hash(head)
                body.readinto(off, dest[j][blo:bhi])
        else:
            for j, blo, bhi, off in self.places:
                dest[j][blo:bhi] = body[off : off + bhi - blo]
        # each in its dtype's native byte order: a swapped copy of any that is not
        return [b if b.dtype.isnative else b.astype(b.dtype.newbyteorder("=")) for b in bufs]


def _serial_parts(p: ParameterSet) -> list:
    w = p._layout.wire()
    # each buffer as it is stored: itself on little-endian hosts, elsewhere a swapped copy
    views = [
        memoryview(buf if buf.dtype == dt else buf.astype(dt)).cast("B")
        for buf, (dt, _) in zip(p._bufs, w.buffers)
    ]
    parts = [w.count]
    for head, (j, blo, bhi, _) in zip(w.heads, w.places):
        parts += (head, views[j][blo:bhi])
    return parts


def _utf8(raw, error: type) -> str:
    """``raw`` decoded as UTF-8; raises ``error`` if it is not."""
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as e:
        raise error(f"text is not UTF-8: {e}") from None


# bytes a FileBody reads into an array before it hands them to its hasher
_HASHED_READ = 1 << 20


@dataclass(slots=True)
class FileBody:
    """The first ``nbytes`` bytes of ``raw``, an open seekable binary file, as a body to read.

    ``raw`` is anything with ``seek``, ``read`` and ``readinto`` that reads
    as many bytes as asked unless the file ends, such as an open file or an
    :class:`io.BytesIO`.  A slice of the body is read at its offset, and no
    hasher sees it; :meth:`readinto` reads bytes and passes them to
    :meth:`hash`, which hands them to ``hasher`` (anything with ``update``,
    such as ``hashlib.sha256()``) if there is one.
    """

    raw: object
    nbytes: int
    hasher: object = None

    def __getitem__(self, span: slice) -> bytes:
        """Bytes ``[span.start, span.stop)`` of the body."""
        n = span.stop - span.start
        self.raw.seek(span.start)
        out = self.raw.read(n)
        if len(out) != n:
            raise Truncated(f"file ended {n - len(out)} bytes short")
        return out

    def hash(self, buf) -> None:
        """Hand ``buf`` to the hasher as the body's next bytes."""
        if self.hasher is not None:
            self.hasher.update(buf)

    def readinto(self, off: int, out) -> None:
        """Fill ``out``, a writable byte view, with the body's bytes from ``off``, and hash them.

        The bytes are read and handed to the hasher 1 MiB at a time, so a
        hasher that works beside the reader (as :mod:`fedkit.wire` uses)
        hashes one piece while the next is read.
        """
        self.raw.seek(off)
        for lo in range(0, len(out), _HASHED_READ):
            piece = out[lo : lo + _HASHED_READ]
            got = self.raw.readinto(piece)
            if got != len(piece):
                raise Truncated(f"file ended {len(out) - lo - got} bytes short")
            self.hash(piece)


def _walk(body) -> _Layout:
    """The layout of ``body``, a ``B`` view or a :class:`FileBody`, read from its entry headers.

    Both kinds of body give their length as ``nbytes`` and their bytes by
    slicing.  Each header is read at its offset and checked, and each
    tensor's byte count against the bytes left, before the next header is
    read; nothing is allocated for the tensors.  A body that ends early raises
    :class:`Truncated`, a name that is not UTF-8 :class:`BadName`, an
    unknown dtype tag :class:`BadDtypeTag`, bytes after the last tensor
    :class:`TrailingBytes`, and a repeated name :class:`ShapeMismatch`.
    """
    end, pos = body.nbytes, 0

    def take(n: int):
        nonlocal pos
        if n > end - pos:
            raise Truncated(f"need {n} bytes, only {end - pos} left")
        pos += n
        return body[pos - n : pos]

    (count,) = _U32.unpack(take(4))
    key = []
    for _ in range(count):
        (name_len,) = _U16.unpack(take(2))
        head = take(name_len + 2)  # name, dtype tag, ndim
        name = _utf8(head[:name_len], BadName)
        tag, ndim = head[name_len], head[name_len + 1]
        if tag not in _TAG_TO_DTYPE:
            raise BadDtypeTag(f"dtype tag {tag} in entry {name!r}")
        shape = struct.unpack(f">{ndim}I", take(4 * ndim))
        dt = _TAG_TO_DTYPE[tag]
        nbytes = dt.itemsize * math.prod(shape)
        if nbytes > end - pos:
            raise Truncated(f"tensor {name!r} needs {nbytes} bytes, only {end - pos} left")
        pos += nbytes
        key.append((name, dt.newbyteorder("="), shape))
    if pos < end:
        raise TrailingBytes(f"{end - pos} bytes left after last entry")
    return _layout(tuple(key))


def deserialize_params(data, expect: Optional[ParameterSet] = None) -> ParameterSet:
    """Inverse of :func:`serialize_params`; rejects trailing bytes.

    ``data`` is a bytes-like buffer or a :class:`FileBody`.  Its entry
    headers are walked first (:func:`_walk`), so a malformed body raises
    before anything is allocated for its tensors.  Then each tensor is
    copied from its offset into buffers sized from the layout.  ``expect``
    is a set of the structure the body is expected to have; it never changes
    the result or the error: a buffer whose length and header bytes are
    ``expect``'s is not walked, since its layout is ``expect``'s.
    """
    if isinstance(data, FileBody):
        layout = _walk(data)
    else:
        data = memoryview(data).cast("B")
        known = expect is not None and _laid_out(data, expect._layout)
        layout = expect._layout if known else _walk(data)
    return ParameterSet._wrap(layout, layout.wire().read(data))


def _laid_out(view: memoryview, layout: _Layout) -> bool:
    """Whether the body ``view`` (a ``B`` view) has ``layout``'s length and header bytes."""
    try:
        w = layout.wire()
    except (NameTooLong, ShapeMismatch):  # a structure that no body can have
        return False
    if len(view) != w.size or view[:4] != w.count:
        return False
    for head, (_, _, _, off) in zip(w.heads, w.places):
        if view[off - len(head) : off] != head:
            return False
    return True


def save_params(p: ParameterSet, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(serialize_pieces(p).parts)


def load_params(path) -> ParameterSet:
    with open(path, "rb") as fh:
        return deserialize_params(FileBody(fh, os.fstat(fh.fileno()).st_size))


# ---------------------------------------------------------------------------
# exchange records


@dataclass(frozen=True)
class ModelUpdate:
    """One client contribution, as submitted to the server.

    ``params`` holds full weights when ``is_delta`` is false, otherwise the
    difference ``local - base``.  ``base_epoch`` is the server epoch of the
    global model this update was trained from; staleness at aggregation time
    is ``server_epoch - base_epoch``.  ``wall_meta`` is the (start, end)
    training timestamp pair used for speed estimation; virtual seconds in
    simulation, wall seconds otherwise.
    """

    client_id: str
    params: ParameterSet
    is_delta: bool
    sample_count: int
    local_steps: int
    base_epoch: int
    wall_meta: Optional[tuple[float, float]] = None


@dataclass(frozen=True, slots=True)
class MetricRecord:
    timestamp: float
    entity: str
    kind: str
    value: float
