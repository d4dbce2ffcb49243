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

Ownership: a set owns its tensors, and no set is ever mutated after it is
returned.  The public constructor and :meth:`ParameterSet.map` copy their
inputs, because those arrays belong to the caller.  Results that fedkit
computes itself (gradients, optimizer steps, deltas, aggregates, decoded
payloads) are fresh arrays that nothing else references; they are adopted
and frozen in place rather than copied again.  A set's tensors may also be
views of one row of a private flat buffer per dtype (see :class:`FlatStack`)
that nothing but the views of its rows references: training works on such
buffers, one row per client, and each trained set adopts the views of its
row.  Serialized bytes follow the same rule, so a transfer copies each
tensor once, on receive.  :func:`serialize_pieces` hands out byte views of a
set's own read-only arrays, so a body is hashed, staged or sent without a
copy; :func:`serialize_params` joins those views for callers that need one
bytes object.  :func:`deserialize_params` reads each tensor's bytes straight
into a fresh native-order array that the decoded set adopts, from a buffer
or from a :class:`ByteStream` that hands them to a hasher as they land.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    BadDtypeTag,
    LengthMismatch,
    NameTooLong,
    ShapeMismatch,
    TrailingBytes,
    Truncated,
)

_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}

MAX_NAME_BYTES = 0xFFFF
CHECKPOINT_SUFFIX = ".apfm"


def _as_tensor(name, value, adopt: bool) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype not in _DTYPE_TO_TAG:
        # everything else (ints, bools, f16) is promoted; complex is rejected
        if np.issubdtype(arr.dtype, np.complexfloating):
            raise ShapeMismatch(f"tensor {name!r}: complex dtype not supported")
        arr = arr.astype(np.float64)
    # an adopted array must be ours alone: a view, or a read-only array that
    # may already belong to another set, is copied like caller input
    flags = arr.flags
    if not (adopt and flags.c_contiguous and flags.owndata and flags.writeable):
        arr = arr.copy(order="C")  # ascontiguousarray would promote 0-d to 1-d
    arr.flags.writeable = False
    return arr


class ParameterSet:
    """Ordered, immutable collection of named float tensors.

    >>> p = ParameterSet([("w", np.zeros(3, dtype=np.float32))])
    >>> p.param_count
    3
    >>> len(serialize_params(p))
    25
    """

    __slots__ = ("_names", "_arrays", "_index")

    def __init__(self, entries):
        self._fill(entries, adopt=False)

    @classmethod
    def _adopt(cls, entries) -> "ParameterSet":
        """Build a set from arrays the caller just computed and shares with nobody.

        The arrays are frozen in place instead of copied; dtype promotion
        still applies, and anything that is not a C-contiguous array owning
        writeable data is copied as the public constructor would.
        """
        p = cls.__new__(cls)
        p._fill(entries, adopt=True)
        return p

    @classmethod
    def _adopt_views(cls, views: Mapping[str, np.ndarray]) -> "ParameterSet":
        """Build a set over views of private flat buffers, without copying.

        Only the views are frozen, not the buffers behind them, so the
        builder of the set may still turn a view writeable to finish it in
        place before handing the set out (see ``client._transmitted``).
        """
        p = cls.__new__(cls)
        for v in views.values():
            v.flags.writeable = False
        p._names = tuple(views)
        p._arrays = tuple(views.values())
        p._index = {name: i for i, name in enumerate(p._names)}
        return p

    def _fill(self, entries, adopt: bool) -> None:
        names: list[str] = []
        arrays: list[np.ndarray] = []
        index: dict[str, int] = {}
        if isinstance(entries, Mapping):
            entries = entries.items()
        for name, value in entries:
            if not isinstance(name, str):
                raise ShapeMismatch(f"tensor name must be str, got {type(name).__name__}")
            if name in index:
                raise ShapeMismatch(f"duplicate tensor name {name!r}")
            index[name] = len(names)
            names.append(name)
            arrays.append(_as_tensor(name, value, adopt))
        self._names = tuple(names)
        self._arrays = tuple(arrays)
        self._index = index

    # -- container protocol -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self._names, self._arrays))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def keys(self) -> tuple[str, ...]:
        return self._names

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self)

    @property
    def param_count(self) -> int:
        return int(sum(a.size for a in self._arrays))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{a.dtype.name}{list(a.shape)}" for n, a in self)
        return f"ParameterSet({inner})"

    # -- structure / equality ------------------------------------------------

    def same_structure(self, other: "ParameterSet") -> bool:
        if self._names != other._names:
            return False
        return all(
            a.shape == b.shape and a.dtype == b.dtype
            for a, b in zip(self._arrays, other._arrays)
        )

    def check_structure(self, other: "ParameterSet") -> None:
        if not self.same_structure(other):
            raise ShapeMismatch("parameter sets differ in names, shapes, or dtypes")

    def __eq__(self, other) -> bool:
        """Bit-exact equality (names, shapes, dtypes, and element bytes)."""
        if not isinstance(other, ParameterSet):
            return NotImplemented
        if not self.same_structure(other):
            return False
        return all(a.tobytes() == b.tobytes() for a, b in zip(self._arrays, other._arrays))

    __hash__ = None  # type: ignore[assignment]

    def allclose(self, other: "ParameterSet", rtol: float = 1e-9, atol: float = 0.0) -> bool:
        if not self.same_structure(other):
            return False
        return all(
            np.allclose(a, b, rtol=rtol, atol=atol)
            for a, b in zip(self._arrays, other._arrays)
        )

    # -- conversion ----------------------------------------------------------

    def map(self, fn) -> "ParameterSet":
        """Apply ``fn(name, array) -> array`` to every tensor; results are copied."""
        return ParameterSet((n, fn(n, a)) for n, a in self)

    def astype(self, dtype) -> "ParameterSet":
        dt = np.dtype(dtype)
        return ParameterSet._adopt((n, a.astype(dt)) for n, a in self)

    def flat(self) -> np.ndarray:
        """All elements concatenated in entry order (copy)."""
        if not self._arrays:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate([a.ravel() for a in self._arrays])


class FlatStack:
    """``k`` models of one structure as the rows of one (k, n) buffer per dtype.

    Row ``i`` of the buffer of a dtype holds that dtype's tensors of model
    ``i`` back to back, in entry order.  ``row(i)`` maps every name to its
    view in row ``i``, and ``stacks`` maps every name to the (k, *shape) view
    over all rows, the form a stacked ``models.backward`` reads and writes.
    ``bufs`` holds the (k, n) buffers in order of first appearance of their
    dtype, so an elementwise operation on a block of rows is one operation
    per dtype.  With ``sources`` (k sets
    of ``like``'s structure) row ``i`` starts as a copy of ``sources[i]``;
    otherwise the buffers are uninitialised.  A set takes row ``i`` over
    through ``ParameterSet._adopt_views(stack.row(i))``.
    """

    __slots__ = ("bufs", "stacks", "_spans", "_rows")

    def __init__(self, like, k: int, sources=None):
        sizes: dict[np.dtype, int] = {}
        for _, a in like.items():
            sizes[a.dtype] = sizes.get(a.dtype, 0) + a.size
        bufs = {dt: np.empty((k, n), dtype=dt) for dt, n in sizes.items()}
        offsets = dict.fromkeys(bufs, 0)
        spans = []
        for name, a in like.items():
            lo = offsets[a.dtype]
            offsets[a.dtype] = hi = lo + a.size
            spans.append((name, bufs[a.dtype], lo, hi, a.shape))
        self.bufs = tuple(bufs.values())
        self.stacks = {
            name: buf[:, lo:hi].reshape(k, *shape) for name, buf, lo, hi, shape in spans
        }
        self._spans = spans
        self._rows: list = [None] * k
        for i, src in enumerate(sources or ()):
            for (_, a), view in zip(src.items(), self.row(i).values()):
                view[...] = a

    def row(self, i: int) -> dict:
        """Name -> view of row ``i``; built once per row."""
        views = self._rows[i]
        if views is None:
            views = self._rows[i] = {
                name: buf[i, lo:hi].reshape(shape) for name, buf, lo, hi, shape in self._spans
            }
        return views


def zeros_like(p: ParameterSet) -> ParameterSet:
    return ParameterSet._adopt((n, np.zeros_like(a)) for n, a in p)


# elements per accumulation block: a block of the accumulator and the scratch
# buffer stay in cache while every term streams through them
_ACC_BLOCK = 1 << 16


def _weighted_accumulate(like: ParameterSet, terms) -> list[tuple[str, np.ndarray]]:
    """Per tensor of ``like``, ``sum_i w_i * x_i`` accumulated from zero in term order.

    Each term is ``(w, x, op, base)``: its tensors are those of the set
    ``x``, or ``op(x, base)`` when ``op`` is given (``np.add`` for
    delta-to-full, ``np.subtract`` for full-to-delta).  There is at least one
    term, and terms must share ``like``'s structure.  The result is never
    zero-filled: the first term is written straight into it, and every later
    step goes through one small scratch buffer, so the only model-sized
    allocation is the result: fresh arrays the caller may finish in place
    and then adopt.  Each element sees exactly ``acc = acc + w * x`` in term
    order from ``+0.0``: the first step is ``w0 * x0 + 0.0``, which IEEE
    addition makes equal to ``0.0 + w0 * x0`` (a lone ``-0.0`` becomes
    ``+0.0``, a NaN stays that NaN), so results are bit-identical to summing
    whole sets one term at a time.
    """
    scratch = np.empty(_ACC_BLOCK * 8, dtype=np.uint8)  # fits any float dtype
    out = []
    for k, (name, ref) in enumerate(like):
        acc = np.empty_like(ref)
        flat = acc.reshape(-1)
        tmp = scratch.view(ref.dtype)
        (w0, x0, op0, b0), *rest = [
            (acc.dtype.type(w), x._arrays[k].reshape(-1), op,
             None if op is None else base._arrays[k].reshape(-1))
            for w, x, op, base in terms
        ]
        for lo in range(0, flat.size, _ACC_BLOCK):
            hi = lo + _ACC_BLOCK
            a = flat[lo:hi]
            t = tmp[: a.size]
            term = x0[lo:hi] if op0 is None else op0(x0[lo:hi], b0[lo:hi], out=a)
            np.multiply(term, w0, out=a)
            a += 0.0
            for w, x, op, b in rest:
                term = x[lo:hi] if op is None else op(x[lo:hi], b[lo:hi], out=t)
                np.multiply(term, w, out=t)
                a += t
        out.append((name, acc))
    return out


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
    return ParameterSet._adopt(_weighted_accumulate(first, terms))


def axpy(alpha: float, x: ParameterSet, y: ParameterSet) -> ParameterSet:
    """``alpha * x + y`` with structure checking."""
    x.check_structure(y)
    return ParameterSet._adopt(
        (n, a.dtype.type(alpha) * a + b)
        for (n, a), (_, b) in zip(x.items(), y.items())
    )


def norms(p: ParameterSet) -> tuple[float, float, float]:
    """(l1, l2, linf) over the concatenation of all tensors.

    >>> norms(ParameterSet([("a", np.array([3.0, -4.0]))]))
    (7.0, 5.0, 4.0)
    """
    v = p.flat().astype(np.float64)
    if v.size == 0:
        return (0.0, 0.0, 0.0)
    return (
        float(np.sum(np.abs(v))),
        float(np.sqrt(np.sum(v * v))),
        float(np.max(np.abs(v))),
    )


# ---------------------------------------------------------------------------
# serialization


def serialized_size(p: ParameterSet) -> int:
    """Exact byte length ``serialize_params`` will produce, without building it."""
    total = 4
    for name, arr in p:
        nbytes = len(name.encode("utf-8"))
        total += 2 + nbytes + 1 + 1 + 4 * arr.ndim + arr.dtype.itemsize * arr.size
    return total


class Pieces:
    """A byte string held as the buffers it is made of, in order.

    ``len()`` is the total byte count and ``bytes()`` joins the buffers.  A
    consumer that takes the buffers one by one (a hash's ``update``, a
    file's or socket's ``writelines``) never builds the joined string.
    """

    __slots__ = ("parts", "_nbytes")

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._nbytes = sum(map(len, self.parts))

    def __len__(self) -> int:
        return self._nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)


def serialize_pieces(p: ParameterSet) -> Pieces:
    """The bytes of :func:`serialize_params` as small headers plus a view of each tensor.

    Nothing is copied: each tensor's piece is a byte view of the set's own
    (read-only) array, so the pieces are valid as long as the set is.
    """
    return Pieces(_serial_parts(p))


def serialize_params(p: ParameterSet) -> bytes:
    return b"".join(_serial_parts(p))


def _serial_parts(p: ParameterSet) -> list:
    parts = [struct.pack(">I", len(p))]
    for name, arr in p:
        raw_name = name.encode("utf-8")
        if len(raw_name) > MAX_NAME_BYTES:
            raise NameTooLong(f"tensor name is {len(raw_name)} bytes (max {MAX_NAME_BYTES})")
        if arr.ndim > 0xFF:
            raise ShapeMismatch(f"tensor {name!r} has {arr.ndim} dims (max 255)")
        tag = _DTYPE_TO_TAG[arr.dtype]
        parts.append(
            struct.pack(">H", len(raw_name))
            + raw_name
            + struct.pack(f">BB{arr.ndim}I", tag, arr.ndim, *arr.shape)
        )
        # a no-op on little-endian hosts; elsewhere a swapped copy
        parts.append(_byte_view(arr.astype(_TAG_TO_DTYPE[tag], copy=False)))
    return parts


def _byte_view(arr: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array as a flat, uncopied ``B`` view."""
    return memoryview(arr.reshape(-1)).cast("B")


class _BufferStream:
    """``read``/``readinto`` over a bytes-like buffer; ``read`` returns zero-copy slices."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf):
        self.buf = memoryview(buf).cast("B")
        self.pos = 0

    def read(self, n: int) -> memoryview:
        out = self.buf[self.pos : self.pos + n]
        self.pos += len(out)
        return out

    def readinto(self, out) -> int:
        src = self.read(len(out))
        out[: len(src)] = src
        return len(src)


# bytes a hashing ByteStream reads into an array before it hands them to its hasher
_HASHED_READ = 1 << 20


class ByteStream:
    """Reads at most ``size`` bytes of ``raw`` front to back, feeding each to ``hasher``.

    ``raw`` is anything with ``read(n)`` and ``readinto(buffer)``, such as an
    open binary file; :meth:`over` wraps a bytes-like buffer.  ``left``
    counts the bytes not yet read.  A read that asks for more than ``left``
    raises :class:`Truncated` before anything is read or allocated, so
    ``read`` and ``readinto`` return exactly what was asked for or raise.
    With a ``hasher`` (anything with ``update``, such as
    ``hashlib.sha256()``) every byte read is passed to it in the buffer it
    was read into.
    """

    __slots__ = ("raw", "left", "hasher")

    def __init__(self, raw, size: int, hasher=None):
        self.raw = raw
        self.left = size
        self.hasher = hasher

    @classmethod
    def over(cls, buf) -> "ByteStream":
        raw = _BufferStream(buf)
        return cls(raw, len(raw.buf))

    def read(self, n: int):
        """The next ``n`` bytes (bytes-like); a small read, such as a header."""
        if n > self.left:
            raise Truncated(f"need {n} bytes, only {self.left} left")
        self.left -= n
        out = self.raw.read(n)
        if len(out) != n:
            raise Truncated(f"stream ended {n - len(out)} bytes short")
        if self.hasher is not None:
            self.hasher.update(out)
        return out

    def readinto(self, out) -> None:
        """Fill ``out``, a writable byte view, with the next ``len(out)`` bytes.

        With a hasher the bytes are read and handed to it 1 MiB at a time, so
        a hasher that works beside the reader (as :mod:`fedkit.wire` uses)
        hashes one piece while the next is read.
        """
        n = len(out)
        if n > self.left:
            raise Truncated(f"need {n} bytes, only {self.left} left")
        self.left -= n
        step = n if self.hasher is None else _HASHED_READ
        got = 0
        while got < n:
            piece = out[got : got + step]
            more = self.raw.readinto(piece)
            if not more:
                raise Truncated(f"stream ended {n - got} bytes short")
            if self.hasher is not None:
                self.hasher.update(piece[:more])
            got += more


def deserialize_params(data) -> ParameterSet:
    """Inverse of :func:`serialize_params`; rejects trailing bytes.

    ``data`` is a bytes-like buffer or a :class:`ByteStream`.  Each tensor
    is a fresh native-order array that the stream's bytes are read into
    once; its length is checked against the bytes left before the array is
    allocated.
    """
    src = data if isinstance(data, ByteStream) else ByteStream.over(data)
    (count,) = struct.unpack(">I", src.read(4))
    entries = []
    for _ in range(count):
        (name_len,) = struct.unpack(">H", src.read(2))
        head = src.read(name_len + 2)  # name, dtype tag, ndim
        name = str(head[:name_len], "utf-8")
        tag, ndim = head[name_len], head[name_len + 1]
        if tag not in _TAG_TO_DTYPE:
            raise BadDtypeTag(f"dtype tag {tag} in entry {name!r}")
        shape = struct.unpack(f">{ndim}I", src.read(4 * ndim))
        dt = _TAG_TO_DTYPE[tag]
        nbytes = dt.itemsize * math.prod(shape)
        if nbytes > src.left:
            raise Truncated(f"tensor {name!r} needs {nbytes} bytes, only {src.left} left")
        arr = np.empty(shape, dtype=dt)
        src.readinto(_byte_view(arr))
        if not dt.isnative:
            arr = arr.astype(dt.newbyteorder("="))
        entries.append((name, arr))
    if src.left:
        raise TrailingBytes(f"{src.left} bytes left after last entry")
    return ParameterSet._adopt(entries)


def save_params(p: ParameterSet, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(serialize_pieces(p).parts)


def load_params(path) -> ParameterSet:
    with open(path, "rb") as fh:
        return deserialize_params(ByteStream(fh, os.fstat(fh.fileno()).st_size))


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


@dataclass(frozen=True)
class MetricRecord:
    timestamp: float
    entity: str
    kind: str
    value: float
