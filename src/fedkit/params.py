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
row.
"""
from __future__ import annotations

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
    delta-to-full, ``np.subtract`` for full-to-delta).  Terms must share
    ``like``'s structure.  Every step goes through one small scratch buffer,
    so the only model-sized allocation is the result: fresh arrays the caller
    may finish in place and then adopt.  Each element sees exactly
    ``acc = acc + w * x`` in term order, starting from ``+0.0`` (which turns
    a leading ``-0.0`` term into ``+0.0``), so results are bit-identical to
    summing whole sets one term at a time.
    """
    scratch = np.empty(_ACC_BLOCK * 8, dtype=np.uint8)  # fits any float dtype
    out = []
    for k, (name, ref) in enumerate(like):
        acc = np.zeros_like(ref)
        flat = acc.reshape(-1)
        tmp = scratch.view(ref.dtype)
        xs = [
            (acc.dtype.type(w), x._arrays[k].reshape(-1), op,
             None if op is None else base._arrays[k].reshape(-1))
            for w, x, op, base in terms
        ]
        for lo in range(0, flat.size, _ACC_BLOCK):
            hi = lo + _ACC_BLOCK
            a = flat[lo:hi]
            t = tmp[: a.size]
            for w, x, op, b in xs:
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


def serialize_params(p: ParameterSet) -> bytes:
    chunks = [struct.pack(">I", len(p))]
    for name, arr in p:
        raw_name = name.encode("utf-8")
        if len(raw_name) > MAX_NAME_BYTES:
            raise NameTooLong(f"tensor name is {len(raw_name)} bytes (max {MAX_NAME_BYTES})")
        if arr.ndim > 0xFF:
            raise ShapeMismatch(f"tensor {name!r} has {arr.ndim} dims (max 255)")
        tag = _DTYPE_TO_TAG[arr.dtype]
        header = struct.pack(">H", len(raw_name)) + raw_name + struct.pack(">BB", tag, arr.ndim)
        dims = b"".join(struct.pack(">I", d) for d in arr.shape)
        body = arr.astype(_TAG_TO_DTYPE[tag], copy=False).tobytes(order="C")
        chunks.append(header + dims + body)
    return b"".join(chunks)


class _Reader:
    """Cursor over a byte buffer; ``take`` returns zero-copy memoryview slices."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf):
        self.buf = memoryview(buf).cast("B")
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise Truncated(
                f"need {n} bytes at offset {self.pos}, only {len(self.buf) - self.pos} left"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]


def deserialize_params(buf: bytes) -> ParameterSet:
    """Inverse of :func:`serialize_params`; rejects trailing bytes."""
    r = _Reader(buf)
    count = r.u32()
    entries = []
    for _ in range(count):
        name_len = r.u16()
        name = str(r.take(name_len), "utf-8")
        tag = r.u8()
        if tag not in _TAG_TO_DTYPE:
            raise BadDtypeTag(f"dtype tag {tag} in entry {name!r}")
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        n_elem = 1
        for d in shape:
            n_elem *= d
        dt = _TAG_TO_DTYPE[tag]
        raw = r.take(n_elem * dt.itemsize)
        # the one copy: astype out of the caller's buffer into an array we own
        arr = np.frombuffer(raw, dtype=dt).reshape(shape).astype(dt.newbyteorder("="))
        entries.append((name, arr))
    if r.pos != len(r.buf):
        raise TrailingBytes(f"{len(r.buf) - r.pos} bytes left after last entry")
    return ParameterSet._adopt(entries)


def save_params(p: ParameterSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_params(p))


def load_params(path) -> ParameterSet:
    with open(path, "rb") as fh:
        return deserialize_params(fh.read())


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
