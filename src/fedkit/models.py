"""Dense networks with hand-written backprop, plus dataset builders.

No autodiff: gradients are closed-form so they can be verified against
central finite differences.  Parameters follow the naming scheme
``W0, b0, W1, b1, ...`` with ``W_l`` of shape (fan_in, fan_out).

``backward`` also takes a stack of K models at once: features of shape
(K, n, d_in), labels with a leading K axis, and parameters of shape
(K, fan_in, fan_out) and (K, fan_out).  Each matrix product is then one
``np.matmul`` over the stack, which runs the same per-matrix kernel as the
2-D product, and every reduction runs along the same axis in the same
order; so model k of a stack gets the gradient that a 2-D call on its own
would give, bit for bit, as long as all K batches have the same length n.

Every pass runs in a :class:`Plan`: preallocated work arrays for one batch
shape, which each product and sum writes into with ``out=``.  ``forward``,
``backward`` and the split-model helpers make a one-shot plan after checking
their inputs.  Training makes one plan per batch shape and round, checks
each shard once with :func:`check_shard` (feature width and labels, and the
gradients' dtypes), and then calls ``backward`` with :class:`PlannedGrads`:
that call checks nothing and computes no loss.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional

import csv
import math

import numpy as np

from .errors import (
    DimMismatch,
    EmptyDataset,
    InfeasiblePartition,
    MissingRequired,
    ParseError,
    ShapeMismatch,
)
from .params import ParameterSet

ACTIVATIONS = ("relu", "identity")
LOSSES = ("mse", "softmax_cross_entropy")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a multilayer perceptron.

    ``layer_dims = (d_in, h1, ..., d_out)``; hidden layers use ``activation``,
    the output layer is linear.
    """

    layer_dims: tuple[int, ...]
    activation: str = "relu"
    loss: str = "softmax_cross_entropy"

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if len(self.layer_dims) < 2:
            raise DimMismatch("layer_dims needs at least input and output sizes")
        if any(d <= 0 for d in self.layer_dims):
            raise DimMismatch(f"non-positive layer dim in {self.layer_dims}")
        if self.activation not in ACTIVATIONS:
            raise DimMismatch(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise DimMismatch(f"unknown loss {self.loss!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1


def init_params(spec: ModelSpec, seed: int, dtype=np.float64) -> ParameterSet:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] for weights and biases."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    entries = []
    for layer in range(spec.n_layers):
        fan_in = spec.layer_dims[layer]
        fan_out = spec.layer_dims[layer + 1]
        bound = 1.0 / np.sqrt(fan_in)
        entries.append((f"W{layer}", rng.uniform(-bound, bound, (fan_in, fan_out)).astype(dt)))
        entries.append((f"b{layer}", rng.uniform(-bound, bound, fan_out).astype(dt)))
    return ParameterSet(entries)


def _check_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim not in (2, 3) or x.shape[-1] != spec.layer_dims[0]:
        raise DimMismatch(f"features {x.shape} incompatible with input dim {spec.layer_dims[0]}")
    return x


def _targets(spec: ModelSpec, y, batch: tuple, dtype) -> np.ndarray:
    """Labels checked against outputs of batch shape ``batch``, in the form a pass reads them.

    For softmax, class indices as int64, each in range.  For mse, targets of
    the outputs' ``dtype`` and shape; labels with one value per row fill a
    single output unit.
    """
    d_out = spec.layer_dims[-1]
    if spec.loss == "mse":
        target = np.asarray(y, dtype=dtype)
        if target.ndim == len(batch):
            target = target.reshape(*batch, -1)
        if target.shape != batch + (d_out,):
            raise DimMismatch(f"labels {target.shape} vs outputs {batch + (d_out,)}")
        return target
    labels = np.asarray(y)
    if labels.shape != batch:
        raise DimMismatch(f"labels {labels.shape} vs batch {batch}")
    labels = labels.astype(np.int64, copy=False)
    if np.minimum.reduce(labels, axis=None) < 0 or np.maximum.reduce(labels, axis=None) >= d_out:
        raise DimMismatch("label out of range for output layer")
    return labels


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: ``a.T`` for a matrix, per matrix for a stack."""
    return a.T if a.ndim == 2 else a.swapaxes(-1, -2)


class _Dtypes:
    """The dtype of every array of a pass, as numpy's promotion makes them.

    ``x`` is the features' dtype and ``dout`` that of the output gradient
    the backward pass starts from (the output's own dtype unless given).  A
    float32 layer on float64 inputs has float64 outputs and gradients.
    ``prod[l]`` is the dtype of layer ``l``'s matrix product and ``z[l]``
    of its pre-activation, ``delta[l]`` that of d/d(output of layer l), and
    ``grads`` maps each gradient's name to its dtype.
    """

    __slots__ = ("prod", "z", "delta", "grads")

    def __init__(self, spec: ModelSpec, params, x, dout=None):
        promote = np.promote_types  # numpy's promotion of two arrays' dtypes
        weights = [params[f"W{layer}"].dtype for layer in range(spec.n_layers)]
        self.prod, self.z = [], []
        inputs = []
        h = np.dtype(x)
        for layer, w in enumerate(weights):
            inputs.append(h)
            self.prod.append(promote(h, w))
            h = promote(self.prod[-1], params[f"b{layer}"].dtype)
            self.z.append(h)
        d = h if dout is None else np.dtype(dout)
        self.delta = [None] * spec.n_layers
        self.grads = {}
        for layer in range(spec.n_layers - 1, -1, -1):
            self.delta[layer] = d
            self.grads[f"W{layer}"] = promote(inputs[layer], d)
            self.grads[f"b{layer}"] = d
            d = promote(d, weights[layer])


class _Head:
    """d loss / d output for outputs of one shape and dtype, in arrays of its own.

    ``grad`` receives the gradient.  Softmax cross entropy also keeps the row
    maxima and sums and the flat index of each row's label entry.
    """

    __slots__ = ("grad", "_n", "_mse", "_scale", "_flat", "_mx", "_total", "_offsets", "_picks")

    def __init__(self, spec: ModelSpec, shape: tuple, dtype, empty=np.empty):
        self.grad = empty(shape, dtype)
        self._n = shape[-2]
        self._mse = spec.loss == "mse"
        if self._mse:
            self._scale = 2.0 / (shape[-2] * shape[-1])
            return
        self._flat = self.grad.reshape(-1)
        self._mx = empty(shape[:-1] + (1,), dtype)
        self._total = empty(shape[:-1] + (1,), dtype)
        # constant, so never carved from shared scratch
        self._offsets = np.arange(0, self.grad.size, shape[-1]).reshape(shape[:-1])
        self._picks = empty(shape[:-1], np.int64)

    def __call__(self, out: np.ndarray, y: np.ndarray, want_loss: bool):
        """Writes the gradient of the mean loss of ``out`` on targets ``y`` into ``grad``.

        Returns the mean loss (K of them for a stack) if ``want_loss``, else None.
        """
        d, loss, stacked = self.grad, None, out.ndim == 3
        if self._mse:
            np.subtract(out, y, out=d)
            if want_loss:
                loss = np.mean(d * d, axis=(1, 2)) if stacked else float(np.mean(d * d))
            np.multiply(self._scale, d, out=d)
            return loss
        np.maximum.reduce(out, axis=-1, keepdims=True, out=self._mx)
        np.subtract(out, self._mx, out=d)
        # the flat index of the (row, label) entry of every output
        picks = np.add(y, self._offsets, out=self._picks)
        if want_loss:
            shifted = self._flat[picks]
        # one exp serves both the log-sum-exp of the loss and the softmax
        np.exp(d, out=d)
        total = np.add.reduce(d, axis=-1, keepdims=True, out=self._total)
        if want_loss:
            # the sum and the division of np.mean, without its Python-level wrapper
            loss = np.add.reduce(np.log(total[..., 0]) - shifted, axis=-1) / self._n
            loss = loss if stacked else float(loss)
        d /= total
        self._flat[picks] -= 1.0
        d /= self._n
        return loss


class Scratch:
    """Memory that plans which run one at a time carve their work arrays from.

    A pass writes each work array before it reads it, so such plans can
    share memory.  The memory is a list of chunks; each plan carves its
    arrays one after another from the start of the first chunk, going on to
    the next chunk when one is full, and a chunk is added when a plan needs
    more.  Together the plans take about the memory of the largest.
    """

    _CHUNK = 1 << 18  # bytes; an array larger than this gets a chunk of its own size

    def __init__(self):
        self._chunks: list[np.ndarray] = []

    def carver(self):
        """``empty(shape, dtype)`` for one plan: arrays that never overlap each other."""
        at = [0, 0]  # chunk, offset

        def empty(shape, dtype):
            dtype = np.dtype(dtype)
            size = math.prod(shape) * dtype.itemsize
            chunk, offset = at
            while True:
                if chunk == len(self._chunks):
                    self._chunks.append(np.empty(max(size, self._CHUNK), np.uint8))
                if offset + size <= len(self._chunks[chunk]):
                    break
                chunk, offset = chunk + 1, 0
            arr = self._chunks[chunk][offset : offset + size].view(dtype).reshape(shape)
            at[:] = chunk, -(-(offset + size) // 64) * 64  # the next array starts on a cache line
            return arr

        return empty


class Plan:
    """The work arrays of forward and backward passes for one batch shape.

    A plan is made for a spec, the dtypes of a parameter mapping and of the
    features, and a batch shape: ``lead`` is ``()`` for one model or
    ``(m,)`` for a stack of m (see the module docstring), and ``n`` is the
    batch length.  It holds every pre-activation (and, where adding the bias
    promotes, the product before it), the ReLU outputs and masks, the output
    layer's arrays and the back-propagated deltas; the output layer and the
    backward arrays are made on first use, so a forward pass makes no more.
    With ``inputs`` it also holds ``x`` and ``y``, the arrays a training step
    gathers its batch into: features, and targets in the form ``_targets``
    gives.  With a :class:`Scratch` its arrays are carved from that; plans
    that share one must run one at a time.  A pass writes only into these
    and into the gradient arrays it is given, and it checks nothing: the
    caller checked its inputs.  Each product and sum is the one a pass of
    fresh arrays would compute, with the same operands in the same order, so
    the results are the same bits.  A plan holds no array of its caller's,
    and one plan serves one thread.
    """

    __slots__ = ("dtypes", "x", "y", "_spec", "_lead", "_n", "_names", "_relu", "_empty",
                 "_prods", "_pre", "_post", "_postT", "_head", "_masks", "_deltas")

    def __init__(self, spec: ModelSpec, params, x_dtype, lead: tuple = (), n: int = 0, *,
                 dout=None, inputs: bool = False, scratch: Optional[Scratch] = None):
        self.dtypes = _Dtypes(spec, params, x_dtype, dout)
        self._spec, self._lead, self._n = spec, tuple(lead), n
        self._empty = empty = np.empty if scratch is None else scratch.carver()
        self._names = [(f"W{layer}", f"b{layer}") for layer in range(spec.n_layers)]
        self._relu = spec.activation == "relu"
        last = spec.n_layers - 1
        self._prods, self._pre, self._post = [], [], []
        for layer, (prod, z) in enumerate(zip(self.dtypes.prod, self.dtypes.z)):
            pre = empty(self._lead + (n, spec.layer_dims[layer + 1]), z)
            self._pre.append(pre)
            self._prods.append(pre if prod == z else empty(pre.shape, prod))
            self._post.append(empty(pre.shape, z) if self._relu and layer < last else pre)
        self._postT = [_mT(a) for a in self._post]
        self._head = self._masks = self._deltas = None
        self.x = self.y = None
        if inputs:
            self.x = empty(self._lead + (n, spec.layer_dims[0]), x_dtype)
            if spec.loss == "mse":
                self.y = empty(self._pre[-1].shape, self.dtypes.z[-1])
            else:
                self.y = empty(self._lead + (n,), np.int64)

    def forward(self, params, x: np.ndarray) -> np.ndarray:
        """The network's output for ``x``, in the plan's last pre-activation array."""
        h, stacked = x, bool(self._lead)
        for (w, b), prod, pre, post in zip(self._names, self._prods, self._pre, self._post):
            bias = params[b]
            np.matmul(h, params[w], out=prod)
            np.add(prod, bias[:, None] if stacked else bias, out=pre)
            if post is not pre:
                np.maximum(pre, 0.0, out=post)
            h = post
        return h

    def step(self, params, x: np.ndarray, y: np.ndarray, grads, want_loss: bool = False,
             input_grad: bool = False):
        """A forward and a backward pass; gradients go into ``grads`` (name -> array).

        Returns ``(loss, dx)``: the mean loss if ``want_loss`` and d/d(input)
        if ``input_grad``, each None otherwise.
        """
        out = self.forward(params, x)
        if self._head is None:
            self._head = _Head(self._spec, out.shape, out.dtype, self._empty)
        loss = self._head(out, y, want_loss)
        return loss, self.backprop(params, x, self._head.grad, grads, input_grad)

    def backprop(self, params, x: np.ndarray, delta: np.ndarray, grads, input_grad: bool = False):
        """Gradients of a scalar whose d/d(output) is ``delta``, after ``forward(params, x)``.

        Writes them into ``grads`` and returns d/d(input) as a new array if
        ``input_grad``, else None.
        """
        if self._deltas is None:
            dims = self._spec.layer_dims
            self._deltas = [None] + [
                self._empty(self._lead + (self._n, dims[layer]), self.dtypes.delta[layer - 1])
                for layer in range(1, self._spec.n_layers)
            ]
            self._masks = [self._empty(pre.shape, bool) for pre in self._pre[:-1]]
        last = len(self._names) - 1
        for layer in range(last, -1, -1):
            w, b = self._names[layer]
            if layer < last and self._relu:
                # below the output layer delta is one of the plan's arrays,
                # never the caller's, so the mask applies in place
                mask = np.greater(self._pre[layer], 0.0, out=self._masks[layer])
                np.multiply(delta, mask, out=delta)
            np.matmul(self._postT[layer - 1] if layer else _mT(x), delta, out=grads[w])
            np.add.reduce(delta, axis=-2, out=grads[b])
            if layer:
                delta = np.matmul(delta, _mT(params[w]), out=self._deltas[layer])
            elif input_grad:
                return delta @ _mT(params[w])
        return None

    def grad_arrays(self, out=None) -> dict:
        """``out`` checked against the gradients, or new arrays for them.

        numpy would broadcast into a larger array or cast to a narrower dtype
        (a float32 model on float64 features has float64 gradients), so a
        missing, extra or mismatched array raises :class:`ShapeMismatch`.
        """
        dims, shapes = self._spec.layer_dims, {}
        for layer, (w, b) in enumerate(self._names):
            shapes[w] = self._lead + dims[layer : layer + 2]
            shapes[b] = self._lead + dims[layer + 1 : layer + 2]
        if out is None:
            return {name: np.empty(shapes[name], dtype) for name, dtype in self.dtypes.grads.items()}
        if len(out) != len(shapes):
            raise ShapeMismatch(f"{len(out)} output arrays for {len(shapes)} gradients")
        for name, dtype in self.dtypes.grads.items():
            try:
                arr = out[name]
            except KeyError:
                raise ShapeMismatch(f"no output array for gradient {name!r}") from None
            if arr.shape != shapes[name] or arr.dtype != dtype:
                raise ShapeMismatch(
                    f"gradient {name!r} is {dtype.name}{list(shapes[name])}, "
                    f"output array is {arr.dtype.name}{list(arr.shape)}"
                )
        return out


class PlannedGrads(dict):
    """Gradient arrays (name -> writable array) that carry the plan a training step runs in.

    Given one of these as ``out``, :func:`backward` runs ``plan.step``: no
    check and no loss.  The plan holds only its own work arrays, never this
    mapping or the arrays in it, so the two form no reference cycle.
    """

    __slots__ = ("plan",)

    def __init__(self, grads, plan: Plan):
        super().__init__(grads)
        self.plan = plan


def check_shard(spec: ModelSpec, params, features, labels) -> np.ndarray:
    """The targets of a training shard, checked once for every batch drawn from it.

    A planned step checks nothing, so this raises what :func:`backward`
    would raise on a batch of the shard: :class:`DimMismatch` for features
    of the wrong width or a label that the output layer cannot take, and
    :class:`ShapeMismatch` where a gradient's dtype is not its parameter's.
    Returns ``labels`` in the form a plan's ``y`` holds them, copied only
    where that form differs.
    """
    x = _check_features(spec, features)
    dtypes = _Dtypes(spec, params, x.dtype)
    targets = _targets(spec, labels, x.shape[:-1], dtypes.z[-1])
    for name, dtype in dtypes.grads.items():
        if params[name].dtype != dtype:
            raise ShapeMismatch(
                f"gradient {name!r} is {dtype.name}, parameter is {params[name].dtype.name}"
            )
    return targets


def _plan_for(spec: ModelSpec, params, x, dout=None) -> tuple[np.ndarray, Plan]:
    x = _check_features(spec, x)
    return x, Plan(spec, params, x.dtype, x.shape[:-2], x.shape[-2], dout=dout)


def forward(spec: ModelSpec, params: ParameterSet, x: np.ndarray) -> np.ndarray:
    """Network output (n, d_out)."""
    x, plan = _plan_for(spec, params, x)
    return plan.forward(params, x)


def _loss_and_grad(spec: ModelSpec, out: np.ndarray, y):
    """(mean loss, d loss / d out); a stack of K outputs gets K losses."""
    head = _Head(spec, out.shape, out.dtype)
    loss = head(out, _targets(spec, y, out.shape[:-1], out.dtype), want_loss=True)
    return loss, head.grad


def loss_on(spec: ModelSpec, params, x, y) -> float:
    loss, _ = _loss_and_grad(spec, forward(spec, params, x), y)
    return loss


def backward(spec: ModelSpec, params, x, y, *, out=None):
    """(mean loss, gradients) for one batch, or for a stack of K batches.

    ``params`` is any name -> array mapping.  For a stack, ``x`` is
    (K, n, d_in), the labels and every parameter carry a leading K axis, and
    the loss is an array of K per-model losses (see the module docstring).
    Without ``out`` the gradients come back as a new :class:`ParameterSet`.
    With ``out`` (name -> writable array, one per gradient, of exactly its
    shape and dtype) they are written there and ``out`` itself is returned;
    a missing, extra or mismatched array raises :class:`ShapeMismatch`.
    Either way the call checks its inputs and runs a one-shot :class:`Plan`.

    A training step passes :class:`PlannedGrads` as ``out``: the call then
    runs that plan on ``x`` and ``y`` (the plan's own input arrays) with no
    check, since the caller checked the shard once per round with
    :func:`check_shard`, and it computes no loss: the loss comes back None.
    """
    if type(out) is PlannedGrads:
        out.plan.step(params, x, y, out)
        return None, out
    x, plan = _plan_for(spec, params, x)
    y = _targets(spec, y, x.shape[:-1], plan.dtypes.z[-1])
    grads = plan.grad_arrays(out)
    loss, _ = plan.step(params, x, y, grads, want_loss=True)
    if out is None:
        return loss, ParameterSet((name, grads[name]) for name in params.keys())
    return loss, out


def backward_with_input_grad(spec: ModelSpec, params, x, y):
    """(mean loss, gradient ParameterSet, d loss / d input) for one batch."""
    x, plan = _plan_for(spec, params, x)
    y = _targets(spec, y, x.shape[:-1], plan.dtypes.z[-1])
    grads = plan.grad_arrays()
    loss, dx = plan.step(params, x, y, grads, want_loss=True, input_grad=True)
    return loss, ParameterSet((name, grads[name]) for name in params.keys()), dx


def backward_from_output_grad(spec: ModelSpec, params, x, dout: np.ndarray):
    """Backprop an externally supplied output gradient (split-model training).

    Returns (output, gradient ParameterSet, input gradient).
    """
    dout = np.asarray(dout)
    x, plan = _plan_for(spec, params, x, dout=dout.dtype)
    out = plan.forward(params, x)
    if dout.shape != out.shape:
        raise DimMismatch(f"output grad {dout.shape} vs outputs {out.shape}")
    grads = plan.grad_arrays()
    dx = plan.backprop(params, x, dout, grads, input_grad=True)
    return out, ParameterSet((name, grads[name]) for name in params.keys()), dx


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    task: str = "classification"  # classification | regression

    def __post_init__(self):
        self.features = np.asarray(self.features)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ShapeMismatch(f"features must be 2-D, got {self.features.shape}")
        if len(self.labels) != len(self.features):
            raise ShapeMismatch("features and labels disagree on sample count")
        if len(self.features) == 0:
            raise EmptyDataset("dataset has no rows")
        if self.task not in ("classification", "regression"):
            raise ShapeMismatch(f"unknown task {self.task!r}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.task)


def dataset_metrics(spec: ModelSpec, params: ParameterSet, ds: Dataset) -> dict:
    """Full-dataset loss plus accuracy (classification) or mse (regression)."""
    out = forward(spec, params, ds.features)
    loss, _ = _loss_and_grad(spec, out, ds.labels)
    metrics = {"loss": loss}
    if ds.task == "classification":
        pred = out.argmax(axis=1)
        metrics["accuracy"] = float(np.mean(pred == ds.labels.astype(np.int64)))
    else:
        target = ds.labels.reshape(len(ds), -1)
        metrics["mse"] = float(np.mean((out - target) ** 2))
    return metrics


def make_blobs(
    classes: int = 10,
    dim: int = 16,
    per_class: int = 100,
    spread: float = 1.0,
    mean_scale: float = 3.0,
    seed: int = 0,
    dtype=np.float64,
) -> Dataset:
    """Gaussian clusters, one per class, rows shuffled; fully seed-determined."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, mean_scale, (classes, dim))
    feats = np.concatenate(
        [means[c] + spread * rng.normal(0.0, 1.0, (per_class, dim)) for c in range(classes)]
    )
    labels = np.repeat(np.arange(classes), per_class)
    order = rng.permutation(len(labels))
    return Dataset(feats[order].astype(np.dtype(dtype)), labels[order], "classification")


def load_csv(path, task: str = "regression") -> Dataset:
    """Header row, last column is the label, every cell numeric."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: no header row") from None
        width = len(header)
        if width < 2:
            raise ParseError(f"{path}: need at least one feature column plus label")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    feats, labels = data[:, :-1], data[:, -1]
    if task == "classification":
        labels = labels.astype(np.int64)
    return Dataset(feats, labels, task)


def load_bundled_diabetes() -> Dataset:
    """The classic 442-sample, 10-feature regression table shipped with the package."""
    ref = resources.files("fedkit").joinpath("data/diabetes.csv")
    with resources.as_file(ref) as path:
        return load_csv(path, task="regression")


def split_train_val(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; val gets round(n * val_fraction) rows."""
    if not 0.0 < val_fraction < 1.0:
        raise InfeasiblePartition(f"val_fraction {val_fraction} outside (0, 1)")
    n = len(ds)
    n_val = int(round(n * val_fraction))
    if n_val == 0 or n_val == n:
        raise InfeasiblePartition(f"val_fraction {val_fraction} leaves an empty split for n={n}")
    order = np.random.default_rng(seed).permutation(n)
    return ds.subset(np.sort(order[n_val:])), ds.subset(np.sort(order[:n_val]))


# ---------------------------------------------------------------------------
# partitioning


@dataclass(frozen=True)
class PartitionSpec:
    scheme: str  # iid | class_restricted | dirichlet
    n_clients: int
    seed: int = 0
    classes_range: tuple[int, int] = (1, 1)  # class_restricted: label-set size bounds
    alpha: float = 1.0  # dirichlet concentration

    def __post_init__(self):
        if self.n_clients < 1:
            raise InfeasiblePartition(f"n_clients must be positive, got {self.n_clients}")
        if self.scheme not in ("iid", "class_restricted", "dirichlet"):
            raise InfeasiblePartition(f"unknown partition scheme {self.scheme!r}")


def _split_evenly(idx: np.ndarray, n_parts: int) -> list[np.ndarray]:
    # sizes differ by at most one
    return [np.asarray(part, dtype=np.int64) for part in np.array_split(idx, n_parts)]


def partition_indices(labels: np.ndarray, spec: PartitionSpec) -> list[np.ndarray]:
    """Index arrays per client: pairwise disjoint, union covers every sample."""
    labels = np.asarray(labels)
    n = len(labels)
    rng = np.random.default_rng(spec.seed)
    if n < spec.n_clients:
        raise InfeasiblePartition(f"{n} samples cannot cover {spec.n_clients} clients")

    if spec.scheme == "iid":
        parts = _split_evenly(rng.permutation(n), spec.n_clients)
        return [np.sort(p) for p in parts]

    classes = np.unique(labels)
    k = len(classes)

    if spec.scheme == "dirichlet":
        buckets: list[list[np.ndarray]] = [[] for _ in range(spec.n_clients)]
        for c in classes:
            idx_c = rng.permutation(np.flatnonzero(labels == c))
            props = rng.dirichlet(np.full(spec.n_clients, spec.alpha))
            counts = _largest_remainder(len(idx_c), props)
            start = 0
            for i, cnt in enumerate(counts):
                buckets[i].append(idx_c[start : start + cnt])
                start += cnt
        return [np.sort(np.concatenate(b)) if b else np.zeros(0, np.int64) for b in buckets]

    # class_restricted
    lo, hi = spec.classes_range
    if not 1 <= lo <= hi <= k:
        raise InfeasiblePartition(f"classes_range {spec.classes_range} outside [1, {k}]")
    if spec.n_clients * hi < k:
        raise InfeasiblePartition(
            f"{spec.n_clients} clients with at most {hi} classes each cannot cover {k} classes"
        )
    for _ in range(1000):
        sizes = rng.integers(lo, hi + 1, spec.n_clients)
        label_sets = [rng.choice(k, size=s, replace=False) for s in sizes]
        covered = np.zeros(k, dtype=bool)
        for ls in label_sets:
            covered[ls] = True
        if covered.all():
            break
    else:
        raise InfeasiblePartition("could not draw label sets covering every class")
    owners: dict[int, list[int]] = {c: [] for c in range(k)}
    for client, ls in enumerate(label_sets):
        for c in ls:
            owners[c].append(client)
    buckets = [[] for _ in range(spec.n_clients)]
    for ci, c in enumerate(classes):
        idx_c = rng.permutation(np.flatnonzero(labels == c))
        for owner, chunk in zip(owners[ci], _split_evenly(idx_c, len(owners[ci]))):
            buckets[owner].append(chunk)
    out = []
    for b in buckets:
        merged = np.concatenate([x for x in b if len(x)]) if b else np.zeros(0, np.int64)
        out.append(np.sort(merged))
    return out


def _largest_remainder(total: int, props: np.ndarray) -> np.ndarray:
    """Integer allocation of ``total`` by proportions, remainders to largest fractions."""
    raw = props * total
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short:
        frac = raw - base
        for i in np.argsort(-frac, kind="stable")[:short]:
            base[i] += 1
    return base


def partition(ds: Dataset, spec: PartitionSpec) -> list[Dataset]:
    parts = partition_indices(ds.labels, spec)
    if any(len(p) == 0 for p in parts):
        raise InfeasiblePartition("a client received zero samples; adjust sizes or seed")
    return [ds.subset(p) for p in parts]


# ---------------------------------------------------------------------------
# dataset registry (config-facing)


def _build_blobs(kwargs: dict) -> Dataset:
    try:
        return make_blobs(**kwargs)
    except TypeError as e:  # an unknown kwarg, or a value of the wrong type
        raise ParseError(f"blobs dataset: {e}") from None


def _build_csv(kwargs: dict) -> Dataset:
    kw = dict(kwargs)
    path = kw.pop("path", None)
    if path is None:
        raise ParseError("csv dataset needs a 'path' kwarg")
    return load_csv(path, task=kw.pop("task", "regression"))


def _build_diabetes(kwargs: dict) -> Dataset:
    if kwargs:
        raise ParseError(f"diabetes dataset takes no kwargs, got {sorted(kwargs)}")
    return load_bundled_diabetes()


DATASETS = {
    "blobs": _build_blobs,
    "csv": _build_csv,
    "diabetes": _build_diabetes,
}


def without_nulls(kwargs: dict) -> dict:
    """A copy of ``kwargs`` without its null values, in nested mappings too: a null means unset."""
    return {
        k: without_nulls(v) if isinstance(v, dict) else v for k, v in kwargs.items() if v is not None
    }


def build_dataset(name: str, kwargs: Optional[dict] = None) -> Dataset:
    """Instantiate a registered dataset, honoring split/partition plumbing.

    A null kwarg is unset, as everywhere in a config, so its default applies.
    Recognized meta kwargs (handled here, not passed to the builder):

    - ``val_fraction`` + ``role`` ("train" | "val"): deterministic holdout split
    - ``split_seed``: seed for that split (default 0)
    - ``partition``: mapping with ``scheme``, ``n_clients``, ``index`` and
      scheme-specific fields; selects one shard of the train split
    """
    from .errors import UnknownStrategyName

    if name not in DATASETS:
        raise UnknownStrategyName(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    kw = without_nulls(kwargs or {})
    val_fraction = kw.pop("val_fraction", None)
    role = kw.pop("role", "train")
    split_seed = kw.pop("split_seed", 0)
    part_cfg = kw.pop("partition", None)
    ds = DATASETS[name](kw)
    if val_fraction is not None:
        train, val = split_train_val(ds, float(val_fraction), int(split_seed))
        ds = val if role == "val" else train
    elif role == "val":
        raise ParseError("role 'val' requires val_fraction")
    if part_cfg is not None:
        if role == "val":
            raise ParseError("partition applies to the train split only")
        pc = dict(part_cfg)
        missing = sorted({"scheme", "n_clients", "index"} - set(pc))
        if missing:
            raise MissingRequired(f"partition needs {missing}")
        index = pc.pop("index")
        pspec = PartitionSpec(
            scheme=pc.pop("scheme"),
            n_clients=int(pc.pop("n_clients")),
            seed=int(pc.pop("seed", 0)),
            classes_range=tuple(pc.pop("classes_range", (1, 1))),
            alpha=float(pc.pop("alpha", 1.0)),
        )
        if pc:
            raise ParseError(f"unknown partition keys {sorted(pc)}")
        shards = partition(ds, pspec)
        if not 0 <= int(index) < len(shards):
            raise InfeasiblePartition(f"partition index {index} outside 0..{len(shards) - 1}")
        ds = shards[int(index)]
    return ds
