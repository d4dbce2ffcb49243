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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import csv

import numpy as np

from .errors import DimMismatch, EmptyDataset, InfeasiblePartition, ParseError, ShapeMismatch
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


def _act(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(z, 0.0)
    return z


def _check_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim not in (2, 3) or x.shape[-1] != spec.layer_dims[0]:
        raise DimMismatch(f"features {x.shape} incompatible with input dim {spec.layer_dims[0]}")
    return x


def _forward_cache(spec: ModelSpec, params, x: np.ndarray):
    """Returns (output, pre-activations per layer, post-activations incl. input)."""
    x = _check_features(spec, x)
    stacked = x.ndim == 3
    pre, post = [], [x]
    h = x
    last = spec.n_layers - 1
    for layer in range(last + 1):
        b = params[f"b{layer}"]
        z = h @ params[f"W{layer}"] + (b[:, None] if stacked else b)
        pre.append(z)
        h = _act(spec, z) if layer < last else z
        post.append(h)
    return h, pre, post


def forward(spec: ModelSpec, params: ParameterSet, x: np.ndarray) -> np.ndarray:
    """Network output (n, d_out)."""
    out, _, _ = _forward_cache(spec, params, x)
    return out


def _loss_and_grad(spec: ModelSpec, out: np.ndarray, y):
    """(mean loss, d loss / d out); a stack of K outputs gets K losses."""
    n = out.shape[-2]
    stacked = out.ndim == 3
    if spec.loss == "mse":
        target = np.asarray(y, dtype=out.dtype)
        if target.ndim == out.ndim - 1:
            target = target.reshape(*out.shape[:-1], -1)
        if target.shape != out.shape:
            raise DimMismatch(f"labels {target.shape} vs outputs {out.shape}")
        diff = out - target
        if stacked:
            loss = np.mean(diff * diff, axis=(1, 2))
        else:
            loss = float(np.mean(diff * diff))
        return loss, (2.0 / (n * out.shape[-1])) * diff
    # softmax cross entropy over integer labels
    labels = np.asarray(y)
    if labels.shape != out.shape[:-1]:
        raise DimMismatch(f"labels {labels.shape} vs batch {out.shape[:-1]}")
    labels = labels.astype(np.int64)
    if (np.minimum.reduce(labels, axis=None) < 0
            or np.maximum.reduce(labels, axis=None) >= out.shape[-1]):
        raise DimMismatch("label out of range for output layer")
    rows = np.arange(n)
    # the (row, label) entry of every output; per model for a stack
    picks = (np.arange(out.shape[0])[:, None], rows, labels) if stacked else (rows, labels)
    shifted = out - np.maximum.reduce(out, axis=-1, keepdims=True)
    # one exp serves both the log-sum-exp of the loss and the softmax
    probs = np.exp(shifted)
    total = np.add.reduce(probs, axis=-1, keepdims=True)
    # the sum and the division of np.mean, without its Python-level wrapper
    loss = np.add.reduce(np.log(total[..., 0]) - shifted[picks], axis=-1) / n
    probs /= total
    probs[picks] -= 1.0
    probs /= n
    return (loss if stacked else float(loss)), probs


def _grad_out(out, name: str, shape: tuple, dtype) -> Optional[np.ndarray]:
    """``out[name]`` if it has exactly the gradient's shape and dtype.

    numpy would broadcast into a larger array or cast to a narrower dtype
    (a float32 model on float64 features has float64 gradients), so both
    are checked here instead.
    """
    if out is None:
        return None
    try:
        arr = out[name]
    except KeyError:
        raise ShapeMismatch(f"no output array for gradient {name!r}") from None
    if arr.shape != shape or arr.dtype != dtype:
        raise ShapeMismatch(
            f"gradient {name!r} is {np.dtype(dtype).name}{list(shape)}, "
            f"output array is {arr.dtype.name}{list(arr.shape)}"
        )
    return arr


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes: ``a.T`` for a matrix, per matrix for a stack."""
    return a.T if a.ndim == 2 else a.swapaxes(-1, -2)


def _backprop(spec: ModelSpec, params, pre, post, delta: np.ndarray, out, input_grad: bool):
    """Gradients of a scalar whose d/d(output) is ``delta``, plus d/d(input) if asked.

    Arrays may carry a leading model axis (see the module docstring).  With
    ``out`` (gradient name -> writable array) the gradients are written
    there and ``out`` is returned; otherwise they are fresh arrays adopted
    into a set in the entry order of ``params``.
    """
    last = spec.n_layers - 1
    if out is not None and len(out) != 2 * (last + 1):
        raise ShapeMismatch(f"{len(out)} output arrays for {2 * (last + 1)} gradients")
    relu = spec.activation == "relu"
    grads: dict[str, np.ndarray] = {}
    for layer in range(last, -1, -1):
        if layer < last and relu:
            # below the output layer delta is a product made here, never the
            # caller's array, so the mask applies in place
            np.multiply(delta, pre[layer] > 0.0, out=delta)
        h = post[layer]
        w_name, b_name = f"W{layer}", f"b{layer}"
        w_shape = h.shape[:-2] + (h.shape[-1], delta.shape[-1])
        w_out = _grad_out(out, w_name, w_shape, np.result_type(h, delta))
        b_out = _grad_out(out, b_name, delta.shape[:-2] + delta.shape[-1:], delta.dtype)
        grads[w_name] = np.matmul(_mT(h), delta, out=w_out)
        grads[b_name] = np.add.reduce(delta, axis=-2, out=b_out)
        if layer or input_grad:
            delta = delta @ _mT(params[w_name])
    if out is None:
        out = ParameterSet._adopt((name, grads[name]) for name in params.keys())
    return out, delta if input_grad else None


def loss_on(spec: ModelSpec, params, x, y) -> float:
    out, _, _ = _forward_cache(spec, params, x)
    loss, _ = _loss_and_grad(spec, out, y)
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
    """
    fwd, pre, post = _forward_cache(spec, params, x)
    loss, dout = _loss_and_grad(spec, fwd, y)
    grads, _ = _backprop(spec, params, pre, post, dout, out, input_grad=False)
    return loss, grads


def backward_with_input_grad(spec: ModelSpec, params, x, y):
    """(mean loss, gradient ParameterSet, d loss / d input) for one batch."""
    out, pre, post = _forward_cache(spec, params, x)
    loss, dout = _loss_and_grad(spec, out, y)
    grads, dx = _backprop(spec, params, pre, post, dout, None, input_grad=True)
    return loss, grads, dx


def backward_from_output_grad(spec: ModelSpec, params, x, dout: np.ndarray):
    """Backprop an externally supplied output gradient (split-model training).

    Returns (output, gradient ParameterSet, input gradient).
    """
    out, pre, post = _forward_cache(spec, params, x)
    if np.asarray(dout).shape != out.shape:
        raise DimMismatch(f"output grad {np.asarray(dout).shape} vs outputs {out.shape}")
    grads, dx = _backprop(spec, params, pre, post, np.asarray(dout), None, input_grad=True)
    return out, grads, dx


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
    return make_blobs(**kwargs)


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


def build_dataset(name: str, kwargs: Optional[dict] = None) -> Dataset:
    """Instantiate a registered dataset, honoring split/partition plumbing.

    Recognized meta kwargs (handled here, not passed to the builder):

    - ``val_fraction`` + ``role`` ("train" | "val"): deterministic holdout split
    - ``split_seed``: seed for that split (default 0)
    - ``partition``: mapping with ``scheme``, ``n_clients``, ``index`` and
      scheme-specific fields; selects one shard of the train split
    """
    from .errors import UnknownStrategyName

    if name not in DATASETS:
        raise UnknownStrategyName(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    kw = dict(kwargs or {})
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
