import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkit import models as M
from fedkit.errors import DimMismatch, EmptyDataset, InfeasiblePartition, ParseError, ShapeMismatch
from fedkit.optim import Adam, SGD, make_optimizer
from fedkit.params import ParameterSet


# ---------------------------------------------------------------------------
# finite-difference oracle


def numeric_grads(spec, params, x, y, h=1e-5):
    """Central differences on every coordinate of every tensor."""
    out = {}
    for name in params.names:
        base = params[name]
        g = np.zeros_like(base)
        for it in np.ndindex(base.shape):
            plus = {n: params[n].copy() for n in params.names}
            minus = {n: params[n].copy() for n in params.names}
            plus[name][it] += h
            minus[name][it] -= h
            lp = M.loss_on(spec, ParameterSet(plus.items()), x, y)
            lm = M.loss_on(spec, ParameterSet(minus.items()), x, y)
            g[it] = (lp - lm) / (2 * h)
        out[name] = g
    return ParameterSet(out.items())


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


CASES = [
    ("relu", "softmax_cross_entropy", (5, 8, 4)),
    ("relu", "mse", (4, 6, 2)),
    ("identity", "mse", (3, 3)),
    ("identity", "softmax_cross_entropy", (4, 5, 5, 3)),
]


@pytest.mark.parametrize("activation,loss,dims", CASES)
def test_backward_matches_finite_differences(activation, loss, dims):
    rng = np.random.default_rng(hash((activation, loss)) % 2**32)
    spec = M.ModelSpec(dims, activation=activation, loss=loss)
    params = M.init_params(spec, seed=int(rng.integers(2**31)))
    x = rng.normal(size=(6, dims[0]))
    if loss == "mse":
        y = rng.normal(size=(6, dims[-1]))
    else:
        y = rng.integers(0, dims[-1], size=6)
    _, grads = M.backward(spec, params, x, y)
    want = numeric_grads(spec, params, x, y)
    for name in params.names:
        assert rel_err(grads[name], want[name]) < 1e-4, name


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    spec = M.ModelSpec((4, 7, 3), activation="relu", loss="mse")
    params = M.init_params(spec, seed=5)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 3))
    out = M.forward(spec, params, x)
    _, dout = M._loss_and_grad(spec, out, y)
    _, _, dx = M.backward_from_output_grad(spec, params, x, dout)
    h = 1e-6
    want = np.zeros_like(x)
    for it in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[it] += h
        xm[it] -= h
        want[it] = (M.loss_on(spec, params, xp, y) - M.loss_on(spec, params, xm, y)) / (2 * h)
    assert rel_err(dx, want) < 1e-4


def test_backward_from_output_grad_agrees_with_backward():
    rng = np.random.default_rng(2)
    spec = M.ModelSpec((3, 5, 2), loss="mse")
    params = M.init_params(spec, seed=9)
    x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    loss, grads = M.backward(spec, params, x, y)
    out = M.forward(spec, params, x)
    _, dout = M._loss_and_grad(spec, out, y)
    _, grads2, _ = M.backward_from_output_grad(spec, params, x, dout)
    assert grads.allclose(grads2, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# forward / loss semantics


def test_identity_single_layer_passes_features_through():
    spec = M.ModelSpec((3, 3), activation="identity", loss="mse")
    params = ParameterSet([("W0", np.eye(3)), ("b0", np.zeros(3))])
    x = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(M.forward(spec, params, x), x)


def test_mse_of_mean_predictor_equals_label_variance():
    rng = np.random.default_rng(4)
    y = rng.normal(loc=3.0, scale=2.0, size=50)
    spec = M.ModelSpec((2, 1), activation="identity", loss="mse")
    params = ParameterSet([("W0", np.zeros((2, 1))), ("b0", np.array([y.mean()]))])
    x = rng.normal(size=(50, 2))
    loss = M.loss_on(spec, params, x, y)
    assert loss == pytest.approx(np.var(y), rel=1e-12)


def test_uniform_logits_cross_entropy_is_log_k():
    spec = M.ModelSpec((2, 4), activation="identity", loss="softmax_cross_entropy")
    params = ParameterSet([("W0", np.zeros((2, 4))), ("b0", np.zeros(4))])
    x = np.ones((8, 2))
    y = np.arange(8) % 4
    assert M.loss_on(spec, params, x, y) == pytest.approx(np.log(4.0), rel=1e-12)


def test_constant_model_accuracy_is_class_zero_share():
    ds = M.make_blobs(classes=4, dim=3, per_class=25, seed=1)
    spec = M.ModelSpec((3, 4), activation="identity", loss="softmax_cross_entropy")
    params = ParameterSet([("W0", np.zeros((3, 4))), ("b0", np.zeros(4))])
    metrics = M.dataset_metrics(spec, params, ds)
    share = float(np.mean(ds.labels == 0))
    assert metrics["accuracy"] == pytest.approx(share)
    assert share == pytest.approx(0.25)


def test_label_out_of_range_rejected():
    spec = M.ModelSpec((2, 3), loss="softmax_cross_entropy")
    params = M.init_params(spec, seed=0)
    with pytest.raises(DimMismatch):
        M.loss_on(spec, params, np.zeros((2, 2)), np.array([0, 3]))


def test_init_bounds_and_determinism():
    spec = M.ModelSpec((16, 8, 4))
    p1 = M.init_params(spec, seed=42)
    p2 = M.init_params(spec, seed=42)
    p3 = M.init_params(spec, seed=43)
    assert p1 == p2
    assert not (p1 == p3)
    assert np.max(np.abs(p1["W0"])) <= 1.0 / 4.0
    assert np.max(np.abs(p1["W1"])) <= 1.0 / np.sqrt(8)


# ---------------------------------------------------------------------------
# datasets


def test_make_blobs_shapes_and_determinism():
    ds = M.make_blobs(classes=5, dim=7, per_class=20, seed=3)
    assert ds.features.shape == (100, 7)
    assert sorted(np.bincount(ds.labels).tolist()) == [20] * 5
    ds2 = M.make_blobs(classes=5, dim=7, per_class=20, seed=3)
    np.testing.assert_array_equal(ds.features, ds2.features)


def test_split_train_val():
    ds = M.make_blobs(classes=3, dim=2, per_class=40, seed=0)
    train, val = M.split_train_val(ds, 0.25, seed=9)
    assert len(train) == 90 and len(val) == 30
    train2, val2 = M.split_train_val(ds, 0.25, seed=9)
    np.testing.assert_array_equal(val.features, val2.features)
    # disjoint: every row appears exactly once across the two splits
    joined = np.concatenate([train.features, val.features])
    assert joined.shape[0] == len(ds)
    assert {tuple(r) for r in joined} == {tuple(r) for r in ds.features}


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f1,f2,label\n1.0,2.0,0\n3.5,-1.0,1\n")
    ds = M.load_csv(path, task="classification")
    assert ds.features.shape == (2, 2)
    assert ds.labels.tolist() == [0, 1]


def test_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,oops\n")
    with pytest.raises(ParseError):
        M.load_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    with pytest.raises(EmptyDataset):
        M.load_csv(empty)


def test_bundled_diabetes_table():
    ds = M.load_bundled_diabetes()
    assert ds.features.shape == (442, 10)
    assert ds.labels.min() == 25.0
    assert ds.labels.max() == 346.0
    assert ds.task == "regression"


# ---------------------------------------------------------------------------
# partitioning


def assert_is_partition(parts, n):
    allidx = np.concatenate(parts)
    assert len(allidx) == n
    assert len(np.unique(allidx)) == n


def test_iid_partition_even_sizes():
    labels = np.arange(10) % 2
    parts = M.partition_indices(labels, M.PartitionSpec("iid", 2, seed=0))
    assert sorted(len(p) for p in parts) == [5, 5]
    assert_is_partition(parts, 10)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["iid", "class_restricted", "dirichlet"]),
    st.integers(2, 6),
    st.integers(0, 2**31),
)
def test_partition_conserves_samples(scheme, n_clients, seed):
    labels = np.random.default_rng(seed).integers(0, 5, size=80)
    spec = M.PartitionSpec(scheme, n_clients, seed=seed, classes_range=(2, 4), alpha=0.5)
    parts = M.partition_indices(labels, spec)
    assert len(parts) == n_clients
    assert_is_partition(parts, 80)


def test_class_restricted_label_budget():
    ds = M.make_blobs(classes=10, dim=4, per_class=50, seed=0)
    spec = M.PartitionSpec("class_restricted", 10, seed=1, classes_range=(5, 7))
    shards = M.partition(ds, spec)
    union = set()
    for shard in shards:
        classes = set(np.unique(shard.labels).tolist())
        assert 5 <= len(classes) <= 7
        union |= classes
    assert union == set(range(10))


def test_class_restricted_infeasible():
    labels = np.arange(10)  # 10 classes, one sample each
    with pytest.raises(InfeasiblePartition):
        M.partition_indices(labels, M.PartitionSpec("class_restricted", 3, classes_range=(1, 2)))


def test_dirichlet_high_alpha_is_nearly_uniform():
    ds = M.make_blobs(classes=4, dim=3, per_class=2500, seed=2)
    parts = M.partition_indices(ds.labels, M.PartitionSpec("dirichlet", 4, seed=3, alpha=1e6))
    global_share = 1.0 / 4.0
    for p in parts:
        share = np.bincount(ds.labels[p], minlength=4) / len(p)
        assert np.max(np.abs(share - global_share)) < 0.01


def test_partition_determinism():
    labels = np.random.default_rng(0).integers(0, 6, 200)
    spec = M.PartitionSpec("dirichlet", 5, seed=12, alpha=0.3)
    a = M.partition_indices(labels, spec)
    b = M.partition_indices(labels, spec)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# registry


def test_build_dataset_blobs_with_partition():
    kwargs = {
        "classes": 4,
        "dim": 3,
        "per_class": 30,
        "seed": 5,
        "val_fraction": 0.2,
        "partition": {"scheme": "iid", "n_clients": 3, "index": 1, "seed": 0},
    }
    shard = M.build_dataset("blobs", kwargs)
    assert len(shard) == 32  # 120 rows -> 96 train -> three shards of 32
    val = M.build_dataset("blobs", {"classes": 4, "dim": 3, "per_class": 30, "seed": 5,
                                    "val_fraction": 0.2, "role": "val"})
    assert len(val) == 24


def test_build_dataset_unknown_name():
    from fedkit.errors import UnknownStrategyName

    with pytest.raises(UnknownStrategyName):
        M.build_dataset("no_such_dataset", {})


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_step():
    p = ParameterSet([("w", np.array([1.0, 2.0]))])
    g = ParameterSet([("w", np.array([0.5, -0.5]))])
    out = SGD(lr=0.1).step(p, g)
    np.testing.assert_allclose(out["w"], [0.95, 2.05])


def test_adam_first_step_magnitude():
    p = ParameterSet([("w", np.zeros(3))])
    g = ParameterSet([("w", np.array([1.0, -2.0, 0.5]))])
    out = Adam(lr=0.01).step(p, g)
    # bias-corrected first step moves every coordinate by ~lr against the gradient sign
    np.testing.assert_allclose(out["w"], [-0.01, 0.01, -0.01], rtol=1e-6)


def test_make_optimizer_registry():
    assert isinstance(make_optimizer("sgd", 0.1), SGD)
    assert isinstance(make_optimizer("adam", 0.1), Adam)
    from fedkit.errors import UnknownStrategyName

    with pytest.raises(UnknownStrategyName):
        make_optimizer("lbfgs", 0.1)


def test_adam_rejects_a_model_of_another_size():
    adam = Adam(lr=0.01)
    adam.step(ParameterSet([("w", np.zeros(3))]), ParameterSet([("w", np.ones(3))]))
    with pytest.raises(ShapeMismatch):
        adam.step(ParameterSet([("w", np.zeros(4))]), ParameterSet([("w", np.ones(4))]))
