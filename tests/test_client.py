import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fedkit import client as client_module
from fedkit.client import (
    ClientState,
    TrainConfig,
    local_train,
    train_ahead,
    train_cohort,
)
from fedkit.errors import ConfigError, DimMismatch, ShapeMismatch
from fedkit.models import Dataset, ModelSpec, backward, dataset_metrics, init_params, make_blobs
from fedkit.optim import Adam
from fedkit.params import ParameterSet, norms
from fedkit.privacy import PrivacyConfig

SPEC = ModelSpec((4, 8, 3), loss="softmax_cross_entropy")


def make_state(seed=0, **cfg_kw):
    ds = make_blobs(classes=3, dim=4, per_class=20, seed=1)
    cfg = TrainConfig(seed=seed, **cfg_kw)
    return ClientState("c0", ds, SPEC, cfg)


def test_same_state_same_inputs_same_update():
    base = init_params(SPEC, seed=7)
    u1 = local_train(make_state(), base, steps=5, base_epoch=2)
    u2 = local_train(make_state(), base, steps=5, base_epoch=2)
    assert u1.params == u2.params
    assert u1.base_epoch == 2 and u1.local_steps == 5
    assert u1.sample_count == 60


def test_zero_lr_returns_base():
    base = init_params(SPEC, seed=7)
    u = local_train(make_state(lr=0.0), base, steps=4)
    assert u.params == base


def test_zero_lr_delta_is_zero():
    base = init_params(SPEC, seed=7)
    u = local_train(make_state(lr=0.0, send_delta=True), base, steps=4)
    assert norms(u.params) == (0.0, 0.0, 0.0)
    assert u.is_delta


def test_step_accounting():
    st = make_state()
    base = init_params(SPEC, seed=0)
    local_train(st, base, steps=3)
    local_train(st, base, steps=4)
    assert st.steps_taken == 7


def test_training_reduces_loss():
    st = make_state(lr=0.05, batch_size=16)
    base = init_params(SPEC, seed=0)
    before = dataset_metrics(SPEC, base, st.dataset)["loss"]
    u = local_train(st, base, steps=50)
    after = dataset_metrics(SPEC, u.params, st.dataset)["loss"]
    assert after < before


def test_prox_zero_is_bit_identical_to_vanilla():
    # prox_mu=0 is plain SGD: w - lr*g, with g from backward, over the same batches
    base = init_params(SPEC, seed=3)
    state, shadow = make_state(prox_mu=0.0), make_state(prox_mu=0.0)
    w = dict(base.items())
    for _ in range(6):
        x, y = shadow.next_batch()
        _, g = backward(SPEC, w, x, y)
        w = {n: w[n] - shadow.cfg.lr * g[n] for n in w}
    u = local_train(state, base, steps=6)
    assert u.params.names == base.names
    for n in base.names:
        assert u.params[n].dtype == w[n].dtype
        assert u.params[n].tobytes() == w[n].tobytes()


def test_prox_first_step_matches_vanilla():
    # at w == base the proximal pull vanishes, so step one is identical
    base = init_params(SPEC, seed=3)
    u_plain = local_train(make_state(), base, steps=1)
    u_prox = local_train(make_state(prox_mu=10.0), base, steps=1)
    assert u_prox.params.allclose(u_plain.params, rtol=0, atol=1e-14)


def test_prox_pulls_toward_base_over_many_steps():
    base = init_params(SPEC, seed=3)
    u_plain = local_train(make_state(lr=0.05), base, steps=40)
    u_prox = local_train(make_state(lr=0.05, prox_mu=5.0), base, steps=40)
    drift = lambda u: norms(
        type(base)((n, u.params[n] - base[n]) for n in base.names)
    )[1]
    assert drift(u_prox) < drift(u_plain)


def test_send_delta_matches_full_minus_base():
    base = init_params(SPEC, seed=5)
    u_full = local_train(make_state(seed=9), base, steps=5)
    u_delta = local_train(make_state(seed=9, send_delta=True), base, steps=5)
    recon = type(base)((n, base[n] + u_delta.params[n]) for n in base.names)
    assert recon.allclose(u_full.params, rtol=0, atol=1e-15)


def test_cyclic_batching_covers_each_epoch_exactly_once():
    st = make_state(batch_size=16)
    n = len(st.dataset)
    seen = []
    # one epoch is ceil(60/16) = 4 batches
    for _ in range(4):
        x, _ = st.next_batch()
        seen.append(x)
    stacked = np.concatenate(seen)
    assert stacked.shape[0] == n
    assert {tuple(r) for r in stacked} == {tuple(r) for r in st.dataset.features}


def test_batch_sizes_follow_tail_rule():
    st = make_state(batch_size=16)
    sizes = [st.next_batch()[0].shape[0] for _ in range(8)]
    assert sizes == [16, 16, 16, 12, 16, 16, 16, 12]


def test_adam_state_persists_across_rounds():
    st = make_state(optimizer="adam", lr=0.01)
    base = init_params(SPEC, seed=0)
    u1 = local_train(st, base, steps=5)
    t_after_first = st.optimizer.t
    local_train(st, u1.params, steps=5)
    assert st.optimizer.t == t_after_first + 5


def test_privacy_disabled_and_infinite_epsilon_are_noops():
    base = init_params(SPEC, seed=2)
    plain = local_train(make_state(seed=4), base, steps=3)
    st = make_state(seed=4)
    st.privacy = PrivacyConfig(enabled=True, epsilon=math.inf, clip_norm=math.inf)
    dp = local_train(st, base, steps=3)
    assert dp.params == plain.params


def test_privacy_clips_transmitted_delta():
    st = make_state(seed=4, send_delta=True)
    st.privacy = PrivacyConfig(enabled=True, epsilon=1e9, clip_norm=0.01, clip_kind="l1")
    base = init_params(SPEC, seed=2)
    u = local_train(st, base, steps=10)
    l1, _, _ = norms(u.params)
    assert l1 <= 0.01 * (1 + 1e-6) + 1e-6  # clip bound plus near-zero noise


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(prox_mu=-1.0)


# ---------------------------------------------------------------------------
# bit-identity with a per-tensor oracle of backward, the prox term and the
# optimizers, written the way the tensor-by-tensor code computed them


def oracle_backward(spec, params, x, y):
    """Per-tensor gradients of the mean loss, one fresh array per operation."""
    n_layers = spec.n_layers
    pre, post, h = [], [x], x
    for layer in range(n_layers):
        z = h @ params[f"W{layer}"] + params[f"b{layer}"]
        pre.append(z)
        h = np.maximum(z, 0.0) if layer < n_layers - 1 and spec.activation == "relu" else z
        post.append(h)
    n = h.shape[0]
    if spec.loss == "mse":
        diff = h - np.asarray(y, dtype=h.dtype).reshape(h.shape)
        loss = float(np.mean(diff * diff))
        delta = (2.0 / diff.size) * diff
    else:
        labels = np.asarray(y).astype(np.int64)
        shifted = h - h.max(axis=1, keepdims=True)
        loss = float(np.mean(np.log(np.sum(np.exp(shifted), axis=1)) - shifted[np.arange(n), labels]))
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        delta = probs / n
    grads = {}
    for layer in range(n_layers - 1, -1, -1):
        if layer < n_layers - 1:
            mask = (pre[layer] > 0.0) if spec.activation == "relu" else np.ones(pre[layer].shape, bool)
            delta = delta * mask.astype(pre[layer].dtype)
        grads[f"W{layer}"] = post[layer].T @ delta
        grads[f"b{layer}"] = delta.sum(axis=0)
        delta = delta @ params[f"W{layer}"].T
    return loss, {name: grads[name] for name in params.keys()}


class OracleAdam:
    def __init__(self, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps, self.t = lr, b1, b2, eps, 0
        self.m, self.v = {}, {}

    def step(self, p, g):
        self.t += 1
        bias1, bias2 = 1.0 - self.b1**self.t, 1.0 - self.b2**self.t
        out = {}
        for name in p:
            m = self.m.get(name, np.zeros_like(g[name]))
            v = self.v.get(name, np.zeros_like(g[name]))
            self.m[name] = m = self.b1 * m + (1.0 - self.b1) * g[name]
            self.v[name] = v = self.b2 * v + (1.0 - self.b2) * (g[name] * g[name])
            out[name] = p[name] - self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        return out


class OracleSGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, p, g):
        return {name: p[name] - p[name].dtype.type(self.lr) * g[name] for name in p}


def oracle_round(state, opt, base, steps, mu):
    """The full weights after ``steps`` steps, batches drawn from ``state``."""
    b = {name: a for name, a in base.items()}
    p = b
    for _ in range(steps):
        x, y = state.next_batch()
        _, g = oracle_backward(state.model_spec, p, x, y)
        if mu > 0.0:
            g = {n: g[n] + g[n].dtype.type(mu) * (p[n] - b[n]) for n in g}
        p = opt.step(p, g)
    return p


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("send_delta", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("steps", [0, 1, 7])
def test_local_train_equals_per_tensor_oracle(optimizer, mu, send_delta, dtype, steps):
    # 60 rows in batches of 16: seven steps include the partial 12-row batch
    ds = make_blobs(classes=3, dim=4, per_class=20, seed=1, dtype=dtype)
    cfg = TrainConfig(optimizer=optimizer, lr=0.05, batch_size=16, prox_mu=mu,
                      send_delta=send_delta, seed=3)
    state = ClientState("c0", ds, SPEC, cfg)
    shadow = ClientState("c0", ds, SPEC, cfg)  # same batches for the oracle
    opt = OracleSGD(cfg.lr) if optimizer == "sgd" else OracleAdam(cfg.lr)
    base = init_params(SPEC, seed=7, dtype=dtype)
    for _ in range(2):  # the second round runs on the moments of the first
        update = local_train(state, base, steps=steps)
        trained = oracle_round(shadow, opt, base, steps, mu)
        want = {n: trained[n] - base[n] for n in trained} if send_delta else trained
        assert update.params == ParameterSet(want.items())
        base = ParameterSet(trained.items())
    assert state.steps_taken == 2 * steps


@pytest.mark.parametrize("activation,loss,dims", [
    ("relu", "softmax_cross_entropy", (5, 8, 4)),
    ("relu", "mse", (4, 6, 6, 2)),
    ("identity", "softmax_cross_entropy", (3, 3)),
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_into_out_equals_fresh_and_oracle(activation, loss, dims, dtype):
    spec = ModelSpec(dims, activation=activation, loss=loss)
    rng = np.random.default_rng(11)
    params = init_params(spec, seed=2, dtype=dtype)
    x = rng.normal(size=(9, dims[0])).astype(dtype)
    y = rng.normal(size=(9, dims[-1])) if loss == "mse" else rng.integers(0, dims[-1], 9)
    loss_fresh, fresh = backward(spec, params, x, y)
    out = {n: np.full_like(a, np.nan) for n, a in params.items()}
    loss_out, got = backward(spec, params, x, y, out=out)
    assert got is out and loss_out == loss_fresh
    assert ParameterSet(out.items()) == fresh
    loss_oracle, want = oracle_backward(spec, params, x, y)
    assert loss_fresh == loss_oracle
    assert fresh == ParameterSet(want.items())


def test_public_adam_steps_equal_oracle():
    rng = np.random.default_rng(5)
    p = ParameterSet([("W", rng.normal(size=(3, 4))), ("b", rng.normal(size=4).astype(np.float32))])
    adam, oracle = Adam(0.01), OracleAdam(0.01)
    want = dict(p.items())
    for _ in range(2):
        g = ParameterSet([("W", rng.normal(size=(3, 4))), ("b", rng.normal(size=4).astype(np.float32))])
        p = adam.step(p, g)
        want = oracle.step(want, dict(g.items()))
        assert p == ParameterSet(want.items())


# ---------------------------------------------------------------------------
# ownership and errors of the flat training buffers


def test_trained_set_is_views_of_one_private_buffer(check_owned):
    base = init_params(SPEC, seed=7)
    trained = check_owned(lambda: local_train(make_state(prox_mu=0.5), base, steps=3).params, base)
    owners = [a.base for _, a in trained.items()]
    assert owners[0] is not None and all(o is owners[0] for o in owners)


def test_float32_model_on_float64_features_raises_shape_mismatch():
    st = make_state()  # make_blobs features are float64
    base = init_params(SPEC, seed=0, dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        local_train(st, base, steps=1)


def _out_like(params):
    return {n: np.zeros_like(a) for n, a in params.items()}


@pytest.mark.parametrize("breakage", ["missing", "renamed", "extra", "shape", "dtype", "broadcast"])
def test_mismatched_out_raises_shape_mismatch(breakage):
    params = init_params(SPEC, seed=0)
    x, y = make_blobs(classes=3, dim=4, per_class=2, seed=1).features, np.array([0, 1, 2, 0, 1, 2])
    out = _out_like(params)
    if breakage == "missing":
        del out["b1"]
    elif breakage == "renamed":
        out["B1"] = out.pop("b1")
    elif breakage == "extra":
        out["W9"] = np.zeros(3)
    elif breakage == "shape":
        out["W0"] = np.zeros((4, 9))
    elif breakage == "dtype":
        out["W1"] = out["W1"].astype(np.float32)
    else:  # numpy would broadcast a (1, k) sum into a (2, k) array
        out["b0"] = np.zeros((2, 8))
    with pytest.raises(ShapeMismatch):
        backward(SPEC, params, x, y, out=out)


# ---------------------------------------------------------------------------
# cohort training: bit-identity with one local_train call per client

# batch 16: at step 3 only client 1 has a partial batch, so the full-length
# group {0, 2, 3} is not a block of rows; at step 4 client 3 is partial and
# {0, 1, 2} is a leading block; step 0 stacks all four
COHORT_ROWS = (80, 60, 100, 70)


# one output unit: the bias gradient reduces a (batch, 1) array
REGRESSION = ModelSpec((4, 6, 6, 1), loss="mse")


def cohort_states(dtype=np.float64, configs=None, spec=SPEC, **cfg_kw):
    """Two identical sets of four clients: one for the cohort, one for the oracle."""
    pairs = []
    for i, rows in enumerate(COHORT_ROWS):
        ds = make_blobs(classes=3, dim=4, per_class=40, seed=20 + i, dtype=dtype).subset(
            np.arange(rows)
        )
        if spec.loss == "mse":
            target = ds.features.sum(axis=1) + ds.labels
            if spec.layer_dims[-1] > 1:  # one column per output unit
                target = np.outer(target, np.arange(1, spec.layer_dims[-1] + 1))
            ds = Dataset(ds.features, target, "regression")
        kw = dict(lr=0.05, batch_size=16, seed=30 + i)
        kw.update(configs[i] if configs else cfg_kw)
        cfg = TrainConfig(**kw)
        pairs.append(tuple(ClientState(f"c{i}", ds, spec, cfg) for _ in range(2)))
    return [a for a, _ in pairs], [b for _, b in pairs]


def assert_cohort_equals_local_train(cohort, alone, steps, dtype=np.float64, rounds=2):
    spec = cohort[0].model_spec
    bases = [init_params(spec, seed=40 + i, dtype=dtype) for i in range(len(cohort))]
    for rnd in range(rounds):
        got = train_cohort([(st, base, n, rnd) for st, base, n in zip(cohort, bases, steps)])
        for st, ref, base, n, update in zip(cohort, alone, bases, steps, got):
            want = local_train(ref, base, steps=n, base_epoch=rnd)
            assert update.params == want.params, (st.client_id, rnd)
            assert (update.client_id, update.is_delta, update.sample_count, update.local_steps,
                    update.base_epoch) == (want.client_id, want.is_delta, want.sample_count,
                                           want.local_steps, want.base_epoch)
            assert st.steps_taken == ref.steps_taken
        # the next round starts each client from its own trained full weights
        bases = [
            ParameterSet((k, b + u.params[k]) for k, b in base.items()) if u.is_delta
            else u.params
            for base, u in zip(bases, got)
        ]


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("send_delta", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("steps", [0, 1, 7])
def test_cohort_equals_local_train(optimizer, mu, send_delta, dtype, steps):
    cohort, alone = cohort_states(dtype, optimizer=optimizer, prox_mu=mu, send_delta=send_delta)
    assert_cohort_equals_local_train(cohort, alone, [steps] * 4, dtype)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cohort_equals_local_train_on_regression(optimizer, dtype):
    cohort, alone = cohort_states(dtype, spec=REGRESSION, optimizer=optimizer, lr=0.01,
                                  prox_mu=0.5)
    assert_cohort_equals_local_train(cohort, alone, [7, 7, 7, 7], dtype)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_cohort_with_unequal_step_budgets(optimizer):
    # the budgets of a Compass group: some clients stop early, one never starts
    cohort, alone = cohort_states(optimizer=optimizer, prox_mu=0.5, send_delta=True)
    assert_cohort_equals_local_train(cohort, alone, [7, 3, 0, 5])


@pytest.mark.parametrize("configs", [
    [dict(lr=0.05), dict(lr=0.02), dict(lr=0.05), dict(lr=0.05)],
    [dict(prox_mu=0.5), dict(prox_mu=0.0), dict(prox_mu=0.5), dict(prox_mu=0.25)],
    [
        dict(optimizer="sgd", lr=0.05, prox_mu=0.5),
        dict(optimizer="sgd", lr=0.02, prox_mu=0.5),
        dict(optimizer="adam", lr=0.01),
        dict(optimizer="sgd", lr=0.05, prox_mu=0.0, send_delta=True),
    ],
], ids=["lr", "prox_mu", "mixed"])
def test_cohort_of_clients_with_their_own_settings(configs):
    # no shared SGD step: every client steps on its own optimizer and prox_mu
    cohort, alone = cohort_states(configs=configs)
    assert_cohort_equals_local_train(cohort, alone, [7, 7, 6, 7])


def test_cohort_stacks_equal_batches_into_one_backward(monkeypatch):
    calls = []
    real = client_module.backward

    def counting(spec, params, x, y, out):
        calls.append(np.shape(x))
        return real(spec, params, x, y, out=out)

    monkeypatch.setattr(client_module, "backward", counting)
    cohort, _ = cohort_states()
    base = init_params(SPEC, seed=0)
    train_cohort([(st, base, 5, 0) for st in cohort])
    # steps 0-2 stack all four clients; step 3 splits {0, 2, 3} from the
    # partial {1}; step 4 splits {0, 1, 2} from the partial {3}
    assert calls == [(4, 16, 4)] * 3 + [(3, 16, 4), (12, 4), (3, 16, 4), (6, 4)]


@pytest.mark.parametrize("activation", ["relu", "identity"])
@pytest.mark.parametrize("loss,dims", [("softmax_cross_entropy", (4, 8, 3)), ("mse", (4, 6, 2))])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_planned_cohort_equals_per_tensor_oracle(monkeypatch, activation, loss, dims, dtype, mu):
    # the five steps run every kind of group through a plan: blocks of all
    # four rows, the gathered rows {0, 2, 3}, the block {0, 1, 2} and two
    # lone rows whose batches are the partial last ones of their epochs
    calls = []
    real = client_module.backward

    def counting(spec, params, x, y, out):
        calls.append(np.shape(x))
        return real(spec, params, x, y, out=out)

    monkeypatch.setattr(client_module, "backward", counting)
    spec = ModelSpec(dims, activation=activation, loss=loss)
    cohort, alone = cohort_states(dtype, spec=spec, prox_mu=mu)
    bases = [init_params(spec, seed=40 + i, dtype=dtype) for i in range(4)]
    got = train_cohort([(st, base, 5, 0) for st, base in zip(cohort, bases)])
    d_in = dims[0]
    assert calls == [(4, 16, d_in)] * 3 + [(3, 16, d_in), (12, d_in), (3, 16, d_in), (6, d_in)]
    for ref, base, update in zip(alone, bases, got):
        want = oracle_round(ref, OracleSGD(ref.cfg.lr), base, 5, mu)
        assert update.params == ParameterSet(want.items())
    assert [st.steps_taken for st in cohort] == [5] * 4


def test_a_negative_zero_pre_activation_keeps_the_old_bits():
    # products that underflow make hidden unit 0's pre-activation exactly
    # -0.0 on every row, where np.maximum(z, 0.0) and z * mask disagree on
    # the sign.  Each such zero then meets only products and sums, which
    # start from +0.0, so the gradients must equal the oracle's bit for bit
    spec = ModelSpec((2, 3, 2))
    tiny = 1e-200
    x = np.full((6, 2), tiny)
    x[:, 1] *= np.arange(1, 7)
    base = ParameterSet([
        ("W0", np.array([[-tiny, 0.5, -0.25], [-tiny, 0.75, 0.5]])),
        ("b0", np.array([-0.0, 0.1, -0.2])),
        ("W1", np.array([[0.3, -0.7], [0.9, 0.2], [-0.4, 0.6]])),
        ("b1", np.array([0.05, -0.05])),
    ])
    pre = x @ base["W0"] + base["b0"]
    if not np.all(np.signbit(pre[:, 0]) & (pre[:, 0] == 0.0)):
        pytest.skip("this BLAS rounds the underflowed products to +0.0")
    y = np.array([0, 1, 1, 0, 1, 0])
    loss_oracle, want = oracle_backward(spec, base, x, y)
    loss, grads = backward(spec, base, x, y)
    assert loss == loss_oracle and grads == ParameterSet(want.items())
    cfg = TrainConfig(lr=0.5, batch_size=6, prox_mu=0.5, seed=1)
    ds = Dataset(x, y)
    state, shadow = ClientState("c0", ds, spec, cfg), ClientState("c0", ds, spec, cfg)
    update = local_train(state, base, steps=3)
    assert update.params == ParameterSet(oracle_round(shadow, OracleSGD(0.5), base, 3, 0.5).items())


@pytest.mark.parametrize("bad", [-1, 3])
def test_a_label_out_of_range_anywhere_fails_the_round_before_any_step(bad):
    cohort, _ = cohort_states()
    ds = cohort[3].dataset
    labels = ds.labels.copy()
    labels[-1] = bad  # one row of 70, which a batch of 16 may not draw
    cohort[3].dataset = Dataset(ds.features, labels)
    rngs = [st.rng.bit_generator.state for st in cohort]
    base = init_params(SPEC, seed=0)
    for jobs in ([(cohort[3], base, 1, 0)], [(st, base, 7, 0) for st in cohort]):
        with pytest.raises(DimMismatch):
            train_cohort(jobs)
        assert [st.steps_taken for st in cohort] == [0] * 4
        assert [st.rng.bit_generator.state for st in cohort] == rngs


def test_cohort_rejects_a_client_twice():
    st = make_state()
    base = init_params(SPEC, seed=0)
    with pytest.raises(ConfigError):
        train_cohort([(st, base, 1, 0), (st, base, 1, 0)])


def test_cohort_float32_model_on_float64_features_raises_shape_mismatch():
    cohort, _ = cohort_states()  # float64 features
    base = init_params(SPEC, seed=0, dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        train_cohort([(st, base, 1, 0) for st in cohort])


def test_mixed_dtype_model_in_a_cohort():
    # float64 first layer, float32 output layer: the float32 weights get
    # float64 gradients, which no float32 buffer can hold
    base = init_params(SPEC, seed=0)
    base = ParameterSet(
        (k, a.astype(np.float32) if k.endswith("1") else a) for k, a in base.items()
    )
    cohort, alone = cohort_states()
    got = train_cohort([(st, base, 0, 0) for st in cohort])
    assert all(u.params == local_train(st, base, steps=0).params for u, st in zip(got, alone))
    for train in (lambda: local_train(alone[0], base, steps=1),
                  lambda: train_cohort([(st, base, 1, 0) for st in cohort])):
        with pytest.raises(ShapeMismatch):
            train()


def test_cohort_memory_stays_near_one_client(monkeypatch):
    # a ~1M-parameter float64 model is over the stack budget, so the cohort
    # trains one client per worker: beyond the eight results each worker
    # holds about one client's gradient, prox base and scratch, not eight of each
    monkeypatch.setattr(client_module, "_cores", lambda: 2)
    spec = ModelSpec((1024, 1000, 10))
    rng = np.random.default_rng(0)
    base = init_params(spec, seed=0)
    row_bytes = sum(a.nbytes for _, a in base.items())
    jobs = []
    for i in range(8):
        ds = Dataset(rng.normal(size=(4, 1024)), rng.integers(0, 10, 4))
        cfg = TrainConfig(lr=0.01, batch_size=4, prox_mu=0.5, seed=i)
        jobs.append((ClientState(f"c{i}", ds, spec, cfg), base, 1, 0))
    workers = client_module._worker_count(len(jobs))
    # with the cyclic collector off, an array kept alive by a reference
    # cycle (a plan and its gradient stack, say) stays in the peak every time
    gc_was_on = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        updates = train_cohort(jobs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if gc_was_on:
            gc.enable()
    assert len(updates) == 8
    # 8 rows of results, 3 transient rows per worker and 3 rows of slack: 17
    # on two workers; with every stack eight rows deep it would be 32
    assert peak < (8 + 3 * workers + 3) * row_bytes


# ---------------------------------------------------------------------------
# one BLAS thread while training, and cohort slices on worker threads

needs_openblas = pytest.mark.skipif(
    not client_module._openblas(), reason="no OpenBLAS found in this process"
)


def blas_threads() -> list:
    return [get() for get, _ in client_module._openblas()]


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS at two threads, so that a restored count shows on any box."""
    saved = blas_threads()
    for _, put in client_module._openblas():
        put(2)
    yield [2] * len(saved)
    for (_, put), count in zip(client_module._openblas(), saved):
        put(count)


def watch_backward(monkeypatch, before=None):
    """Patch ``backward`` to run ``before()`` first; returns the names of the threads it ran on."""
    names = set()
    real = client_module.backward

    def watching(spec, params, x, y, out):
        names.add(threading.current_thread().name)
        if before is not None:
            before()
        return real(spec, params, x, y, out=out)

    monkeypatch.setattr(client_module, "backward", watching)
    return names


@needs_openblas
def test_blas_held_at_one_thread_while_training_and_restored_after(monkeypatch, blas_at_two):
    seen = []
    watch_backward(monkeypatch, lambda: seen.append(blas_threads()))
    local_train(make_state(), init_params(SPEC, seed=0), steps=2)
    assert seen == [[1] * len(blas_at_two)] * 2
    assert blas_threads() == blas_at_two

    def fail():
        raise RuntimeError("backward failed")

    watch_backward(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="backward failed"):
        local_train(make_state(), init_params(SPEC, seed=0), steps=2)
    assert blas_threads() == blas_at_two
    assert client_module._ONE_BLAS_THREAD._holders == 0


@needs_openblas
@pytest.mark.usefixtures("no_thread_left")
def test_overlapping_training_calls_hold_one_thread_until_the_last_leaves(
    monkeypatch, blas_at_two
):
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {"first": [], "second": []}

    def before():
        who = threading.current_thread().name
        seen[who].append(blas_threads())
        if who == "first":
            first_in.set()
            assert second_in.wait(10)
        else:
            second_in.set()
            assert first_out.wait(10)  # the first call has left; this one is still in
            seen[who].append(blas_threads())

    watch_backward(monkeypatch, before)
    errors = []

    def train(who, after):
        try:
            if who == "second":
                assert first_in.wait(10)
            local_train(make_state(), init_params(SPEC, seed=0), steps=1)
            after.set()
        except BaseException as e:  # reported by the test thread
            errors.append(e)

    threads = [
        threading.Thread(target=train, args=("first", first_out), name="first"),
        threading.Thread(target=train, args=("second", threading.Event()), name="second"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
        assert not t.is_alive()
    assert errors == []
    one = [1] * len(blas_at_two)
    assert seen == {"first": [one], "second": [one, one]}
    assert blas_threads() == blas_at_two


@pytest.fixture
def on_workers(monkeypatch):
    """Every client its own slice, on more workers than the cores of a 2-core box.

    A short switch interval makes the threads interleave as often as they can.
    Returns the names of the threads that ran ``backward``.
    """
    if not client_module._openblas():
        pytest.skip("no OpenBLAS found: slices run serially")
    monkeypatch.setattr(client_module, "_STACK_BYTES", 1)
    monkeypatch.setattr(client_module, "_cores", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield watch_backward(monkeypatch)
    finally:
        sys.setswitchinterval(interval)


def ran_on_workers(names) -> bool:
    return any(n.startswith("fedkit-train") for n in names)


@pytest.mark.usefixtures("no_thread_left")
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("mu", [0.0, 0.5])
@pytest.mark.parametrize("send_delta", [False, True])
def test_cohort_on_workers_equals_local_train(on_workers, optimizer, mu, send_delta):
    cohort, alone = cohort_states(optimizer=optimizer, prox_mu=mu, send_delta=send_delta)
    assert_cohort_equals_local_train(cohort, alone, [7, 3, 6, 7])
    assert ran_on_workers(on_workers)


@pytest.mark.usefixtures("no_thread_left")
def test_an_exception_in_a_slice_reaches_the_caller(on_workers, monkeypatch):
    lock, calls = threading.Lock(), []

    def fail_second_call():
        with lock:
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("slice failed")

    names = watch_backward(monkeypatch, fail_second_call)
    cohort, _ = cohort_states()
    base = init_params(SPEC, seed=0)
    with pytest.raises(RuntimeError, match="slice failed"):
        train_cohort([(st, base, 3, 0) for st in cohort])
    assert ran_on_workers(names)
    assert client_module._ONE_BLAS_THREAD._holders == 0


@pytest.mark.usefixtures("no_thread_left")
def test_without_openblas_slices_run_serially_with_the_same_updates(monkeypatch):
    base = init_params(SPEC, seed=0)
    runs, names = [], []
    for finder in (client_module._openblas, lambda: []):
        with monkeypatch.context() as m:
            m.setattr(client_module, "_STACK_BYTES", 1)
            m.setattr(client_module, "_cores", lambda: 3)
            m.setattr(client_module, "_openblas", finder)
            names.append(watch_backward(m))
            cohort, _ = cohort_states(optimizer="adam", prox_mu=0.5)
            runs.append([u.params for u in train_cohort([(st, base, 7, 0) for st in cohort])])
    assert ran_on_workers(names[0]) == bool(client_module._openblas())
    assert names[1] == {threading.current_thread().name}
    assert runs[0] == runs[1]


@pytest.mark.usefixtures("no_thread_left")
def test_train_ahead_yields_in_order_and_trains_a_few_slices_ahead():
    lock, started = threading.Lock(), []

    def train(part):
        with lock:
            started.append(part)

    slices = [[i] for i in range(8)]
    ahead = train_ahead(train, slices, 2)
    assert [next(ahead), next(ahead)] == [[0], [1]]
    ahead.close()
    # at most two slices past the last one yielded started, and no other after the close
    assert 2 <= len(started) <= 4
    assert sorted(started) == slices[: len(started)]


@pytest.mark.usefixtures("no_thread_left")
def test_closing_train_ahead_raises_the_failure_of_a_slice_it_started():
    second = threading.Event()

    def train(part):
        if part == [1]:
            second.set()
            raise RuntimeError("slice failed")
        assert second.wait(timeout=30)

    ahead = train_ahead(train, [[0], [1], [2]], 2)
    assert next(ahead) == [0]
    with pytest.raises(RuntimeError, match="slice failed"):
        ahead.close()
