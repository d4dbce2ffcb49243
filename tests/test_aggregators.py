import math
import tracemalloc

import numpy as np
import pytest

from fedkit import aggregators as A
from fedkit.errors import EmptyUpdateList, NegativeStaleness, UnknownStrategyName
from fedkit.params import ModelUpdate, ParameterSet


def scalar_set(v):
    return ParameterSet([("w", np.array([float(v)]))])


def upd(cid, value, count=1, is_delta=False, base_epoch=0, steps=1):
    return ModelUpdate(
        client_id=cid,
        params=scalar_set(value),
        is_delta=is_delta,
        sample_count=count,
        local_steps=steps,
        base_epoch=base_epoch,
    )


def state(v=0.0, epoch=0):
    return A.AggregatorState(global_params=scalar_set(v), epoch=epoch)


def val(st):
    return float(st.global_params["w"][0])


# ---------------------------------------------------------------------------
# weighted average


def test_weighted_avg_golden():
    st = state(0.0)
    assert A.FedAvgAggregator().apply(st, [upd("a", 1.0, count=1), upd("b", 3.0, count=3)])
    assert val(st) == pytest.approx(0.25 * 1.0 + 0.75 * 3.0, abs=1e-15)
    assert st.epoch == 1


def test_weighted_avg_equal_counts():
    st = state(0.0)
    A.FedAvgAggregator().apply(st, [upd("a", 2.0, count=5), upd("b", 4.0, count=5)])
    assert val(st) == pytest.approx(3.0, abs=1e-15)


def test_weighted_avg_accepts_deltas():
    st = state(10.0)
    A.FedAvgAggregator().apply(
        st, [upd("a", 1.0, count=1, is_delta=True), upd("b", -1.0, count=1, is_delta=True)]
    )
    assert val(st) == pytest.approx(10.0, abs=1e-15)


def test_weighted_avg_permutation_invariant_bitwise():
    rng = np.random.default_rng(0)
    ups = [
        ModelUpdate(f"c{i}", ParameterSet([("w", rng.normal(size=17))]), False, i + 1, 1, 0)
        for i in range(5)
    ]
    st1, st2 = state(0.0), state(0.0)
    st1.global_params = ParameterSet([("w", np.zeros(17))])
    st2.global_params = ParameterSet([("w", np.zeros(17))])
    A.FedAvgAggregator().apply(st1, ups)
    A.FedAvgAggregator().apply(st2, list(reversed(ups)))
    assert st1.global_params == st2.global_params


def test_empty_update_list_rejected():
    with pytest.raises(EmptyUpdateList):
        A.FedAvgAggregator().apply(state(), [])


def test_negative_staleness_rejected():
    st = state(0.0, epoch=1)
    with pytest.raises(NegativeStaleness):
        A.FedAvgAggregator().apply(st, [upd("a", 1.0, base_epoch=5)])


# ---------------------------------------------------------------------------
# server-side optimizers, hand-computed scalar traces


def test_fedavgm_zero_beta_equals_weighted_delta_step():
    st = state(1.0)
    A.FedAvgMAggregator(beta=0.0).apply(st, [upd("a", 2.0, count=1), upd("b", 4.0, count=3)])
    # deltas: 1 and 3, weighted mean = 0.25*1 + 0.75*3 = 2.5
    assert val(st) == pytest.approx(1.0 + 2.5, abs=1e-15)


def test_fedavgm_momentum_two_rounds():
    st = state(0.0)
    beta = 0.9
    agg = A.FedAvgMAggregator(beta=beta)
    # round 1: clients deliver full weights equal to 1.0 -> dbar = 1.0
    agg.apply(st, [upd("a", 1.0)])
    v1 = 1.0
    g1 = v1
    assert val(st) == pytest.approx(g1, abs=1e-15)
    # round 2: client weight 2.0 -> dbar = 2.0 - g1 = 1.0
    agg.apply(st, [upd("a", 2.0)])
    v2 = beta * v1 + (2.0 - g1)
    g2 = g1 + v2
    assert val(st) == pytest.approx(g2, abs=1e-15)
    assert float(agg.momentum["w"][0]) == pytest.approx(v2, abs=1e-15)
    assert st.epoch == 2


def test_fedadagrad_scalar_trace():
    st = state(0.0)
    lr, tau = 0.5, 1e-3
    agg = A.FedAdagradAggregator(server_lr=lr, tau=tau)
    agg.apply(st, [upd("a", 2.0)])
    u1 = 4.0
    g1 = lr * 2.0 / (math.sqrt(u1) + tau)
    assert val(st) == pytest.approx(g1, rel=1e-12)
    agg.apply(st, [upd("a", g1 + 1.0)])
    u2 = u1 + 1.0
    np.testing.assert_allclose(agg.u["w"], [u2], rtol=1e-12)
    g2 = g1 + lr * 1.0 / (math.sqrt(u2) + tau)
    assert val(st) == pytest.approx(g2, rel=1e-12)


def test_fedadam_scalar_trace():
    st = state(0.0)
    lr, b1, b2, tau = 1.0, 0.9, 0.99, 1e-3
    A.FedAdamAggregator(server_lr=lr, beta1=b1, beta2=b2, tau=tau).apply(st, [upd("a", 1.0)])
    m1 = (1 - b1) * 1.0
    u1 = (1 - b2) * 1.0
    g1 = lr * m1 / (math.sqrt(u1) + tau)
    assert val(st) == pytest.approx(g1, rel=1e-12)


def test_fedyogi_second_moment_moves_toward_square():
    st = state(0.0)
    b2 = 0.99
    agg = A.FedYogiAggregator(beta2=b2)
    agg.apply(st, [upd("a", 2.0)])
    # u starts at 0, dbar^2 = 4: sign(0 - 4) = -1 so u increases by (1-b2)*4
    u1 = (1 - b2) * 4.0
    np.testing.assert_allclose(agg.u["w"], [u1], rtol=1e-12)
    m1 = 0.1 * 2.0
    g1 = m1 / (math.sqrt(u1) + 1e-3)
    assert val(st) == pytest.approx(g1, rel=1e-12)


def test_fedyogi_differs_from_fedadam_when_variance_shrinks():
    ups = [upd("a", 5.0)]
    st_adam, st_yogi = state(0.0), state(0.0)
    adam, yogi = A.FedAdamAggregator(), A.FedYogiAggregator()
    adam.apply(st_adam, ups)
    yogi.apply(st_yogi, ups)
    # second round with a much smaller delta
    u2a = [upd("a", val(st_adam) + 0.01)]
    u2y = [upd("a", val(st_yogi) + 0.01)]
    adam.apply(st_adam, u2a)
    yogi.apply(st_yogi, u2y)
    # adam decays u multiplicatively, yogi subtracts additively: they diverge
    assert not np.allclose(adam.u["w"], yogi.u["w"])


@pytest.mark.parametrize("cls", [A.FedAdamAggregator, A.FedYogiAggregator])
def test_fedopt_round_makes_three_model_sized_buffers(cls):
    # the moments are updated in place: a round makes dbar, dbar^2 and the new
    # global model; the first round also makes the two moment sets, zeros
    n = 1 << 20
    model_bytes = 8 * n
    rng = np.random.default_rng(5)
    st = A.AggregatorState(ParameterSet({"w": rng.standard_normal(n)}))
    ups = [
        ModelUpdate("a", ParameterSet({"w": rng.standard_normal(n)}), True, 1, 1, r)
        for r in range(3)
    ]
    agg = cls(server_lr=0.01)
    made = []
    tracemalloc.start()
    try:
        for u in ups:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            agg.apply(st, [u])
            made.append((tracemalloc.get_traced_memory()[1] - before) / model_bytes)
    finally:
        tracemalloc.stop()
    assert made[0] <= 5.2 and max(made[1:]) <= 3.2, made


# ---------------------------------------------------------------------------
# async / buffered


def test_async_fresh_update_golden():
    st = state(1.0)
    A.FedAsyncAggregator(alpha=0.9).apply(st, [upd("a", 3.0)])
    # staleness 0: a_s = 0.9, g = 0.1*1 + 0.9*3
    assert val(st) == pytest.approx(0.1 * 1.0 + 0.9 * 3.0, abs=1e-15)
    assert st.epoch == 1


def test_async_stale_update_discounted():
    st = state(1.0, epoch=3)
    A.FedAsyncAggregator(alpha=0.9, staleness_exponent=0.5).apply(st, [upd("a", 3.0, base_epoch=0)])
    a_s = 0.9 * (3 + 1) ** -0.5  # 0.45
    assert val(st) == pytest.approx((1 - a_s) * 1.0 + a_s * 3.0, rel=1e-12)


def test_async_is_order_sensitive():
    st1, st2 = state(0.0), state(0.0)
    A.FedAsyncAggregator().apply(st1, [upd("a", 1.0), upd("b", -1.0)])
    A.FedAsyncAggregator().apply(st2, [upd("b", -1.0), upd("a", 1.0)])
    assert val(st1) != val(st2)


def test_buffered_hand_formula():
    st = state(0.0, epoch=2)
    ups = [
        upd("a", 1.0, is_delta=True, base_epoch=2),  # staleness 0 -> weight 1
        upd("b", 1.0, is_delta=True, base_epoch=1),  # staleness 1 -> 2^-.5
        upd("c", 1.0, is_delta=True, base_epoch=0),  # staleness 2 -> 3^-.5
    ]
    assert A.FedBuffAggregator(buffer_size=3, server_lr=1.0, staleness_exponent=0.5).apply(st, ups)
    want = (1.0 + 2 ** -0.5 + 3 ** -0.5) / 3.0
    assert val(st) == pytest.approx(want, rel=1e-12)
    assert st.epoch == 3


def test_buffered_permutation_invariant():
    rng = np.random.default_rng(1)
    ups = [
        ModelUpdate(f"c{i}", ParameterSet([("w", rng.normal(size=9))]), True, 1, 1, 0)
        for i in range(4)
    ]
    st1 = A.AggregatorState(ParameterSet([("w", np.zeros(9))]), epoch=1)
    st2 = A.AggregatorState(ParameterSet([("w", np.zeros(9))]), epoch=1)
    A.FedBuffAggregator(buffer_size=4).apply(st1, ups)
    A.FedBuffAggregator(buffer_size=4).apply(st2, ups[::-1])
    assert st1.global_params == st2.global_params


# ---------------------------------------------------------------------------
# strategy objects / registry


def test_fedbuff_strategy_buffers_until_k():
    agg = A.FedBuffAggregator(buffer_size=3)
    st = state(0.0)
    assert not agg.apply(st, [upd("a", 1.0, is_delta=True)])
    assert not agg.apply(st, [upd("b", 1.0, is_delta=True)])
    assert st.epoch == 0 and val(st) == 0.0
    assert agg.apply(st, [upd("c", 1.0, is_delta=True)])
    assert st.epoch == 1
    assert val(st) == pytest.approx(1.0, rel=1e-12)


def test_fedbuff_finalize_flushes_partial_buffer():
    agg = A.FedBuffAggregator(buffer_size=4)
    st = state(0.0)
    agg.apply(st, [upd("a", 2.0, is_delta=True)])
    assert agg.finalize(st)
    assert st.epoch == 1
    assert val(st) == pytest.approx(2.0, rel=1e-12)
    assert not agg.finalize(st)


def test_fedcompass_strategy_modes():
    agg = A.FedCompassAggregator()
    st = state(0.0)
    agg.apply(st, [upd("a", 2.0), upd("b", 4.0)])
    assert val(st) == pytest.approx(3.0)
    before = val(st)
    agg.apply(st, [upd("c", before + 1.0, base_epoch=0)], late=True)
    # staleness 1 discount on the lone delta
    assert val(st) == pytest.approx(before + 2 ** -0.5, rel=1e-12)


def test_registry():
    assert isinstance(A.make_aggregator("FedAvgAggregator"), A.FedAvgAggregator)
    agg = A.make_aggregator("FedAsyncAggregator", {"alpha": 0.5})
    assert agg.alpha == 0.5
    with pytest.raises(UnknownStrategyName):
        A.make_aggregator("FedSGDAggregator")
    for name in ("ICEADMMAggregator", "IIADMMAggregator", "PLFLAggregator", "AREAAggregator"):
        with pytest.raises(UnknownStrategyName):
            A.make_aggregator(name)


def test_fedavgm_beta_zero_equals_fedavg_on_deltas_vector():
    rng = np.random.default_rng(5)
    g0 = ParameterSet([("w", rng.normal(size=33)), ("b", rng.normal(size=7))])
    ups = [
        ModelUpdate(f"c{i}", ParameterSet([("w", rng.normal(size=33)), ("b", rng.normal(size=7))]),
                    False, int(rng.integers(1, 20)), 1, 0)
        for i in range(6)
    ]
    st_m = A.AggregatorState(g0, epoch=0)
    A.FedAvgMAggregator(beta=0.0).apply(st_m, ups)
    st_a = A.AggregatorState(g0, epoch=0)
    A.FedAvgAggregator().apply(st_a, ups)
    for n in g0.names:
        np.testing.assert_allclose(st_m.global_params[n], st_a.global_params[n], atol=1e-12)


# ---------------------------------------------------------------------------
# ownership and bit-identity against plain-loop oracles


def random_round(seed, n=5):
    """A global model and ``n`` updates, mixing deltas and full weights."""
    rng = np.random.default_rng(seed)

    def rand_set():
        return ParameterSet([("W", rng.normal(size=(3, 4))), ("b", rng.normal(size=5))])

    g = rand_set()
    ups = [
        ModelUpdate(f"c{i}", rand_set(), bool(i % 2), int(rng.integers(1, 50)), 1, int(rng.integers(0, 3)))
        for i in range(n)
    ]
    return g, ups[::-1]  # out of client-id order on purpose


# a strategy per rule, and the updates of a round that it takes (async: a full, a delta)
AGGREGATIONS = {
    "weighted_avg": (A.FedAvgAggregator, {}, slice(None)),
    "fedavgm": (A.FedAvgMAggregator, {}, slice(None)),
    "fedadagrad": (A.FedAdagradAggregator, {}, slice(None)),
    "fedadam": (A.FedAdamAggregator, {"server_lr": 0.1}, slice(None)),
    "fedyogi": (A.FedYogiAggregator, {}, slice(None)),
    "async": (A.FedAsyncAggregator, {}, slice(2)),
    "buffered": (A.FedBuffAggregator, {"buffer_size": 1, "server_lr": 0.5}, slice(None)),
}
# the optimizer state sets each rule keeps on its strategy
STATE_SETS = {"fedavgm": ("momentum",), "fedadagrad": ("u",), "fedadam": ("m", "u"), "fedyogi": ("m", "u")}


@pytest.mark.parametrize("name", sorted(AGGREGATIONS))
def test_aggregation_result_is_owned(check_owned, name):
    g, ups = random_round(11)
    st = A.AggregatorState(g, epoch=3)
    cls, kwargs, taken = AGGREGATIONS[name]
    agg = cls(**kwargs)
    inputs = [g] + [u.params for u in ups]
    for _ in range(2):  # the second round also reads the optimizer state
        sets = [getattr(agg, n) for n in STATE_SETS.get(name, ())]
        prev = [p for p in (st.global_params, *sets) if p is not None]
        check_owned(lambda: agg.apply(st, ups[taken]) and st.global_params, *inputs, *prev)
        for n in STATE_SETS.get(name, ()):
            check_owned(lambda: getattr(agg, n), *inputs, *prev)


def oracle_weights(ups):
    total = float(sum(u.sample_count for u in ups))
    return [u.sample_count / total for u in ups]


def oracle_sum(g, ups, weights, delta):
    """Element loop: ``acc = acc + w * x`` from zero in client-id order."""
    out = {}
    for name in g.names:
        acc = np.zeros_like(g[name])
        for it in np.ndindex(acc.shape):
            s = 0.0
            for u, w in zip(ups, weights):
                x = float(u.params[name][it])
                if u.is_delta and not delta:
                    x = float(g[name][it]) + x
                elif delta and not u.is_delta:
                    x = x - float(g[name][it])
                s = s + w * x
            acc[it] = s
        out[name] = acc
    return out


@pytest.fixture(params=[None, 5], ids=["one-block", "5-element-blocks"])
def acc_block(request, monkeypatch):
    """Also run the accumulation kernel with blocks that split every tensor."""
    if request.param is not None:
        monkeypatch.setattr("fedkit.params._ACC_BLOCK", request.param)


def test_weighted_avg_bit_identical_to_loop_oracle(acc_block):
    g, ups = random_round(21)
    st = A.AggregatorState(g, epoch=3)
    A.FedAvgAggregator().apply(st, ups)
    ordered = sorted(ups, key=lambda u: u.client_id)
    want = oracle_sum(g, ordered, oracle_weights(ordered), delta=False)
    assert st.global_params == ParameterSet(want.items())


def test_fedadam_bit_identical_to_loop_oracle(acc_block):
    g, ups = random_round(22)
    lr, b1, b2, tau = 0.1, A.BETA1, A.BETA2, A.TAU
    st = A.AggregatorState(g, epoch=3)
    agg = A.FedAdamAggregator(server_lr=lr)
    ordered = sorted(ups, key=lambda u: u.client_id)
    want = {n: a.copy() for n, a in g.items()}
    m = {n: np.zeros_like(a) for n, a in g.items()}
    u2 = {n: np.zeros_like(a) for n, a in g.items()}
    for _ in range(2):
        cur = ParameterSet(want.items())
        dbar = oracle_sum(cur, ordered, oracle_weights(ordered), delta=True)
        for n in g.names:
            for it in np.ndindex(g[n].shape):
                d = float(dbar[n][it])
                m[n][it] = b1 * float(m[n][it]) + (1 - b1) * d
                u2[n][it] = b2 * float(u2[n][it]) + (1 - b2) * (d * d)
                step = lr * float(m[n][it]) / (math.sqrt(float(u2[n][it])) + tau)
                want[n][it] = float(want[n][it]) + step
        agg.apply(st, ordered)
        assert st.global_params == ParameterSet(want.items())
        assert agg.m == ParameterSet(m.items()) and agg.u == ParameterSet(u2.items())
        st.epoch = 3  # keep every staleness non-negative for the second round


def test_buffered_bit_identical_to_loop_oracle(acc_block):
    g, ups = random_round(23)
    st = A.AggregatorState(g, epoch=3)
    A.FedBuffAggregator(buffer_size=len(ups), server_lr=0.5, staleness_exponent=0.5).apply(st, ups)
    ordered = sorted(ups, key=lambda u: u.client_id)
    discounts = [(3 - u.base_epoch + 1) ** -0.5 for u in ordered]
    acc = oracle_sum(g, ordered, discounts, delta=True)
    scale = 0.5 * (1.0 / len(ordered))
    want = {}
    for n in g.names:
        want[n] = np.zeros_like(g[n])
        for it in np.ndindex(g[n].shape):
            want[n][it] = float(g[n][it]) + scale * float(acc[n][it])
    assert st.global_params == ParameterSet(want.items())
