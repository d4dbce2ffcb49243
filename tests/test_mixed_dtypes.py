"""A set whose dtypes interleave, against per-tensor oracles.

Its tensors are ``W0`` float32, ``b0`` float64, ``W1`` float32 and a 0-d
float64 ``s``, so its float32 buffer holds ``W0`` then ``W1`` and its
float64 buffer ``b0`` then ``s``: buffer order differs from entry order.
Every oracle below works tensor by tensor in entry order, with the
expressions and operand order of the documented formulas.
"""
import math
import struct

import numpy as np
import pytest

from fedkit import aggregators as A
from fedkit.compression import CodecConfig, compress_params, decompress_params
from fedkit.params import (
    ModelUpdate,
    ParameterSet,
    axpy,
    deserialize_params,
    norms,
    serialize_params,
    serialize_pieces,
    weighted_sum,
    zeros_like,
)
from fedkit.privacy import PrivacyConfig, clip, perturb

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def mixed_entries(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return [
        ("W0", (scale * rng.normal(size=(3, 4))).astype(np.float32)),
        ("b0", scale * rng.normal(size=4)),
        ("W1", (scale * rng.normal(size=(4, 2))).astype(np.float32)),
        ("s", np.float64(scale * rng.normal())),
    ]


def mixed(seed, scale=1.0):
    return ParameterSet(mixed_entries(seed, scale))


def assert_bits(got: ParameterSet, want) -> None:
    """``got`` equals the oracle ``want`` (name -> array pairs) under ``==`` and byte for byte."""
    want = [(n, np.asarray(a)) for n, a in (want.items() if isinstance(want, dict) else want)]
    assert got == ParameterSet(want)
    assert [(n, a.dtype, a.shape, a.tobytes()) for n, a in got.items()] == [
        (n, a.dtype, a.shape, a.tobytes()) for n, a in want
    ]


def test_the_set_interleaves_its_dtypes():
    p = mixed(0)
    assert [(n, a.dtype, a.shape) for n, a in p.items()] == [
        ("W0", F32, (3, 4)), ("b0", F64, (4,)), ("W1", F32, (4, 2)), ("s", F64, ()),
    ]
    assert p.param_count == 12 + 4 + 8 + 1


def test_equality_sees_one_flipped_bit_in_any_tensor():
    entries = mixed_entries(1)
    p = ParameterSet(entries)
    for k, (name, a) in enumerate(entries):
        flipped = np.array(a)
        flipped.reshape(-1).view(np.uint8)[-1] ^= 1
        other = ParameterSet(entries[:k] + [(name, flipped)] + entries[k + 1 :])
        assert not other == p, name
    assert ParameterSet(entries) == p


def test_construction_promotes_and_copies():
    ints = np.arange(12).reshape(3, 4)
    p = ParameterSet([("W0", ints), ("b0", np.ones(4, dtype=np.float16)),
                      ("W1", np.zeros((4, 2), dtype=np.float32)), ("s", True)])
    assert_bits(p, [("W0", ints.astype(np.float64)), ("b0", np.ones(4)),
                    ("W1", np.zeros((4, 2), dtype=np.float32)), ("s", np.float64(1.0))])


def golden_bytes(p):
    out = [struct.pack(">I", len(p))]
    for name, a in p.items():
        out.append(struct.pack(">H", len(name)) + name.encode())
        out.append(struct.pack(f">BB{a.ndim}I", 0 if a.dtype == F32 else 1, a.ndim, *a.shape))
        out.append(a.astype("<f4" if a.dtype == F32 else "<f8").tobytes())
    return b"".join(out)


def test_serialize_and_deserialize_bytes():
    p = mixed(2)
    buf = serialize_params(p)
    assert buf == golden_bytes(p) == bytes(serialize_pieces(p))
    assert_bits(deserialize_params(buf), p.items())


@pytest.mark.parametrize("conn", ["fs"], indirect=True)
def test_staged_roundtrip(conn):
    p = mixed(3)
    ref = conn.put(serialize_pieces(p))
    assert_bits(conn.get(ref, deserialize_params), p.items())


def test_compress_roundtrip_decodes_each_entry_as_alone():
    p = mixed(4)
    lossless = CodecConfig(lossy="none", lossless="deflate")
    assert_bits(decompress_params(compress_params(p, lossless)), p.items())
    qz = CodecConfig(lossy="qz", lossless="deflate", eb_rel=0.01, small_tensor_threshold=0)
    alone = [
        (n, decompress_params(compress_params(ParameterSet([(n, a)]), qz))[n]) for n, a in p.items()
    ]
    assert_bits(decompress_params(compress_params(p, qz)), alone)


# ---------------------------------------------------------------------------
# arithmetic


def oracle_sum(sets, weights):
    """Per tensor, ``acc = acc + w * x`` from zero, in the tensor's dtype."""
    out = {}
    for name, ref in sets[0].items():
        acc = np.zeros_like(ref)
        for p, w in zip(sets, weights):
            acc = acc + ref.dtype.type(w) * p[name]
        out[name] = acc
    return out


def test_weighted_sum_axpy_astype_zeros_like():
    x, y, z = mixed(5), mixed(6), mixed(7)
    assert_bits(weighted_sum([x, y, z], [0.25, -1.5, 3.0]), oracle_sum([x, y, z], [0.25, -1.5, 3.0]))
    assert_bits(axpy(-0.75, x, y), [(n, a.dtype.type(-0.75) * a + y[n]) for n, a in x.items()])
    for dt in (F32, F64):
        assert_bits(x.astype(dt), [(n, a.astype(dt)) for n, a in x.items()])
    assert_bits(zeros_like(x), [(n, np.zeros_like(a)) for n, a in x.items()])


def oracle_norms(p):
    v = np.concatenate([a.ravel().astype(np.float64) for _, a in p.items()])
    return float(np.sum(np.abs(v))), float(np.sqrt(np.sum(v * v))), float(np.max(np.abs(v)))


def test_norms_sum_in_entry_order():
    # b0 is large, so that summing in buffer order rounds the l1 norm differently
    scales = (1.0, 1e8, 1.0, 1.0)
    p = ParameterSet([(n, a * c) for (n, a), c in zip(mixed_entries(0), scales)])
    in_buffer_order = np.concatenate([p["W0"].ravel(), p["W1"].ravel(), p["b0"], [p["s"]]])
    assert float(np.sum(np.abs(in_buffer_order))) != oracle_norms(p)[0]
    assert norms(p) == oracle_norms(p)
    assert norms(mixed(9)) == oracle_norms(mixed(9))


# ---------------------------------------------------------------------------
# aggregation, two rounds of each rule


def oracle_mean(g, ups, weights, delta):
    """The accumulation of ``_terms``, per tensor in the tensor's dtype."""
    out = {}
    for name, gt in g.items():
        acc = np.zeros_like(gt)
        for u, w in zip(ups, weights):
            x = u.params[name]
            if u.is_delta and not delta:
                x = x + gt
            elif delta and not u.is_delta:
                x = x - gt
            acc = acc + gt.dtype.type(w) * x
        out[name] = acc
    return out


def sample_weights(ups):
    counts = np.array([u.sample_count for u in ups], dtype=np.float64)
    return counts / counts.sum()


class Oracle:
    """Per-tensor versions of the seven rules, holding their own state."""

    def __init__(self, g):
        self.g = dict(g.items())
        self.state = {}

    def zeros(self):
        return {n: np.zeros_like(a) for n, a in self.g.items()}

    def round(self, rule, ups, epoch):
        g = ParameterSet(self.g.items())
        ups = sorted(ups, key=lambda u: u.client_id)
        t = {n: a.dtype.type for n, a in self.g.items()}
        if rule == "weighted_avg":
            self.g = oracle_mean(g, ups, sample_weights(ups), delta=False)
        elif rule == "buffered":  # server_lr 0.5
            discounts = [(epoch - u.base_epoch + 1) ** -0.5 for u in ups]
            acc = oracle_mean(g, ups, discounts, delta=True)
            c = 0.5 * (1.0 / len(ups))
            self.g = {n: a + acc[n] * t[n](c) for n, a in self.g.items()}
        elif rule == "async":  # the first two updates as given: a delta, then full weights
            for k, u in enumerate(ups[::-1][:2]):
                a_s = A.ALPHA * (epoch + k - u.base_epoch + 1) ** (-A.STALENESS_EXPONENT)
                full = {n: a + u.params[n] if u.is_delta else u.params[n] for n, a in self.g.items()}
                self.g = {n: t[n](1 - a_s) * a + t[n](a_s) * full[n] for n, a in self.g.items()}
        else:
            d = oracle_mean(g, ups, sample_weights(ups), delta=True)
            lr = 0.1 if rule == "fedadam" else A.SERVER_LR
            b1, b2, tau = A.BETA1, A.BETA2, A.TAU
            s = self.state
            if rule == "fedavgm":
                v = s.get("momentum") or self.zeros()
                s["momentum"] = {n: t[n](A.BETA) * a + d[n] for n, a in v.items()}
                step = {n: t[n](lr) * a for n, a in s["momentum"].items()}
            else:
                u2 = s.get("u") or self.zeros()
                d2 = {n: a * a for n, a in d.items()}
                direction = d
                if rule == "fedadagrad":
                    u2 = {n: a + d2[n] for n, a in u2.items()}
                else:
                    m = s.get("m") or self.zeros()
                    s["m"] = direction = {n: t[n](b1) * a + t[n](1 - b1) * d[n] for n, a in m.items()}
                    if rule == "fedadam":
                        u2 = {n: t[n](b2) * a + t[n](1 - b2) * d2[n] for n, a in u2.items()}
                    else:
                        u2 = {n: a - t[n](1 - b2) * d2[n] * np.sign(a - d2[n]) for n, a in u2.items()}
                s["u"] = u2
                step = {n: t[n](lr) * a / (np.sqrt(u2[n]) + t[n](tau)) for n, a in direction.items()}
            self.g = {n: a + step[n] for n, a in self.g.items()}


# the strategy of each rule, and the updates of a round that it takes
RULES = {
    "weighted_avg": (A.FedAvgAggregator, {}, slice(None)),
    "fedavgm": (A.FedAvgMAggregator, {}, slice(None)),
    "fedadagrad": (A.FedAdagradAggregator, {}, slice(None)),
    "fedadam": (A.FedAdamAggregator, {"server_lr": 0.1}, slice(None)),
    "fedyogi": (A.FedYogiAggregator, {}, slice(None)),
    "async": (A.FedAsyncAggregator, {}, slice(2)),
    "buffered": (A.FedBuffAggregator, {"buffer_size": 1, "server_lr": 0.5}, slice(None)),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_aggregation_rules_over_two_rounds(rule):
    g = mixed(10)
    st = A.AggregatorState(g, epoch=3)
    cls, kwargs, taken = RULES[rule]
    agg = cls(**kwargs)  # one strategy for both rounds: it keeps the rule's state
    oracle = Oracle(g)
    for r in range(2):
        ups = [
            ModelUpdate(f"c{i}", mixed(20 + 10 * r + i, 0.1), bool(i % 2), 5 + 3 * i, 1, i % 3)
            for i in range(4)
        ][::-1]  # a delta first, out of client-id order
        oracle.round(rule, ups, st.epoch)
        assert agg.apply(st, ups[taken])
        assert_bits(st.global_params, oracle.g)
        for name, want in oracle.state.items():
            assert_bits(getattr(agg, name), want)


# ---------------------------------------------------------------------------
# privacy


def oracle_clip(p, clip_norm):
    """``privacy.clip`` per tensor: l1 rescale, float32 scale stepped down until it fits."""
    n = oracle_norms(p)[0]
    if n <= clip_norm:
        return dict(p.items())
    scale = clip_norm / n
    s32, ulps = np.float32(scale), 1
    while True:
        out = {k: a * (s32 if a.dtype == F32 else a.dtype.type(scale)) for k, a in p.items()}
        if s32 == 0 or oracle_norms(ParameterSet(out.items()))[0] <= clip_norm:
            return out
        s32 = max(s32 - np.float32(ulps) * np.spacing(s32), np.float32(0))
        ulps *= 2


@pytest.mark.parametrize("seed", range(5))
def test_clip_and_perturb(seed):
    p = mixed(30 + seed, 3.0)
    clipped = clip(p, 1.0)
    assert_bits(clipped, oracle_clip(p, 1.0))
    cfg = PrivacyConfig(enabled=True, epsilon=2.0, clip_norm=1.0)
    rng = np.random.default_rng(seed)
    want = [(n, a + rng.laplace(0.0, cfg.noise_scale, a.shape).astype(a.dtype))
            for n, a in clipped.items()]
    assert_bits(perturb(clipped, cfg, np.random.default_rng(seed)), want)


def test_one_laplace_draw_equals_draws_per_tensor_end_to_end():
    shapes = [(3, 4), (4,), (), (0, 2), (4, 2)]
    whole = np.random.default_rng(3).laplace(0.0, 0.5, sum(math.prod(s) for s in shapes))
    rng = np.random.default_rng(3)
    parts = [np.asarray(rng.laplace(0.0, 0.5, s)).reshape(-1) for s in shapes]
    assert whole.tobytes() == np.concatenate(parts).tobytes()
