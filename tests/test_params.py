import doctest
import io
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkit import params as P
from fedkit.errors import (
    BadDtypeTag,
    BadName,
    LengthMismatch,
    NameTooLong,
    ShapeMismatch,
    TrailingBytes,
    Truncated,
)


def pset(**kw):
    return P.ParameterSet(kw.items())


# ---------------------------------------------------------------------------
# serialization: golden bytes built independently with struct


def golden_bytes(entries):
    out = [struct.pack(">I", len(entries))]
    for name, arr in entries:
        nb = name.encode()
        tag = 0 if arr.dtype == np.float32 else 1
        out.append(struct.pack(">H", len(nb)) + nb + struct.pack(">BB", tag, arr.ndim))
        for d in arr.shape:
            out.append(struct.pack(">I", d))
        out.append(arr.astype("<f4" if tag == 0 else "<f8").tobytes())
    return b"".join(out)


def test_serialize_matches_hand_packed_bytes():
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    b = np.array([1.5, -2.5], dtype=np.float64)
    p = P.ParameterSet([("W0", w), ("b0", b)])
    assert P.serialize_params(p) == golden_bytes([("W0", w), ("b0", b)])


def test_empty_set_serializes_to_four_zero_bytes():
    buf = P.serialize_params(P.ParameterSet([]))
    assert buf == b"\x00\x00\x00\x00"
    assert len(P.deserialize_params(buf)) == 0


def test_size_law():
    # 4 + sum over entries of (2 + len(name) + 1 + 1 + 4*ndim + itemsize*n)
    p = pset(
        W0=np.zeros((4, 5), dtype=np.float32),
        b0=np.zeros(5, dtype=np.float32),
        scalar=np.float64(3.0),
    )
    expected = 4
    expected += 2 + 2 + 1 + 1 + 8 + 4 * 20
    expected += 2 + 2 + 1 + 1 + 4 + 4 * 5
    expected += 2 + 6 + 1 + 1 + 0 + 8
    buf = P.serialize_params(p)
    assert len(buf) == expected
    assert P.serialized_size(p) == expected


names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=1000), min_size=1, max_size=12
)
shapes = st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple)
dtypes = st.sampled_from([np.float32, np.float64])


@st.composite
def parameter_sets(draw):
    n = draw(st.integers(0, 4))
    used = set()
    entries = []
    for _ in range(n):
        name = draw(names.filter(lambda s: s not in used))
        used.add(name)
        shape = draw(shapes)
        dt = draw(dtypes)
        size = int(np.prod(shape)) if shape else 1
        vals = draw(
            st.lists(
                st.floats(allow_nan=False, width=32 if dt is np.float32 else 64),
                min_size=size,
                max_size=size,
            )
        )
        entries.append((name, np.asarray(vals, dtype=dt).reshape(shape)))
    return P.ParameterSet(entries)


@settings(max_examples=60, deadline=None)
@given(parameter_sets())
def test_roundtrip_bit_exact(p):
    buf = P.serialize_params(p)
    assert len(buf) == P.serialized_size(p)
    q = P.deserialize_params(buf)
    assert q == p
    assert P.serialize_params(q) == buf


def _own_size(buf) -> bool:
    """Whether ``buf`` is all of the memory it lies in."""
    return (buf if buf.base is None else buf.base).nbytes == buf.nbytes


@settings(max_examples=60, deadline=None)
@given(parameter_sets())
def test_layout_read_equals_the_parse(p):
    buf = P.serialize_params(p)
    for data in (buf, lambda: P.FileBody(io.BytesIO(buf), len(buf))):
        read = lambda expect: P.deserialize_params(data() if callable(data) else data, expect)
        laid_out, walked = read(p), read(None)
        assert laid_out == walked == p
        assert laid_out._layout is walked._layout is p._layout
        # buffers sized from the layout, not from the bytes left when each dtype is met,
        # with the expected structure and without it
        assert all(_own_size(b) for b in laid_out._bufs + walked._bufs)


def _two_dtypes(n32, n64):
    return P.ParameterSet([("a", np.arange(n32, dtype=np.float32)), ("b", np.arange(n64, dtype=np.float64))])


@pytest.mark.parametrize("stream", [False, True], ids=["buffer", "stream"])
def test_a_body_of_the_expected_length_but_another_structure_reads_as_without(stream):
    # 12 float32 take the 48 bytes of the expected 4 float32 and 4 float64:
    # a float32 buffer sized from the expected layout is outgrown
    expect, body = _two_dtypes(4, 4), _two_dtypes(12, 0)
    buf = P.serialize_params(body)
    assert len(buf) == P.serialized_size(expect)
    source = (lambda: P.FileBody(io.BytesIO(buf), len(buf))) if stream else (lambda: buf)
    assert P.deserialize_params(source(), expect) == P.deserialize_params(source()) == body


def test_name_too_long():
    with pytest.raises(NameTooLong):
        P.serialize_params(P.ParameterSet([("x" * 70000, np.zeros(1))]))


def test_truncated_and_trailing():
    buf = P.serialize_params(pset(w=np.ones(4, dtype=np.float32)))
    with pytest.raises(Truncated):
        P.deserialize_params(buf[:-1])
    with pytest.raises(Truncated):
        P.deserialize_params(buf[:3])
    with pytest.raises(TrailingBytes):
        P.deserialize_params(buf + b"\x00")


def test_bad_dtype_tag():
    w = np.ones(2, dtype=np.float32)
    buf = bytearray(P.serialize_params(pset(w=w)))
    # tag byte sits right after count(4) + name_len(2) + name(1)
    assert buf[7] == 0
    buf[7] = 9
    with pytest.raises(BadDtypeTag):
        P.deserialize_params(bytes(buf))


def test_tensor_name_that_is_not_utf8_raises_bad_name(tmp_path):
    buf = bytearray(P.serialize_params(pset(w=np.ones(2, dtype=np.float32))))
    assert buf[6] == ord("w")  # the name sits after count(4) + name_len(2)
    buf[6] = 0xFF
    with pytest.raises(BadName):
        P.deserialize_params(bytes(buf))
    path = tmp_path / ("bad" + P.CHECKPOINT_SUFFIX)
    path.write_bytes(buf)
    with pytest.raises(BadName):
        P.load_params(path)


def test_checkpoint_file_roundtrip(tmp_path):
    p = pset(W0=np.random.default_rng(0).normal(size=(3, 2)))
    path = tmp_path / ("model" + P.CHECKPOINT_SUFFIX)
    P.save_params(p, path)
    assert P.load_params(path) == p


def test_checkpoint_with_two_dtypes_loads_into_buffers_of_its_own_size(tmp_path):
    p = _two_dtypes(5, 3)
    path = tmp_path / ("model" + P.CHECKPOINT_SUFFIX)
    P.save_params(p, path)
    q = P.load_params(path)
    assert q == p and q._layout is p._layout
    assert [b.size for b in q._bufs] == [5, 3]
    assert all(_own_size(b) for b in q._bufs)


# ---------------------------------------------------------------------------
# arithmetic vs. element-loop oracles


def loop_weighted_sum(sets, weights):
    out = {}
    for name in sets[0].names:
        ref = sets[0][name]
        acc = np.zeros(ref.shape, dtype=ref.dtype)
        for it in np.ndindex(ref.shape):
            s = 0.0
            for p, w in zip(sets, weights):
                s += w * float(p[name][it])
            acc[it] = s
        out[name] = acc
    return P.ParameterSet(out.items())


def test_weighted_sum_matches_loop_oracle():
    rng = np.random.default_rng(7)
    sets = [
        pset(a=rng.normal(size=(3, 2)), b=rng.normal(size=4)) for _ in range(3)
    ]
    weights = [0.2, 0.3, 0.5]
    got = P.weighted_sum(sets, weights)
    want = loop_weighted_sum(sets, weights)
    for (_, g), (_, w) in zip(got.items(), want.items()):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_weighted_sum_identity_and_mean():
    rng = np.random.default_rng(1)
    x = pset(a=rng.normal(size=5))
    assert P.weighted_sum([x], [1.0]) == x
    y = pset(a=np.zeros(5) + 2.0)
    m = P.weighted_sum([x, y], [0.5, 0.5])
    np.testing.assert_allclose(m["a"], (x["a"] + 2.0) / 2.0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2**31))
def test_weighted_sum_linearity(w1, w2, seed):
    rng = np.random.default_rng(seed)
    a = pset(t=rng.normal(size=6))
    b = pset(t=rng.normal(size=6))
    lhs = P.weighted_sum([a, b], [w1, w2])
    rhs = P.axpy(w1, a, P.axpy(w2, b, P.zeros_like(b)))
    assert lhs.allclose(rhs, rtol=0, atol=1e-12)


def test_weighted_sum_errors():
    x = pset(a=np.zeros(3))
    with pytest.raises(LengthMismatch):
        P.weighted_sum([x], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        P.weighted_sum([], [])
    with pytest.raises(ShapeMismatch):
        P.weighted_sum([x, pset(a=np.zeros(4))], [0.5, 0.5])
    with pytest.raises(ShapeMismatch):
        P.weighted_sum([x, pset(b=np.zeros(3))], [0.5, 0.5])


def test_weighted_sum_preserves_dtype():
    x = pset(a=np.ones(3, dtype=np.float32))
    y = pset(a=np.ones(3, dtype=np.float32))
    assert P.weighted_sum([x, y], [0.5, 0.5])["a"].dtype == np.float32
    with pytest.raises(ShapeMismatch):
        P.weighted_sum([x, x.astype(np.float64)], [0.5, 0.5])


def zero_start_accumulate(like, terms):
    """The accumulation kernel as it was before it started from its first term.

    Every block of the result starts as zeros and takes ``acc += w * x`` for
    every term in order, through the scratch buffer.
    """
    scratch = np.empty(P._ACC_BLOCK * 8, dtype=np.uint8)
    out = []
    for name, ref in like:
        acc = np.zeros_like(ref)
        flat = acc.reshape(-1)
        tmp = scratch.view(ref.dtype)
        xs = [
            (acc.dtype.type(w), x[name].reshape(-1), op,
             None if op is None else base[name].reshape(-1))
            for w, x, op, base in terms
        ]
        for lo in range(0, flat.size, P._ACC_BLOCK):
            hi = lo + P._ACC_BLOCK
            a = flat[lo:hi]
            t = tmp[: a.size]
            for w, x, op, b in xs:
                term = x[lo:hi] if op is None else op(x[lo:hi], b[lo:hi], out=t)
                np.multiply(term, w, out=t)
                a += t
        out.append((name, acc))
    return out


_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _bits(a):
    return a.view(_UINT[a.dtype])


@pytest.fixture(params=[16, None], ids=["block16", "default_block"])
def acc_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(P, "_ACC_BLOCK", request.param)
    return P._ACC_BLOCK


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", [None, np.add, np.subtract], ids=["none", "add", "subtract"])
def test_first_term_accumulation_matches_zero_start(acc_block, k, dtype, op):
    rng = np.random.default_rng(k)
    n = 2 * acc_block + 3  # crosses two block edges and leaves a remainder

    def make():
        v = rng.standard_normal(n).astype(dtype)
        v[:6] = [-0.0, np.nan, np.inf, -np.inf, 0.0, -0.0]
        rng.shuffle(v[: acc_block + 6])  # the specials land in different blocks per set
        return P.ParameterSet([("v", v), ("m", rng.standard_normal((2, 3)).astype(dtype))])

    base = make()
    sets = [make() for _ in range(k)]
    weights = [0.5, -1.25, 3.0][:k]
    terms = [(w, x, op, None if op is None else base) for w, x in zip(weights, sets)]
    with np.errstate(invalid="ignore"):  # inf - inf
        got = P.ParameterSet._wrap(base._layout, P._weighted_accumulate(base, terms))
        want = zero_start_accumulate(base, terms)
    for (name, g), (_, w) in zip(got, want):
        assert g.dtype == w.dtype == np.dtype(dtype), name
        assert (_bits(g) == _bits(w)).all(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lone_negative_zero_term_gives_positive_zero(dtype):
    x = P.ParameterSet([("z", np.full(5, -0.0, dtype=dtype))])
    acc, = P._weighted_accumulate(x, [(1.0, x, None, None)])
    assert (_bits(acc) == 0).all()
    (_, want), = zero_start_accumulate(x, [(1.0, x, None, None)])
    assert (_bits(acc) == _bits(want)).all()


@pytest.mark.parametrize("op", [None, np.subtract], ids=["none", "subtract"])
def test_accumulation_holds_at_most_one_term(acc_block, op):
    # the terms come from a generator that checks, as it makes each term,
    # that the buffers of the one before are gone: the kernel let go of it
    rng = np.random.default_rng(11)
    like = P.ParameterSet([
        ("v", rng.standard_normal(2 * acc_block + 3)),
        ("h", rng.standard_normal(5).astype(np.float32)),
    ])
    weights = [0.5, -1.25, 3.0, 0.75]
    held, copies = [], []

    def term(w):
        x = P.ParameterSet((n, rng.standard_normal(a.shape).astype(a.dtype)) for n, a in like)
        held[:] = [weakref.ref(b) for b in x._bufs]
        copies.append(x.map(lambda _, a: a))
        return w, x, op, None if op is None else like

    def terms():
        for w in weights:
            assert all(r() is None for r in held), "the previous term is still held"
            yield term(w)

    got = P._weighted_accumulate(like, terms())
    assert len(copies) == len(weights) and all(r() is None for r in held)
    want = zero_start_accumulate(
        like, [(w, x, op, None if op is None else like) for w, x in zip(weights, copies)])
    for g, (_, w) in zip(got, want):
        assert (_bits(g) == _bits(w.reshape(-1))).all()


def test_a_deferred_set_is_made_by_its_first_read_which_takes_it():
    like = P.ParameterSet([("a", np.arange(3.0)), ("b", np.ones((2, 2), dtype=np.float32))])
    made = []

    def make():
        made.append(None)
        return like.map(lambda _, a: a + 1)

    d = P.DeferredSet(like._layout, make)
    # the structure, and what is known from it, need no buffers
    like.check_structure(d)
    assert (len(d), d.names, d.param_count, repr(d)) == (2, ("a", "b"), 7, repr(like))
    assert made == []
    bufs = d._bufs
    assert len(made) == 1
    assert [b.tolist() for b in bufs] == [[1.0, 2.0, 3.0], [2.0, 2.0, 2.0, 2.0]]
    with pytest.raises(RuntimeError, match="already taken"):
        d._bufs
    with pytest.raises(ShapeMismatch):
        P.DeferredSet(like._layout, lambda: pset(a=np.zeros(3)))._bufs


def test_axpy_zero_alpha_returns_y():
    rng = np.random.default_rng(3)
    x = pset(a=rng.normal(size=4))
    y = pset(a=rng.normal(size=4))
    assert P.axpy(0.0, x, y) == y


def test_norms_golden():
    assert P.norms(pset(a=np.array([3.0, -4.0]))) == (7.0, 5.0, 4.0)
    assert P.norms(pset(a=np.zeros(5), b=np.zeros((2, 2)))) == (0.0, 0.0, 0.0)


def test_docstring_examples_run():
    result = doctest.testmod(P)
    assert result.attempted == 4 and result.failed == 0


def test_tensors_are_immutable():
    p = pset(a=np.zeros(3))
    with pytest.raises(ValueError):
        p["a"][0] = 1.0


def test_duplicate_names_rejected():
    with pytest.raises(ShapeMismatch):
        P.ParameterSet([("a", np.zeros(1)), ("a", np.zeros(1))])


# ---------------------------------------------------------------------------
# ownership: public construction copies, internal results are adopted


def test_public_constructor_and_map_copy():
    a = np.arange(4.0)
    p = P.ParameterSet([("a", a)])
    assert not np.shares_memory(p["a"], a)
    assert a.flags.writeable
    q = p.map(lambda n, x: x)
    assert not np.shares_memory(q["a"], p["a"])


def test_adopt_freezes_fresh_arrays_in_place():
    like = pset(a=np.zeros((2, 3)), s=np.float64(0.0))
    buf = np.full(7, 1.5)
    p = P.ParameterSet._wrap(like._layout, [buf])
    assert p._bufs[0] is buf
    assert not buf.flags.writeable
    assert np.shares_memory(p["a"], buf) and np.shares_memory(p["s"], buf)
    assert p["a"].shape == (2, 3) and p["s"].shape == ()


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.arange(8.0)[::2],  # strided view
        lambda: np.arange(6.0).reshape(2, 3),  # contiguous view of a temporary
        lambda: np.asfortranarray(np.ones((3, 2))),
        lambda: pset(a=np.ones(3))["a"],  # frozen: belongs to another set
    ],
)
def test_constructor_copies_what_it_cannot_own(make):
    a = make()
    p = P.ParameterSet([("a", a)])
    assert not np.shares_memory(p["a"], a)
    assert p["a"].flags.c_contiguous and not p["a"].flags.writeable
    np.testing.assert_array_equal(p["a"], a)


def test_constructor_promotes_dtypes():
    p = P.ParameterSet([("i", np.arange(3)), ("s", np.float32(2.0) * np.float32(3.0))])
    assert p["i"].dtype == np.float64
    assert p["s"].shape == () and p["s"].dtype == np.float32


def _model_and_batch():
    from fedkit.models import ModelSpec, init_params

    spec = ModelSpec((4, 6, 3), loss="softmax_cross_entropy")
    rng = np.random.default_rng(0)
    return spec, init_params(spec, seed=1), rng.normal(size=(5, 4)), rng.integers(0, 3, 5)


def test_backward_result_is_owned(check_owned):
    from fedkit.models import backward

    spec, params, x, y = _model_and_batch()
    check_owned(lambda: backward(spec, params, x, y)[1], params)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_step_result_is_owned(check_owned, kind):
    from fedkit.models import backward
    from fedkit.optim import make_optimizer

    spec, params, x, y = _model_and_batch()
    grads = backward(spec, params, x, y)[1]
    opt = make_optimizer(kind, 0.1)
    first = check_owned(lambda: opt.step(params, grads), params, grads)
    # a second step runs on the moments the first one left behind
    check_owned(lambda: opt.step(first, grads), first, grads, params)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("send_delta", [False, True])
@pytest.mark.parametrize("steps", [0, 3])
def test_local_train_result_is_owned(check_owned, optimizer, send_delta, steps):
    from fedkit.client import ClientState, TrainConfig, local_train
    from fedkit.models import make_blobs

    spec, base, _, _ = _model_and_batch()
    ds = make_blobs(classes=3, dim=4, per_class=10, seed=2)
    cfg = TrainConfig(optimizer=optimizer, lr=0.1, batch_size=4, send_delta=send_delta, prox_mu=0.5)
    state = ClientState("c0", ds, spec, cfg)
    if steps == 0 and not send_delta:
        # nothing trained, nothing computed: the base itself is sent on
        assert local_train(state, base, steps=0).params is base
        return
    update = check_owned(lambda: local_train(state, base, steps=steps).params, base)
    if steps == 0:
        assert P.norms(update) == (0.0, 0.0, 0.0)


def test_decoded_sets_are_owned(check_owned):
    from fedkit.compression import CodecConfig, compress_params, decompress_params

    rng = np.random.default_rng(4)
    p = pset(W=rng.normal(size=(40, 50)), b=rng.normal(size=7).astype(np.float32), s=np.float64(2.5))
    buf = bytearray(P.serialize_params(p))
    out = check_owned(lambda: P.deserialize_params(buf), p)
    assert out == p
    buf[:] = bytes(len(buf))  # the decoded set must not see the caller's buffer
    assert out == p
    blob = compress_params(p, CodecConfig(eb_rel=0.01, small_tensor_threshold=8))
    out = check_owned(lambda: decompress_params(blob), p)
    assert [(n, a.shape, a.dtype) for n, a in out] == [(n, a.shape, a.dtype) for n, a in p]


def test_arithmetic_results_are_owned(check_owned):
    rng = np.random.default_rng(5)
    x = pset(a=rng.normal(size=(3, 4)), b=rng.normal(size=2))
    y = pset(a=rng.normal(size=(3, 4)), b=rng.normal(size=2))
    check_owned(lambda: P.weighted_sum([x, y], [0.25, 0.75]), x, y)
    check_owned(lambda: P.weighted_sum([x], [1.0]), x)
    check_owned(lambda: P.axpy(0.0, x, y), x, y)
    check_owned(lambda: P.zeros_like(x), x)
    check_owned(lambda: x.astype(np.float64), x)
