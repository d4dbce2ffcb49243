import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkit.errors import ConfigError, NonFiniteValue, NotClipped
from fedkit.params import ParameterSet, norms
from fedkit.privacy import CLIP_SLACK, PrivacyConfig, apply_privacy, clip, perturb


def pset(vals):
    return ParameterSet([("w", np.asarray(vals, dtype=np.float64))])


def test_clip_scales_onto_ball():
    p = pset([3.0, -4.0, 5.0])  # l1 = 12
    out = clip(p, 6.0, "l1")
    l1, _, _ = norms(out)
    assert l1 <= 6.0 * (1 + 1e-9)
    np.testing.assert_allclose(out["w"], np.array([3.0, -4.0, 5.0]) * 0.5)


def test_clip_l2():
    p = pset([3.0, 4.0])  # l2 = 5
    out = clip(p, 1.0, "l2")
    _, l2, _ = norms(out)
    assert l2 == pytest.approx(1.0, rel=1e-12)


def test_clip_inside_ball_is_identity_object():
    p = pset([0.1, -0.2])
    assert clip(p, 1.0, "l1") is p


def test_perturb_infinite_epsilon_is_bit_exact_noop():
    p = pset([1.0, 2.0, 3.0])
    cfg = PrivacyConfig(enabled=True, epsilon=math.inf, clip_norm=math.inf)
    rng = np.random.default_rng(0)
    assert perturb(p, cfg, rng) is p
    # and the rng stream is untouched
    assert np.random.default_rng(0).integers(1 << 30) == rng.integers(1 << 30)


def test_perturb_requires_clipped_input():
    cfg = PrivacyConfig(enabled=True, epsilon=1.0, clip_norm=1.0)
    with pytest.raises(NotClipped):
        perturb(pset([5.0, 5.0]), cfg, np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["l1", "l2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_update_is_rejected(dtype, bad, kind):
    p = ParameterSet([("w", np.array([0.1, bad, -0.2], dtype=dtype)), ("b", np.ones(2, dtype=dtype))])
    cfg = PrivacyConfig(enabled=True, epsilon=1.0, clip_norm=0.5, clip_kind=kind)
    with pytest.raises(NonFiniteValue):
        apply_privacy(p, cfg, np.random.default_rng(0))
    with pytest.raises(NonFiniteValue):
        clip(p, 0.5, kind)
    # noise is never added to an update that is not shown to be inside the ball
    with pytest.raises(NotClipped):
        perturb(p, cfg, np.random.default_rng(0))


def test_perturb_is_deterministic_under_seed():
    cfg = PrivacyConfig(enabled=True, epsilon=2.0, clip_norm=1.0)
    p = clip(pset([0.7, -0.4, 0.1]), 1.0)
    a = perturb(p, cfg, np.random.default_rng(42))
    b = perturb(p, cfg, np.random.default_rng(42))
    assert a == b


def test_laplace_scale_matches_analytic_mean_abs():
    # E|Laplace(0, b)| = b; Monte-Carlo over 1e5 coords must land within 5%
    cfg = PrivacyConfig(enabled=True, epsilon=2.5, clip_norm=1.0)
    b = cfg.noise_scale
    assert b == pytest.approx(0.4)
    zero = ParameterSet([("w", np.zeros(100_000))])
    noised = perturb(zero, cfg, np.random.default_rng(7))
    mean_abs = float(np.mean(np.abs(noised["w"])))
    assert abs(mean_abs - b) / b < 0.05


def test_noise_magnitude_scales_inversely_with_epsilon():
    zero = ParameterSet([("w", np.zeros(50_000))])
    sizes = []
    for eps in (10.0, 1.0, 0.1):
        cfg = PrivacyConfig(enabled=True, epsilon=eps, clip_norm=1.0)
        out = perturb(zero, cfg, np.random.default_rng(3))
        sizes.append(float(np.mean(np.abs(out["w"]))))
    assert sizes[0] < sizes[1] < sizes[2]


def test_apply_privacy_disabled_is_identity():
    p = pset([9.0, 9.0])
    assert apply_privacy(p, PrivacyConfig(enabled=False), np.random.default_rng(0)) is p


def test_apply_privacy_pipeline_clips_then_noises():
    cfg = PrivacyConfig(enabled=True, epsilon=1e12, clip_norm=1.0)
    p = pset([10.0, -10.0])
    out = apply_privacy(p, cfg, np.random.default_rng(0))
    # nearly noiseless at huge epsilon: result is the clipped vector
    np.testing.assert_allclose(out["w"], [0.5, -0.5], atol=1e-9)


def test_config_validation():
    with pytest.raises(ConfigError):
        PrivacyConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        PrivacyConfig(clip_norm=-1.0)
    with pytest.raises(ConfigError):
        PrivacyConfig(clip_kind="linf")
    with pytest.raises(ConfigError):
        PrivacyConfig(enabled=True, epsilon=1.0, clip_norm=math.inf)
    # infinite epsilon with infinite clip is allowed (fully disabled mechanism)
    PrivacyConfig(enabled=True, epsilon=math.inf, clip_norm=math.inf)


# ---------------------------------------------------------------------------
# the documented guarantee: any two clipped updates are neighbours, their l1
# distance (the sensitivity) is at most 2 * clip_norm, and the noise scale is
# clip_norm / epsilon, which together give 2 * epsilon per round

_coords = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(_coords, _coords, st.floats(1e-3, 1e3))
def test_clipped_updates_differ_by_at_most_twice_the_clip_norm(a, b, clip_norm):
    n = min(len(a), len(b))
    ca = clip(pset(a[:n]), clip_norm, "l1")
    cb = clip(pset(b[:n]), clip_norm, "l1")
    distance = float(np.sum(np.abs(ca["w"] - cb["w"])))
    assert distance <= 2.0 * clip_norm * (1.0 + CLIP_SLACK)


@given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
def test_noise_scale_is_clip_norm_over_epsilon(clip_norm, epsilon):
    cfg = PrivacyConfig(enabled=True, epsilon=epsilon, clip_norm=clip_norm)
    assert cfg.noise_scale == clip_norm / epsilon


# ---------------------------------------------------------------------------
# float32 updates: rounding of the rescaled tensor must not leave the ball


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 80),
    st.floats(1e-3, 1e3),
    st.sampled_from(["l1", "l2"]),
)
def test_float32_clip_lands_inside_the_ball(seed, size, clip_norm, kind):
    rng = np.random.default_rng(seed)
    p = ParameterSet([("w", rng.normal(0.0, 3.0, size).astype(np.float32))])
    out = clip(p, clip_norm, kind)
    l1, l2, _ = norms(out)
    assert (l1 if kind == "l1" else l2) <= clip_norm
    assert out["w"].dtype == np.float32
    cfg = PrivacyConfig(enabled=True, epsilon=1.0, clip_norm=clip_norm, clip_kind=kind)
    apply_privacy(p, cfg, np.random.default_rng(0))  # no NotClipped


def test_float32_clip_in_a_mixed_set_keeps_float64_scale():
    rng = np.random.default_rng(3)
    a64 = rng.normal(size=40)
    a32 = rng.normal(size=50).astype(np.float32)
    p = ParameterSet([("a", a64), ("b", a32)])
    out = clip(p, 0.37, "l1")
    assert norms(out)[0] <= 0.37
    # float64 tensors are scaled exactly as before
    scale = 0.37 / norms(p)[0]
    assert np.array_equal(out["a"], a64 * scale)


def test_float64_clip_is_the_plain_rescale():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.normal(size=30)
        out = clip(pset(v), 0.37, "l1")
        assert np.array_equal(out["w"], v * (0.37 / float(np.sum(np.abs(v)))))
