"""Update-level differential privacy: norm clipping plus Laplace noise.

The transmitted object (full weights or delta, whichever the client sends)
is clipped to an l1 ball of radius ``clip_norm`` and perturbed with
coordinate-wise Laplace noise of scale ``clip_norm / epsilon``.

The guarantee, per round and per client: two neighbouring inputs are any two
clipped updates.  Both lie in the l1 ball of radius ``clip_norm``, so their
l1 distance, the sensitivity, is at most ``2 * clip_norm``.  Laplace noise of
scale ``clip_norm / epsilon`` is therefore ``2 * epsilon``-differentially
private per round, not ``epsilon``.  l2 clipping is accepted for
experimentation but gives no l1 bound and so no such guarantee.

``epsilon = inf`` disables noise and ``clip_norm = inf`` disables clipping;
both together make the pipeline a bit-exact no-op on finite updates.  An
update whose norm is not finite (it holds NaN or inf, or its norm overflows)
has no place in the ball: clipping raises :class:`NonFiniteValue`, and the
noise step raises :class:`NotClipped` for any update not shown to be inside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteValue, NotClipped
from .params import ParameterSet, _filled, _layout, norms

CLIP_SLACK = 1e-9


@dataclass(frozen=True)
class PrivacyConfig:
    enabled: bool = False
    epsilon: float = math.inf
    clip_norm: float = math.inf
    clip_kind: str = "l1"  # l1 | l2

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.clip_kind not in ("l1", "l2"):
            raise ConfigError(f"clip_kind must be l1 or l2, got {self.clip_kind!r}")
        if self.enabled and math.isfinite(self.epsilon) and not math.isfinite(self.clip_norm):
            raise ConfigError("finite epsilon requires a finite clip_norm")

    @property
    def noise_scale(self) -> float:
        return 0.0 if math.isinf(self.epsilon) else self.clip_norm / self.epsilon


def _norm(p: ParameterSet, kind: str) -> float:
    l1, l2, _ = norms(p)
    return l1 if kind == "l1" else l2


def clip(p: ParameterSet, clip_norm: float, kind: str = "l1") -> ParameterSet:
    """Scale ``p`` onto the norm ball of radius ``clip_norm`` if it lies outside.

    Inside the ball the input is returned unchanged (same object, bit-exact).
    A norm that is not finite raises :class:`NonFiniteValue`.  float64
    tensors are multiplied by ``clip_norm / norm``.  float32 tensors are
    multiplied by that scale rounded to float32, and rounding can leave the
    result up to ~6e-8 (relative) outside the ball; the float32 scale is
    then stepped down, one float32 ulp first and doubling the step each time,
    until the norm, as :func:`norms` computes it, fits.
    """
    if clip_norm <= 0:
        raise ConfigError(f"clip_norm must be positive, got {clip_norm}")
    n = _norm(p, kind)
    if not math.isfinite(n):
        raise NonFiniteValue(f"{kind} norm of the update is {n}")
    if n <= clip_norm:
        return p
    scale = clip_norm / n
    s32 = np.float32(scale)
    has_f32 = np.dtype(np.float32) in p._layout.dtypes
    ulps = 1
    while True:
        out = ParameterSet._wrap(p._layout, [
            a * (s32 if a.dtype == np.float32 else a.dtype.type(scale)) for a in p._bufs
        ])
        if not has_f32 or s32 == 0 or _norm(out, kind) <= clip_norm:
            return out
        s32 = max(s32 - np.float32(ulps) * np.spacing(s32), np.float32(0))
        ulps *= 2


def perturb(p: ParameterSet, cfg: PrivacyConfig, rng: np.random.Generator) -> ParameterSet:
    """Add iid Laplace(0, clip_norm/epsilon) to every coordinate.

    Requires the input's norm to be at most the clip bound (with
    ``CLIP_SLACK``); raises :class:`NotClipped` otherwise, also for a norm
    that is NaN.  The noise is drawn in entry order, one value per element.
    ``epsilon = inf`` returns the input unchanged without consuming random
    numbers.
    """
    if math.isinf(cfg.epsilon):
        return p
    n = _norm(p, cfg.clip_kind)
    if not n <= cfg.clip_norm * (1.0 + CLIP_SLACK):
        raise NotClipped(
            f"{cfg.clip_kind} norm {n:.6g} exceeds clip bound {cfg.clip_norm:.6g}"
        )
    # one draw in entry order, cut into tensors and cast into buffers laid out like p's
    noise = rng.laplace(0.0, cfg.noise_scale, p.param_count)
    cuts = _layout(tuple((name, noise.dtype, s) for name, _, s in p._layout.key)).views([noise])
    noise_bufs = _filled(p._layout, cuts)
    return ParameterSet._wrap(p._layout, [a + z for a, z in zip(p._bufs, noise_bufs)])


def apply_privacy(p: ParameterSet, cfg: PrivacyConfig, rng: np.random.Generator) -> ParameterSet:
    """Clip-then-perturb pipeline; identity when the config is disabled."""
    if not cfg.enabled:
        return p
    return perturb(clip(p, cfg.clip_norm, cfg.clip_kind), cfg, rng)
