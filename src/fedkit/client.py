"""Client-side training agent.

A :class:`ClientState` owns a data shard, a model spec, an optimizer, and the
batching RNG.  All of it persists across rounds: Adam moments keep warm, the
shuffle cursor continues where the previous round stopped, and the step
counter only ever grows.  Two states constructed with the same arguments
produce bit-identical updates for the same inputs, which is what makes
simulated and socket-distributed runs comparable.

Each :func:`local_train` call trains on private flat buffers, one per dtype
of the model (in practice one): the weights, the gradient that ``backward``
writes into, and with ``prox_mu > 0`` the base model plus a scratch vector.
A step is then a few whole-vector operations and builds no parameter set.
Only the weight buffer outlives the call, as the views that the returned
update adopts; nothing is kept per client besides the optimizer state.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, UnknownStrategyName
from .models import Dataset, ModelSpec, backward, dataset_metrics
from .optim import make_optimizer
from .params import FlatBuffers, ModelUpdate, ParameterSet, save_params
from .privacy import PrivacyConfig, apply_privacy

TRAINERS = ("VanillaTrainer",)


@dataclass(frozen=True)
class TrainConfig:
    trainer: str = "VanillaTrainer"
    optimizer: str = "sgd"  # sgd | adam
    lr: float = 0.01
    batch_size: int = 32
    local_steps: int = 10
    prox_mu: float = 0.0  # > 0 adds the proximal pull toward the round's base model
    send_delta: bool = False
    seed: int = 0
    checkpoint_dir: Optional[str] = None

    def __post_init__(self):
        if self.trainer not in TRAINERS:
            raise UnknownStrategyName(f"unknown trainer {self.trainer!r}; known: {TRAINERS}")
        if self.lr < 0:
            raise ConfigError(f"lr must be non-negative, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.local_steps < 0:
            raise ConfigError(f"local_steps must be non-negative, got {self.local_steps}")
        if self.prox_mu < 0:
            raise ConfigError(f"prox_mu must be non-negative, got {self.prox_mu}")


class ClientState:
    """Mutable per-client training state."""

    def __init__(
        self,
        client_id: str,
        dataset: Dataset,
        model_spec: ModelSpec,
        cfg: TrainConfig,
        privacy: Optional[PrivacyConfig] = None,
        eval_dataset: Optional[Dataset] = None,
    ):
        self.client_id = client_id
        self.dataset = dataset
        self.model_spec = model_spec
        self.cfg = cfg
        self.privacy = privacy or PrivacyConfig()
        self.eval_dataset = eval_dataset
        self.optimizer = make_optimizer(cfg.optimizer, cfg.lr)
        self.rng = np.random.default_rng(cfg.seed)
        # independent stream so privacy noise does not disturb batching
        self.privacy_rng = np.random.default_rng([cfg.seed, 0x9E3779B9])
        self.steps_taken = 0
        self._perm = np.zeros(0, dtype=np.int64)
        self._cursor = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Next slice of the seeded shuffle; reshuffles at each epoch boundary."""
        n = len(self.dataset)
        if self._cursor >= len(self._perm):
            self._perm = self.rng.permutation(n)
            self._cursor = 0
        end = min(self._cursor + self.cfg.batch_size, n)
        idx = self._perm[self._cursor : end]
        self._cursor = end
        return self.dataset.features[idx], self.dataset.labels[idx]


def local_train(
    state: ClientState,
    base: ParameterSet,
    steps: Optional[int] = None,
    base_epoch: int = 0,
    clock=time.monotonic,
) -> ModelUpdate:
    """Run ``steps`` minibatch steps from ``base`` and package the result.

    The trained weights (or the delta, per ``send_delta``) pass through the
    privacy pipeline before being wrapped into a :class:`ModelUpdate`.
    """
    cfg = state.cfg
    if steps is None:
        steps = cfg.local_steps
    start = clock()
    params = base
    if steps > 0:
        params = _train(state, base, steps)
    end = clock()
    payload = _transmitted(params, base, cfg.send_delta)
    payload = apply_privacy(payload, state.privacy, state.privacy_rng)
    return ModelUpdate(
        client_id=state.client_id,
        params=payload,
        is_delta=cfg.send_delta,
        sample_count=len(state.dataset),
        local_steps=steps,
        base_epoch=base_epoch,
        wall_meta=(start, end),
    )


def _train(state: ClientState, base: ParameterSet, steps: int) -> ParameterSet:
    """``steps`` optimizer steps from ``base`` on this call's flat buffers.

    The weights ``w`` start as a copy of ``base``; ``backward`` writes each
    batch's gradient into ``g``; the proximal pull ``g += mu*(w - b)`` and
    the optimizer step are whole-vector operations.  The trained set adopts
    the views of ``w``, the only buffer that outlives the call.
    """
    spec, optimizer, mu = state.model_spec, state.optimizer, state.cfg.prox_mu
    w = FlatBuffers(base)
    g = FlatBuffers(base, copy=False)
    prox = []
    if mu > 0.0:
        # the base once more as flat buffers, and scratch for w - b
        b, t = FlatBuffers(base), FlatBuffers(base, copy=False)
        prox = [
            (wv, bv, tv, gv, gv.dtype.type(mu))
            for wv, bv, tv, gv in zip(w.bufs, b.bufs, t.bufs, g.bufs)
        ]
    for _ in range(steps):
        x, y = state.next_batch()
        backward(spec, w.views, x, y, out=g.views)
        for wv, bv, tv, gv, mu_t in prox:
            np.subtract(wv, bv, out=tv)
            tv *= mu_t
            gv += tv
        optimizer.update(w.bufs, g.bufs)
        state.steps_taken += 1
    return ParameterSet._adopt_views(w.views)


def _transmitted(trained: ParameterSet, base: ParameterSet, send_delta: bool) -> ParameterSet:
    """The trained weights, or ``trained - base`` when sending deltas.

    A trained set other than ``base`` came fresh from the optimizer and has
    not been returned to anyone, so it becomes the delta in place.
    """
    if not send_delta:
        return trained
    if trained is base:  # zero steps: base belongs to the caller
        return ParameterSet._adopt((name, b - b) for name, b in base.items())
    for (_, t), (_, b) in zip(trained.items(), base.items()):
        t.flags.writeable = True
        np.subtract(t, b, out=t)
        t.flags.writeable = False
    return trained


def evaluate(state: ClientState, params: ParameterSet) -> dict:
    """Loss plus accuracy/mse on the evaluation split (train shard if absent)."""
    ds = state.eval_dataset if state.eval_dataset is not None else state.dataset
    return dataset_metrics(state.model_spec, params, ds)


def save_checkpoint(state: ClientState, params: ParameterSet, tag: str) -> Optional[str]:
    """Write a ``.apfm`` checkpoint if the config names a directory."""
    if not state.cfg.checkpoint_dir:
        return None
    os.makedirs(state.cfg.checkpoint_dir, exist_ok=True)
    path = os.path.join(state.cfg.checkpoint_dir, f"{state.client_id}_{tag}.apfm")
    save_params(params, path)
    return path
