"""Server-side aggregation rules and the strategy registry.

All rules mutate an :class:`AggregatorState` in place and bump its epoch by
exactly one per aggregation.  Updates are summed in client-id order so the
result is bit-identical under permutation of the input list.  Updates may
carry full weights or deltas; each rule derives whichever form it needs
relative to the current global model.

Per-coordinate formulas, with ``dbar`` the sample-weighted mean delta:

- weighted_avg:  g = sum_i w_i * full_i
- fedavgm:       v = beta * v + dbar;                 g += v
- fedadagrad:    u += dbar^2;                         g += lr * dbar / (sqrt(u) + tau)
- fedadam:       m = b1*m + (1-b1)*dbar
                 u = b2*u + (1-b2)*dbar^2;            g += lr * m / (sqrt(u) + tau)
- fedyogi:       as fedadam but u -= (1-b2) * dbar^2 * sign(u - dbar^2)
- async:         g = (1-a_s)*g + a_s*full,  a_s = alpha * (s+1)^-exp
- buffered:      g += lr * mean_i[(s_i+1)^-exp * delta_i]

``s`` is staleness: server epoch minus the update's base epoch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyUpdateList,
    NegativeStaleness,
    UnknownStrategyName,
)
from .params import ModelUpdate, ParameterSet, _weighted_accumulate, zeros_like

# shared hyperparameter defaults
ALPHA = 0.9  # async mixing weight
STALENESS_EXPONENT = 0.5
SERVER_LR = 1.0
BUFFER_SIZE = 3
BETA = 0.9  # fedavgm momentum
BETA1 = 0.9
BETA2 = 0.99
TAU = 1e-3  # adaptivity floor


@dataclass
class AggregatorState:
    global_params: ParameterSet
    epoch: int = 0
    momentum: Optional[ParameterSet] = None  # fedavgm velocity
    m: Optional[ParameterSet] = None  # first moment
    u: Optional[ParameterSet] = None  # second moment / accumulator


def _ordered(updates: Sequence[ModelUpdate]) -> list[ModelUpdate]:
    if not updates:
        raise EmptyUpdateList("aggregation requires at least one update")
    return sorted(updates, key=lambda u: u.client_id)


def _staleness(state: AggregatorState, u: ModelUpdate) -> int:
    s = state.epoch - u.base_epoch
    if s < 0:
        raise NegativeStaleness(
            f"update from {u.client_id} has base epoch {u.base_epoch} > server epoch {state.epoch}"
        )
    return s


def _full_of(state: AggregatorState, u: ModelUpdate) -> ParameterSet:
    if not u.is_delta:
        state.global_params.check_structure(u.params)
        return u.params
    return ParameterSet._adopt(
        (n, g + u.params[n]) for n, g in state.global_params.items()
    )


def _terms(state: AggregatorState, ups, weights, delta: bool) -> list[tuple]:
    """Accumulation terms giving each update as a delta or as full weights.

    A delta becomes full weights as ``delta + g`` and full weights become a
    delta as ``full - g``, with ``g`` the current global model.
    """
    g = state.global_params
    terms = []
    for u, w in zip(ups, weights):
        g.check_structure(u.params)
        if u.is_delta == delta:
            terms.append((w, u.params, None, None))
        else:
            terms.append((w, u.params, np.subtract if delta else np.add, g))
    return terms


def _sample_weights(updates: Sequence[ModelUpdate]) -> np.ndarray:
    counts = np.array([max(u.sample_count, 0) for u in updates], dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        # degenerate bookkeeping: fall back to equal weights
        return np.full(len(updates), 1.0 / len(updates))
    return counts / total


def _mean_delta(state: AggregatorState, updates: Sequence[ModelUpdate]) -> ParameterSet:
    ups = _ordered(updates)
    for u in ups:
        _staleness(state, u)
    terms = _terms(state, ups, _sample_weights(ups), delta=True)
    return ParameterSet._adopt(_weighted_accumulate(state.global_params, terms))


def agg_weighted_avg(state: AggregatorState, updates: Sequence[ModelUpdate]) -> ParameterSet:
    """Sample-weighted average of full client models."""
    ups = _ordered(updates)
    for u in ups:
        _staleness(state, u)
    terms = _terms(state, ups, _sample_weights(ups), delta=False)
    state.global_params = ParameterSet._adopt(_weighted_accumulate(state.global_params, terms))
    state.epoch += 1
    return state.global_params


def agg_server_opt(
    state: AggregatorState,
    updates: Sequence[ModelUpdate],
    variant: str,
    server_lr: float = SERVER_LR,
    beta: float = BETA,
    beta1: float = BETA1,
    beta2: float = BETA2,
    tau: float = TAU,
) -> ParameterSet:
    """Server-side optimizer step on the weighted mean delta."""
    if variant not in ("fedavgm", "fedadagrad", "fedadam", "fedyogi"):
        raise UnknownStrategyName(f"unknown server-opt variant {variant!r}")
    dbar = _mean_delta(state, updates)
    g = state.global_params

    if variant == "fedavgm":
        v = state.momentum if state.momentum is not None else zeros_like(g)
        v = ParameterSet._adopt((n, a.dtype.type(beta) * a + dbar[n]) for n, a in v.items())
        state.momentum = v
        step = ParameterSet._adopt((n, a.dtype.type(server_lr) * a) for n, a in v.items())
    else:
        u = state.u if state.u is not None else zeros_like(g)
        d2 = ParameterSet._adopt((n, a * a) for n, a in dbar.items())
        if variant == "fedadagrad":
            u = ParameterSet._adopt((n, a + d2[n]) for n, a in u.items())
            direction = dbar
        else:
            m = state.m if state.m is not None else zeros_like(g)
            m = ParameterSet._adopt(
                (n, a.dtype.type(beta1) * a + a.dtype.type(1 - beta1) * dbar[n])
                for n, a in m.items()
            )
            state.m = m
            direction = m
            if variant == "fedadam":
                u = ParameterSet._adopt(
                    (n, a.dtype.type(beta2) * a + a.dtype.type(1 - beta2) * d2[n])
                    for n, a in u.items()
                )
            else:  # fedyogi
                u = ParameterSet._adopt(
                    (n, a - a.dtype.type(1 - beta2) * d2[n] * np.sign(a - d2[n]))
                    for n, a in u.items()
                )
        state.u = u
        step = ParameterSet._adopt(
            (n, d.dtype.type(server_lr) * d / (np.sqrt(u[n]) + d.dtype.type(tau)))
            for n, d in direction.items()
        )

    state.global_params = ParameterSet._adopt((n, a + step[n]) for n, a in g.items())
    state.epoch += 1
    return state.global_params


def agg_async(
    state: AggregatorState,
    update: ModelUpdate,
    alpha: float = ALPHA,
    staleness_exponent: float = STALENESS_EXPONENT,
) -> ParameterSet:
    """Staleness-discounted interpolation toward one client's model."""
    s = _staleness(state, update)
    a_s = alpha * (s + 1) ** (-staleness_exponent)
    full = _full_of(state, update)
    state.global_params = ParameterSet._adopt(
        (n, g.dtype.type(1 - a_s) * g + g.dtype.type(a_s) * full[n])
        for n, g in state.global_params.items()
    )
    state.epoch += 1
    return state.global_params


def agg_buffered(
    state: AggregatorState,
    updates: Sequence[ModelUpdate],
    server_lr: float = SERVER_LR,
    staleness_exponent: float = STALENESS_EXPONENT,
) -> ParameterSet:
    """Mean staleness-discounted delta over a buffer, applied in one step."""
    ups = _ordered(updates)
    scale = 1.0 / len(ups)
    discounts = [(_staleness(state, u) + 1) ** (-staleness_exponent) for u in ups]
    g = state.global_params
    acc = _weighted_accumulate(g, _terms(state, ups, discounts, delta=True))
    # g + (lr/n) * acc, finished in the accumulator's own buffers
    for (_, a), (_, t) in zip(acc, g):
        np.multiply(a, t.dtype.type(server_lr * scale), out=a)
        np.add(t, a, out=a)
    state.global_params = ParameterSet._adopt(acc)
    state.epoch += 1
    return state.global_params


# ---------------------------------------------------------------------------
# strategies


class _Strategy:
    """Maps scheduler Aggregate actions onto the rule functions above.

    ``apply`` returns True when an aggregation actually happened (FedBuff
    may only absorb the update into its buffer).
    """

    def apply(self, state: AggregatorState, updates: Sequence[ModelUpdate], late: bool = False) -> bool:
        raise NotImplementedError

    def finalize(self, state: AggregatorState) -> bool:
        """Flush any internal buffer at experiment end."""
        return False


class FedAvgAggregator(_Strategy):
    def apply(self, state, updates, late=False):
        agg_weighted_avg(state, updates)
        return True


class _ServerOptAggregator(_Strategy):
    variant = ""

    def __init__(self, server_lr: float = SERVER_LR, beta: float = BETA,
                 beta1: float = BETA1, beta2: float = BETA2, tau: float = TAU):
        self.server_lr = server_lr
        self.beta = beta
        self.beta1 = beta1
        self.beta2 = beta2
        self.tau = tau

    def apply(self, state, updates, late=False):
        agg_server_opt(
            state, updates, self.variant,
            server_lr=self.server_lr, beta=self.beta,
            beta1=self.beta1, beta2=self.beta2, tau=self.tau,
        )
        return True


class FedAvgMAggregator(_ServerOptAggregator):
    variant = "fedavgm"


class FedAdagradAggregator(_ServerOptAggregator):
    variant = "fedadagrad"


class FedAdamAggregator(_ServerOptAggregator):
    variant = "fedadam"


class FedYogiAggregator(_ServerOptAggregator):
    variant = "fedyogi"


class FedAsyncAggregator(_Strategy):
    def __init__(self, alpha: float = ALPHA, staleness_exponent: float = STALENESS_EXPONENT):
        self.alpha = alpha
        self.staleness_exponent = staleness_exponent

    def apply(self, state, updates, late=False):
        for u in updates:
            agg_async(state, u, self.alpha, self.staleness_exponent)
        return True


class FedBuffAggregator(_Strategy):
    def __init__(self, buffer_size: int = BUFFER_SIZE, server_lr: float = SERVER_LR,
                 staleness_exponent: float = STALENESS_EXPONENT):
        if buffer_size < 1:
            raise UnknownStrategyName(f"buffer_size must be positive, got {buffer_size}")
        self.buffer_size = buffer_size
        self.server_lr = server_lr
        self.staleness_exponent = staleness_exponent
        self._buffer: list[ModelUpdate] = []

    def apply(self, state, updates, late=False):
        self._buffer.extend(updates)
        if len(self._buffer) < self.buffer_size:
            return False
        agg_buffered(state, self._buffer, self.server_lr, self.staleness_exponent)
        self._buffer = []
        return True

    def finalize(self, state):
        if not self._buffer:
            return False
        agg_buffered(state, self._buffer, self.server_lr, self.staleness_exponent)
        self._buffer = []
        return True


class FedCompassAggregator(_Strategy):
    """Weighted average for arrival groups; late stragglers fold in as a
    single-element staleness-discounted buffer."""

    def __init__(self, server_lr: float = SERVER_LR, staleness_exponent: float = STALENESS_EXPONENT):
        self.server_lr = server_lr
        self.staleness_exponent = staleness_exponent

    def apply(self, state, updates, late=False):
        if late:
            agg_buffered(state, updates, self.server_lr, self.staleness_exponent)
        else:
            agg_weighted_avg(state, updates)
        return True


AGGREGATORS = {
    "FedAvgAggregator": FedAvgAggregator,
    "FedAvgMAggregator": FedAvgMAggregator,
    "FedAdagradAggregator": FedAdagradAggregator,
    "FedAdamAggregator": FedAdamAggregator,
    "FedYogiAggregator": FedYogiAggregator,
    "FedAsyncAggregator": FedAsyncAggregator,
    "FedBuffAggregator": FedBuffAggregator,
    "FedCompassAggregator": FedCompassAggregator,
}


def make_aggregator(name: str, kwargs: Optional[dict] = None) -> _Strategy:
    if name not in AGGREGATORS:
        raise UnknownStrategyName(f"unknown aggregator {name!r}; known: {sorted(AGGREGATORS)}")
    return AGGREGATORS[name](**(kwargs or {}))
