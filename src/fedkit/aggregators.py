"""Server-side aggregation rules and the strategy registry.

All rules mutate an :class:`AggregatorState` in place and bump its epoch by
exactly one per aggregation.  Updates are summed in client-id order so the
result is bit-identical under permutation of the input list.  Updates may
carry full weights or deltas; each rule derives whichever form it needs
relative to the current global model.

A sum is folded term by term: every update's structure and staleness are
checked first, then each update's params are read once, folded in and let
go before the next is read.  A simulated update's params are trained at
that read and taken by it, so a round holds one such update at a time.

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
from .params import ModelUpdate, ParameterSet, _weighted_accumulate

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


def _full_of(state: AggregatorState, u: ModelUpdate) -> tuple:
    """The update's full weights, one buffer per dtype."""
    g = state.global_params
    g.check_structure(u.params)
    if not u.is_delta:
        return u.params._bufs
    return tuple(a + d for a, d in zip(g._bufs, u.params._bufs))


def _terms(state: AggregatorState, ups, weights, delta: bool):
    """Accumulation terms giving each update as a delta or as full weights, made one by one.

    A delta becomes full weights as ``delta + g`` and full weights become a
    delta as ``full - g``, with ``g`` the current global model.  Every
    update's structure is checked before the first term is made.
    """
    g = state.global_params
    for u in ups:
        g.check_structure(u.params)
    return (
        (w, u.params, None, None) if u.is_delta == delta
        else (w, u.params, np.subtract if delta else np.add, g)
        for u, w in zip(ups, weights)
    )


def _sample_weights(updates: Sequence[ModelUpdate]) -> np.ndarray:
    counts = np.array([max(u.sample_count, 0) for u in updates], dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        # degenerate bookkeeping: fall back to equal weights
        return np.full(len(updates), 1.0 / len(updates))
    return counts / total


def _weighted_mean(state: AggregatorState, updates: Sequence[ModelUpdate], delta: bool) -> list:
    """The sample-weighted mean of the updates, as deltas or full weights; a fresh buffer per dtype."""
    ups = _ordered(updates)
    for u in ups:
        _staleness(state, u)
    terms = _terms(state, ups, _sample_weights(ups), delta)
    return _weighted_accumulate(state.global_params, terms)


def _state_buf(p: Optional[ParameterSet], j: int, like: np.ndarray) -> np.ndarray:
    """Buffer ``j`` of an optimizer state set, or zeros before its first round."""
    return np.zeros_like(like) if p is None else p._bufs[j]


def agg_weighted_avg(state: AggregatorState, updates: Sequence[ModelUpdate]) -> ParameterSet:
    """Sample-weighted average of full client models."""
    g = state.global_params
    state.global_params = ParameterSet._wrap(g._layout, _weighted_mean(state, updates, delta=False))
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
    """Server-side optimizer step on the weighted mean delta.

    The rule runs once per dtype buffer of the model.  The state sets and
    the global model are fresh buffers every round.  ``dbar^2`` is the one
    scratch buffer, and ``dbar``, fresh from the accumulator, becomes the
    step once the rule has read it.  Every product and sum keeps the operand
    order of the formulas above, so the result equals them computed tensor
    by tensor, bit for bit.
    """
    if variant not in ("fedavgm", "fedadagrad", "fedadam", "fedyogi"):
        raise UnknownStrategyName(f"unknown server-opt variant {variant!r}")
    g = state.global_params
    vs, ms, us, out = [], [], [], []
    for j, (gb, d) in enumerate(zip(g._bufs, _weighted_mean(state, updates, delta=True))):
        t = gb.dtype.type
        if variant == "fedavgm":
            v = np.multiply(_state_buf(state.momentum, j, gb), t(beta))
            v += d
            vs.append(v)
            step = np.multiply(v, t(server_lr), out=d)
        else:
            d2 = np.multiply(d, d)
            u0 = _state_buf(state.u, j, gb)
            if variant == "fedadagrad":
                u = u0 + d2
                step = np.multiply(d, t(server_lr), out=d)
            else:
                m = np.multiply(_state_buf(state.m, j, gb), t(beta1))
                m += np.multiply(d, t(1 - beta1), out=d)
                ms.append(m)
                if variant == "fedadam":
                    u = np.multiply(u0, t(beta2))
                    u += np.multiply(d2, t(1 - beta2), out=d2)
                else:  # fedyogi: u0 - ((1-b2) * dbar^2) * sign(u0 - dbar^2)
                    sign = np.sign(np.subtract(u0, d2, out=d), out=d)
                    pull = np.multiply(d2, t(1 - beta2), out=d2)
                    pull *= sign
                    u = u0 - pull
                step = np.multiply(m, t(server_lr), out=d)
            us.append(u)
            # (lr * direction) / (sqrt(u) + tau)
            den = np.sqrt(u, out=d2)
            den += t(tau)
            step /= den
        out.append(gb + step)
    if variant == "fedavgm":
        state.momentum = ParameterSet._wrap(g._layout, vs)
    else:
        state.u = ParameterSet._wrap(g._layout, us)
        if variant != "fedadagrad":
            state.m = ParameterSet._wrap(g._layout, ms)
    state.global_params = ParameterSet._wrap(g._layout, out)
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
    g = state.global_params
    state.global_params = ParameterSet._wrap(g._layout, [
        a.dtype.type(1 - a_s) * a + a.dtype.type(a_s) * f
        for a, f in zip(g._bufs, _full_of(state, update))
    ])
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
    for a, t in zip(acc, g._bufs):
        np.multiply(a, t.dtype.type(server_lr * scale), out=a)
        np.add(t, a, out=a)
    state.global_params = ParameterSet._wrap(g._layout, acc)
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
