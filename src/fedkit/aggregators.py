"""Server-side aggregation rules, one strategy class each, and their registry.

Each class in ``AGGREGATORS`` is one rule.  Its ``apply`` does the rule's
arithmetic, the rule's own state (FedAvgM's momentum, the FedOpt moments,
FedBuff's buffer) lives on the strategy object, and its constructor takes
exactly the settings the rule reads.  Every rule replaces the global model
of an :class:`AggregatorState` and bumps its epoch by exactly one per
aggregation.  Updates are summed in client-id order so the result is
bit-identical under permutation of the input list.  Updates may carry full
weights or deltas; each rule derives whichever form it needs relative to
the current global model.

A sum is folded term by term: every update's structure and staleness are
checked first, then each update's params are read once, folded in and let
go before the next is read.  A simulated update's params are trained at
that read and taken by it, so a round holds one such update at a time.

Per-coordinate formulas, with ``dbar`` the sample-weighted mean delta:

- FedAvg:      g = sum_i w_i * full_i
- FedAvgM:     v = beta * v + dbar;                 g += lr * v
- FedAdagrad:  u += dbar^2;                         g += lr * dbar / (sqrt(u) + tau)
- FedAdam:     m = b1*m + (1-b1)*dbar
               u = b2*u + (1-b2)*dbar^2;            g += lr * m / (sqrt(u) + tau)
- FedYogi:     as FedAdam but u -= (1-b2) * dbar^2 * sign(u - dbar^2)
- FedAsync:    g = (1-a_s)*g + a_s*full,  a_s = alpha * (s+1)^-exp, per update
- FedBuff:     g += lr * mean_i[(s_i+1)^-exp * delta_i], once buffer_size are held
- FedCompass:  FedAvg for an arrival group, FedBuff's step for a late straggler

``s`` is staleness: server epoch minus the update's base epoch.  A rule's
state starts at zeros.  The server optimizers run once per dtype buffer of
the model.  Their state sets are updated in place, and reading one (``m``,
``u`` or ``momentum``) gives a copy; the global model is a fresh buffer
every round.  ``dbar^2`` is the one scratch buffer, and ``dbar``, fresh from
the accumulator, becomes the step once the rule has read it, so a round of
FedAdam or FedYogi makes three model-sized buffers.  Every product and sum
keeps the operand order of the formulas above, so the result equals them
computed tensor by tensor, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyUpdateList, InvalidBounds, NegativeStaleness, UnknownStrategyName
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


def _ordered(updates: Sequence[ModelUpdate]) -> list[ModelUpdate]:
    if not updates:
        raise EmptyUpdateList("aggregation requires at least one update")
    return sorted(updates, key=attrgetter("client_id"))


def _staleness(state: AggregatorState, u: ModelUpdate) -> int:
    s = state.epoch - u.base_epoch
    if s < 0:
        raise NegativeStaleness(
            f"update from {u.client_id} has base epoch {u.base_epoch} > server epoch {state.epoch}"
        )
    return s


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


def _sample_weights(updates: Sequence[ModelUpdate]):
    if len(updates) == 1:
        return (1.0,)  # c / c for a positive count, 1 / 1 otherwise
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


def _advance(state: AggregatorState, bufs) -> None:
    """Make ``bufs``, one buffer per dtype, the global model, and count the aggregation."""
    state.global_params = ParameterSet._wrap(state.global_params._layout, bufs)
    state.epoch += 1


def _buffered_step(state: AggregatorState, updates, server_lr: float, staleness_exponent: float):
    """FedBuff's step: ``g += lr * mean_i[(s_i+1)^-exp * delta_i]``."""
    ups = _ordered(updates)
    scale = 1.0 / len(ups)
    discounts = [(_staleness(state, u) + 1) ** (-staleness_exponent) for u in ups]
    g = state.global_params
    acc = _weighted_accumulate(g, _terms(state, ups, discounts, delta=True))
    # g + (lr/n) * acc, finished in the accumulator's own buffers
    for a, t in zip(acc, g._bufs):
        np.multiply(a, t.dtype.type(server_lr * scale), out=a)
        np.add(t, a, out=a)
    _advance(state, acc)


class _StateSet:
    """A rule's optimizer state: one writable buffer per dtype of the model, zeros at first."""

    __slots__ = ("layout", "bufs")

    def __init__(self, g: ParameterSet):
        self.layout = g._layout
        self.bufs = [np.zeros_like(b) for b in g._bufs]

    @staticmethod
    def read(state: Optional["_StateSet"]) -> Optional[ParameterSet]:
        """A copy of ``state`` as a set, or None before the rule's first round."""
        if state is None:
            return None
        return ParameterSet._wrap(state.layout, [b.copy() for b in state.bufs])


def _adaptive(step: np.ndarray, u: np.ndarray, scratch: np.ndarray, tau: float) -> np.ndarray:
    """``step / (sqrt(u) + tau)``, in ``step``'s buffer."""
    den = np.sqrt(u, out=scratch)
    den += den.dtype.type(tau)
    step /= den
    return step


class _Strategy:
    """One aggregation rule, with its settings and its state.

    ``apply`` folds in the updates of a scheduler Aggregate action and
    returns True when an aggregation actually happened (FedBuff may only
    absorb the update into its buffer).
    """

    def apply(self, state: AggregatorState, updates: Sequence[ModelUpdate], late: bool = False) -> bool:
        raise NotImplementedError

    def finalize(self, state: AggregatorState) -> bool:
        """Flush any internal buffer at experiment end."""
        return False


class FedAvgAggregator(_Strategy):
    def apply(self, state, updates, late=False):
        _advance(state, _weighted_mean(state, updates, delta=False))
        return True


class FedAvgMAggregator(_Strategy):
    def __init__(self, server_lr: float = SERVER_LR, beta: float = BETA):
        self.server_lr = server_lr
        self.beta = beta
        self._v: Optional[_StateSet] = None

    @property
    def momentum(self) -> Optional[ParameterSet]:
        return _StateSet.read(self._v)

    def apply(self, state, updates, late=False):
        g = state.global_params
        dbar = _weighted_mean(state, updates, delta=True)
        if self._v is None:
            self._v = _StateSet(g)
        out = []
        for gb, d, v in zip(g._bufs, dbar, self._v.bufs):
            t = gb.dtype.type
            v *= t(self.beta)
            v += d
            out.append(gb + np.multiply(v, t(self.server_lr), out=d))
        _advance(state, out)
        return True


class FedAdagradAggregator(_Strategy):
    def __init__(self, server_lr: float = SERVER_LR, tau: float = TAU):
        self.server_lr = server_lr
        self.tau = tau
        self._u: Optional[_StateSet] = None

    @property
    def u(self) -> Optional[ParameterSet]:
        return _StateSet.read(self._u)

    def apply(self, state, updates, late=False):
        g = state.global_params
        dbar = _weighted_mean(state, updates, delta=True)
        if self._u is None:
            self._u = _StateSet(g)
        out = []
        for gb, d, u in zip(g._bufs, dbar, self._u.bufs):
            d2 = np.multiply(d, d)
            u += d2
            step = np.multiply(d, gb.dtype.type(self.server_lr), out=d)
            out.append(gb + _adaptive(step, u, d2, self.tau))
        _advance(state, out)
        return True


class FedAdamAggregator(_Strategy):
    def __init__(self, server_lr: float = SERVER_LR, beta1: float = BETA1,
                 beta2: float = BETA2, tau: float = TAU):
        self.server_lr = server_lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.tau = tau
        self._m: Optional[_StateSet] = None
        self._u: Optional[_StateSet] = None

    @property
    def m(self) -> Optional[ParameterSet]:
        return _StateSet.read(self._m)

    @property
    def u(self) -> Optional[ParameterSet]:
        return _StateSet.read(self._u)

    def apply(self, state, updates, late=False):
        g = state.global_params
        dbar = _weighted_mean(state, updates, delta=True)
        if self._m is None:
            self._m, self._u = _StateSet(g), _StateSet(g)
        out = []
        for gb, d, m, u in zip(g._bufs, dbar, self._m.bufs, self._u.bufs):
            t = gb.dtype.type
            d2 = np.multiply(d, d)
            m *= t(self.beta1)
            m += np.multiply(d, t(1 - self.beta1), out=d)
            self._second_moment(u, d2, d)
            step = np.multiply(m, t(self.server_lr), out=d)
            out.append(gb + _adaptive(step, u, d2, self.tau))
        _advance(state, out)
        return True

    def _second_moment(self, u, d2, scratch) -> None:
        """``u = b2*u + (1-b2)*dbar^2`` in place, spending ``d2``; ``scratch`` is free."""
        u *= u.dtype.type(self.beta2)
        u += np.multiply(d2, u.dtype.type(1 - self.beta2), out=d2)


class FedYogiAggregator(FedAdamAggregator):
    def _second_moment(self, u, d2, scratch) -> None:
        """``u = u - ((1-b2) * dbar^2) * sign(u - dbar^2)`` in place, spending ``d2`` and ``scratch``."""
        sign = np.sign(np.subtract(u, d2, out=scratch), out=scratch)
        pull = np.multiply(d2, u.dtype.type(1 - self.beta2), out=d2)
        pull *= sign
        u -= pull


class FedAsyncAggregator(_Strategy):
    def __init__(self, alpha: float = ALPHA, staleness_exponent: float = STALENESS_EXPONENT):
        self.alpha = alpha
        self.staleness_exponent = staleness_exponent

    def apply(self, state, updates, late=False):
        for u in updates:
            a_s = self.alpha * (_staleness(state, u) + 1) ** (-self.staleness_exponent)
            g = state.global_params
            g.check_structure(u.params)
            full = u.params._bufs
            if u.is_delta:
                full = tuple(a + d for a, d in zip(g._bufs, full))
            _advance(state, [
                a.dtype.type(1 - a_s) * a + a.dtype.type(a_s) * f for a, f in zip(g._bufs, full)
            ])
        return True


class FedBuffAggregator(_Strategy):
    def __init__(self, buffer_size: int = BUFFER_SIZE, server_lr: float = SERVER_LR,
                 staleness_exponent: float = STALENESS_EXPONENT):
        if buffer_size < 1:
            raise InvalidBounds(f"buffer_size must be positive, got {buffer_size}")
        self.buffer_size = buffer_size
        self.server_lr = server_lr
        self.staleness_exponent = staleness_exponent
        self._buffer: list[ModelUpdate] = []

    def apply(self, state, updates, late=False):
        self._buffer.extend(updates)
        return len(self._buffer) >= self.buffer_size and self.finalize(state)

    def finalize(self, state):
        """Take the buffered step on whatever the buffer holds."""
        if not self._buffer:
            return False
        _buffered_step(state, self._buffer, self.server_lr, self.staleness_exponent)
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
            _buffered_step(state, updates, self.server_lr, self.staleness_exponent)
        else:
            _advance(state, _weighted_mean(state, updates, delta=False))
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
