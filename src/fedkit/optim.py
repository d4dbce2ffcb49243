"""Plain SGD and Adam over flat parameter vectors.

Optimizer state (Adam moments, step counter) lives in the optimizer object
and persists for as long as the caller keeps it around; federated clients
deliberately keep theirs across rounds.

The step itself is ``update(ws, gs)``: one step in place on the flat
buffers of one model, one weight vector and one gradient vector per dtype
(the buffers of a set, or rows of a :class:`~fedkit.params.FlatStack`), and
it may overwrite the gradients.  Every operation is elementwise, so a flat
step equals the same step taken tensor by tensor, bit for bit, and an SGD
step on a block of rows equals one step per row.  ``step(params, grads)`` is
the set-level form: it never writes to its inputs and returns a new set over
its own copy of the weights.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, UnknownStrategyName
from .params import ParameterSet

# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _step(opt, params: ParameterSet, grads: ParameterSet) -> ParameterSet:
    """``opt.update`` on copies of the buffers of ``params`` and ``grads``, as a new set."""
    params.check_structure(grads)
    ws = [buf.copy() for buf in params._bufs]
    opt.update(ws, [buf.copy() for buf in grads._bufs])
    return ParameterSet._wrap(params._layout, ws)


class SGD:
    def __init__(self, lr: float):
        self.lr = float(lr)

    def update(self, ws, gs) -> None:
        """``w = w - lr*g`` in place; ``g`` is left holding ``lr*g``."""
        for w, g in zip(ws, gs):
            g *= w.dtype.type(self.lr)
            w -= g

    def step(self, params: ParameterSet, grads: ParameterSet) -> ParameterSet:
        return _step(self, params, grads)


class Adam:
    def __init__(self, lr: float):
        self.lr = float(lr)
        self.t = 0
        # one flat first and second moment per dtype of the model
        self._m: dict[np.dtype, np.ndarray] = {}
        self._v: dict[np.dtype, np.ndarray] = {}

    def update(self, ws, gs) -> None:
        """One Adam step in place on every ``w``; ``g`` is used as scratch."""
        self.t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for w, g in zip(ws, gs):
            m = self._m.get(w.dtype)
            if m is None:
                m = self._m[w.dtype] = np.zeros_like(w)
                self._v[w.dtype] = np.zeros_like(w)
            elif m.shape != w.shape:
                raise ShapeMismatch(f"Adam moments hold {m.size} {w.dtype.name} values, not {w.size}")
            v = self._v[w.dtype]
            # every product and sum keeps the operand order of the textbook
            # expressions  m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*(g*g)
            tmp = np.multiply(g, 1.0 - b1)
            m *= b1
            m += tmp
            np.multiply(g, g, out=g)
            g *= 1.0 - b2
            v *= b2
            v += g
            # w - lr * (m/bias1) / (sqrt(v/bias2) + eps)
            np.divide(m, bias1, out=tmp)
            tmp *= self.lr
            np.divide(v, bias2, out=g)
            np.sqrt(g, out=g)
            g += EPS
            tmp /= g
            w -= tmp

    def step(self, params: ParameterSet, grads: ParameterSet) -> ParameterSet:
        return _step(self, params, grads)


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(kind: str, lr: float):
    if kind not in OPTIMIZERS:
        raise UnknownStrategyName(f"unknown optimizer {kind!r}; known: {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[kind](lr)
