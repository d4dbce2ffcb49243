"""Plain SGD and Adam over parameter sets.

Optimizer state (Adam moments, step counter) lives in the optimizer object
and persists for as long as the caller keeps it around; federated clients
deliberately keep theirs across rounds.  ``step`` never writes to its inputs:
it returns a new set that adopts the arrays it just computed.
"""
from __future__ import annotations

import numpy as np

from .errors import UnknownStrategyName
from .params import ParameterSet


class SGD:
    def __init__(self, lr: float):
        self.lr = float(lr)

    def step(self, params: ParameterSet, grads: ParameterSet) -> ParameterSet:
        params.check_structure(grads)
        lr = self.lr
        out = []
        for (n, p), (_, g) in zip(params.items(), grads.items()):
            # p - lr*g with one allocation: the product's buffer takes the difference
            new = np.multiply(g, p.dtype.type(lr), out=np.empty_like(g))
            out.append((n, np.subtract(p, new, out=new)))
        return ParameterSet._adopt(out)


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: ParameterSet, grads: ParameterSet) -> ParameterSet:
        params.check_structure(grads)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        out = []
        for (name, p), (_, g) in zip(params.items(), grads.items()):
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(g)
                v = self._v[name] = np.zeros_like(g)
            # the moments are private, so they update in place; every product
            # and sum keeps the operand order of the textbook expressions
            # m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*(g*g)
            tmp = np.multiply(g, 1.0 - b1, out=np.empty_like(g))
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            # p - lr * (m/bias1) / (sqrt(v/bias2) + eps)
            new = np.divide(m, bias1, out=np.empty_like(m))
            new *= self.lr
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            new /= tmp
            out.append((name, np.subtract(p, new, out=new)))
        return ParameterSet._adopt(out)


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(kind: str, lr: float):
    if kind not in OPTIMIZERS:
        raise UnknownStrategyName(f"unknown optimizer {kind!r}; known: {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[kind](lr)
