"""Adam optimizer."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

# Moment decay rates and the denominator floor.
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class Adam:
    """Adam with bias-corrected first/second moments.

    Update: theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            mhat = m / b1c
            vhat = v / b2c
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + _EPS)).astype(p.data.dtype, copy=False)
