"""Optimizers for the numpy NN substrate.

Paper §V: "In all of our experiments, we use Adam optimizer with a
learning rate of 0.01."  Adam is therefore the optimizer throughout the
reproduction.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients to ``max_norm``.

    Returns the pre-clip norm.  The reference MADDPG implementation clips
    at 0.5; the trainers expose this as a config knob.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


class Optimizer:
    """Base optimizer over a flat list of :class:`Parameter` objects."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) — the paper's optimizer, lr = 0.01."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must each be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
