"""Layer implementations with explicit forward/backward passes.

Each layer caches the intermediates its backward pass needs on ``self``;
a layer instance therefore supports exactly one in-flight forward at a
time, which matches how the MARL trainers use them (one mini-batch per
update).  ``Sequential`` composes layers and runs backward in reverse.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from .init import get_initializer
from .module import Module, Parameter

__all__ = [
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "LeakyReLU",
    "Identity",
    "Sequential",
]


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with W of shape (in_features, out_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init: str = "xavier_uniform",
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Linear dimensions must be positive, got ({in_features}, {out_features})"
            )
        rng = rng if rng is not None else np.random.default_rng()
        initializer = get_initializer(init)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializer(rng, (in_features, out_features)), "weight")
        self.has_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features), "bias")
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected input dim {self.in_features}, got {x.shape[-1]}"
            )
        self._x = x
        out = x @ self.weight.value
        if self.has_bias:
            out = out + self.bias.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward on Linear")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        self.weight.grad += self._x.T @ grad_out
        if self.has_bias:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T


class ReLU(Module):
    """Rectified linear unit; the paper's hidden activation."""

    def __init__(self) -> None:
        super().__init__()
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # np.maximum(x, 0.0) is bit-identical to np.where(x > 0, x, 0.0)
        # for all finite x (both map +-0.0 to +0.0) but runs in one
        # pass with no mask materialization; the mask is derived from
        # the cached input only if backward runs (inference-only
        # forwards — target networks — never pay for it)
        self._x = x
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward on ReLU")
        return np.where(self._x > 0, grad_out, 0.0)


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward on LeakyReLU")
        return np.where(self._mask, grad_out, self.negative_slope * grad_out)


class Tanh(Module):
    """Hyperbolic tangent; used for continuous-action actor heads."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward on Tanh")
        return grad_out * (1.0 - self._out**2)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward on Sigmoid")
        return grad_out * self._out * (1.0 - self._out)


class Softmax(Module):
    """Row-wise softmax over the last axis.

    MPE agents have a 5-way discrete action space; MADDPG treats the
    softmax output as a differentiable relaxation of the one-hot action
    (see :func:`repro.nn.functional.gumbel_softmax`).
    """

    def __init__(self) -> None:
        super().__init__()
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        self._out = exp / exp.sum(axis=-1, keepdims=True)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward on Softmax")
        s = self._out
        dot = (grad_out * s).sum(axis=-1, keepdims=True)
        return s * (grad_out - dot)


class Identity(Module):
    """No-op layer, useful as a configurable head placeholder."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Module):
    """Chain of layers executed in order; backward runs in reverse order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers: List[Module] = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_module(f"layer{i}", layer)

    def append(self, layer: Module) -> "Sequential":
        self.register_module(f"layer{len(self.layers)}", layer)
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]
