"""Stateless NN helpers: one-hot encoding, Gumbel-Softmax relaxation.

MPE actions are discrete (paper §II-B: "five actions corresponding to
static, move right, move left, move up or down").  MADDPG handles this by
relaxing the categorical action into a differentiable Gumbel-Softmax
sample, exactly as the reference OpenAI implementation does.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "one_hot",
    "softmax",
    "gumbel_noise",
    "gumbel_softmax",
]


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer action indices as one-hot rows."""
    indices = np.asarray(indices, dtype=np.int64)
    if num_classes <= 0:
        raise ValueError(f"num_classes must be positive, got {num_classes}")
    if indices.size and (indices.min() < 0 or indices.max() >= num_classes):
        raise ValueError(
            f"indices out of range [0, {num_classes}): "
            f"[{indices.min()}, {indices.max()}]"
        )
    out = np.zeros((indices.size, num_classes), dtype=np.float64)
    out[np.arange(indices.size), indices.ravel()] = 1.0
    return out.reshape(*indices.shape, num_classes)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def gumbel_noise(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Sample standard Gumbel(0, 1) noise: ``-log(-log(U))``."""
    u = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0, size=shape)
    return -np.log(-np.log(u))


def gumbel_softmax(
    logits: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    temperature: float = 1.0,
    hard: bool = False,
) -> np.ndarray:
    """Differentiable relaxation of a categorical sample.

    With ``hard=True`` the forward output is the exact one-hot argmax while
    downstream code treats the gradient as if it flowed through the soft
    sample (straight-through estimator), matching the reference MADDPG.
    With ``rng=None`` no noise is added (deterministic evaluation mode).
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    if rng is not None:
        logits = logits + gumbel_noise(rng, logits.shape)
    soft = softmax(logits / temperature)
    if not hard:
        return soft
    idx = soft.argmax(axis=-1)
    return one_hot(idx, soft.shape[-1])
