"""Importance-sampling weights for biased sampling strategies (Lemma 1).

Paper §IV-B1, Lemma 1: the weight eliminating the bias of a changed
sampling strategy at step i is

    w_i = (1/N * 1/P(i)) ** beta

where N is the buffer size, P(i) the (cache-locality-aware) sampling
probability of index i, and beta the compensation parameter (beta = 1 is
full compensation, as in importance sampling).  As in the PER reference,
weights are normalized by their maximum so the learning-rate scale is
preserved.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "importance_weights",
    "BetaSchedule",
]


def importance_weights(
    probabilities: np.ndarray,
    buffer_size: int,
    beta: float,
    normalize: bool = True,
) -> np.ndarray:
    """Lemma-1 weights ``(1/N * 1/P(i))^beta``, optionally max-normalized."""
    if buffer_size <= 0:
        raise ValueError(f"buffer_size must be positive, got {buffer_size}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.size == 0:
        raise ValueError("importance_weights on empty probabilities")
    if np.any(probs <= 0) or np.any(probs > 1.0 + 1e-12):
        raise ValueError("probabilities must lie in (0, 1]")
    weights = (1.0 / (buffer_size * probs)) ** beta
    if normalize:
        weights = weights / weights.max()
    return weights


class BetaSchedule:
    """Linear beta annealing from ``beta0`` to 1.0 over ``total_steps``.

    PER anneals the compensation exponent toward full correction as
    training converges; the trainers advance this schedule once per
    update round.
    """

    def __init__(self, beta0: float = 0.4, total_steps: int = 100_000) -> None:
        if not 0.0 <= beta0 <= 1.0:
            raise ValueError(f"beta0 must be in [0, 1], got {beta0}")
        if total_steps <= 0:
            raise ValueError(f"total_steps must be positive, got {total_steps}")
        self.beta0 = beta0
        self.total_steps = total_steps
        self.step_count = 0

    @property
    def value(self) -> float:
        frac = min(1.0, self.step_count / self.total_steps)
        return self.beta0 + (1.0 - self.beta0) * frac

    def step(self) -> float:
        """Advance one update round; returns the new beta."""
        self.step_count += 1
        return self.value
