"""Loss functions with explicit gradients.

The critic loss in MADDPG/MATD3 is a mean-squared TD error; the
information-prioritized variant (paper §IV-B1, Lemma 1) weights each
sample's squared error by its importance-sampling weight, so a weighted
MSE is provided as a first-class loss.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["mse_loss", "weighted_mse_loss"]


def _validate(pred: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"loss shape mismatch: pred {pred.shape} vs target {target.shape}")
    if pred.size == 0:
        raise ValueError("loss on empty arrays")
    return pred, target


def mse_loss(pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. ``pred``.

    Returns ``(loss, dloss/dpred)`` where the gradient already includes the
    1/M normalization, so it can be fed directly into ``Module.backward``.
    """
    pred, target = _validate(pred, target)
    diff = pred - target
    loss = float(np.mean(diff**2))
    grad = (2.0 / diff.size) * diff
    return loss, grad


def weighted_mse_loss(
    pred: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Importance-weighted MSE: ``mean(w_i * (pred_i - target_i)^2)``.

    This realizes the weighted temporal-difference update of Lemma 1:
    the IS weights ``w_i`` computed by
    :func:`repro.core.importance.importance_weights` scale each sample's
    contribution so that the locality-biased sampling distribution still
    converges to the uniform-replay fixed point.
    """
    pred, target = _validate(pred, target)
    weights = np.asarray(weights, dtype=np.float64).reshape(pred.shape)
    if np.any(weights < 0):
        raise ValueError("importance weights must be non-negative")
    diff = pred - target
    loss = float(np.mean(weights * diff**2))
    grad = (2.0 / diff.size) * weights * diff
    return loss, grad
