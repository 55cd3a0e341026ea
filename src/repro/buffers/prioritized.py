"""Prioritized replay buffer (PER, Schaul et al. 2015 — paper ref. [27]).

Combines the agent-major :class:`~repro.buffers.replay.ReplayBuffer` with
sum/min segment trees.  New transitions enter at the current maximum
priority; after each update the trainer writes back ``|TD error| + eps``
raised to alpha.  This buffer backs both the PER-MADDPG baseline and the
reference-point selection stage of the paper's information-prioritized
locality-aware sampler (§IV-B1).

Every tree-touching read/write accepts ``fast_path=True`` to switch from
the reference implementation's per-index Python loops (the characterized
path) to batched numpy equivalents.  The batched paths are observably
equivalent: identical indices under a shared RNG stream, bit-identical
probabilities/weights/priorities.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .replay import ReplayBuffer
from .sum_tree import MinTree, SumTree

__all__ = ["PrioritizedReplayBuffer"]


class PrioritizedReplayBuffer(ReplayBuffer):
    """Replay buffer with proportional priorities.

    Parameters
    ----------
    alpha:
        Priority exponent; 0 recovers uniform sampling, 1 is fully
        proportional.  PER's canonical value 0.6 is the default.
    eps:
        Additive constant keeping every priority strictly positive.
    backend:
        Optional storage backend (see :class:`ReplayBuffer`).  The
        priority trees live outside the backend — they index *rows*, so
        they are identical across storage engines.
    """

    def __init__(
        self,
        capacity: int,
        obs_dim: int,
        act_dim: int,
        alpha: float = 0.6,
        eps: float = 1e-6,
        backend=None,
    ) -> None:
        super().__init__(capacity, obs_dim, act_dim, backend=backend)
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.alpha = alpha
        self.eps = eps
        self._sum_tree = SumTree(capacity)
        self._min_tree = MinTree(capacity)
        self._max_priority = 1.0

    # -- writes -------------------------------------------------------------

    def add(self, obs, act, rew, next_obs, done) -> int:
        """Append a transition at the current max priority."""
        idx = super().add(obs, act, rew, next_obs, done)
        scaled = self._max_priority**self.alpha
        self._sum_tree[idx] = scaled
        self._min_tree[idx] = scaled
        return idx

    def ingest(self, batch) -> np.ndarray:
        """Append K transitions, all at the current max priority.

        Tree state matches K sequential :meth:`add` calls: every written
        slot receives ``max_priority ** alpha`` (one level-wise rebuild
        instead of K leaf-to-root walks).
        """
        idx = super().ingest(batch)
        scaled = self._max_priority**self.alpha
        vals = np.full(idx.shape, scaled, dtype=np.float64)
        self._sum_tree.set_batch(idx, vals)
        self._min_tree.set_batch(idx, vals)
        return idx

    def update_priorities(
        self,
        indices: Sequence[int],
        priorities: Sequence[float],
        fast_path: bool = False,
    ) -> None:
        """Write back new (unscaled) priorities, typically |TD error| + eps.

        ``fast_path=True`` validates and scales the whole batch with
        numpy and pushes it into both trees via one level-wise rebuild
        (:meth:`SumTree.set_batch`); the resulting tree state and
        ``max_priority`` are identical to the sequential loop (duplicate
        indices: last occurrence wins).  The batched path validates
        before writing, so a bad entry leaves the trees untouched,
        whereas the scalar loop stops mid-way.
        """
        if len(indices) != len(priorities):
            raise ValueError(
                f"indices/priorities length mismatch: {len(indices)} vs {len(priorities)}"
            )
        if fast_path:
            idx = np.asarray(indices, dtype=np.int64)
            prio = np.asarray(priorities, dtype=np.float64)
            if prio.size == 0:
                return
            if prio.min() <= 0:
                raise ValueError(f"priorities must be positive, got {prio.min()}")
            if idx.min() < 0 or idx.max() >= len(self):
                bad = idx[np.argmax((idx < 0) | (idx >= len(self)))]
                raise IndexError(
                    f"priority index {bad} out of range [0, {len(self)})"
                )
            # Scalar pow, not the ufunc: vectorized float64 ** can differ
            # from Python's pow by 1 ulp, which would break bit-identity
            # with the reference loop.  The tree writes stay batched.
            scaled = np.fromiter(
                ((float(p) + self.eps) ** self.alpha for p in prio),
                dtype=np.float64,
                count=prio.size,
            )
            self._sum_tree.set_batch(idx, scaled)
            self._min_tree.set_batch(idx, scaled)
            self._max_priority = max(self._max_priority, float(prio.max() + self.eps))
            return
        for idx, priority in zip(indices, priorities):
            idx = int(idx)
            priority = float(priority)
            if priority <= 0:
                raise ValueError(f"priorities must be positive, got {priority}")
            if not 0 <= idx < len(self):
                raise IndexError(f"priority index {idx} out of range [0, {len(self)})")
            scaled = (priority + self.eps) ** self.alpha
            self._sum_tree[idx] = scaled
            self._min_tree[idx] = scaled
            self._max_priority = max(self._max_priority, priority + self.eps)

    # -- reads ---------------------------------------------------------------

    def sample_proportional_indices(
        self, rng: np.random.Generator, batch_size: int, fast_path: bool = False
    ) -> np.ndarray:
        """Stratified proportional index draw over valid rows."""
        if len(self) == 0:
            raise ValueError("cannot sample from an empty prioritized buffer")
        return self._sum_tree.sample_proportional(
            rng, batch_size, len(self), fast_path=fast_path
        )

    def sample_reference_chunk(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """``count`` independent proportional draws in one vectorized call.

        Consumes exactly the same RNG stream as ``count`` successive
        ``sample_proportional_indices(rng, 1)`` calls — the contract the
        information-prioritized fast path depends on for scalar/fast
        equivalence.
        """
        if len(self) == 0:
            raise ValueError("cannot sample from an empty prioritized buffer")
        return self._sum_tree.sample_proportional_chunk(rng, count, len(self))

    def probabilities(
        self, indices: Sequence[int], fast_path: bool = False
    ) -> np.ndarray:
        """Sampling probabilities P(i) = p_i^alpha / sum_k p_k^alpha."""
        total = self._sum_tree.total()
        if total <= 0:
            raise ValueError("priority tree has no mass")
        if fast_path:
            return self._sum_tree.leaf_values(indices) / total
        return np.array(
            [self._sum_tree[int(i)] / total for i in indices], dtype=np.float64
        )

    def importance_weights(
        self, indices: Sequence[int], beta: float, fast_path: bool = False
    ) -> np.ndarray:
        """Normalized IS weights ``(N * P(i))^-beta / max_j w_j`` (Lemma 1).

        ``beta = 1`` is full bias compensation; PER anneals beta toward 1
        over training.  Normalizing by the maximum weight keeps updates
        bounded, exactly as in the PER reference implementation.
        """
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        n = len(self)
        probs = self.probabilities(indices, fast_path=fast_path)
        if np.any(probs <= 0):
            raise ValueError("sampled an index with zero probability")
        total = self._sum_tree.total()
        p_min = self._min_tree.min() / total
        max_weight = (n * p_min) ** (-beta)
        weights = (n * probs) ** (-beta)
        return weights / max_weight

    def max_priority(self) -> float:
        """Current maximum unscaled priority (new samples enter at this)."""
        return self._max_priority

    def normalized_priorities(
        self, indices: Sequence[int], fast_path: bool = False
    ) -> np.ndarray:
        """Priorities of ``indices`` scaled into [0, 1] by the max leaf.

        The paper's neighbor predictor (§VI-C1) thresholds this normalized
        value at 0.33 / 0.66 to pick 1 / 2 / 4 neighbors.
        """
        scale = self._max_priority**self.alpha
        if scale <= 0:
            raise ValueError("max priority is non-positive")
        if fast_path:
            vals = self._sum_tree.leaf_values(indices)
        else:
            vals = np.array(
                [self._sum_tree[int(i)] for i in indices], dtype=np.float64
            )
        return np.clip(vals / scale, 0.0, 1.0)

    def sample(
        self,
        rng: np.random.Generator,
        batch_size: int,
        beta: float,
        fast_path: bool = False,
    ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
        """Full PER sample: (batch fields, IS weights, indices)."""
        indices = self.sample_proportional_indices(rng, batch_size, fast_path=fast_path)
        weights = self.importance_weights(indices, beta, fast_path=fast_path)
        batch = self.gather_vectorized(indices)
        return batch, weights, indices
