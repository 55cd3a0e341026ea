"""Shard routing for the replay service.

A shard is one timestep-major :class:`~repro.buffers.multi_agent.
MultiAgentReplay` (arena-backed packed ring) owned by a
:class:`~repro.replay.service.ReplayShardService` server process.  The
router assigns every inserted timestep to a shard round-robin by its
*global insertion index* (perfectly balanced, order-reconstructible);
pull requests draw from the shards in proportion to their fill.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ShardRouter", "allocate_proportional"]


def allocate_proportional(sizes: Sequence[int], batch_size: int) -> np.ndarray:
    """Per-shard draw counts proportional to shard fill (largest remainder).

    Deterministic: quotas floor-divide, then leftovers go to the largest
    fractional parts (ties broken by shard index).  Empty shards draw
    zero rows; sampling is with replacement so a count may exceed a
    shard's size.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    total = int(sizes.sum())
    if total <= 0:
        raise ValueError("cannot sample from empty shards")
    quota = batch_size * sizes / total
    counts = np.floor(quota).astype(np.int64)
    remainder = batch_size - int(counts.sum())
    if remainder > 0:
        frac = np.where(sizes > 0, quota - counts, -1.0)
        order = np.argsort(-frac, kind="stable")
        counts[order[:remainder]] += 1
    return counts


class ShardRouter:
    """Deterministic round-robin shard assignment by global insertion index."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        #: total timesteps routed so far (the next global index)
        self.total = 0

    def assign(self, count: int) -> np.ndarray:
        """Shard id per row for the next ``count`` insertions (advances)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        ids = (self.total + np.arange(count, dtype=np.int64)) % self.num_shards
        self.total += count
        return ids
