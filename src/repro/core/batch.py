"""Mini-batch container shared by all samplers and trainers.

A :class:`MiniBatch` carries the per-agent batch fields plus everything
downstream consumers need: the index array (for priority write-back), the
importance weights (for Lemma-1 weighted TD updates), and the run list
(for the memory-hierarchy simulator's trace generation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .indices import Run

__all__ = ["AgentBatch", "MiniBatch"]


@dataclass(frozen=True)
class AgentBatch:
    """One agent's slice of the mini-batch."""

    obs: np.ndarray
    act: np.ndarray
    rew: np.ndarray
    next_obs: np.ndarray
    done: np.ndarray

    def __post_init__(self) -> None:
        b = self.obs.shape[0]
        if not (
            self.act.shape[0] == b
            and self.rew.shape[0] == b
            and self.next_obs.shape[0] == b
            and self.done.shape[0] == b
        ):
            raise ValueError("AgentBatch fields disagree on batch size")

    @property
    def size(self) -> int:
        return int(self.obs.shape[0])

    @classmethod
    def from_fields(cls, fields: Tuple[np.ndarray, ...]) -> "AgentBatch":
        obs, act, rew, next_obs, done = fields
        return cls(obs=obs, act=act, rew=rew, next_obs=next_obs, done=done)


@dataclass
class MiniBatch:
    """Per-agent batches plus sampling metadata.

    Attributes
    ----------
    agents:
        One :class:`AgentBatch` per agent, all over the *same* timesteps.
    indices:
        The common indices array actually read (post run-expansion).
    weights:
        Importance-sampling weights per row, or None for unweighted
        (uniform / plain cache-aware) sampling.
    runs:
        The contiguous runs the sampler requested; empty for purely
        random sampling.  Consumed by the memsim trace generator.
    """

    agents: List[AgentBatch]
    indices: np.ndarray
    weights: Optional[np.ndarray] = None
    runs: List[Run] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.agents:
            raise ValueError("MiniBatch needs at least one agent")
        b = self.agents[0].size
        for ab in self.agents:
            if ab.size != b:
                raise ValueError("per-agent batches disagree on batch size")
        if self.indices.shape[0] != b:
            raise ValueError(
                f"indices length {self.indices.shape[0]} != batch size {b}"
            )
        if self.weights is not None and self.weights.shape[0] != b:
            raise ValueError(
                f"weights length {self.weights.shape[0]} != batch size {b}"
            )

    @property
    def size(self) -> int:
        return self.agents[0].size

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def joint_obs(self) -> np.ndarray:
        """Concatenate all agents' observations row-wise (critic input part)."""
        return np.concatenate([ab.obs for ab in self.agents], axis=1)

    def joint_act(self) -> np.ndarray:
        """Concatenate all agents' actions row-wise (critic input part)."""
        return np.concatenate([ab.act for ab in self.agents], axis=1)
