"""Hyper-parameter configuration (paper §V, Software Settings).

Defaults reproduce the paper exactly: two-layer 64-unit ReLU MLPs, Adam
at lr = 0.01, mini-batch 1024, gamma = 0.95, tau = 0.01, replay capacity
1e6, max episode length 25, and "network parameters are updated after
every 100 samples added to the replay buffer".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["MARLConfig", "PAPER_CONFIG"]


@dataclass(frozen=True)
class MARLConfig:
    """Immutable bundle of training hyper-parameters."""

    lr: float = 0.01
    gamma: float = 0.95
    tau: float = 0.01
    batch_size: int = 1024
    buffer_capacity: int = 1_000_000
    update_every: int = 100  # env steps (samples added) between update rounds
    max_episode_len: int = 25
    hidden_units: Tuple[int, int] = (64, 64)
    grad_clip: Optional[float] = 0.5
    gumbel_temperature: float = 1.0
    policy_reg: float = 1e-3  # MADDPG's logit magnitude regularizer
    # MATD3-specific knobs (ignored by MADDPG)
    policy_delay: int = 2
    target_noise: float = 0.2
    target_noise_clip: float = 0.5
    # prioritized-replay knobs (used by PER / information-prioritized)
    per_alpha: float = 0.6
    per_beta0: float = 0.4
    per_beta_steps: int = 100_000
    # warm-up: do not update until the buffer holds at least this many rows
    min_buffer_fill: Optional[int] = None
    # vectorized sampling engine: batched tree descents + fancy-index
    # gathers; False preserves the paper's characterized scalar loops
    fast_path: bool = False
    # stacked-agent batched update engine: run each update round as
    # (N, ., .) tensor ops over all homogeneous agents at once; False
    # preserves the characterized per-agent loop
    batched_update: bool = False
    # execution pipeline: rollout worker processes stepping env copies
    # over shared memory (0 or 1 = the serial in-process engine; every
    # value steps bit-identical trajectories)
    env_workers: int = 0
    # replay storage engine: "agent_major" (baseline N dense rings) or
    # "timestep_major" (one shared packed TransitionArena; bit-identical
    # training, O(m) joint gathers on the fast paths)
    storage: str = "agent_major"
    # replay dataset service: shard count for the sharded replay server
    # (1 = in-process mode, bit-identical to the serial loop)
    replay_shards: int = 1
    # learner processes pulling mini-batches from the replay service and
    # publishing versioned parameter snapshots (1 + one shard = serial)
    learners: int = 1
    # staleness bound for async parameter broadcast: the rollout actor
    # re-polls the parameter store every this many vector sweeps
    param_staleness: int = 1

    def __post_init__(self) -> None:
        from ..buffers.storage import resolve_storage

        resolve_storage(self.storage)
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.buffer_capacity < self.batch_size:
            raise ValueError(
                f"buffer_capacity {self.buffer_capacity} smaller than "
                f"batch_size {self.batch_size}"
            )
        if self.update_every <= 0:
            raise ValueError(f"update_every must be positive, got {self.update_every}")
        if self.env_workers < 0:
            raise ValueError(
                f"env_workers must be >= 0, got {self.env_workers}"
            )
        if self.replay_shards < 1:
            raise ValueError(
                f"replay_shards must be >= 1, got {self.replay_shards}"
            )
        if self.learners < 1:
            raise ValueError(f"learners must be >= 1, got {self.learners}")
        if self.param_staleness < 1:
            raise ValueError(
                f"param_staleness must be >= 1, got {self.param_staleness}"
            )
        if self.max_episode_len <= 0:
            raise ValueError(
                f"max_episode_len must be positive, got {self.max_episode_len}"
            )
        if self.policy_delay <= 0:
            raise ValueError(f"policy_delay must be positive, got {self.policy_delay}")
        if self.gumbel_temperature <= 0:
            raise ValueError(
                f"gumbel_temperature must be positive, got {self.gumbel_temperature}"
            )

    @property
    def warmup(self) -> int:
        """Rows required before the first update round."""
        return (
            self.min_buffer_fill
            if self.min_buffer_fill is not None
            else self.batch_size
        )

    def scaled(self, **overrides) -> "MARLConfig":
        """Copy with overrides (e.g. smaller batch for laptop-scale benches)."""
        from dataclasses import replace

        return replace(self, **overrides)


#: The paper's exact configuration.
PAPER_CONFIG = MARLConfig()
