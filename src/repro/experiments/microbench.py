"""Sampling-phase microbenchmarks (Figures 8, 14, §VI-C timing claims).

Isolates the mini-batch sampling phase from training: fill a replay to a
target occupancy with synthetic transitions (statistics don't affect
gather cost), then time full update-round sampling — every agent trainer
drawing its mini-batch — under each strategy.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..buffers.multi_agent import MultiAgentReplay
from ..core.layout import LayoutReorganizer
from ..core.samplers import Sampler
from ..nn.functional import one_hot

__all__ = [
    "fill_replay",
    "time_sampler_round",
    "time_layout_round",
    "SamplingTiming",
]


def fill_replay(
    replay: MultiAgentReplay,
    rng: np.random.Generator,
    rows: int,
) -> None:
    """Populate a replay with ``rows`` synthetic joint transitions.

    Observations are standard normal, actions one-hot, rewards N(0,1) —
    shape-faithful stand-ins; gather cost depends only on layout.
    """
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    if rows > replay.capacity:
        raise ValueError(f"rows {rows} exceeds capacity {replay.capacity}")
    obs_dims = [b.obs_dim for b in replay.buffers]
    act_dims = [b.act_dim for b in replay.buffers]
    for _ in range(rows):
        obs = [rng.standard_normal(d) for d in obs_dims]
        act = [one_hot(rng.integers(a), a) for a in act_dims]
        rew = [float(rng.standard_normal()) for _ in obs_dims]
        next_obs = [rng.standard_normal(d) for d in obs_dims]
        done = [bool(rng.random() < 0.04) for _ in obs_dims]
        replay.add(obs, act, rew, next_obs, done)


class SamplingTiming:
    """Measured seconds for repeated sampling rounds."""

    def __init__(self, seconds: float, rounds: int, batches: int) -> None:
        if rounds <= 0 or batches <= 0:
            raise ValueError("rounds and batches must be positive")
        self.seconds = seconds
        self.rounds = rounds
        self.batches = batches

    @property
    def seconds_per_round(self) -> float:
        return self.seconds / self.rounds

    @property
    def seconds_per_batch(self) -> float:
        return self.seconds / self.batches


def time_sampler_round(
    sampler: Sampler,
    replay: MultiAgentReplay,
    rng: np.random.Generator,
    batch_size: int,
    rounds: int = 3,
    num_trainers: Optional[int] = None,
) -> SamplingTiming:
    """Time full update-round sampling: every trainer draws its batch.

    One round = ``num_trainers`` (default: the agent count) sampler
    invocations, each gathering from all agents' buffers — the paper's
    O(N^2 B) loop under the baseline.
    """
    trainers = num_trainers if num_trainers is not None else replay.num_agents
    if trainers <= 0:
        raise ValueError(f"num_trainers must be positive, got {trainers}")
    start = time.perf_counter()
    for _ in range(rounds):
        for agent_idx in range(trainers):
            sampler.sample(replay, rng, batch_size, agent_idx=agent_idx)
    elapsed = time.perf_counter() - start
    return SamplingTiming(elapsed, rounds, rounds * trainers)


def time_layout_round(
    layout: LayoutReorganizer,
    rng: np.random.Generator,
    batch_size: int,
    rounds: int = 3,
    num_trainers: Optional[int] = None,
    include_reshape: bool = True,
) -> SamplingTiming:
    """Time layout-reorganized sampling rounds.

    ``include_reshape=True`` charges the ingest/reshaping cost (the
    Figure-14 headline view); False isolates the inter-agent sampling
    speedup (the §VI-C2 1.36x-9.55x view).  The store is marked stale
    once per round so each round pays one reorganization, mirroring a
    training loop that inserted between update rounds.
    """
    trainers = (
        num_trainers if num_trainers is not None else layout.replay.num_agents
    )
    if trainers <= 0:
        raise ValueError(f"num_trainers must be positive, got {trainers}")
    reshape_before = layout.reshape_seconds
    start = time.perf_counter()
    for _ in range(rounds):
        layout._synced_through = -1  # force one reorganization per round
        for _ in range(trainers):
            layout.sample_all_agents(rng, batch_size)
    elapsed = time.perf_counter() - start
    if not include_reshape:
        elapsed -= layout.reshape_seconds - reshape_before
        elapsed = max(elapsed, 0.0)
    return SamplingTiming(elapsed, rounds, rounds * trainers)
