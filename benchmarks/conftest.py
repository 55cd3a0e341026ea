"""Shared helpers for the paper-exhibit benchmarks.

Each ``bench_*`` module regenerates one table or figure from the paper
at laptop scale: the absolute numbers differ from the authors' testbed
(different host, numpy substrate), but each bench prints the paper's
rows/series next to the measured ones and asserts the claimed *shape*
(who wins, how gains scale with N).

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the exhibits.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.algos import MARLConfig
from repro.buffers import MultiAgentReplay
from repro.experiments import env_obs_dims, fill_replay

#: Laptop-scale geometry: the paper's layout divided down proportionally
#: (batch 256 instead of 1024; 40k-row occupancy instead of ~1M) so the
#: full suite completes in minutes on one core.
BENCH_BATCH = 256
BENCH_FILL = 4_096
BENCH_CAPACITY = 8_192


def scaled_config(**overrides) -> MARLConfig:
    """Paper hyper-parameters scaled to bench geometry."""
    defaults = dict(
        batch_size=BENCH_BATCH,
        buffer_capacity=BENCH_CAPACITY,
        update_every=100,
    )
    defaults.update(overrides)
    return MARLConfig(**defaults)


def make_filled_replay(
    env_name: str,
    num_agents: int,
    seed: int = 0,
    rows: int = BENCH_FILL,
    capacity: int = BENCH_CAPACITY,
    prioritized: bool = False,
    storage: str = "agent_major",
) -> MultiAgentReplay:
    """Replay with paper-faithful per-agent dimensions, synthetically filled."""
    obs_dims = env_obs_dims(env_name, num_agents)
    act_dims = [5] * num_agents
    replay = MultiAgentReplay(
        obs_dims, act_dims, capacity=capacity, prioritized=prioritized,
        storage=storage,
    )
    fill_replay(replay, np.random.default_rng(seed), rows)
    return replay


def print_exhibit(title: str, lines: List[str], paper_note: str = "") -> None:
    """Uniform exhibit block in bench output."""
    print()
    print(f"== {title} ==")
    if paper_note:
        print(f"   paper: {paper_note}")
    for line in lines:
        print(f"   {line}")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)
