"""Shared fixtures for the test suite, and the CI engine matrix.

CI re-runs suites on other engines by setting ``REPRO_STORAGE``,
``REPRO_ENV_WORKERS`` or ``REPRO_REPLAY_SHARDS``.
Nothing below ``repro.configio`` reads the environment, so the selection
is made here: the variables resolve once through :func:`resolve_config`
into :data:`ENGINE`, and the matrix suites build their configs with
:func:`engine_config` and pass ``ENGINE[...]`` where they construct a
replay / vector env directly.  With no variable set both are
the plain defaults; tests that pin an engine keep their pin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algos.config import MARLConfig
from repro.buffers.multi_agent import MultiAgentReplay
from repro.configio import resolve_config
from repro.nn.functional import one_hot

#: The engine under test: the three ``MARLConfig`` fields the CI matrix sets.
_RESOLVED = resolve_config().config
ENGINE = {
    field: getattr(_RESOLVED, field)
    for field in ("storage", "env_workers", "replay_shards")
}


def engine_config(**overrides) -> MARLConfig:
    """A ``MARLConfig`` on the engine under test (overrides win)."""
    return MARLConfig(**{**ENGINE, **overrides})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config() -> MARLConfig:
    """Laptop-scale hyper-parameters for fast training tests."""
    return engine_config(
        batch_size=32,
        buffer_capacity=2048,
        update_every=25,
        max_episode_len=25,
    )


def fill_multi_agent_replay(
    replay: MultiAgentReplay, rng: np.random.Generator, rows: int
) -> None:
    """Insert ``rows`` synthetic joint transitions."""
    obs_dims = [b.obs_dim for b in replay.buffers]
    act_dims = [b.act_dim for b in replay.buffers]
    for _ in range(rows):
        obs = [rng.standard_normal(d) for d in obs_dims]
        act = [one_hot(rng.integers(a), a) for a in act_dims]
        rew = [float(rng.standard_normal()) for _ in obs_dims]
        next_obs = [rng.standard_normal(d) for d in obs_dims]
        done = [bool(rng.random() < 0.05) for _ in obs_dims]
        replay.add(obs, act, rew, next_obs, done)


@pytest.fixture
def small_replay(rng) -> MultiAgentReplay:
    """3-agent replay with 500 rows of synthetic transitions."""
    replay = MultiAgentReplay(
        [16, 16, 14], [5, 5, 5], capacity=1024, storage=ENGINE["storage"]
    )
    fill_multi_agent_replay(replay, rng, 500)
    return replay


@pytest.fixture
def prioritized_replay(rng) -> MultiAgentReplay:
    """3-agent prioritized replay with 500 rows."""
    replay = MultiAgentReplay(
        [16, 16, 14], [5, 5, 5], capacity=1024, prioritized=True,
        storage=ENGINE["storage"],
    )
    fill_multi_agent_replay(replay, rng, 500)
    return replay
