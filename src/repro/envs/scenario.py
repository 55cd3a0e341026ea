"""Scenario interface: world construction, resets, rewards, observations.

A scenario owns the task definition on top of the physics core — which
entities exist, how they are reset, what each agent observes, and what it
is rewarded for.  The two paper scenarios (predator-prey / cooperative
navigation) subclass this.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Agent, World

__all__ = ["BaseScenario", "others_index"]


def others_index(rows: int, num_agents: int) -> np.ndarray:
    """``(rows, num_agents - 1)`` gather index: row ``i`` lists every agent
    but ``i`` in ascending order — the "for other in world.agents, skip
    self" loop of the observation callbacks as one fancy index."""
    every = np.arange(num_agents)
    return np.array(
        [every[every != i] for i in range(rows)], dtype=np.intp
    ).reshape(rows, num_agents - 1)


class BaseScenario:
    """Abstract scenario; concrete tasks implement the five hooks below.

    A scenario whose learning agents all observe the same width may also
    implement the three ``*_arrays`` hooks at the end of this class: the
    same reset, observation and reward written over every copy's dense
    ``(K, E, 2)`` state (entities ordered agents then landmarks, learning
    agents first), which is what lets
    :class:`~repro.envs.batched.BatchedVectorEnv` step all K copies in one
    array program.  Each hook must reproduce its per-object twin bit for
    bit; ``docs/architecture.md`` §5 lists the rules that make that hold.
    """

    def make_world(self, rng: np.random.Generator) -> World:
        """Construct the world with all entities (called once)."""
        raise NotImplementedError

    def reset_world(self, world: World, rng: np.random.Generator) -> None:
        """Re-randomize entity states at the start of each episode."""
        raise NotImplementedError

    def reward(self, agent: Agent, world: World) -> float:
        """Scalar reward for one agent at the current world state."""
        raise NotImplementedError

    def observation(self, agent: Agent, world: World) -> np.ndarray:
        """Observation feature vector for one agent."""
        raise NotImplementedError

    def done(self, agent: Agent, world: World) -> bool:
        """Episode-termination flag for one agent (MPE default: never).

        MPE episodes end only on the ``max_episode_len`` horizon (paper
        uses 25 steps); scenarios may override for early termination.
        """
        return False

    def benchmark_data(self, agent: Agent, world: World) -> Optional[dict]:
        """Optional per-step diagnostics (collision counts, distances)."""
        return None

    # -- optional array hooks (see the class docstring) ---------------------

    def reset_arrays(self, rng: np.random.Generator, p_pos: np.ndarray) -> None:
        """Re-draw one copy's ``(E, 2)`` positions in place from ``rng``,
        consuming the stream exactly as :meth:`reset_world` does."""
        raise NotImplementedError

    def observe_arrays(self, p_pos: np.ndarray, p_vel: np.ndarray) -> np.ndarray:
        """``(K, N, obs_dim)`` observations of the N learning agents."""
        raise NotImplementedError

    def reward_arrays(self, p_pos: np.ndarray, size: np.ndarray) -> np.ndarray:
        """``(K, N)`` rewards of the N learning agents; ``size`` is the
        per-entity ``(E,)`` radius vector."""
        raise NotImplementedError
