"""Cooperative Navigation (MPE ``simple_spread``) — the paper's cooperative task.

N agents cooperate to cover N landmarks while avoiding collisions.  All
agents share the global reward ``-sum_l min_a dist(a, l)`` minus a
collision penalty, which is what drives the "all agents trained
collectively" behaviour the paper characterizes.

Observation layout per agent (matching MPE ``simple_spread``):
``[self_vel(2), self_pos(2), landmark_rel(2N), other_agents_rel(2(N-1)),
comm(2(N-1))]`` giving dimension ``6N``: Box(18,) at N = 3, Box(36,) at 6,
Box(72,) at 12, Box(144,) at 24 — exactly the paper's §II-B numbers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import Agent, Landmark, World, ddot_norm, is_collision, sum_sq
from ..scenario import BaseScenario, others_index

__all__ = ["CooperativeNavigationScenario"]


class CooperativeNavigationScenario(BaseScenario):
    """Shared-reward landmark coverage with collision avoidance."""

    def __init__(
        self,
        num_agents: int = 3,
        num_landmarks: Optional[int] = None,
        collision_penalty: float = 1.0,
    ) -> None:
        if num_agents < 1:
            raise ValueError(f"need at least one agent, got {num_agents}")
        self.num_agents = num_agents
        self.num_landmarks = num_agents if num_landmarks is None else num_landmarks
        self.collision_penalty = collision_penalty
        self._others = others_index(num_agents, num_agents)

    def make_world(self, rng: np.random.Generator) -> World:
        world = World()
        world.dim_c = 2
        for i in range(self.num_agents):
            agent = Agent(name=f"agent_{i}")
            agent.collide = True
            agent.silent = False  # comm channel is part of the observation
            agent.size = 0.15
            world.agents.append(agent)
        for i in range(self.num_landmarks):
            landmark = Landmark(name=f"landmark_{i}")
            landmark.collide = False
            landmark.movable = False
            landmark.size = 0.05
            world.landmarks.append(landmark)
        self.reset_world(world, rng)
        return world

    def reset_world(self, world: World, rng: np.random.Generator) -> None:
        for agent in world.agents:
            agent.state.p_pos = rng.uniform(-1.0, +1.0, world.dim_p)
            agent.state.p_vel = np.zeros(world.dim_p)
            agent.state.c = np.zeros(world.dim_c)
        for landmark in world.landmarks:
            landmark.state.p_pos = rng.uniform(-1.0, +1.0, world.dim_p)
            landmark.state.p_vel = np.zeros(world.dim_p)

    def reward(self, agent: Agent, world: World) -> float:
        """Shared coverage reward with per-agent collision penalty."""
        rew = 0.0
        for landmark in world.landmarks:
            dists = [
                float(np.linalg.norm(a.state.p_pos - landmark.state.p_pos))
                for a in world.agents
            ]
            rew -= min(dists)
        if agent.collide:
            for other in world.agents:
                if other is not agent and is_collision(agent, other):
                    rew -= self.collision_penalty
        return rew

    def observation(self, agent: Agent, world: World) -> np.ndarray:
        landmark_rel = [
            lm.state.p_pos - agent.state.p_pos for lm in world.landmarks
        ]
        other_rel = []
        comm = []
        for other in world.agents:
            if other is agent:
                continue
            other_rel.append(other.state.p_pos - agent.state.p_pos)
            comm.append(other.state.c)
        parts = [agent.state.p_vel, agent.state.p_pos, *landmark_rel, *other_rel, *comm]
        return np.concatenate(parts)

    def benchmark_data(self, agent: Agent, world: World) -> dict:
        collisions = 0
        if agent.collide:
            collisions = sum(
                1
                for other in world.agents
                if other is not agent and is_collision(agent, other)
            )
        min_dists = [
            min(
                float(np.linalg.norm(a.state.p_pos - lm.state.p_pos))
                for a in world.agents
            )
            for lm in world.landmarks
        ]
        return {"collisions": collisions, "coverage": -sum(min_dists)}

    # -- array hooks (the same task over all K copies; see BaseScenario) -----

    def reset_arrays(self, rng: np.random.Generator, p_pos: np.ndarray) -> None:
        # one (E, 2) draw is the same stream as reset_world's per-entity
        # size-2 draws, agents first
        p_pos[:] = rng.uniform(-1.0, +1.0, p_pos.shape)

    def observe_arrays(self, p_pos: np.ndarray, p_vel: np.ndarray) -> np.ndarray:
        k, n = p_pos.shape[0], self.num_agents
        agents = p_pos[:, :n]
        own = agents[:, :, None]
        landmark_rel = p_pos[:, None, n:] - own
        other_rel = agents[:, self._others] - own
        # the comm block is every other agent's utterance, which the env
        # zeroes on every step (no scenario action writes ``action.c``)
        comm = np.zeros((k, n, 2 * (n - 1)))
        return np.concatenate(
            [
                p_vel[:, :n],
                agents,
                landmark_rel.reshape(k, n, -1),
                other_rel.reshape(k, n, -1),
                comm,
            ],
            axis=2,
        )

    def reward_arrays(self, p_pos: np.ndarray, size: np.ndarray) -> np.ndarray:
        n = self.num_agents
        agents = p_pos[:, :n]
        # (K, N, L) agent-to-landmark distances; the shared term adds up
        # landmark by landmark, as the scalar loop does
        nearest = ddot_norm(agents[:, :, None] - p_pos[:, None, n:]).min(axis=1)
        shared = np.zeros(p_pos.shape[0])
        for lm in range(nearest.shape[1]):
            shared = shared - nearest[:, lm]
        rew = np.repeat(shared[:, None], n, axis=1)
        dist = np.sqrt(sum_sq(agents[:, :, None] - agents[:, None]))
        hit = dist < size[:n, None] + size[None, :n]
        hit[:, np.arange(n), np.arange(n)] = False
        # one partner at a time: (rew - p) - p, never rew - 2 * p
        for j in np.flatnonzero(hit.any(axis=(0, 1))):
            rew = np.where(hit[:, :, j], rew - self.collision_penalty, rew)
        return rew
