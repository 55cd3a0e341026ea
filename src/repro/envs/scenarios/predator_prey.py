"""Predator-Prey (MPE ``simple_tag``) scenario — the paper's competitive task.

N slow predators cooperate to catch M faster, environment-controlled prey
among L obstacle landmarks.  The default sizing rule reproduces the
paper's quoted observation spaces:

* 3 predators, 1 prey, 2 landmarks → predators Box(16,), prey Box(14,)
* 24 predators, 8 prey, 8 landmarks → predators Box(98,), prey Box(96,)

Observation layout per agent (matching MPE ``simple_tag``):
``[self_vel(2), self_pos(2), landmark_rel(2L), other_agents_rel(2(A-1)),
prey_vels]`` where prey_vels covers every *other* non-adversary agent's
velocity (predators see all prey velocities; a prey sees the other
prey's).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core import Agent, Landmark, World, ddot_norm, is_collision, sum_sq
from ..scenario import BaseScenario, others_index

__all__ = ["PredatorPreyScenario", "default_prey_counts"]


def default_prey_counts(num_predators: int) -> tuple:
    """Paper-consistent sizing: (num_prey, num_landmarks) for N predators.

    3 predators pair with 1 prey and 2 landmarks (the classic simple_tag
    layout, giving Box(16)/Box(14) observations); the 24-predator setting
    uses 8 prey and 8 landmarks (giving Box(98)/Box(96)).  Intermediate
    sizes interpolate proportionally.
    """
    if num_predators < 1:
        raise ValueError(f"need at least one predator, got {num_predators}")
    num_prey = max(1, round(num_predators / 3))
    num_landmarks = max(2, num_prey)
    return num_prey, num_landmarks


class PredatorPreyScenario(BaseScenario):
    """Competitive pursuit: predators (+10 per catch) vs prey (-10 per catch).

    Parameters
    ----------
    num_predators:
        Number of learning (adversary) agents; the paper sweeps 3-48.
    num_prey, num_landmarks:
        Defaults follow :func:`default_prey_counts`.
    shaped:
        When True, add the MPE distance-shaping terms (predators pulled
        toward prey, prey pushed away); helps learning at small scale.
    """

    def __init__(
        self,
        num_predators: int = 3,
        num_prey: Optional[int] = None,
        num_landmarks: Optional[int] = None,
        shaped: bool = True,
    ) -> None:
        default_prey, default_landmarks = default_prey_counts(num_predators)
        self.num_predators = num_predators
        self.num_prey = default_prey if num_prey is None else num_prey
        self.num_landmarks = (
            default_landmarks if num_landmarks is None else num_landmarks
        )
        if self.num_prey < 1:
            raise ValueError("predator-prey needs at least one prey")
        self.shaped = shaped
        self._others = others_index(num_predators, num_predators + self.num_prey)

    # -- construction -------------------------------------------------------

    def make_world(self, rng: np.random.Generator) -> World:
        world = World()
        world.dim_c = 2
        for i in range(self.num_predators):
            agent = Agent(name=f"predator_{i}")
            agent.adversary = True
            agent.size = 0.075
            agent.accel = 3.0
            agent.max_speed = 1.0
            agent.silent = True
            world.agents.append(agent)
        for i in range(self.num_prey):
            agent = Agent(name=f"prey_{i}")
            agent.adversary = False
            agent.size = 0.05
            agent.accel = 4.0
            agent.max_speed = 1.3
            agent.silent = True
            world.agents.append(agent)
        for i in range(self.num_landmarks):
            landmark = Landmark(name=f"landmark_{i}")
            landmark.size = 0.2
            landmark.collide = True
            landmark.movable = False
            world.landmarks.append(landmark)
        self.reset_world(world, rng)
        return world

    def reset_world(self, world: World, rng: np.random.Generator) -> None:
        for agent in world.agents:
            agent.state.p_pos = rng.uniform(-1.0, +1.0, world.dim_p)
            agent.state.p_vel = np.zeros(world.dim_p)
            agent.state.c = np.zeros(world.dim_c)
        for landmark in world.landmarks:
            landmark.state.p_pos = rng.uniform(-0.9, +0.9, world.dim_p)
            landmark.state.p_vel = np.zeros(world.dim_p)

    # -- task structure -------------------------------------------------------

    @staticmethod
    def predators(world: World) -> List[Agent]:
        return [a for a in world.agents if a.adversary]

    @staticmethod
    def preys(world: World) -> List[Agent]:
        return [a for a in world.agents if not a.adversary]

    # -- rewards ---------------------------------------------------------------

    def reward(self, agent: Agent, world: World) -> float:
        if agent.adversary:
            return self._predator_reward(agent, world)
        return self._prey_reward(agent, world)

    def _predator_reward(self, agent: Agent, world: World) -> float:
        rew = 0.0
        preys = self.preys(world)
        if self.shaped:
            for prey in preys:
                rew -= 0.1 * min(
                    float(np.linalg.norm(p.state.p_pos - prey.state.p_pos))
                    for p in self.predators(world)
                )
        if agent.collide:
            for prey in preys:
                if is_collision(prey, agent):
                    rew += 10.0
        return rew

    def _prey_reward(self, agent: Agent, world: World) -> float:
        rew = 0.0
        predators = self.predators(world)
        if self.shaped:
            for predator in predators:
                rew += 0.1 * float(
                    np.linalg.norm(agent.state.p_pos - predator.state.p_pos)
                )
        if agent.collide:
            for predator in predators:
                if is_collision(agent, predator):
                    rew -= 10.0
        # keep prey inside the arena: escalating boundary penalty
        for coord in agent.state.p_pos:
            rew -= self._bound_penalty(abs(float(coord)))
        return rew

    @staticmethod
    def _bound_penalty(x: float) -> float:
        """MPE's escalating penalty for prey straying out of bounds."""
        if x < 0.9:
            return 0.0
        if x < 1.0:
            return (x - 0.9) * 10.0
        return min(np.exp(2.0 * x - 2.0), 10.0)

    # -- observations ---------------------------------------------------------

    def observation(self, agent: Agent, world: World) -> np.ndarray:
        landmark_rel = [
            lm.state.p_pos - agent.state.p_pos for lm in world.landmarks
        ]
        other_rel = []
        prey_vel = []
        for other in world.agents:
            if other is agent:
                continue
            other_rel.append(other.state.p_pos - agent.state.p_pos)
            if not other.adversary:
                prey_vel.append(other.state.p_vel)
        parts = [agent.state.p_vel, agent.state.p_pos, *landmark_rel, *other_rel, *prey_vel]
        return np.concatenate(parts)

    def benchmark_data(self, agent: Agent, world: World) -> dict:
        collisions = 0
        if agent.adversary and agent.collide:
            collisions = sum(
                1 for prey in self.preys(world) if is_collision(prey, agent)
            )
        return {"collisions": collisions}

    # -- array hooks (the same task over all K copies; see BaseScenario) -----
    # The learning agents are the predators: the hooks cover the scripted-
    # prey setup, where every prey is environment-controlled.

    def reset_arrays(self, rng: np.random.Generator, p_pos: np.ndarray) -> None:
        # an agents block then a landmarks block: the same stream as
        # reset_world's per-entity size-2 draws
        a = self.num_predators + self.num_prey
        p_pos[:a] = rng.uniform(-1.0, +1.0, (a, 2))
        p_pos[a:] = rng.uniform(-0.9, +0.9, (len(p_pos) - a, 2))

    def observe_arrays(self, p_pos: np.ndarray, p_vel: np.ndarray) -> np.ndarray:
        k, n = p_pos.shape[0], self.num_predators
        a = n + self.num_prey
        own = p_pos[:, :n, None]
        landmark_rel = p_pos[:, None, a:] - own
        other_rel = p_pos[:, self._others] - own
        prey_vel = np.broadcast_to(
            p_vel[:, None, n:a].reshape(k, 1, -1), (k, n, 2 * self.num_prey)
        )
        return np.concatenate(
            [
                p_vel[:, :n],
                p_pos[:, :n],
                landmark_rel.reshape(k, n, -1),
                other_rel.reshape(k, n, -1),
                prey_vel,
            ],
            axis=2,
        )

    def reward_arrays(self, p_pos: np.ndarray, size: np.ndarray) -> np.ndarray:
        n = self.num_predators
        a = n + self.num_prey
        delta = p_pos[:, :n, None] - p_pos[:, None, n:a]  # (K, N, Q, 2)
        shared = np.zeros(p_pos.shape[0])
        if self.shaped:
            nearest = ddot_norm(delta).min(axis=1)
            for q in range(self.num_prey):
                shared = shared - 0.1 * nearest[:, q]
        rew = np.repeat(shared[:, None], n, axis=1)
        caught = np.sqrt(sum_sq(delta)) < size[:n, None] + size[None, n:a]
        # one prey at a time: (rew + 10) + 10, never rew + 20
        for q in np.flatnonzero(caught.any(axis=(0, 1))):
            rew = np.where(caught[:, :, q], rew + 10.0, rew)
        return rew
