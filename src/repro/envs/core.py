"""Particle-world physics core, re-implemented from the OpenAI MPE design.

The paper's workloads run on OpenAI's multiagent-particle-envs.  This
module rebuilds that substrate from scratch: a 2-D world of circular
entities (agents and landmarks) with first-order velocity damping, force
integration, and soft-penetration collision forces.  The constants
(``dt = 0.1``, ``damping = 0.25``, contact force/margin) follow the MPE
reference so episode dynamics — and therefore the workload the replay
buffer sees — match the paper's environment.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = [
    "EntityState",
    "AgentState",
    "Action",
    "Entity",
    "Landmark",
    "Agent",
    "World",
    "is_collision",
    "sum_sq",
    "ddot_norm",
]


class EntityState:
    """Physical state: 2-D position and velocity."""

    def __init__(self) -> None:
        self.p_pos = np.zeros(2)
        self.p_vel = np.zeros(2)


class AgentState(EntityState):
    """Agent state adds an utterance vector for communication channels.

    Cooperative-navigation observations include each other agent's
    communication vector (2 floats), which is how the paper's CN
    observation dimension reaches 6N (e.g. Box(18,) at N = 3).
    """

    def __init__(self, comm_dim: int = 2) -> None:
        super().__init__()
        self.c = np.zeros(comm_dim)


class Action:
    """Physical action ``u`` (2-D force) and communication action ``c``."""

    def __init__(self, comm_dim: int = 2) -> None:
        self.u = np.zeros(2)
        self.c = np.zeros(comm_dim)


class Entity:
    """A circular physical entity in the world."""

    def __init__(self, name: str = "entity") -> None:
        self.name = name
        self.size = 0.050
        self.movable = False
        self.collide = True
        self.density = 25.0
        self.mass = 1.0
        self.max_speed: Optional[float] = None
        self.accel: Optional[float] = None
        self.state = EntityState()
        self.initial_mass = 1.0


class Landmark(Entity):
    """A static (by default) landmark entity."""


class Agent(Entity):
    """A controllable (or scripted) agent entity."""

    def __init__(self, name: str = "agent") -> None:
        super().__init__(name)
        self.movable = True
        self.silent = True
        self.blind = False
        self.u_noise: Optional[float] = None
        self.c_noise: Optional[float] = None
        self.u_range = 1.0
        self.state = AgentState()
        self.action = Action()
        # Scripted behaviour (environment-controlled prey in predator-prey)
        self.action_callback = None
        self.adversary = False


class World:
    """The 2-D physics world: integrates forces and resolves collisions.

    The step order mirrors MPE: gather applied (action) forces, add
    pairwise collision response forces, integrate with damping, then
    update communication state.
    """

    def __init__(self) -> None:
        self.agents: List[Agent] = []
        self.landmarks: List[Landmark] = []
        self.dim_p = 2
        self.dim_c = 2
        self.dt = 0.1
        self.damping = 0.25
        self.contact_force = 1.0e2
        self.contact_margin = 1.0e-3

    @property
    def entities(self) -> List[Entity]:
        return [*self.agents, *self.landmarks]

    @property
    def policy_agents(self) -> List[Agent]:
        """Agents controlled by learned policies."""
        return [a for a in self.agents if a.action_callback is None]

    @property
    def scripted_agents(self) -> List[Agent]:
        """Environment-controlled agents (e.g. the fast prey)."""
        return [a for a in self.agents if a.action_callback is not None]

    # -- stepping -----------------------------------------------------------

    def step(self) -> None:
        """Advance the world by one physics tick."""
        for agent in self.scripted_agents:
            agent.action = agent.action_callback(agent, self)
        forces = self._apply_action_forces()
        forces = self._apply_environment_forces(forces)
        self._integrate_state(forces)
        for agent in self.agents:
            self._update_comm_state(agent)

    def _apply_action_forces(self) -> List[Optional[np.ndarray]]:
        forces: List[Optional[np.ndarray]] = [None] * len(self.entities)
        for i, agent in enumerate(self.agents):
            if agent.movable:
                force = agent.action.u.copy()
                if agent.u_noise:
                    force += np.random.randn(*force.shape) * agent.u_noise
                forces[i] = force
        return forces

    def _apply_environment_forces(
        self, forces: List[Optional[np.ndarray]]
    ) -> List[Optional[np.ndarray]]:
        entities = self.entities
        for a, entity_a in enumerate(entities):
            for b, entity_b in enumerate(entities):
                if b <= a:
                    continue
                fa, fb = self._get_collision_force(entity_a, entity_b)
                if fa is not None:
                    forces[a] = fa if forces[a] is None else forces[a] + fa
                if fb is not None:
                    forces[b] = fb if forces[b] is None else forces[b] + fb
        return forces

    def _get_collision_force(self, entity_a: Entity, entity_b: Entity):
        """Soft-penetration collision response between two circles."""
        if not (entity_a.collide and entity_b.collide):
            return None, None
        if entity_a is entity_b:
            return None, None
        delta_pos = entity_a.state.p_pos - entity_b.state.p_pos
        dist = float(np.sqrt(np.sum(delta_pos**2)))
        dist_min = entity_a.size + entity_b.size
        # softmax-style penetration: smooth, differentiable contact model
        k = self.contact_margin
        penetration = np.logaddexp(0, -(dist - dist_min) / k) * k
        if dist > 0:
            direction = delta_pos / dist
        else:  # exactly overlapping: push along a fixed axis
            direction = np.array([1.0, 0.0])
        force = self.contact_force * direction * penetration
        force_a = +force if entity_a.movable else None
        force_b = -force if entity_b.movable else None
        return force_a, force_b

    def _integrate_state(self, forces: List[Optional[np.ndarray]]) -> None:
        for i, entity in enumerate(self.entities):
            if not entity.movable:
                continue
            entity.state.p_vel = entity.state.p_vel * (1.0 - self.damping)
            if forces[i] is not None:
                entity.state.p_vel += (forces[i] / entity.mass) * self.dt
            if entity.max_speed is not None:
                speed = float(np.sqrt(np.sum(entity.state.p_vel**2)))
                if speed > entity.max_speed:
                    entity.state.p_vel = entity.state.p_vel / speed * entity.max_speed
            entity.state.p_pos = entity.state.p_pos + entity.state.p_vel * self.dt

    def _update_comm_state(self, agent: Agent) -> None:
        if agent.silent:
            agent.state.c = np.zeros(self.dim_c)
        else:
            noise = (
                np.random.randn(*agent.action.c.shape) * agent.c_noise
                if agent.c_noise
                else 0.0
            )
            agent.state.c = agent.action.c + noise


def is_collision(agent_a: Agent, agent_b: Agent) -> bool:
    """True when two circular agents overlap (used by scenario rewards)."""
    delta = agent_a.state.p_pos - agent_b.state.p_pos
    dist = float(np.sqrt(np.sum(delta**2)))
    return dist < agent_a.size + agent_b.size


# -- array twins of the two scalar distance idioms above -----------------------
# The array program (``repro.envs.batched`` and the scenarios' ``*_arrays``
# hooks) must reproduce the per-object arithmetic bit for bit, and the object
# code computes a 2-vector's length in two ways that do NOT round alike.


def sum_sq(v: np.ndarray) -> np.ndarray:
    """``np.sum(d**2)`` of every trailing 2-vector: ``x*x + y*y``."""
    x, y = v[..., 0], v[..., 1]
    return x * x + y * y


def ddot_norm(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(d)`` of every trailing 2-vector, bit for bit.

    The 1-D ``norm`` is ``sqrt(dot(d, d))`` and BLAS ``ddot`` does not round
    like ``x*x + y*y`` (they differ in ~8 % of uniform draws).  A stacked
    ``(1, 2) @ (2, 1)`` matmul dispatches to the same ``ddot``; ``einsum``,
    ``norm(axis=-1)`` and the explicit sum do not.
    """
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])
