"""Heuristic controller for environment-controlled prey agents.

Paper §II-B: "The prey agents are environment-controlled and try to avoid
collisions with predators."  This module provides that controller: a prey
accelerates directly away from the (distance-weighted) predator threat,
with a soft pull toward the arena center so it cannot trivially escape to
infinity.
"""

from __future__ import annotations

import numpy as np

from .core import Action, Agent, World, ddot_norm, sum_sq

__all__ = ["FleePolicy", "make_prey_callback"]


class FleePolicy:
    """Potential-field flee policy for scripted prey.

    The prey's action is an acceleration vector that is the sum of
    repulsive terms from each predator (weight 1/d^2) and an attractive
    pull toward the origin once the prey strays outside ``bound``.
    """

    def __init__(self, bound: float = 1.0, center_gain: float = 0.5) -> None:
        self.bound = bound
        self.center_gain = center_gain

    def __call__(self, agent: Agent, world: World) -> Action:
        action = Action(comm_dim=world.dim_c)
        force = np.zeros(world.dim_p)
        for other in world.agents:
            if not other.adversary:
                continue
            delta = agent.state.p_pos - other.state.p_pos
            dist_sq = float(np.sum(delta**2))
            if dist_sq < 1e-8:
                # overlapping with a predator: flee along a fixed axis
                force += np.array([1.0, 0.0])
            else:
                force += delta / dist_sq
        # soft containment: pull back toward the center beyond the bound
        overflow = np.abs(agent.state.p_pos) > self.bound
        if np.any(overflow):
            force -= self.center_gain * agent.state.p_pos * overflow
        norm = float(np.linalg.norm(force))
        if norm > 1e-8:
            force = force / norm
        accel = agent.accel if agent.accel is not None else 5.0
        action.u = force * accel
        return action

    def forces(
        self, prey_pos: np.ndarray, threat_pos: np.ndarray, accel: np.ndarray
    ) -> np.ndarray:
        """Array form of :meth:`__call__`: ``(K, Q, 2)`` action forces.

        ``prey_pos`` is ``(K, Q, 2)``, ``threat_pos`` the ``(K, T, 2)``
        adversary positions, ``accel`` the prey's ``(Q,)`` accelerations.
        Bit-identical to the per-prey call: the repulsion accumulates one
        threat at a time, and containment / normalisation touch only the
        prey the scalar branches would.
        """
        delta = prey_pos[:, :, None] - threat_pos[:, None]  # (K, Q, T, 2)
        dist_sq = sum_sq(delta)
        near = dist_sq < 1e-8
        terms = np.where(
            near[..., None],
            (1.0, 0.0),
            delta / np.where(near, 1.0, dist_sq)[..., None],
        )
        force = np.zeros_like(prey_pos)
        for t in range(terms.shape[2]):
            force = force + terms[:, :, t]
        overflow = np.abs(prey_pos) > self.bound
        force = np.where(
            overflow.any(axis=-1, keepdims=True),
            force - self.center_gain * prey_pos * overflow,
            force,
        )
        norm = ddot_norm(force)
        moving = norm > 1e-8
        force = np.where(
            moving[..., None], force / np.where(moving, norm, 1.0)[..., None], force
        )
        return force * accel[:, None]


def make_prey_callback(bound: float = 1.0, center_gain: float = 0.5) -> FleePolicy:
    """Build an ``action_callback`` suitable for ``Agent.action_callback``."""
    return FleePolicy(bound=bound, center_gain=center_gain)
