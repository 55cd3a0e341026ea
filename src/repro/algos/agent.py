"""Per-agent actor-critic bundle (the CTDE building block).

Each agent owns the paper's four networks (Figure 1 / §II-A): an actor,
a centralized critic over the *joint* observation-action space, and
target copies of both for stable learning.  MATD3 agents additionally
carry twin critics.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn import Adam, Sequential, actor_mlp, critic_mlp, gumbel_softmax, softmax
from .config import MARLConfig

__all__ = ["ActorCriticAgent"]


class ActorCriticAgent:
    """One agent's networks, targets, and optimizers.

    Parameters
    ----------
    obs_dim, act_dim:
        This agent's observation width and (discrete) action count.
    joint_dim:
        Width of the critic input: sum over all agents of obs + act dims.
    twin_critics:
        Build a second critic pair (MATD3's overestimation fix).
    """

    def __init__(
        self,
        name: str,
        obs_dim: int,
        act_dim: int,
        joint_dim: int,
        config: MARLConfig,
        rng: np.random.Generator,
        twin_critics: bool = False,
    ) -> None:
        self.name = name
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.joint_dim = joint_dim
        self.config = config
        hidden = config.hidden_units

        self.actor: Sequential = actor_mlp(obs_dim, act_dim, hidden=hidden, rng=rng)
        self.target_actor: Sequential = actor_mlp(obs_dim, act_dim, hidden=hidden, rng=rng)
        self.target_actor.copy_from(self.actor)

        self.critic: Sequential = critic_mlp(joint_dim, hidden=hidden, rng=rng)
        self.target_critic: Sequential = critic_mlp(joint_dim, hidden=hidden, rng=rng)
        self.target_critic.copy_from(self.critic)

        self.actor_optimizer = Adam(self.actor.parameters(), lr=config.lr)
        self.critic_params = list(self.critic.parameters())

        self.twin = twin_critics
        self.critic2: Optional[Sequential] = None
        self.target_critic2: Optional[Sequential] = None
        if twin_critics:
            self.critic2 = critic_mlp(joint_dim, hidden=hidden, rng=rng)
            self.target_critic2 = critic_mlp(joint_dim, hidden=hidden, rng=rng)
            self.target_critic2.copy_from(self.critic2)
            self.critic_params = self.critic_params + list(self.critic2.parameters())
        self.critic_optimizer = Adam(self.critic_params, lr=config.lr)

    # -- acting -----------------------------------------------------------------

    def act(
        self,
        obs: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        explore: bool = True,
    ) -> np.ndarray:
        """Soft one-hot action(s) from the current policy.

        With ``explore=True`` a Gumbel-Softmax sample (stochastic policy,
        the exploration mechanism of the reference MADDPG); with
        ``explore=False`` the deterministic softmax of the logits.
        Accepts a single observation or a batch; returns matching shape.
        """
        obs = np.asarray(obs, dtype=np.float64)
        single = obs.ndim == 1
        logits = self.actor(obs[None, :] if single else obs)
        if explore:
            if rng is None:
                raise ValueError("explore=True requires an rng")
            action = gumbel_softmax(
                logits, rng=rng, temperature=self.config.gumbel_temperature
            )
        else:
            action = softmax(logits)
        return action[0] if single else action

    def target_act(
        self,
        next_obs: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        noise: float = 0.0,
        noise_clip: float = 0.5,
    ) -> np.ndarray:
        """Target-policy actions for the target-Q calculation.

        ``noise > 0`` applies MATD3's target-policy smoothing: clipped
        Gaussian noise on the logits before the softmax, regularizing the
        target Q surface against sharp actor exploitation.
        """
        logits = self.target_actor(np.atleast_2d(next_obs))
        if noise > 0.0:
            if rng is None:
                raise ValueError("target smoothing noise requires an rng")
            eps = np.clip(
                rng.normal(0.0, noise, size=logits.shape), -noise_clip, noise_clip
            )
            logits = logits + eps
        return softmax(logits)

    # -- target maintenance --------------------------------------------------------

    def soft_update_targets(self) -> None:
        """Polyak-update all target networks with the config's tau."""
        tau = self.config.tau
        self.target_actor.soft_update_from(self.actor, tau)
        self.target_critic.soft_update_from(self.critic, tau)
        if self.twin:
            assert self.critic2 is not None and self.target_critic2 is not None
            self.target_critic2.soft_update_from(self.critic2, tau)

    def num_parameters(self) -> int:
        """Trainable parameter count (actor + critics, excluding targets)."""
        total = self.actor.num_parameters() + self.critic.num_parameters()
        if self.twin and self.critic2 is not None:
            total += self.critic2.num_parameters()
        return total
