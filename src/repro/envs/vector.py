"""Synchronous vectorized environments (WarpDrive-inspired extension).

The paper's related work (WarpDrive [42]) accelerates RL by running
many environment copies in parallel so network forward passes batch
across them.  This module provides the single-process analogue: K
particle-world copies stepped in lock-step, with observations exposed
as per-agent arrays of shape ``(K, obs_dim)`` so one MLP forward serves
all copies — amortizing the action-selection phase the same way the
GPU does in the paper's setup.

Episodes auto-reset: when a copy's episode terminates, it is reset
before the next step, and its terminal flag is reported once.

This object-per-entity engine is the oracle and the engine for scenarios
without array hooks: :class:`~repro.envs.batched.BatchedVectorEnv` steps
the same K copies as one array program and is tested byte for byte
against it; :func:`~repro.envs.batched.serial_vector_env` falls back to
it for whatever the array program does not mirror.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from .environment import MultiAgentEnv

__all__ = ["SyncVectorEnv"]


class SyncVectorEnv:
    """K lock-step copies of a multi-agent environment.

    Parameters
    ----------
    factory:
        Zero-argument callables producing :class:`MultiAgentEnv`
        instances (one per copy); seeds should differ per copy for
        decorrelated episodes.
    """

    def __init__(self, factories: Sequence[Callable[[], MultiAgentEnv]]) -> None:
        if not factories:
            raise ValueError("SyncVectorEnv needs at least one environment factory")
        self.envs: List[MultiAgentEnv] = [factory() for factory in factories]
        first = self.envs[0]
        for env in self.envs[1:]:
            if env.obs_dims != first.obs_dims or env.act_dims != first.act_dims:
                raise ValueError(
                    "all environment copies must share observation/action spaces"
                )
        self.num_envs = len(self.envs)
        self.num_agents = first.num_agents
        self.obs_dims = first.obs_dims
        self.act_dims = first.act_dims
        self._last_obs: List[List[np.ndarray]] = [[] for _ in range(self.num_envs)]

    # -- API -----------------------------------------------------------------

    def reset(self) -> List[np.ndarray]:
        """Reset every copy; returns per-agent stacked observations.

        Output: list of ``num_agents`` arrays, each ``(num_envs, obs_dim)``.
        """
        for k, env in enumerate(self.envs):
            self._last_obs[k] = env.reset()
        return self._stacked_obs()

    def step(
        self, actions: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, List[dict]]:
        """Step every copy with batched per-agent actions.

        ``actions``: list of ``num_agents`` arrays, each ``(num_envs,
        act_dim)`` (soft one-hot rows) — the transpose of K per-env
        action lists, matching what a batched actor forward emits.

        Returns ``(obs, rewards, dones, infos)`` with per-agent stacked
        observations, rewards/dones of shape ``(num_envs, num_agents)``,
        and one info dict per copy.  Done copies are auto-reset (the
        returned observations are the post-reset ones; the rewards and
        done flags belong to the terminating step).
        """
        if len(actions) != self.num_agents:
            raise ValueError(
                f"expected {self.num_agents} per-agent action arrays, got {len(actions)}"
            )
        for a in actions:
            if np.asarray(a).shape[0] != self.num_envs:
                raise ValueError(
                    f"each action array must have {self.num_envs} rows"
                )
        rewards = np.zeros((self.num_envs, self.num_agents))
        dones = np.zeros((self.num_envs, self.num_agents), dtype=bool)
        infos: List[dict] = []
        for k, env in enumerate(self.envs):
            per_env_actions = [np.asarray(actions[a])[k] for a in range(self.num_agents)]
            obs, rews, done_flags, info = env.step(per_env_actions)
            rewards[k] = rews
            dones[k] = done_flags
            infos.append(info)
            if all(done_flags):
                obs = env.reset()
            self._last_obs[k] = obs
        return self._stacked_obs(), rewards, dones, infos

    # -- internals ---------------------------------------------------------------

    def _stacked_obs(self) -> List[np.ndarray]:
        return [
            np.stack([self._last_obs[k][a] for k in range(self.num_envs)])
            for a in range(self.num_agents)
        ]
