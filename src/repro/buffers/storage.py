"""Storage backends behind the replay buffer front-ends.

:class:`~repro.buffers.replay.ReplayBuffer` (and through it the PER and
multi-agent front-ends) is a *front-end* over one of two storage
engines:

* ``agent_major`` — :class:`AgentMajorStorage`: five dense per-agent
  arrays, the baseline organization whose O(N*m) scattered gathers the
  paper characterizes.  The default.
* ``timestep_major`` — :class:`ArenaAgentStorage`: zero-copy column
  views of a shared packed :class:`~repro.buffers.arena.TransitionArena`
  row, the paper's §IV-B2 layout as a real storage substrate.  Writes
  through the front-end land directly in the packed row, so joint
  consumers read whole mini-batches with one fancy-index row gather.

Both backends expose the same five arrays (obs/act/rew/next_obs/done of
shapes ``(capacity, dim)`` / ``(capacity,)``), so every front-end code
path — faithful scalar gathers, vectorized gathers, run slices, ring
writes — is backend-agnostic and byte-equivalent across engines.

The engine is selected by ``MARLConfig.storage`` (the ``REPRO_STORAGE``
environment variable reaches it through
:func:`repro.configio.resolve_config`, like every other field).
"""

from __future__ import annotations

import numpy as np

from .arena import TransitionArena

__all__ = [
    "STORAGE_ENGINES",
    "resolve_storage",
    "AgentMajorStorage",
    "ArenaAgentStorage",
]

#: Recognized storage engine names.
STORAGE_ENGINES = ("agent_major", "timestep_major")


def resolve_storage(storage: str) -> str:
    """Validate a storage engine name and return it."""
    if storage not in STORAGE_ENGINES:
        raise ValueError(
            f"unknown storage engine {storage!r}; expected one of {STORAGE_ENGINES}"
        )
    return storage


class AgentMajorStorage:
    """Dense per-agent arrays (the baseline organization)."""

    kind = "agent_major"

    def __init__(self, capacity: int, obs_dim: int, act_dim: int) -> None:
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self.act = np.zeros((capacity, act_dim), dtype=np.float64)
        self.rew = np.zeros(capacity, dtype=np.float64)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self.done = np.zeros(capacity, dtype=np.float64)


class ArenaAgentStorage:
    """One agent's zero-copy column views of a shared transition arena."""

    kind = "timestep_major"

    def __init__(self, arena: TransitionArena, agent_idx: int) -> None:
        self.arena = arena
        self.agent_idx = int(agent_idx)
        views = arena.agent_views(agent_idx)
        self.obs = views["obs"]
        self.act = views["act"]
        self.rew = views["rew"]
        self.next_obs = views["next_obs"]
        self.done = views["done"]
