"""Transition schemas for experience replay.

A *transition* is the tuple the paper stores per agent per step:
``(obs_j, act_j, reward_j, next_obs_j, done_j)`` (Figure 1).  The schema
object pins the per-field widths so buffers can preallocate flat numpy
storage, and computes the byte footprint used by the memory-hierarchy
simulator's address map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["TransitionSchema", "JointSchema", "FLOAT_BYTES"]

#: Storage element width; MPE observations are float64 in the reference code.
FLOAT_BYTES = 8


@dataclass(frozen=True)
class TransitionSchema:
    """Field widths of one agent's transition record.

    ``width`` is the flattened float count:
    ``obs + act + 1 (reward) + obs (next) + 1 (done)``.
    """

    obs_dim: int
    act_dim: int

    def __post_init__(self) -> None:
        if self.obs_dim <= 0 or self.act_dim <= 0:
            raise ValueError(
                f"schema dims must be positive, got obs={self.obs_dim}, act={self.act_dim}"
            )

    @property
    def width(self) -> int:
        return self.obs_dim + self.act_dim + 1 + self.obs_dim + 1

    @property
    def nbytes(self) -> int:
        """Bytes per transition record (drives the memsim address map)."""
        return self.width * FLOAT_BYTES

    def slices(self) -> Dict[str, slice]:
        """Field name -> column slice within the flat record."""
        o, a = self.obs_dim, self.act_dim
        return {
            "obs": slice(0, o),
            "act": slice(o, o + a),
            "rew": slice(o + a, o + a + 1),
            "next_obs": slice(o + a + 1, o + a + 1 + o),
            "done": slice(o + a + 1 + o, o + a + 2 + o),
        }


@dataclass(frozen=True)
class JointSchema:
    """Schemas of all N agents; describes one *timestep-major* record.

    The layout-reorganization optimization (paper §IV-B2) packs every
    agent's transition for a timestep into one contiguous value; this
    class provides the per-agent column offsets inside that packed row.
    """

    agents: Tuple[TransitionSchema, ...] = field(default_factory=tuple)

    @classmethod
    def from_dims(cls, obs_dims: List[int], act_dims: List[int]) -> "JointSchema":
        if len(obs_dims) != len(act_dims):
            raise ValueError("obs_dims and act_dims must have equal length")
        if not obs_dims:
            raise ValueError("JointSchema needs at least one agent")
        return cls(
            tuple(TransitionSchema(o, a) for o, a in zip(obs_dims, act_dims))
        )

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def width(self) -> int:
        """Total float count of a packed joint row."""
        return sum(s.width for s in self.agents)

    @property
    def nbytes(self) -> int:
        return self.width * FLOAT_BYTES

    def agent_offsets(self) -> List[Tuple[int, int]]:
        """(start, end) column range of each agent inside the joint row."""
        out: List[Tuple[int, int]] = []
        offset = 0
        for schema in self.agents:
            out.append((offset, offset + schema.width))
            offset += schema.width
        return out

    def pack_batch(
        self,
        obs: List[np.ndarray],
        act: List[np.ndarray],
        rew: List[np.ndarray],
        next_obs: List[np.ndarray],
        done: List[np.ndarray],
    ) -> np.ndarray:
        """Pack K timesteps of per-agent field arrays into joint rows.

        ``obs[k]`` is ``(K, obs_dim_k)`` etc.; the result is the
        ``(K, width)`` packed block the arena stores and the replay
        service ships across process boundaries.
        """
        if not (len(obs) == len(act) == len(rew) == len(next_obs) == len(done) == self.num_agents):
            raise ValueError(f"pack_batch expects {self.num_agents} per-agent arrays")
        k = np.asarray(rew[0]).shape[0]
        rows = np.empty((k, self.width), dtype=np.float64)
        for a, (start, _end) in enumerate(self.agent_offsets()):
            s = self.agents[a].slices()
            rows[:, start + s["obs"].start : start + s["obs"].stop] = obs[a]
            rows[:, start + s["act"].start : start + s["act"].stop] = act[a]
            rows[:, start + s["rew"].start] = np.asarray(rew[a], dtype=np.float64)
            rows[:, start + s["next_obs"].start : start + s["next_obs"].stop] = next_obs[a]
            rows[:, start + s["done"].start] = np.asarray(done[a], dtype=np.float64)
        return rows

    def split_batch(
        self, rows: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Inverse of :meth:`pack_batch`: per-agent (obs, act, rew, next_obs, done).

        The one splitter of packed rows: the arena's joint gathers and
        the replay service's pull clients both cut their rows here.  The
        fields are column views of ``rows``.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise ValueError(
                f"expected packed rows of shape (K, {self.width}), got {rows.shape}"
            )
        out = []
        for a, (start, end) in enumerate(self.agent_offsets()):
            block = rows[:, start:end]
            s = self.agents[a].slices()
            out.append(
                (
                    block[:, s["obs"]],
                    block[:, s["act"]],
                    block[:, s["rew"]].ravel(),
                    block[:, s["next_obs"]],
                    block[:, s["done"]].ravel(),
                )
            )
        return out
