"""Multi-agent replay façade: N per-agent buffers inserted in lock-step.

The CTDE trainers store every agent's transition at each environment step
(Figure 1: "Store experiences (obs_j, act_j, rewards_j, next obs_j,
done_j)"), so all per-agent buffers share one logical index space: row
``t`` of agent k's buffer is the same timestep as row ``t`` of agent j's.
That shared index space is what makes a *common indices array* (Figure 5)
meaningful, and what the layout reorganization exploits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .arena import TransitionArena
from .prioritized import PrioritizedReplayBuffer
from .replay import ReplayBuffer
from .storage import ArenaAgentStorage, resolve_storage
from .transition import JointSchema

__all__ = ["MultiAgentReplay"]


class MultiAgentReplay:
    """Lock-step collection of per-agent replay buffers.

    Parameters
    ----------
    obs_dims, act_dims:
        Per-agent observation/action widths (heterogeneous allowed —
        predators and prey have different observation sizes).
    capacity:
        Shared ring capacity (paper: 1e6).
    prioritized:
        When True, agent buffers are :class:`PrioritizedReplayBuffer`
        (for PER-MADDPG and the information-prioritized sampler).
    alpha:
        PER priority exponent (only with ``prioritized=True``).
    storage:
        Storage engine: ``"agent_major"`` (default — N independent dense
        rings, the characterized baseline) or ``"timestep_major"`` (one
        shared packed :class:`~repro.buffers.arena.TransitionArena`,
        with each per-agent buffer holding zero-copy column views).
    """

    def __init__(
        self,
        obs_dims: Sequence[int],
        act_dims: Sequence[int],
        capacity: int = 1_000_000,
        prioritized: bool = False,
        alpha: float = 0.6,
        storage: str = "agent_major",
    ) -> None:
        if len(obs_dims) != len(act_dims):
            raise ValueError("obs_dims and act_dims must have equal length")
        if not obs_dims:
            raise ValueError("MultiAgentReplay needs at least one agent")
        self.capacity = capacity
        self.prioritized = prioritized
        self.storage = resolve_storage(storage)
        self.schema = JointSchema.from_dims(list(obs_dims), list(act_dims))
        if self.storage == "timestep_major":
            self.arena: Optional[TransitionArena] = TransitionArena(
                capacity, self.schema
            )
        else:
            self.arena = None
        self.buffers: List[ReplayBuffer] = []
        for k, (o, a) in enumerate(zip(obs_dims, act_dims)):
            backend = (
                ArenaAgentStorage(self.arena, k) if self.arena is not None else None
            )
            if prioritized:
                self.buffers.append(
                    PrioritizedReplayBuffer(capacity, o, a, alpha=alpha, backend=backend)
                )
            else:
                self.buffers.append(ReplayBuffer(capacity, o, a, backend=backend))

    @property
    def num_agents(self) -> int:
        return len(self.buffers)

    def __len__(self) -> int:
        """Number of complete joint timesteps stored."""
        return len(self.buffers[0])

    def __getitem__(self, agent_idx: int) -> ReplayBuffer:
        return self.buffers[agent_idx]

    def add(
        self,
        obs: Sequence[np.ndarray],
        act: Sequence[np.ndarray],
        rew: Sequence[float],
        next_obs: Sequence[np.ndarray],
        done: Sequence[bool],
    ) -> int:
        """Insert one joint timestep; returns the shared slot index."""
        n = self.num_agents
        if not (len(obs) == len(act) == len(rew) == len(next_obs) == len(done) == n):
            raise ValueError(f"add expects {n} entries per field")
        indices = {
            buf.add(obs[k], act[k], rew[k], next_obs[k], done[k])
            for k, buf in enumerate(self.buffers)
        }
        if len(indices) != 1:
            raise RuntimeError(
                "per-agent buffers fell out of lock-step; "
                "do not add to individual buffers directly"
            )
        if self.arena is not None:
            self.arena.advance(1)
        return indices.pop()

    def ingest(self, batch=None, *, packed_rows: Optional[np.ndarray] = None) -> int:
        """Insert K joint timesteps from either call shape; returns K.

        The canonical batch-write entry point — exactly one of:

        ``batch``
            A 5-tuple ``(obs, act, rew, next_obs, done)`` of per-agent
            field lists (``obs[k]`` of shape ``(K, obs_dim_k)``).  All
            buffers advance in lock-step exactly as K :meth:`add` calls
            would.
        ``packed_rows``
            ``(K, schema.width)`` packed joint-schema rows (every
            agent's transition back to back — what
            :meth:`~repro.buffers.transition.JointSchema.pack_batch`
            builds and the timestep-major arena stores).  The replay
            shard server's ring write: the rows land in the arena with
            one fancy-index write and no per-field splitting.  Only a
            non-prioritized timestep-major replay takes it (PER needs
            the per-row tree bookkeeping of the ``batch`` path).

        End state is identical to K :meth:`add` calls either way.
        """
        if (batch is None) == (packed_rows is None):
            raise ValueError("pass exactly one of batch= or packed_rows=")
        if packed_rows is not None:
            return self._ingest_packed(packed_rows)
        if len(batch) != 5:
            raise ValueError(
                f"batch must be (obs, act, rew, next_obs, done), got {len(batch)} fields"
            )
        obs, act, rew, next_obs, done = batch
        n = self.num_agents
        if not (len(obs) == len(act) == len(rew) == len(next_obs) == len(done) == n):
            raise ValueError(f"ingest expects {n} per-agent field arrays")
        firsts = set()
        k = None
        for a, buf in enumerate(self.buffers):
            idx = buf.ingest((obs[a], act[a], rew[a], next_obs[a], done[a]))
            firsts.add((int(idx[0]), len(idx)))
            k = np.asarray(rew[a]).shape[0]
        if len(firsts) != 1:
            raise RuntimeError(
                "per-agent buffers fell out of lock-step; "
                "do not add to individual buffers directly"
            )
        if self.arena is not None:
            self.arena.advance(int(k))
        return int(k)

    def _ingest_packed(self, rows: np.ndarray) -> int:
        """Packed-row arm of :meth:`ingest`."""
        if self.arena is None or self.prioritized:
            raise ValueError(
                "ingest(packed_rows=) needs a non-prioritized timestep_major "
                f"replay (storage={self.storage!r}, "
                f"prioritized={self.prioritized}); pass the per-agent "
                "fields as batch= instead"
            )
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.schema.width:
            raise ValueError(
                f"expected packed rows of shape (K, {self.schema.width}), "
                f"got {rows.shape}"
            )
        k = rows.shape[0]
        if k == 0:
            raise ValueError("ingest requires at least one row")
        # direct packed-row ring write; advance the per-agent
        # front-end cursors in lock-step (they alias these columns)
        first = max(0, k - self.capacity)
        idx = (self.arena.next_index + np.arange(first, k)) % self.capacity
        self.arena.values[idx] = rows[first:]
        for buf in self.buffers:
            buf._next_idx = (buf._next_idx + k) % self.capacity
            buf._size = min(buf._size + k, self.capacity)
        self.arena.advance(k)
        return k

    def clear(self) -> None:
        for buf in self.buffers:
            buf.clear()
        if self.arena is not None:
            self.arena.clear()

    def restore_cursor(self, size: int, next_idx: int) -> None:
        """Set every buffer's (and the arena's) ring cursor exactly.

        Checkpoint resume needs the write cursor, not just the size:
        after ring wraparound the next overwrite position determines
        which rows future inserts displace.
        """
        for buf in self.buffers:
            buf._size = int(size)
            buf._next_idx = int(next_idx)
        if self.arena is not None:
            self.arena.set_cursor(size, next_idx)

    def gather(
        self,
        indices: Optional[Sequence[int]] = None,
        *,
        runs: Optional[Sequence] = None,
        vectorized: bool = False,
    ) -> List[tuple]:
        """Every agent's batch fields for ``indices`` or contiguous ``runs``.

        The canonical read: exactly one of ``indices`` / ``runs``
        selects the rows; ``vectorized`` selects the engine.

        * ``indices, vectorized=False`` — the paper's characterized
          O(N*m) bottleneck: each agent's buffer walked with the common
          indices array through the reference per-index loop.
        * ``indices, vectorized=True`` — fancy-index gathers; on
          timestep-major storage, one O(m) packed-row read split by
          joint-schema column offsets (bit-identical values).
        * ``runs, vectorized=False`` — the faithful run assembly:
          per-buffer :meth:`ReplayBuffer.gather_run` slices stitched
          with ``np.concatenate`` per field.
        * ``runs, vectorized=True`` — preallocated slice-filled
          assembly (:meth:`ReplayBuffer.gather_runs`); on timestep-major
          storage a single run-slice read of packed joint rows.
        """
        if (indices is None) == (runs is None):
            raise ValueError("pass exactly one of indices= or runs=")
        if runs is not None:
            if vectorized:
                if self.arena is not None:
                    return self.arena.gather_fields(runs=runs)
                return [buf.gather_runs(runs) for buf in self.buffers]
            out = []
            for buf in self.buffers:
                parts = [buf.gather_run(run.start, run.length) for run in runs]
                out.append(
                    tuple(
                        np.concatenate([p[f] for p in parts]) for f in range(5)
                    )
                )
            return out
        if vectorized:
            if self.arena is not None:
                # timestep-major fast path: one O(m) packed-row gather for
                # all agents, split by joint-schema column offsets.  The
                # values are bit-identical to the per-agent fancy-index
                # gathers (same rows, same columns, copy-then-view).
                return self.arena.gather_fields(indices)
            return [buf.gather_vectorized(indices) for buf in self.buffers]
        return [buf.gather(indices) for buf in self.buffers]

    def priority_buffer(self, agent_idx: int) -> PrioritizedReplayBuffer:
        """Typed access to a prioritized buffer; raises if not prioritized."""
        buf = self.buffers[agent_idx]
        if not isinstance(buf, PrioritizedReplayBuffer):
            raise TypeError(
                "buffer is not prioritized; construct MultiAgentReplay with "
                "prioritized=True"
            )
        return buf
