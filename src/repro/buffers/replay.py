"""Per-agent experience replay buffer front-end.

By default this is the baseline agent-major organization the paper
characterizes: each agent owns an independent ring buffer of its
transitions, so an update round must gather from N distant buffers —
the source of the irregular, cache-hostile access pattern (Figures 4-5).

The buffer is a *front-end* over a storage backend
(:mod:`repro.buffers.storage`): the five field arrays either are dense
per-agent storage (``agent_major``) or zero-copy column views of a
shared packed :class:`~repro.buffers.arena.TransitionArena` row
(``timestep_major``).  Every code path below is backend-agnostic —
writes through the views land directly in the packed arena row.

Two gather paths are provided:

* :meth:`gather` — a faithful reproduction of the reference MADDPG
  ``_encode_sample`` per-index Python loop.  This is the paper's measured
  bottleneck, deliberately preserved.
* :meth:`gather_vectorized` — numpy fancy indexing, used as an ablation
  to quantify how much of the bottleneck is interpreter overhead versus
  memory behaviour.

Contiguous *runs* (for cache-locality-aware sampling) are served by
:meth:`gather_run`, which maps to a sequential slice of the backing
arrays — the access pattern the hardware prefetcher (and our cache
model's stride prefetcher) accelerates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .storage import AgentMajorStorage
from .transition import TransitionSchema

__all__ = ["ReplayBuffer", "PAPER_BUFFER_CAPACITY", "validate_batch_fields"]

#: Paper §V: "The size of the replay buffer is 1 million."
PAPER_BUFFER_CAPACITY = 1_000_000

BatchFields = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def validate_batch_fields(batch) -> Tuple[BatchFields, int]:
    """Normalize one ingest batch: float64 arrays + shared leading dim K.

    ``batch`` is the canonical 5-tuple ``(obs, act, rew, next_obs, done)``
    of stacked arrays.  The single validation path behind every batch
    ingest entry point (:meth:`ReplayBuffer.ingest`,
    :meth:`~repro.buffers.multi_agent.MultiAgentReplay.ingest`): checks
    arity, K > 0, and leading-dimension agreement once, then returns the
    normalized fields and K.
    """
    if len(batch) != 5:
        raise ValueError(
            f"batch must be (obs, act, rew, next_obs, done), got {len(batch)} fields"
        )
    obs, act, rew, next_obs, done = (
        np.asarray(f, dtype=np.float64) for f in batch
    )
    k = rew.shape[0] if rew.ndim else 0
    if k == 0:
        raise ValueError("ingest requires at least one transition")
    if not (obs.shape[0] == act.shape[0] == next_obs.shape[0] == done.shape[0] == k):
        raise ValueError("ingest fields must share the leading dimension")
    return (obs, act, rew, next_obs, done), k


class ReplayBuffer:
    """Fixed-capacity ring buffer of one agent's transitions.

    Storage is five preallocated numpy arrays (obs/act/rew/next_obs/done)
    served by a backend, written cyclically.  ``len(buffer)`` is the
    number of valid rows.

    ``backend`` selects the storage engine: ``None`` allocates dense
    agent-major arrays (the characterized baseline); an
    :class:`~repro.buffers.storage.ArenaAgentStorage` makes the fields
    zero-copy column views of a shared timestep-major arena.
    """

    def __init__(
        self,
        capacity: int,
        obs_dim: int,
        act_dim: int,
        backend=None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.schema = TransitionSchema(obs_dim, act_dim)
        if backend is None:
            backend = AgentMajorStorage(capacity, obs_dim, act_dim)
        if backend.obs.shape != (capacity, obs_dim) or backend.act.shape != (
            capacity,
            act_dim,
        ):
            raise ValueError(
                f"backend shapes {backend.obs.shape}/{backend.act.shape} do not "
                f"match (capacity={capacity}, obs={obs_dim}, act={act_dim})"
            )
        self.backend = backend
        self._obs = backend.obs
        self._act = backend.act
        self._rew = backend.rew
        self._next_obs = backend.next_obs
        self._done = backend.done
        self._next_idx = 0
        self._size = 0

    @property
    def storage(self) -> str:
        """Storage engine name ('agent_major' or 'timestep_major')."""
        return self.backend.kind

    # -- writes ---------------------------------------------------------------

    def add(
        self,
        obs: np.ndarray,
        act: np.ndarray,
        rew: float,
        next_obs: np.ndarray,
        done: bool,
    ) -> int:
        """Append one transition; returns the slot index it was written to."""
        idx = self._next_idx
        self._obs[idx] = obs
        self._act[idx] = act
        self._rew[idx] = rew
        self._next_obs[idx] = next_obs
        self._done[idx] = float(done)
        self._next_idx = (self._next_idx + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return idx

    def ingest(self, batch) -> np.ndarray:
        """Append K transitions in stream order with one fancy-index write.

        ``batch`` is the canonical 5-tuple ``(obs, act, rew, next_obs,
        done)`` of stacked arrays (leading dimension K).  Equivalent to
        K sequential :meth:`add` calls (same final ring contents,
        cursor, and size), minus the K Python-level round trips.
        Returns the slot indices actually written — when K exceeds the
        capacity only the trailing ``capacity`` rows survive, exactly as
        sequential adds would leave them.
        """
        (obs, act, rew, next_obs, done), k = validate_batch_fields(batch)
        # rows older than the last `capacity` would be overwritten anyway
        first = max(0, k - self.capacity)
        idx = (self._next_idx + np.arange(first, k)) % self.capacity
        self._obs[idx] = obs[first:]
        self._act[idx] = act[first:]
        self._rew[idx] = rew[first:]
        self._next_obs[idx] = next_obs[first:]
        self._done[idx] = done[first:]
        self._next_idx = (self._next_idx + k) % self.capacity
        self._size = min(self._size + k, self.capacity)
        return idx

    def clear(self) -> None:
        self._next_idx = 0
        self._size = 0

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def obs_dim(self) -> int:
        return self._obs.shape[1]

    @property
    def act_dim(self) -> int:
        return self._act.shape[1]

    @property
    def next_index(self) -> int:
        """Slot the next write will land in (wraps at capacity)."""
        return self._next_idx

    def storage_views(self) -> Dict[str, np.ndarray]:
        """Read-only views of the raw storage (used by the layout reorganizer)."""
        views = {
            "obs": self._obs[: self._size],
            "act": self._act[: self._size],
            "rew": self._rew[: self._size],
            "next_obs": self._next_obs[: self._size],
            "done": self._done[: self._size],
        }
        for v in views.values():
            v.flags.writeable = False
        return views

    # -- reads ------------------------------------------------------------------

    def _check_indices(self, indices: Sequence[int]) -> None:
        if len(indices) == 0:
            raise ValueError("gather on empty index list")
        if self._size == 0:
            raise ValueError("gather on empty buffer")

    def _validate_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Single validation path for every fancy-index read.

        Checks emptiness and bounds once and returns the int64 index
        array; :meth:`gather_vectorized` and the wraparound fallbacks of
        :meth:`gather_run` / :meth:`gather_runs` all funnel through here
        (the latter via :meth:`_take` on already-modular indices).
        """
        self._check_indices(indices)
        idx = np.asarray(indices, dtype=np.int64)
        bad = (idx < 0) | (idx >= self._size)
        if bad.any():
            i = int(idx[np.argmax(bad)])
            raise IndexError(
                f"index {i} out of range for buffer of size {self._size}"
            )
        return idx

    def _take(self, idx: np.ndarray) -> BatchFields:
        """Unchecked fancy-index read of all five fields."""
        return (
            self._obs[idx],
            self._act[idx],
            self._rew[idx],
            self._next_obs[idx],
            self._done[idx],
        )

    def gather(self, indices: Sequence[int]) -> BatchFields:
        """Reference-faithful gather: one Python-level lookup per index.

        Reproduces the ``for i in idxes: ... append`` loop of the baseline
        MADDPG buffer, whose per-index irregular accesses are the paper's
        measured bottleneck.  Raises ``IndexError`` for out-of-range rows.
        """
        self._check_indices(indices)
        obs_list: List[np.ndarray] = []
        act_list: List[np.ndarray] = []
        rew_list: List[float] = []
        next_obs_list: List[np.ndarray] = []
        done_list: List[float] = []
        size = self._size
        for i in indices:
            i = int(i)
            if not 0 <= i < size:
                raise IndexError(f"index {i} out of range for buffer of size {size}")
            obs_list.append(self._obs[i])
            act_list.append(self._act[i])
            rew_list.append(self._rew[i])
            next_obs_list.append(self._next_obs[i])
            done_list.append(self._done[i])
        return (
            np.array(obs_list),
            np.array(act_list),
            np.array(rew_list),
            np.array(next_obs_list),
            np.array(done_list),
        )

    def gather_vectorized(self, indices: Sequence[int]) -> BatchFields:
        """Fast-path gather via numpy fancy indexing (ablation comparator)."""
        return self._take(self._validate_indices(indices))

    def gather_run(self, start: int, length: int) -> BatchFields:
        """Contiguous gather ``[start, start + length)`` with wraparound.

        This is the access pattern the cache-locality-aware sampler emits:
        a sequential run from a reference point (paper Algorithm 1,
        ``D[idx : idx + neighbors]``).  Runs that would exceed the valid
        region wrap modulo the current size, preserving batch shape.
        """
        if length <= 0:
            raise ValueError(f"run length must be positive, got {length}")
        if self._size == 0:
            raise ValueError("gather_run on empty buffer")
        if not 0 <= start < self._size:
            raise IndexError(f"run start {start} out of range [0, {self._size})")
        end = start + length
        if end <= self._size:
            sl = slice(start, end)
            return (
                self._obs[sl],
                self._act[sl],
                self._rew[sl],
                self._next_obs[sl],
                self._done[sl],
            )
        # wraparound: indices advance modulo the valid region (runs longer
        # than the region cycle through it, keeping batch size exact)
        idx = (start + np.arange(length)) % self._size
        return self._take(idx)

    def gather_runs(self, runs: Sequence) -> BatchFields:
        """Fast-path batch assembly for a list of contiguous runs.

        Instead of gathering each run separately and paying one
        ``np.concatenate`` per field per batch (N x ref temporary
        arrays), the output arrays are preallocated once and each run is
        copied in with a slice assignment — the same sequential access
        pattern as :meth:`gather_run`, minus the Python-level stitching.
        Runs are duck-typed ``(start, length)`` records
        (:class:`~repro.core.indices.Run`); wraparound runs fall back to
        a modular fancy-index read, exactly like :meth:`gather_run`.
        """
        if not runs:
            raise ValueError("gather_runs requires at least one run")
        if self._size == 0:
            raise ValueError("gather_runs on empty buffer")
        size = self._size
        total = sum(run.length for run in runs)
        obs = np.empty((total, self.obs_dim), dtype=np.float64)
        act = np.empty((total, self.act_dim), dtype=np.float64)
        rew = np.empty(total, dtype=np.float64)
        next_obs = np.empty((total, self.obs_dim), dtype=np.float64)
        done = np.empty(total, dtype=np.float64)
        pos = 0
        for run in runs:
            start, length = run.start, run.length
            if length <= 0:
                raise ValueError(f"run length must be positive, got {length}")
            if not 0 <= start < size:
                raise IndexError(f"run start {start} out of range [0, {size})")
            stop = pos + length
            end = start + length
            if end <= size:
                sl = slice(start, end)
                obs[pos:stop] = self._obs[sl]
                act[pos:stop] = self._act[sl]
                rew[pos:stop] = self._rew[sl]
                next_obs[pos:stop] = self._next_obs[sl]
                done[pos:stop] = self._done[sl]
            else:  # wraparound: modular indices, as in gather_run
                idx = (start + np.arange(length)) % size
                o, a, r, no, d = self._take(idx)
                obs[pos:stop] = o
                act[pos:stop] = a
                rew[pos:stop] = r
                next_obs[pos:stop] = no
                done[pos:stop] = d
            pos = stop
        return (obs, act, rew, next_obs, done)
