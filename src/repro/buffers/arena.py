"""Timestep-major transition arena — the packed storage engine.

One :class:`TransitionArena` owns a single packed ``(capacity, width)``
float ring holding every agent's transition for each environment step
back to back, in :class:`~repro.buffers.transition.JointSchema` order
(each agent's block packs obs | act | rew | next_obs | done, so the
joint reward/done columns live at fixed offsets inside the row).  This
is the paper's §IV-B2 timestep-major key-value layout promoted from an
ablation side-path to a first-class storage substrate:

* per-agent front-ends (:class:`~repro.buffers.replay.ReplayBuffer`
  over an :class:`~repro.buffers.storage.ArenaAgentStorage` backend)
  expose each agent's obs/act/rew/next_obs/done as **zero-copy column
  views** of the arena, so every agent-major code path — the faithful
  per-index gather loops, PER trees, checkpointing — reads and writes
  the packed rows directly;
* whole-round consumers (the fast-path samplers and the batched update
  engine) assemble a joint mini-batch for *all* agents with one
  fancy-index row gather (or run-slice reads) — O(m) packed rows
  instead of O(N*m) scattered per-agent gathers — and split the result
  by the joint schema's column offsets.

An attached :class:`~repro.profiling.timers.PhaseTimer` (see
:meth:`attach_timer`) separates the joint-row gather cost from the
per-agent split cost in profiling breakdowns.

:class:`~repro.buffers.kv_layout.KVTransitionStore` — the ingest-
on-demand reorganization mirror the Figure-14 characterization measures
— subclasses this arena, so the ablation path and the storage engine
share one packing/gather implementation.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .transition import JointSchema

__all__ = ["TransitionArena", "JOINT_GATHER", "AGENT_SPLIT"]

AgentBatchFields = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: PhaseTimer sub-phase names for joint-batch assembly attribution.
JOINT_GATHER = "joint_gather"
AGENT_SPLIT = "agent_split"


class TransitionArena:
    """Packed timestep-major ring of all N agents' transitions.

    Parameters
    ----------
    capacity:
        Ring capacity in timesteps (paper: 1e6).
    schema:
        Joint schema fixing each agent's packed column range.
    """

    def __init__(self, capacity: int, schema: JointSchema) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.schema = schema
        self._values = np.zeros((capacity, schema.width), dtype=np.float64)
        self._next_idx = 0
        self._size = 0
        self._timer = None  # Optional[PhaseTimer], set via attach_timer

    def __len__(self) -> int:
        return self._size

    @property
    def num_agents(self) -> int:
        return self.schema.num_agents

    @property
    def next_index(self) -> int:
        """Slot the next joint write will land in (wraps at capacity)."""
        return self._next_idx

    @property
    def values(self) -> np.ndarray:
        """The raw packed block (full capacity; rows >= len() are stale)."""
        return self._values

    def attach_timer(self, timer) -> None:
        """Report joint-gather / agent-split costs into ``timer``.

        The phases nest under whatever phase is active at gather time
        (typically ``update_all_trainers.sampling``), separating the
        O(m) packed-row read from the per-agent column-split cost.
        """
        self._timer = timer

    def _phase(self, name: str):
        return self._timer.phase(name) if self._timer is not None else nullcontext()

    # -- writes ---------------------------------------------------------------

    def advance(self, steps: int) -> None:
        """Move the ring cursor past ``steps`` rows written through views.

        Per-agent front-ends write their columns in place (zero-copy
        backends); the joint cursor advances once per timestep, in
        lock-step with the front-ends' own cursors.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        self._next_idx = (self._next_idx + steps) % self.capacity
        self._size = min(self._size + steps, self.capacity)

    def set_cursor(self, size: int, next_idx: int) -> None:
        """Restore the ring cursor exactly (checkpoint resume)."""
        if not 0 <= size <= self.capacity:
            raise ValueError(f"size {size} out of range [0, {self.capacity}]")
        if not 0 <= next_idx < max(self.capacity, 1):
            raise ValueError(
                f"next_idx {next_idx} out of range [0, {self.capacity})"
            )
        self._size = int(size)
        self._next_idx = int(next_idx)

    def clear(self) -> None:
        self._next_idx = 0
        self._size = 0

    # -- per-agent column views ------------------------------------------------

    def agent_views(self, agent_idx: int) -> Dict[str, np.ndarray]:
        """Zero-copy full-capacity column views of one agent's fields.

        The returned arrays alias the packed block: writes through them
        land directly in the arena row, which is what lets the
        agent-major ``ReplayBuffer`` API run unchanged on top of the
        timestep-major layout.
        """
        if not 0 <= agent_idx < self.num_agents:
            raise IndexError(f"agent index {agent_idx} out of range")
        start, _end = self.schema.agent_offsets()[agent_idx]
        s = self.schema.agents[agent_idx].slices()

        def cols(sl: slice) -> np.ndarray:
            return self._values[:, start + sl.start : start + sl.stop]

        return {
            "obs": cols(s["obs"]),
            "act": cols(s["act"]),
            "rew": self._values[:, start + s["rew"].start],
            "next_obs": cols(s["next_obs"]),
            "done": self._values[:, start + s["done"].start],
        }

    # -- joint reads ------------------------------------------------------------

    def gather_joint(
        self,
        indices: Optional[Sequence[int]] = None,
        *,
        runs: Optional[Sequence] = None,
        vectorized: bool = True,
    ) -> np.ndarray:
        """Packed joint rows for ``indices`` or contiguous ``runs``.

        The canonical joint read: exactly one of ``indices`` / ``runs``
        selects the rows.  ``vectorized=True`` (default) is the O(m)
        fancy-index read — one numpy take over the packed block;
        ``vectorized=False`` keeps the reference per-row append loop so
        ablations can charge the interpreter overhead of row-at-a-time
        assembly separately from the layout's copy-volume win.  Run
        reads are slice-per-run either way (a run *is* the vectorized
        access pattern).
        """
        if (indices is None) == (runs is None):
            raise ValueError("pass exactly one of indices= or runs=")
        if runs is not None:
            return self.gather_run_rows(runs)
        if len(indices) == 0:
            raise ValueError("gather on empty index list")
        if self._size == 0:
            raise ValueError("gather on empty store")
        if vectorized:
            idx = np.asarray(indices, dtype=np.int64)
            bad = (idx < 0) | (idx >= self._size)
            if bad.any():
                i = int(idx[np.argmax(bad)])
                raise IndexError(
                    f"index {i} out of range for store of size {self._size}"
                )
            return self._values[idx]
        rows: List[np.ndarray] = []
        for i in indices:
            i = int(i)
            if not 0 <= i < self._size:
                raise IndexError(f"index {i} out of range for store of size {self._size}")
            rows.append(self._values[i])
        return np.array(rows)

    def gather_run_rows(self, runs: Sequence) -> np.ndarray:
        """Packed rows for a list of contiguous ``(start, length)`` runs.

        One slice copy per run into a preallocated block — the
        sequential access pattern of
        :meth:`~repro.buffers.replay.ReplayBuffer.gather_runs`, paid
        once for all agents instead of once per agent.  Wraparound runs
        fall back to a modular fancy-index read.
        """
        if not runs:
            raise ValueError("gather_run_rows requires at least one run")
        if self._size == 0:
            raise ValueError("gather_run_rows on empty store")
        size = self._size
        total = sum(run.length for run in runs)
        out = np.empty((total, self.schema.width), dtype=np.float64)
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
                out[pos:stop] = self._values[start:end]
            else:  # wraparound: modular indices, as in ReplayBuffer.gather_run
                idx = (start + np.arange(length)) % size
                out[pos:stop] = self._values[idx]
            pos = stop
        return out

    def gather_fields(
        self,
        indices: Optional[Sequence[int]] = None,
        *,
        runs: Optional[Sequence] = None,
        vectorized: bool = True,
    ) -> List[AgentBatchFields]:
        """Every agent's batch fields from one joint read.

        The canonical one-pass mini-batch assembly: the packed-row
        gather happens once (O(m) — charged to the ``joint_gather``
        phase), then each agent's fields are cut out of the already-
        resident rows (``agent_split`` phase).  Selection mirrors
        :meth:`gather_joint`: exactly one of ``indices`` / ``runs``.
        """
        with self._phase(JOINT_GATHER):
            rows = self.gather_joint(indices, runs=runs, vectorized=vectorized)
        with self._phase(AGENT_SPLIT):
            return self.schema.split_batch(rows)
