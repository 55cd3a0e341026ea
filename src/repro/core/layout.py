"""Transition-data layout reorganization (paper §IV-B2).

The :class:`LayoutReorganizer` owns a timestep-major
:class:`~repro.buffers.kv_layout.KVTransitionStore` kept in sync with an
agent-major :class:`~repro.buffers.multi_agent.MultiAgentReplay`, and
serves whole-round mini-batches for *all* agents with a single O(m) row
gather instead of the baseline's O(N*m) scattered loops.

The packed store is rebuilt from the agent-major buffers right before
sampling whenever stale — the bulk reshaping cost of Figure 14, charged
to ``reshape_floats``/``reshape_seconds``.  The paper reports both
views: sampling including reshaping (a slowdown at 3-6 agents, +25.8% at
24) and inter-agent sampling alone (1.36x-9.55x speedups), which the
accessors here expose separately.

This is the replay-level mirror the Figure-14 exhibits measure.  Inside
a trainer the same layout is the ``timestep_major`` storage engine.

When the replay already runs on the ``timestep_major`` storage engine
(``replay.arena`` is set), there is nothing to reorganize: the
reorganizer becomes a thin adapter over the replay's own
:class:`~repro.buffers.arena.TransitionArena` — the store *is* the
arena, it is never stale, and reshaping costs stay at zero.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from ..buffers.kv_layout import KVTransitionStore
from ..buffers.multi_agent import MultiAgentReplay
from .batch import AgentBatch, MiniBatch
from .indices import uniform_indices

__all__ = ["LayoutReorganizer"]


class LayoutReorganizer:
    """Keep a timestep-major packed mirror of an agent-major replay."""

    def __init__(self, replay: MultiAgentReplay, ingest: str = "block") -> None:
        if ingest not in ("block", "rowwise"):
            raise ValueError(
                f"ingest must be 'block' or 'rowwise', got {ingest!r}"
            )
        self.replay = replay
        self.ingest_mode = ingest
        # Shared-arena mode: a timestep-major replay already holds the
        # packed layout, so adapt over its arena instead of mirroring.
        self.shared_arena = getattr(replay, "arena", None) is not None
        if self.shared_arena:
            self.store = replay.arena
        else:
            self.store = KVTransitionStore(replay.capacity, replay.schema)
        self._synced_through = 0  # joint inserts reflected in the store
        self.reshape_floats = 0
        self.reshape_seconds = 0.0
        self.reorganizations = 0

    # -- synchronization -------------------------------------------------------

    @property
    def stale(self) -> bool:
        """True when the packed store lags the agent-major replay."""
        if self.shared_arena:
            return False  # the store IS the replay's storage
        return self._synced_through != len(self.replay) or len(self.store) != len(
            self.replay
        )

    def reorganize(self) -> int:
        """Bulk-rebuild the packed store from the agent-major buffers.

        Returns floats moved.  Timing and volume are accumulated so
        benches can report sampling cost with and without reshaping.
        Zero-cost no-op in shared-arena mode — the front-end writes
        already landed in the packed rows.
        """
        if self.shared_arena:
            return 0
        start = time.perf_counter()
        if self.ingest_mode == "rowwise":
            moved = self.store.ingest_rowwise(self.replay.buffers)
        else:
            moved = self.store.ingest(self.replay.buffers)
        self.reshape_seconds += time.perf_counter() - start
        self.reshape_floats += moved
        self._synced_through = len(self.replay)
        self.reorganizations += 1
        return moved

    def ensure_synced(self) -> None:
        """Reorganize if needed (the pre-sampling hook)."""
        if self.stale:
            self.reorganize()

    # -- sampling -----------------------------------------------------------------

    def sample_all_agents(
        self,
        rng: np.random.Generator,
        batch_size: int,
    ) -> MiniBatch:
        """One O(m) packed-row gather serving every agent's mini-batch.

        Replaces N independent sampler invocations per update round: the
        common indices array is drawn once and each agent's fields are
        sliced out of the already-gathered rows.
        """
        self.ensure_synced()
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if len(self.store) < batch_size:
            raise ValueError(
                f"store holds {len(self.store)} rows; need >= {batch_size}"
            )
        indices = uniform_indices(rng, len(self.store), batch_size)
        per_agent = self.store.gather_fields(indices)
        agents: List[AgentBatch] = [AgentBatch.from_fields(f) for f in per_agent]
        return MiniBatch(agents=agents, indices=indices, weights=None, runs=[])

    # -- accounting ---------------------------------------------------------------

    def cost_summary(self) -> Dict[str, float]:
        """Reshaping-cost counters for Figure-14-style reporting."""
        return {
            "reshape_floats": float(self.reshape_floats),
            "reshape_seconds": self.reshape_seconds,
            "reorganizations": float(self.reorganizations),
        }
