"""Mini-batch sampling strategies — the paper's primary contribution.

Four samplers share one interface (:class:`Sampler.sample`), producing a
:class:`~repro.core.batch.MiniBatch` for all agents from a
:class:`~repro.buffers.multi_agent.MultiAgentReplay`:

* :class:`UniformSampler` — the baseline: B independent uniform indices,
  gathered with the reference implementation's per-index loop
  (O(N*B) scattered lookups; the characterized bottleneck).
* :class:`CacheAwareSampler` — Algorithm 1: ``ref`` uniform reference
  points, each expanded into ``n`` contiguous neighbor transitions
  (``ref * n = B``), gathered as sequential runs.
* :class:`PrioritizedSampler` — PER-MADDPG's proportional sampling with
  IS weights (the state-of-the-art prioritization baseline).
* :class:`InformationPrioritizedSampler` — §IV-B1: proportional
  *reference* selection + threshold neighbor predictor + Lemma-1 IS
  weights; locality of the cache-aware sampler with the distribution
  control of PER.

Every sampler records the contiguous runs it requested, which the
memory-hierarchy simulator replays as an address trace.

Each sampler also carries a ``fast_path`` flag selecting the vectorized
sampling engine: batched sum-tree descents, fancy-index gathers, and
run-slice batch assembly.  The fast path is *observably equivalent* to
the scalar path — given the same RNG stream it consumes the same
variates and produces identical ``MiniBatch.indices``, ``runs``, and
``weights`` (property-tested), so memsim address traces and reward
curves are unchanged.  Characterization benches pin ``fast_path=False``
to preserve the paper's measured loops.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..buffers.multi_agent import MultiAgentReplay
from ..buffers.prioritized import PrioritizedReplayBuffer
from .batch import AgentBatch, MiniBatch
from .importance import importance_weights
from .indices import (
    Run,
    expand_run_arrays,
    expand_runs,
    reference_points,
    runs_from_references,
    uniform_indices,
)
from .neighbor_predictor import ThresholdNeighborPredictor

__all__ = [
    "Sampler",
    "UniformSampler",
    "CacheAwareSampler",
    "PrioritizedSampler",
    "InformationPrioritizedSampler",
    "PAPER_BATCH_SIZE",
]

#: Paper §V: "the mini-batch size is 1024 for sampling the transitions."
PAPER_BATCH_SIZE = 1024


def _gather_runs_batch(replay: MultiAgentReplay, runs: List[Run]) -> List[AgentBatch]:
    """Fast-path assembly: preallocated arrays, slice-filled per run.

    Routed through the replay so the timestep-major engine can serve
    all agents from one packed run-slice read (joint rows split by
    schema offsets) instead of N independent per-agent passes.
    """
    return [
        AgentBatch.from_fields(f)
        for f in replay.gather(runs=runs, vectorized=True)
    ]


def _gather_runs_concat(replay: MultiAgentReplay, runs: List[Run]) -> List[AgentBatch]:
    """Faithful assembly: per-run gathers stitched with np.concatenate."""
    return [
        AgentBatch.from_fields(f)
        for f in replay.gather(runs=runs, vectorized=False)
    ]


class Sampler:
    """Interface: draw one mini-batch (for every agent) from shared replay."""

    #: human-readable name used by profiling reports and benches
    name = "sampler"

    #: True when the sampler needs PrioritizedReplayBuffer storage
    requires_priorities = False

    #: vectorized sampling engine toggle; False keeps the faithful loops
    fast_path = False

    def set_fast_path(self, enabled: bool) -> None:
        """Toggle the vectorized sampling engine for this sampler."""
        self.fast_path = bool(enabled)

    def set_beta(self, beta: float) -> None:
        """Update the IS-weight compensation exponent; no-op by default."""

    def sample(
        self,
        replay: MultiAgentReplay,
        rng: np.random.Generator,
        batch_size: int = PAPER_BATCH_SIZE,
        agent_idx: int = 0,
    ) -> MiniBatch:
        """Produce a mini-batch of ``batch_size`` joint transitions.

        ``agent_idx`` identifies the agent trainer on whose behalf the
        batch is drawn — relevant for prioritized samplers, whose
        priorities live in that agent's buffer.
        """
        raise NotImplementedError

    def update_priorities(
        self, replay: MultiAgentReplay, agent_idx: int, batch: MiniBatch, td_errors: np.ndarray
    ) -> None:
        """Post-update hook; no-op for non-prioritized samplers."""

    @staticmethod
    def _check(replay: MultiAgentReplay, batch_size: int) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if len(replay) == 0:
            raise ValueError("cannot sample from an empty replay")
        if len(replay) < batch_size:
            raise ValueError(
                f"replay holds {len(replay)} transitions; need >= {batch_size}"
            )


class UniformSampler(Sampler):
    """Baseline random mini-batch sampling (common uniform indices array).

    ``fast_path=False`` (default) keeps the reference implementation's
    per-index gather loop — the measured bottleneck; ``fast_path=True``
    gathers with one fancy-index read per agent.
    """

    name = "uniform"

    def __init__(self, fast_path: bool = False) -> None:
        self.fast_path = bool(fast_path)

    def sample(self, replay, rng, batch_size=PAPER_BATCH_SIZE, agent_idx=0) -> MiniBatch:
        self._check(replay, batch_size)
        indices = uniform_indices(rng, len(replay), batch_size)
        fields = replay.gather(indices, vectorized=self.fast_path)
        return MiniBatch(
            agents=[AgentBatch.from_fields(f) for f in fields],
            indices=indices,
            weights=None,
            runs=[],
        )


class CacheAwareSampler(Sampler):
    """Intra-agent cache-locality-aware sampling (paper Algorithm 1).

    Parameters
    ----------
    neighbors:
        Run length ``n`` from each reference point.
    refs:
        Number of reference points.  ``neighbors * refs`` must equal the
        requested batch size.  The paper evaluates (n=16, ref=64)
        (randomness-preserving) and (n=64, ref=16) (locality-maximizing).
    fast_path:
        Assemble the batch into preallocated arrays with one slice copy
        per run instead of per-run gathers stitched by ``concatenate``.
    """

    def __init__(self, neighbors: int, refs: int, fast_path: bool = False) -> None:
        if neighbors <= 0 or refs <= 0:
            raise ValueError(
                f"neighbors and refs must be positive, got ({neighbors}, {refs})"
            )
        self.neighbors = neighbors
        self.refs = refs
        self.fast_path = bool(fast_path)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"cache_aware_n{self.neighbors}_r{self.refs}"

    def sample(self, replay, rng, batch_size=PAPER_BATCH_SIZE, agent_idx=0) -> MiniBatch:
        self._check(replay, batch_size)
        if self.neighbors * self.refs != batch_size:
            raise ValueError(
                f"neighbors ({self.neighbors}) * refs ({self.refs}) = "
                f"{self.neighbors * self.refs} != batch_size {batch_size}"
            )
        size = len(replay)
        refs = reference_points(rng, size, self.refs)
        runs = runs_from_references(refs, self.neighbors)
        indices = expand_runs(runs, size)
        if self.fast_path:
            agents = _gather_runs_batch(replay, runs)
        else:
            agents = _gather_runs_concat(replay, runs)
        return MiniBatch(agents=agents, indices=indices, weights=None, runs=runs)


class PrioritizedSampler(Sampler):
    """PER baseline: proportional sampling + IS weights (paper ref. [27]).

    The drawing agent's prioritized buffer supplies both the common
    indices array and the weights; all agents' data is then gathered at
    those shared indices (the buffers are in lock-step).  With
    ``fast_path=True`` the proportional draw descends the sum tree as
    one batched level-wise walk and the gather uses fancy indexing.
    """

    name = "per"
    requires_priorities = True

    def __init__(self, beta: float = 0.4, fast_path: bool = False) -> None:
        self.beta = self._validate_beta(beta)
        self.fast_path = bool(fast_path)

    def set_beta(self, beta: float) -> None:
        self.beta = self._validate_beta(beta)

    @staticmethod
    def _validate_beta(beta: float) -> float:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        return float(beta)

    def _priority_buffer(self, replay: MultiAgentReplay, agent_idx: int) -> PrioritizedReplayBuffer:
        return replay.priority_buffer(agent_idx)

    def sample(self, replay, rng, batch_size=PAPER_BATCH_SIZE, agent_idx=0) -> MiniBatch:
        self._check(replay, batch_size)
        pbuf = self._priority_buffer(replay, agent_idx)
        indices = pbuf.sample_proportional_indices(
            rng, batch_size, fast_path=self.fast_path
        )
        weights = pbuf.importance_weights(indices, self.beta, fast_path=self.fast_path)
        fields = replay.gather(indices, vectorized=self.fast_path)
        return MiniBatch(
            agents=[AgentBatch.from_fields(f) for f in fields],
            indices=indices,
            weights=weights,
            runs=[],
        )

    def update_priorities(self, replay, agent_idx, batch, td_errors) -> None:
        td = np.abs(np.asarray(td_errors, dtype=np.float64)).ravel()
        if td.shape[0] != batch.indices.shape[0]:
            raise ValueError(
                f"td_errors length {td.shape[0]} != batch size {batch.indices.shape[0]}"
            )
        self._priority_buffer(replay, agent_idx).update_priorities(
            batch.indices, td + 1e-12, fast_path=self.fast_path
        )


class InformationPrioritizedSampler(PrioritizedSampler):
    """Information-prioritized locality-aware sampling (paper §IV-B1).

    Reference points are drawn proportionally to priority; the neighbor
    predictor expands each into a contiguous run whose length grows with
    the reference's normalized priority; Lemma-1 IS weights (computed
    from the reference probabilities, inherited by the run's rows)
    de-bias the weighted TD update.  Expansion continues until the batch
    is full; the final run is truncated to land exactly on ``batch_size``.

    The scalar path pays one tree query per reference (the faithful
    loop).  The fast path draws references in *chunks*: each chunk holds
    ``ceil(remaining / max_neighbors)`` references — few enough that all
    of them are guaranteed to be consumed even if every one predicts the
    maximum neighbor count — so the chunked draw consumes exactly the
    same RNG stream as the one-at-a-time loop, and the resulting runs,
    indices, and weights are identical.
    """

    name = "info_prioritized"

    def __init__(
        self,
        beta: float = 0.4,
        predictor: Optional[ThresholdNeighborPredictor] = None,
        fast_path: bool = False,
    ) -> None:
        super().__init__(beta=beta, fast_path=fast_path)
        self.predictor = predictor if predictor is not None else ThresholdNeighborPredictor()

    def sample(self, replay, rng, batch_size=PAPER_BATCH_SIZE, agent_idx=0) -> MiniBatch:
        self._check(replay, batch_size)
        pbuf = self._priority_buffer(replay, agent_idx)
        size = len(replay)
        if self.fast_path:
            return self._sample_fast(replay, pbuf, rng, batch_size, size)
        runs: List[Run] = []
        ref_indices: List[int] = []
        ref_counts: List[int] = []
        filled = 0
        # draw prioritized references until the batch is exactly full
        while filled < batch_size:
            ref = int(pbuf.sample_proportional_indices(rng, 1)[0])
            norm_priority = float(pbuf.normalized_priorities([ref])[0])
            count = self.predictor.predict(norm_priority)
            count = min(count, batch_size - filled)
            runs.append(Run(ref, count))
            ref_indices.append(ref)
            ref_counts.append(count)
            filled += count
        indices = expand_runs(runs, size)
        # Lemma-1 weights from the reference sampling probabilities,
        # broadcast over each reference's neighbor run.
        ref_probs = pbuf.probabilities(ref_indices)
        ref_weights = importance_weights(ref_probs, size, self.beta)
        weights = np.repeat(ref_weights, ref_counts)
        agents = _gather_runs_concat(replay, runs)
        return MiniBatch(agents=agents, indices=indices, weights=weights, runs=runs)

    def _sample_fast(
        self,
        replay: MultiAgentReplay,
        pbuf: PrioritizedReplayBuffer,
        rng: np.random.Generator,
        batch_size: int,
        size: int,
    ) -> MiniBatch:
        """Chunked reference draws + batched expansion (stream-equivalent)."""
        max_count = self.predictor.max_count
        ref_chunks: List[np.ndarray] = []
        count_chunks: List[np.ndarray] = []
        filled = 0
        while filled < batch_size:
            remaining = batch_size - filled
            # ceil(remaining / max_count) references are always all
            # consumed: even at max_count each, the first chunk-1 of them
            # fill < remaining rows, matching the scalar loop's draws.
            chunk = -(-remaining // max_count)
            refs = pbuf.sample_reference_chunk(rng, chunk)
            norm = pbuf.normalized_priorities(refs, fast_path=True)
            counts = self.predictor.predict_batch(norm).astype(np.int64)
            chunk_fill = int(counts.sum())
            if chunk_fill > remaining:  # only the final reference truncates
                counts[-1] -= chunk_fill - remaining
                chunk_fill = remaining
            ref_chunks.append(refs)
            count_chunks.append(counts)
            filled += chunk_fill
        ref_indices = np.concatenate(ref_chunks)
        ref_counts = np.concatenate(count_chunks)
        runs = [
            Run(int(start), int(count))
            for start, count in zip(ref_indices, ref_counts)
        ]
        indices = expand_run_arrays(ref_indices, ref_counts, size)
        ref_probs = pbuf.probabilities(ref_indices, fast_path=True)
        ref_weights = importance_weights(ref_probs, size, self.beta)
        weights = np.repeat(ref_weights, ref_counts)
        # Runs here are 1-4 rows (the predictor's neighbor counts), so a
        # single fancy-index read over the expanded indices beats per-run
        # slice assembly; the run list still feeds the memsim trace.
        fields = replay.gather(indices, vectorized=True)
        agents = [AgentBatch.from_fields(f) for f in fields]
        return MiniBatch(agents=agents, indices=indices, weights=weights, runs=runs)

    def update_priorities(self, replay, agent_idx, batch, td_errors) -> None:
        """Write |TD| priorities back to every row the batch touched.

        Neighbors receive their own TD-error priority, so an information-
        rich neighborhood keeps attracting reference points while a stale
        one decays — the mechanism that preserves the learning
        distribution (Figure 11).
        """
        super().update_priorities(replay, agent_idx, batch, td_errors)
