"""Transition-reuse sampling (AccMER-style, paper related work [43]).

AccMER ("Accelerating Multi-Agent Experience Replay with Cache
Locality-aware Prioritization") attacks the same bottleneck from a
different angle: instead of making each gather cheaper, it *reuses* the
gathered mini-batch for a window of ``w`` consecutive update rounds,
amortizing the data movement.  The paper cites it as the
prioritized-workload comparator; this module implements the mechanism
as a composable wrapper so it can be benchmarked against (and stacked
with) the paper's locality optimizations.

Semantics: per drawing agent, the wrapped sampler is invoked on the
first call and every ``window`` calls thereafter; intermediate calls
return the cached batch.  Priority write-backs pass through on every
call, so the priorities of a reused batch keep tracking its TD errors.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..buffers.multi_agent import MultiAgentReplay
from .batch import MiniBatch
from .samplers import PAPER_BATCH_SIZE, Sampler

__all__ = ["ReuseWindowSampler"]


class ReuseWindowSampler(Sampler):
    """Serve each drawn mini-batch for ``window`` consecutive rounds.

    Parameters
    ----------
    base:
        The sampler that actually draws fresh batches (uniform,
        cache-aware, PER, information-prioritized — all compose).
    window:
        Rounds each batch is served for; ``window=1`` degenerates to
        the base sampler.
    """

    def __init__(self, base: Sampler, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.base = base
        self.window = window
        self._cache: Dict[Tuple[int, int], MiniBatch] = {}
        self._calls: Dict[int, int] = {}
        self.fresh_draws = 0
        self.reused_serves = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"reuse_w{self.window}[{self.base.name}]"

    @property
    def requires_priorities(self) -> bool:  # type: ignore[override]
        return self.base.requires_priorities

    def set_beta(self, beta: float) -> None:
        self.base.set_beta(beta)

    def set_fast_path(self, enabled: bool) -> None:
        """Fast-path toggle passes through to the wrapped sampler."""
        self.base.set_fast_path(enabled)
        self.fast_path = bool(enabled)

    def sample(
        self,
        replay: MultiAgentReplay,
        rng: np.random.Generator,
        batch_size: int = PAPER_BATCH_SIZE,
        agent_idx: int = 0,
    ) -> MiniBatch:
        calls = self._calls.get(agent_idx, 0)
        key = (agent_idx, batch_size)
        cached: Optional[MiniBatch] = self._cache.get(key)
        if cached is None or calls % self.window == 0:
            cached = self.base.sample(replay, rng, batch_size, agent_idx=agent_idx)
            self._cache[key] = cached
            self.fresh_draws += 1
        else:
            self.reused_serves += 1
        self._calls[agent_idx] = calls + 1
        return cached

    def update_priorities(self, replay, agent_idx, batch, td_errors) -> None:
        """Forward priority updates to the base sampler every round."""
        self.base.update_priorities(replay, agent_idx, batch, td_errors)

    @property
    def reuse_ratio(self) -> float:
        """Fraction of serves that avoided a fresh gather."""
        total = self.fresh_draws + self.reused_serves
        return self.reused_serves / total if total else 0.0
