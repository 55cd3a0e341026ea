"""Task-level episode metrics from scenario benchmark data.

Beyond reward curves, the paper's tasks have natural success metrics:
predator *catch counts* (collisions with prey) in predator-prey and
*landmark coverage* in cooperative navigation.  The collector consumes
the ``info["n"]`` benchmark dictionaries the environments emit each
step and aggregates per-episode statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["EpisodeMetrics", "MetricsCollector"]


@dataclass
class EpisodeMetrics:
    """Aggregated task metrics for one episode."""

    steps: int = 0
    total_collisions: int = 0
    final_coverage: Optional[float] = None
    per_agent_collisions: List[int] = field(default_factory=list)

    @property
    def collisions_per_step(self) -> float:
        return self.total_collisions / self.steps if self.steps else 0.0


class MetricsCollector:
    """Accumulate scenario benchmark data across steps and episodes."""

    def __init__(self) -> None:
        self.episodes: List[EpisodeMetrics] = []
        self._current: Optional[EpisodeMetrics] = None

    def start_episode(self, num_agents: int) -> None:
        """Begin collecting a new episode."""
        self._current = EpisodeMetrics(per_agent_collisions=[0] * num_agents)

    def record_step(self, info: Dict) -> None:
        """Consume one ``info`` dict from ``env.step``."""
        if self._current is None:
            raise RuntimeError("record_step called before start_episode")
        entries: Sequence[Optional[dict]] = info.get("n", [])
        self._current.steps += 1
        for agent_idx, entry in enumerate(entries):
            if not entry:
                continue
            collisions = int(entry.get("collisions", 0))
            self._current.total_collisions += collisions
            if agent_idx < len(self._current.per_agent_collisions):
                self._current.per_agent_collisions[agent_idx] += collisions
            if "coverage" in entry:
                self._current.final_coverage = float(entry["coverage"])

    def end_episode(self) -> EpisodeMetrics:
        """Close the current episode and return its metrics."""
        if self._current is None:
            raise RuntimeError("end_episode called before start_episode")
        episode = self._current
        self.episodes.append(episode)
        self._current = None
        return episode

    # -- aggregates ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.episodes)

    def mean_collisions(self) -> float:
        """Mean total collisions per episode (predator catch metric)."""
        if not self.episodes:
            raise ValueError("no episodes recorded")
        return float(np.mean([e.total_collisions for e in self.episodes]))

    def mean_coverage(self) -> float:
        """Mean final coverage per episode (CN success metric; 0 is best)."""
        values = [
            e.final_coverage for e in self.episodes if e.final_coverage is not None
        ]
        if not values:
            raise ValueError("no coverage data recorded (not a cooperative task?)")
        return float(np.mean(values))

    def summary(self) -> Dict[str, float]:
        """All available aggregates as one dict."""
        out: Dict[str, float] = {
            "episodes": float(len(self.episodes)),
            "mean_collisions": self.mean_collisions() if self.episodes else 0.0,
        }
        try:
            out["mean_coverage"] = self.mean_coverage()
        except ValueError:
            pass
        return out


def run_episode_with_metrics(env, trainer, collector: MetricsCollector, explore=True, learn=True):
    """Like :func:`repro.training.loop.run_episode` but feeding a collector."""
    obs = env.reset()
    collector.start_episode(env.num_agents)
    totals = [0.0] * env.num_agents
    done_flags = [False] * env.num_agents
    while not all(done_flags):
        actions = trainer.act(obs, explore=explore)
        next_obs, rewards, done_flags, info = env.step(actions)
        collector.record_step(info)
        if learn:
            trainer.experience(obs, actions, rewards, next_obs, done_flags)
            trainer.update()
        for i, r in enumerate(rewards):
            totals[i] += r
        obs = next_obs
    collector.end_episode()
    return totals
