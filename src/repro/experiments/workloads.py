"""Named workload specifications: the paper's evaluation matrix.

The paper evaluates {MADDPG, MATD3} x {Predator-Prey, Cooperative
Navigation} x {3, 6, 12, 24} agents (plus 48 in the scalability study),
trained for 60,000 episodes.  A :class:`WorkloadSpec` pins one cell of
that matrix plus a sampling variant; benches instantiate specs at
laptop-scale episode counts and extrapolate where the paper's absolute
numbers are quoted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..algos.config import MARLConfig

__all__ = [
    "WorkloadSpec",
    "PAPER_AGENT_COUNTS",
    "PAPER_EPISODES",
    "SCALABILITY_AGENT_COUNTS",
]

#: Agent counts of the main evaluation (Figures 2/3/8/9, Table I).
PAPER_AGENT_COUNTS = (3, 6, 12, 24)

#: Agent counts of the scalability study (Figure 6).
SCALABILITY_AGENT_COUNTS = (3, 6, 12, 24, 48)

#: Paper §V: "The workloads are trained for 60K episodes."
PAPER_EPISODES = 60_000


@dataclass(frozen=True)
class WorkloadSpec:
    """One cell of the evaluation matrix."""

    algorithm: str = "maddpg"
    env_name: str = "predator_prey"
    num_agents: int = 3
    variant: str = "baseline"
    episodes: int = PAPER_EPISODES
    seed: int = 0
    config: MARLConfig = field(default_factory=MARLConfig)
    #: synthetic rows inserted before training so short bench runs hit
    #: the update cadence immediately (0 = paper-faithful cold start)
    prefill_rows: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ("maddpg", "matd3"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.num_agents < 1:
            raise ValueError(f"num_agents must be >= 1, got {self.num_agents}")
        if self.episodes <= 0:
            raise ValueError(f"episodes must be positive, got {self.episodes}")
        if self.prefill_rows < 0:
            raise ValueError(f"prefill_rows must be >= 0, got {self.prefill_rows}")

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``maddpg/predator_prey/6/baseline``."""
        return f"{self.algorithm}/{self.env_name}/{self.num_agents}/{self.variant}"

    def scaled(
        self,
        episodes: Optional[int] = None,
        **config_overrides,
    ) -> "WorkloadSpec":
        """Laptop-scale copy: fewer episodes and/or smaller config knobs."""
        new_config = (
            self.config.scaled(**config_overrides) if config_overrides else self.config
        )
        return replace(
            self,
            episodes=episodes if episodes is not None else self.episodes,
            config=new_config,
        )
