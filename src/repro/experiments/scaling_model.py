"""Empirical validation of the paper's complexity claims.

Paper §III: "the time complexity to collect the transition set is
O(N^2 B)" for the baseline and §IV-B2: the layout reorganization takes
it to O(m) per trainer (O(N B) per round).  This module fits measured
sampling times to candidate complexity models and reports which fits
best — turning the asymptotic claim into a measured, falsifiable one.

Fitting is ordinary least squares on the model's design matrix; quality
is compared via R^2 (all candidates have two parameters, so no
complexity penalty is needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..buffers.multi_agent import MultiAgentReplay
from ..core.layout import LayoutReorganizer
from ..core.samplers import Sampler, UniformSampler
from .counters_study import env_obs_dims
from .microbench import fill_replay, time_layout_round, time_sampler_round

__all__ = ["ComplexityFit", "fit_complexity", "measure_sampling_scaling"]

#: candidate models: name -> feature(N) for time ~ a + b * feature(N)
CANDIDATE_MODELS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "O(N)": lambda n: n.astype(float),
    "O(N log N)": lambda n: n * np.log2(np.maximum(n, 2)),
    "O(N^2)": lambda n: n.astype(float) ** 2,
    "O(N^3)": lambda n: n.astype(float) ** 3,
}


@dataclass(frozen=True)
class ComplexityFit:
    """Result of fitting measured times against the candidate models."""

    best_model: str
    r_squared: Dict[str, float]
    coefficients: Dict[str, Tuple[float, float]]  # model -> (a, b)

    def render(self) -> str:
        parts = [f"best fit: {self.best_model}"]
        for model, r2 in sorted(self.r_squared.items(), key=lambda kv: -kv[1]):
            parts.append(f"{model}: R^2={r2:.4f}")
        return "; ".join(parts)


def fit_complexity(
    agent_counts: Sequence[int], seconds: Sequence[float]
) -> ComplexityFit:
    """Fit ``time ~ a + b * f(N)`` for each candidate f and rank by R^2."""
    n = np.asarray(list(agent_counts), dtype=np.float64)
    t = np.asarray(list(seconds), dtype=np.float64)
    if n.size != t.size:
        raise ValueError("agent_counts and seconds must align")
    if n.size < 3:
        raise ValueError("need at least 3 scales to distinguish complexities")
    if np.any(t <= 0):
        raise ValueError("measured seconds must be positive")
    total_var = float(np.sum((t - t.mean()) ** 2))
    if total_var <= 0:
        raise ValueError("measurements are constant; nothing to fit")
    r_squared: Dict[str, float] = {}
    coefficients: Dict[str, Tuple[float, float]] = {}
    for name, feature in CANDIDATE_MODELS.items():
        x = feature(n)
        design = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(design, t, rcond=None)
        residual = t - design @ coef
        r_squared[name] = 1.0 - float(np.sum(residual**2)) / total_var
        coefficients[name] = (float(coef[0]), float(coef[1]))
    best = max(r_squared, key=r_squared.get)
    return ComplexityFit(best_model=best, r_squared=r_squared, coefficients=coefficients)


def measure_sampling_scaling(
    agent_counts: Sequence[int],
    batch_size: int = 256,
    rows: int = 4096,
    rounds: int = 2,
    env_name: str = "predator_prey",
    layout: bool = False,
    sampler_factory: Callable[[], Sampler] = UniformSampler,
    seed: int = 0,
    fixed_obs_dim: int = 0,
    repetitions: int = 1,
) -> List[float]:
    """Measure full-round sampling seconds at each agent count.

    ``layout=True`` measures the timestep-major O(m) path (reshaping
    excluded — the asymptotic claim concerns the gather itself).
    ``fixed_obs_dim > 0`` pins every agent's record width regardless of
    N, isolating the *lookup-count* complexity the paper states (with
    env-faithful dims, byte volume adds an extra O(N) factor because
    observations widen with the agent count).  ``repetitions > 1`` takes
    the minimum of repeated measurements (the stable location estimate
    for wall-clock timings on a shared core).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    out: List[float] = []
    rng = np.random.default_rng(seed)
    for n in agent_counts:
        obs_dims = (
            [fixed_obs_dim] * n if fixed_obs_dim else env_obs_dims(env_name, n)
        )
        replay = MultiAgentReplay(obs_dims, [5] * n, capacity=rows)
        fill_replay(replay, np.random.default_rng(seed + n), rows)
        samples = []
        for _ in range(repetitions):
            if layout:
                timing = time_layout_round(
                    LayoutReorganizer(replay),
                    rng,
                    batch_size,
                    rounds=rounds,
                    include_reshape=False,
                )
            else:
                timing = time_sampler_round(
                    sampler_factory(), replay, rng, batch_size, rounds=rounds
                )
            samples.append(timing.seconds)
        out.append(min(samples))
    return out
