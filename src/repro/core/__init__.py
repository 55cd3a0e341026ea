"""The paper's primary contribution: optimized mini-batch sampling.

Exports the four sampling strategies (uniform baseline, cache-locality-
aware, PER, information-prioritized locality-aware), the neighbor
predictor, Lemma-1 importance weights, and the transition-data layout
reorganizer.
"""

from .batch import AgentBatch, MiniBatch
from .importance import BetaSchedule, importance_weights
from .indices import Run, expand_runs, reference_points, runs_from_references, uniform_indices
from .layout import LayoutReorganizer
from .reuse import ReuseWindowSampler
from .neighbor_predictor import (
    PAPER_NEIGHBOR_COUNTS,
    PAPER_THRESHOLDS,
    ThresholdNeighborPredictor,
)
from .samplers import (
    PAPER_BATCH_SIZE,
    CacheAwareSampler,
    InformationPrioritizedSampler,
    PrioritizedSampler,
    Sampler,
    UniformSampler,
)

__all__ = [
    "Sampler",
    "UniformSampler",
    "CacheAwareSampler",
    "PrioritizedSampler",
    "InformationPrioritizedSampler",
    "ReuseWindowSampler",
    "PAPER_BATCH_SIZE",
    "ThresholdNeighborPredictor",
    "PAPER_THRESHOLDS",
    "PAPER_NEIGHBOR_COUNTS",
    "importance_weights",
    "BetaSchedule",
    "LayoutReorganizer",
    "MiniBatch",
    "AgentBatch",
    "Run",
    "uniform_indices",
    "reference_points",
    "runs_from_references",
    "expand_runs",
]
