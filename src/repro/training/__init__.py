"""Training harness: loop, evaluation, seeding, and run results."""

from .batched import collect_steps
from .evaluation import CurveComparison, compare_curves
from .loop import run_episode, train, train_steps
from .metrics import EpisodeMetrics, MetricsCollector, run_episode_with_metrics
from .results import RunResult, smooth_curve
from .seeding import SeedBundle, derive_seeds

__all__ = [
    "train",
    "train_steps",
    "run_episode",
    "collect_steps",
    "MetricsCollector",
    "EpisodeMetrics",
    "run_episode_with_metrics",
    "compare_curves",
    "CurveComparison",
    "RunResult",
    "smooth_curve",
    "SeedBundle",
    "derive_seeds",
]
