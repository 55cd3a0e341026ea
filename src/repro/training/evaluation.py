"""Curve-comparison utilities.

Supports the paper's learning-quality claims: Figure 10/11 compare the
*shape* of reward curves between baseline and optimized samplers.  The
comparison helpers quantify that visually-judged equivalence (final
smoothed score gap, curve area gap) so the test suite and benches can
assert "preserves the mean scores" mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .results import RunResult, smooth_curve

__all__ = ["CurveComparison", "compare_curves"]


@dataclass(frozen=True)
class CurveComparison:
    """Quantified gap between two reward curves."""

    final_gap: float  # |smoothed final score difference|
    final_gap_relative: float  # gap / |baseline range|
    area_gap_relative: float  # normalized area between the curves

    def equivalent(self, tolerance: float = 0.25) -> bool:
        """True when the optimized curve tracks the baseline within
        ``tolerance`` of the baseline's score range — the mechanical
        version of the paper's "preserving the mean scores"."""
        return (
            self.final_gap_relative <= tolerance
            and self.area_gap_relative <= tolerance
        )


def compare_curves(
    baseline: RunResult,
    optimized: RunResult,
    window: int = 100,
    tail: Optional[int] = None,
) -> CurveComparison:
    """Compare two runs' smoothed reward curves.

    ``tail`` restricts the comparison to the last K episodes (converged
    region); curves are truncated to the shorter run.
    """
    b = baseline.reward_curve(window=window)
    o = optimized.reward_curve(window=window)
    n = min(b.size, o.size)
    if n == 0:
        raise ValueError("cannot compare empty reward curves")
    b, o = b[:n], o[:n]
    if tail is not None:
        if tail <= 0:
            raise ValueError(f"tail must be positive, got {tail}")
        b, o = b[-tail:], o[-tail:]
    score_range = float(b.max() - b.min())
    scale = max(score_range, abs(float(b.mean())), 1e-9)
    final_gap = abs(float(b[-1] - o[-1]))
    area_gap = float(np.mean(np.abs(b - o)))
    return CurveComparison(
        final_gap=final_gap,
        final_gap_relative=final_gap / scale,
        area_gap_relative=area_gap / scale,
    )
