"""Training-time breakdowns in the paper's Figure 2 / 3 / 6 formats.

Consumes a :class:`~repro.profiling.timers.PhaseTimer` populated by an
instrumented training run and produces the percentage splits the paper
plots: end-to-end (action selection / update all trainers / other) and
within-update (sampling / target Q / Q loss + P loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from .phases import (
    ACTION_SELECTION,
    ENV_STEP,
    LOSS_UPDATE,
    SAMPLING,
    TARGET_Q,
    UPDATE_ALL_TRAINERS,
    UPDATE_SUBPHASES,
)
from .timers import PhaseTimer

__all__ = ["EndToEndBreakdown", "UpdateBreakdown", "end_to_end_breakdown", "update_breakdown"]


@dataclass(frozen=True)
class EndToEndBreakdown:
    """Figure-2-style split of total training time (percent)."""

    total_seconds: float
    action_selection_pct: float
    update_all_trainers_pct: float
    other_pct: float
    #: the part of ``other`` spent stepping the environment; 0 when the
    #: driver recorded no ``env_step`` phase (the oracle episode loop).
    #: Not one of the paper's three bars, so not in :meth:`as_dict`.
    env_step_pct: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "total_seconds": self.total_seconds,
            ACTION_SELECTION: self.action_selection_pct,
            UPDATE_ALL_TRAINERS: self.update_all_trainers_pct,
            "other": self.other_pct,
        }

    def render(self) -> str:
        env_step = f" (env step {self.env_step_pct:.1f}%)" if self.env_step_pct else ""
        return (
            f"total {self.total_seconds:.2f}s | "
            f"action selection {self.action_selection_pct:.1f}% | "
            f"update all trainers {self.update_all_trainers_pct:.1f}% | "
            f"other {self.other_pct:.1f}%{env_step}"
        )


@dataclass(frozen=True)
class UpdateBreakdown:
    """Figure-3-style split within update all trainers (percent)."""

    update_seconds: float
    sampling_pct: float
    target_q_pct: float
    loss_pct: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "update_seconds": self.update_seconds,
            SAMPLING: self.sampling_pct,
            TARGET_Q: self.target_q_pct,
            LOSS_UPDATE: self.loss_pct,
        }

    def render(self) -> str:
        return (
            f"update {self.update_seconds:.2f}s | "
            f"sampling {self.sampling_pct:.1f}% | "
            f"target Q {self.target_q_pct:.1f}% | "
            f"Q loss + P loss {self.loss_pct:.1f}%"
        )


def _update_total(totals: Mapping[str, float]) -> float:
    """Update-all-trainers total: the parent phase if timed, else the sum."""
    parent = totals.get(UPDATE_ALL_TRAINERS, 0.0)
    if parent > 0:
        return parent
    return sum(
        totals.get(f"{UPDATE_ALL_TRAINERS}.{sub}", 0.0) for sub in UPDATE_SUBPHASES
    )


def end_to_end_breakdown(timer: PhaseTimer, total_seconds: float) -> EndToEndBreakdown:
    """Compute the Figure-2 split given the run's wall-clock total.

    ``other`` is the remainder of ``total_seconds`` not attributed to
    action selection or update-all-trainers — environment stepping,
    buffer writes, episode bookkeeping — matching the paper's "other
    segments" bar.
    """
    if total_seconds <= 0:
        raise ValueError(f"total_seconds must be positive, got {total_seconds}")
    totals = timer.totals()
    action = totals.get(ACTION_SELECTION, 0.0)
    update = _update_total(totals)
    attributed = action + update
    if attributed > total_seconds * 1.001:
        raise ValueError(
            f"attributed phase time {attributed:.3f}s exceeds total "
            f"{total_seconds:.3f}s; timer and total disagree"
        )
    other = max(total_seconds - attributed, 0.0)
    return EndToEndBreakdown(
        total_seconds=total_seconds,
        action_selection_pct=action / total_seconds * 100.0,
        update_all_trainers_pct=update / total_seconds * 100.0,
        other_pct=other / total_seconds * 100.0,
        env_step_pct=totals.get(ENV_STEP, 0.0) / total_seconds * 100.0,
    )


def update_breakdown(timer: PhaseTimer, compute_scale: float = 1.0) -> UpdateBreakdown:
    """Compute the Figure-3 split from the update sub-phase timers.

    ``compute_scale`` rescales the network-bound sub-phases (target Q and
    loss updates) before computing percentages.  The paper runs those
    phases on a GPU while this reproduction's substrate is numpy-on-CPU;
    passing the platform model's GPU/CPU compute-time ratio (see
    :func:`repro.platform.estimate.update_round_workload` +
    :func:`repro.platform.model.project`) yields the paper's CTDE-on-GPU
    phase shape from the measured CPU timings.  ``1.0`` reports the raw
    measured split.
    """
    if compute_scale <= 0:
        raise ValueError(f"compute_scale must be positive, got {compute_scale}")
    totals = timer.totals()
    sampling = totals.get(f"{UPDATE_ALL_TRAINERS}.{SAMPLING}", 0.0)
    target_q = totals.get(f"{UPDATE_ALL_TRAINERS}.{TARGET_Q}", 0.0) * compute_scale
    loss = totals.get(f"{UPDATE_ALL_TRAINERS}.{LOSS_UPDATE}", 0.0) * compute_scale
    denom = sampling + target_q + loss
    if denom <= 0:
        raise ValueError("no update-all-trainers sub-phase time recorded")
    update_seconds = (
        _update_total(totals) if compute_scale == 1.0 else sampling + target_q + loss
    )
    return UpdateBreakdown(
        update_seconds=update_seconds,
        sampling_pct=sampling / denom * 100.0,
        target_q_pct=target_q / denom * 100.0,
        loss_pct=loss / denom * 100.0,
    )


def gpu_compute_scale(
    obs_dims,
    act_dims,
    batch_size: int,
    platform=None,
    cpu_gflops_measured: float = 8.0,
) -> float:
    """GPU/CPU time ratio for the network-bound update sub-phases.

    Derived from the platform cost model: the same FLOP volume timed on
    the modeled GPU (compute + transfer + per-call overhead) divided by
    its time on the measured CPU substrate.  ``cpu_gflops_measured`` is
    the effective numpy throughput of the reproduction host (small-matrix
    GEMMs run far below peak); the default is deliberately conservative.
    """
    from ..platform.estimate import update_round_workload
    from ..platform.presets import RTX3090_RYZEN

    platform = platform if platform is not None else RTX3090_RYZEN
    if cpu_gflops_measured <= 0:
        raise ValueError("cpu_gflops_measured must be positive")
    work = update_round_workload(list(obs_dims), list(act_dims), batch_size)
    cpu_seconds = work.network_flops / (cpu_gflops_measured * 1e9)
    gpu_seconds = (
        work.network_flops / (platform.gpu_gflops * 1e9)
        + work.transfer_bytes / (platform.pcie_gbps * 1e9)
        + work.framework_calls * platform.gpu_call_overhead_s
    )
    return max(min(gpu_seconds / cpu_seconds, 1.0), 1e-3)
