"""Experiment harness: the paper's evaluation matrix, runners, and exhibits."""

from .counters_study import CounterProfile, env_obs_dims, simulate_sampling_counters
from .figures import (
    ReductionRow,
    Table1Row,
    breakdown_row,
    reduction_rows,
    render_rows,
    table1_rows,
)
from .microbench import (
    SamplingTiming,
    fill_replay,
    time_layout_round,
    time_sampler_round,
)
from .report import generate_report
from .runner import build_workload, run_workload
from .scaling_model import ComplexityFit, fit_complexity, measure_sampling_scaling
from .workloads import (
    PAPER_AGENT_COUNTS,
    PAPER_EPISODES,
    SCALABILITY_AGENT_COUNTS,
    WorkloadSpec,
)

__all__ = [
    "WorkloadSpec",
    "PAPER_AGENT_COUNTS",
    "PAPER_EPISODES",
    "SCALABILITY_AGENT_COUNTS",
    "run_workload",
    "build_workload",
    "fill_replay",
    "time_sampler_round",
    "time_layout_round",
    "SamplingTiming",
    "simulate_sampling_counters",
    "CounterProfile",
    "env_obs_dims",
    "table1_rows",
    "Table1Row",
    "breakdown_row",
    "reduction_rows",
    "ReductionRow",
    "render_rows",
    "generate_report",
    "fit_complexity",
    "ComplexityFit",
    "measure_sampling_scaling",
]
