"""Experiment runner: WorkloadSpec -> instrumented RunResult.

Wires together the environment registry, trainer variants, seeding, and
the training loop so every bench regenerates its figure from one call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..algos.variants import build_trainer
from ..envs.registry import make
from ..training.loop import train
from ..training.results import RunResult
from ..training.seeding import derive_seeds
from .workloads import WorkloadSpec

__all__ = ["run_workload", "build_workload"]


def build_workload(spec: WorkloadSpec):
    """Construct (env, trainer) for a spec without training."""
    seeds = derive_seeds(spec.seed)
    env = make(
        spec.env_name,
        num_agents=spec.num_agents,
        seed=seeds.env,
        max_episode_len=spec.config.max_episode_len,
    )
    trainer = build_trainer(
        spec.algorithm,
        spec.variant,
        env.obs_dims,
        env.act_dims,
        config=spec.config,
        seed=seeds.trainer,
    )
    if spec.prefill_rows:
        from .microbench import fill_replay

        fill_replay(trainer.replay, np.random.default_rng(seeds.sampler), spec.prefill_rows)
    return env, trainer


def run_workload(
    spec: WorkloadSpec,
    progress_every: Optional[int] = None,
    telemetry=None,
) -> RunResult:
    """Train one workload cell end to end and return its result.

    ``telemetry`` (a :class:`~repro.telemetry.TelemetryRecorder`) streams
    the run's manifest, spans, and reward series into its sink.
    """
    env, trainer = build_workload(spec)
    return train(
        env,
        trainer,
        episodes=spec.episodes,
        variant=spec.variant,
        env_name=spec.env_name,
        progress_every=progress_every,
        telemetry=telemetry,
    )
