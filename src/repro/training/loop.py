"""The end-to-end training loop the paper instruments.

One function, :func:`train`, drives the full CTDE cycle of Figure 1:
action selection → environment step → experience storage → (every
``update_every`` samples) update all trainers — with every stage
accumulated into the trainer's :class:`PhaseTimer`, so the returned
:class:`RunResult` carries both learning curves and the paper's phase
breakdowns.

:func:`train` is **the oracle** — the paper's characterized scalar loop,
one env, one transition stored and at most one update per step — and
stays as written.  :func:`train_steps` is **the default**, the only
step-driven driver: one sweep body over a vector env
(:func:`~repro.training.batched.collect_steps`) whose transitions are
handed off locally (trainer-owned replay, update rounds at the paper's
cadence) or to the sharded replay service, as ``trainer.config`` says.
The local hand-off over a serial env is bit-identical to storing one
transition and updating once at a time.
"""

from __future__ import annotations

import time
import warnings
from contextlib import nullcontext
from typing import Callable, List, Optional

import numpy as np

from ..algos.maddpg import MADDPGTrainer
from ..envs.environment import MultiAgentEnv
from ..telemetry import NULL_RECORDER, TelemetryRecorder
from .batched import ServiceHandoff, collect_steps
from .results import RunResult

__all__ = ["train", "train_steps", "run_episode"]

Callback = Callable[[int, RunResult], None]


def run_episode(
    env: MultiAgentEnv,
    trainer: MADDPGTrainer,
    explore: bool = True,
    learn: bool = True,
) -> List[float]:
    """Play one episode; returns each agent's summed reward.

    With ``learn=True`` transitions are stored and the update cadence is
    honored inside the episode (the reference implementation updates
    mid-episode whenever the sample counter fires).
    """
    obs = env.reset()
    totals = [0.0] * env.num_agents
    done_flags = [False] * env.num_agents
    while not all(done_flags):
        actions = trainer.act(obs, explore=explore)
        next_obs, rewards, done_flags, _ = env.step(actions)
        if learn:
            trainer.experience(obs, actions, rewards, next_obs, done_flags)
            trainer.update()
        for i, r in enumerate(rewards):
            totals[i] += r
        obs = next_obs
    return totals


def train(
    env: MultiAgentEnv,
    trainer: MADDPGTrainer,
    episodes: int,
    variant: str = "baseline",
    env_name: str = "env",
    progress_every: Optional[int] = None,
    callback: Optional[Callback] = None,
    telemetry: Optional[TelemetryRecorder] = None,
) -> RunResult:
    """Train for ``episodes`` episodes and return the instrumented result.

    ``callback(episode_index, partial_result)`` fires after each episode
    (reward logging, early stopping by raising, etc.).

    ``telemetry`` (when given and enabled) streams the run as typed
    records: a :class:`RunManifest` header, every phase as a span, the
    per-episode reward curve as ``episode_reward`` series points, and
    end-of-run counters.
    """
    if episodes <= 0:
        raise ValueError(f"episodes must be positive, got {episodes}")
    if telemetry is not None and telemetry.enabled:
        trainer.attach_telemetry(telemetry)
        telemetry.manifest(
            config=trainer.config,
            label=f"train/{env_name}/{trainer.name}/{variant}",
        )
    result = RunResult(
        algorithm=trainer.name,
        variant=variant,
        env_name=env_name,
        num_agents=env.num_agents,
        episodes=0,
        total_seconds=0.0,
        phase_totals={},
    )
    start = time.perf_counter()
    for episode in range(episodes):
        agent_totals = run_episode(env, trainer, explore=True, learn=True)
        result.episode_rewards.append(float(np.sum(agent_totals)))
        result.agent_rewards.append([float(x) for x in agent_totals])
        result.episodes = episode + 1
        if telemetry is not None:
            telemetry.series("episode_reward", episode, result.episode_rewards[-1])
        if progress_every and (episode + 1) % progress_every == 0:
            elapsed = time.perf_counter() - start
            mean_r = float(np.mean(result.episode_rewards[-progress_every:]))
            print(
                f"[{env_name}/{trainer.name}/{variant}] "
                f"episode {episode + 1}/{episodes} "
                f"mean reward {mean_r:.2f} elapsed {elapsed:.1f}s"
            )
        if callback is not None:
            callback(episode, result)
    result.total_seconds = time.perf_counter() - start
    result.phase_totals = trainer.timer.totals()
    result.update_rounds = trainer.update_rounds
    result.env_steps = trainer.total_env_steps
    if telemetry is not None:
        telemetry.counter("update_rounds", result.update_rounds, unit="rounds")
        telemetry.counter("env_steps", result.env_steps, unit="steps")
        telemetry.counter("total_seconds", result.total_seconds, unit="s")
    return result


def train_steps(
    vec_env,
    trainer: MADDPGTrainer,
    steps: int,
    *,
    variant: str = "pipeline",
    env_name: str = "env",
    explore: bool = True,
    seed: Optional[int] = None,
    telemetry: Optional[TelemetryRecorder] = None,
) -> RunResult:
    """Train over a vector env for ``steps`` lock-step vector sweeps.

    The one step-driven driver: batched collection over K env copies
    (serial or process-parallel — the env decides) with each sweep's
    transitions handed off according to the topology ``trainer.config``
    names.  ``replay_shards == 1 and learners == 1`` is the *local*
    hand-off: ingest into the trainer's own replay, update rounds at the
    paper's cadence.  Any other topology is the *service* hand-off
    (:class:`~repro.training.batched.ServiceHandoff`): the main process
    becomes a pure rollout producer and learner processes update
    free-running off the sharded replay service.

    Prioritized (PER) configs always take the local hand-off: PER's
    sum-tree is one global structure whose draws and priority
    write-backs are interleaved with updates; sharding it (or updating
    off injected batches) would change the sampling distribution.  The
    degradation is explicit: a warning plus a ``service.per_guard``
    telemetry counter.

    ``seed`` seeds what the driver itself draws from: the shard
    servers' / learners' sampling streams.

    The returned :class:`RunResult` reports in ``extra``: transitions
    stored, steps/sec, mean step reward; in service mode the hand-off's
    learner and shard statistics.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    config = trainer.config
    recorder = telemetry if telemetry is not None else NULL_RECORDER
    if recorder.enabled:
        trainer.attach_telemetry(recorder)
        recorder.manifest(
            seed=seed,
            config=config,
            label=f"train_steps/{env_name}/{trainer.name}/{variant}",
        )
    service = config.replay_shards > 1 or config.learners > 1
    if service and trainer.replay.prioritized:
        warnings.warn(
            "prioritized replay routes through the single-shard guard: "
            "PER's global sum-tree cannot shard without changing the "
            "sampling distribution; running the serial in-process loop",
            RuntimeWarning,
            stacklevel=2,
        )
        recorder.counter("service.per_guard", 1.0, unit="runs")
        service = False
    with (
        ServiceHandoff(vec_env, trainer, seed=0 if seed is None else seed)
        if service
        else nullcontext()  # collect_steps' default: LocalHandoff
    ) as handoff:
        start = time.perf_counter()
        stats = collect_steps(vec_env, trainer, steps, explore=explore, handoff=handoff)
    total_seconds = time.perf_counter() - start
    result = RunResult(
        algorithm=trainer.name,
        variant=variant,
        env_name=env_name,
        num_agents=trainer.num_agents,
        episodes=0,
        total_seconds=total_seconds,
        phase_totals=trainer.timer.totals(),
        update_rounds=trainer.update_rounds,
        env_steps=trainer.total_env_steps,
    )
    result.extra["transitions"] = stats["transitions"]
    result.extra["mean_step_reward"] = stats["mean_step_reward"]
    result.extra["steps_per_second"] = stats["transitions"] / max(total_seconds, 1e-12)
    recorder.counter("update_rounds", result.update_rounds, unit="rounds")
    recorder.counter("transitions", result.extra["transitions"], unit="steps")
    recorder.counter(
        "steps_per_second", result.extra["steps_per_second"], unit="steps/s"
    )
    if service:
        result.extra.update(handoff.extra())
        for name, value, unit in handoff.counters():
            recorder.counter(name, value, unit=unit)
    return result
