"""Batched experience collection over vectorized environments.

:func:`collect_steps` is the one sweep body of the step-driven driver:
action selection runs ONE batched actor forward per agent for all K
copies (amortizing the phase the paper offloads to the GPU), the vector
env (whatever :func:`~repro.envs.factory.make_vector_env` built: the
array program :class:`~repro.envs.batched.BatchedVectorEnv`, its object
oracle :class:`~repro.envs.vector.SyncVectorEnv`, or the process-parallel
:class:`~repro.envs.parallel.ParallelVectorEnv`) advances every copy,
and the sweep's K transitions are handed off as the per-agent field
stacks ``(obs, act, rew, next_obs, done)`` — the one shape a sweep takes
between a vector env and a hand-off.  Two hand-offs exist:

* :class:`LocalHandoff` — ingest into the trainer's own replay through
  :meth:`~repro.algos.maddpg.MADDPGTrainer.experience_batch`, chunked
  at update-trigger boundaries, so the replay contents, the update
  cadence, and every RNG draw are identical to the
  K-sequential-``experience``-calls stream — without K Python-level
  buffer round-trips per step.
* :class:`ServiceHandoff` — pack the sweep into joint-schema rows, push
  them to the :class:`~repro.replay.service.ReplayShardService`, whose L
  learner processes update free-running, and refresh the rollout actors
  from the :class:`~repro.replay.params.SharedParameterStore` under the
  configured staleness bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..algos.maddpg import MADDPGTrainer
from ..profiling.phases import ACTION_SELECTION, ENV_STEP, PARAM_REFRESH, SERVICE_PUSH
from ..replay.coordinator import MultiLearnerCoordinator
from ..replay.params import ParameterSubscriber, SharedParameterStore, agent_param_arrays
from ..replay.service import ReplayShardService

__all__ = ["collect_steps", "LocalHandoff", "ServiceHandoff"]

#: one sweep's K transitions: the per-agent ``(obs, act, rew, next_obs,
#: done)`` field stacks
SweepBatch = Tuple[List[np.ndarray], ...]


def _ingest_chunk_bounds(trainer: MADDPGTrainer, total: int, pos: int) -> int:
    """Rows until the next possible update-trigger point.

    An update fires once ``steps_since_update`` reaches ``update_every``
    AND the buffer holds a full warm-up; both gates advance one row at a
    time, so the next trigger is computable in closed form and the rows
    in between can be written in one vectorized batch.
    """
    config = trainer.config
    need = max(config.warmup, config.batch_size)
    until_cadence = config.update_every - trainer.steps_since_update
    until_fill = need - len(trainer.replay)
    return min(total - pos, max(until_cadence, until_fill, 1))


class LocalHandoff:
    """Store each sweep in the trainer's replay and update at the paper's
    cadence — exactly where the sequential store-one/update-once loop
    would."""

    def __init__(self, trainer: MADDPGTrainer) -> None:
        self.trainer = trainer

    def __call__(self, sweep: int, batch: SweepBatch) -> int:
        trainer = self.trainer
        total = batch[2][0].shape[0]
        pos = 0
        while pos < total:
            end = pos + _ingest_chunk_bounds(trainer, total, pos)
            trainer.experience_batch(
                *([x[pos:end] for x in field] for field in batch)
            )
            trainer.update()
            pos = end
        return total


class ServiceHandoff:
    """Push each sweep to the sharded replay service; learners update.

    A context manager owning the service topology read from
    ``trainer.config``: ``replay_shards`` shard servers, ``learners``
    learner processes over disjoint agent partitions, and the rollout
    actors' subscription to the parameter store, re-polled every
    ``param_staleness`` sweeps.  Leaving the context stops the learners,
    merges their parameters, round counts and ``learner.*`` phase totals
    into the trainer, and releases every shared-memory segment.
    """

    def __init__(self, vec_env, trainer: MADDPGTrainer, seed: int = 0) -> None:
        config = trainer.config
        self.trainer = trainer
        self.staleness = config.param_staleness
        self.service = ReplayShardService(
            trainer.obs_dims,
            trainer.act_dims,
            capacity=config.buffer_capacity,
            num_shards=config.replay_shards,
            num_clients=min(config.learners, trainer.num_agents),
            max_push=max(vec_env.num_envs, 1),
            max_batch=config.batch_size,
            seed=seed,
        )
        self.store = SharedParameterStore.for_agents(trainer.agents)
        self.coordinator = MultiLearnerCoordinator(
            trainer, self.service, self.store, config.learners, seed=seed + 1
        )
        # the producer's own actor copies refresh from the same store the
        # learners publish into — every agent is a subscribed partition
        self.subscriber = ParameterSubscriber(
            self.store,
            {p: agent_param_arrays(agent) for p, agent in enumerate(trainer.agents)},
        )
        self.merge: Optional[Dict] = None
        self.shard_stats: List[Dict] = []

    def __enter__(self) -> "ServiceHandoff":
        try:
            self.coordinator.start()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __call__(self, sweep: int, batch: SweepBatch) -> int:
        trainer = self.trainer
        rows = trainer.replay.schema.pack_batch(*batch)
        with trainer.timer.phase(SERVICE_PUSH):
            pushed = self.service.push(rows)
        trainer.total_env_steps += pushed
        if (sweep + 1) % self.staleness == 0:
            with trainer.timer.phase(PARAM_REFRESH):
                self.subscriber.poll()
            trainer.telemetry.series(
                "param.staleness", sweep, float(self.subscriber.staleness[-1])
            )
        return pushed

    def __exit__(self, *exc) -> None:
        try:
            if self.coordinator.started:
                self.merge = self.coordinator.stop()
            # one last refresh so the subscriber's applied-version
            # bookkeeping stays consistent with the final merged nets
            self.subscriber.poll()
            self.shard_stats = self.service.stats()
        finally:
            self.service.close()
            self.store.close()

    def extra(self) -> Dict[str, float]:
        """The service's ``RunResult.extra`` entries (after the run)."""
        merge = self.merge
        out = {
            "replay_shards": float(self.service.num_shards),
            "learners": float(self.coordinator.num_learners),
            "learner_rounds": float(merge["rounds"]),
            "sampled_rows": float(merge["rows_pulled"]),
            "sampled_rows_per_s": float(merge["sampled_rows_per_s"]),
            "learner_utilization": float(merge["utilization"]),
            "staleness_mean": float(merge["staleness_mean"]),
            "staleness_max": float(merge["staleness_max"]),
        }
        for stats in self.shard_stats:
            out[f"shard{stats['shard']}_ingested"] = float(stats["ingested"])
            out[f"shard{stats['shard']}_sampled"] = float(stats["sampled"])
        return out

    def counters(self) -> List[Tuple[str, float, str]]:
        """The service's telemetry counters as ``(name, value, unit)``."""
        merge = self.merge
        out = [
            ("service.shards", float(self.service.num_shards), "shards"),
            ("service.learners", float(self.coordinator.num_learners), "learners"),
            ("service.sampled_rows_per_s", float(merge["sampled_rows_per_s"]), "rows/s"),
            ("service.learner_utilization", float(merge["utilization"]), "fraction"),
            ("service.staleness_max", float(merge["staleness_max"]), "versions"),
        ]
        for stats in self.shard_stats:
            prefix = f"service.shard{stats['shard']}"
            out.append((f"{prefix}.ingested", float(stats["ingested"]), "rows"))
            out.append((f"{prefix}.sampled", float(stats["sampled"]), "rows"))
            out.append((f"{prefix}.queue_peak", float(stats["queue_peak"]), "requests"))
        return out


def collect_steps(
    vec_env,
    trainer: MADDPGTrainer,
    steps: int,
    explore: bool = True,
    learn: bool = True,
    handoff=None,
) -> Dict[str, float]:
    """Advance all K copies ``steps`` times with batched action selection.

    Accepts any vector env with the ``SyncVectorEnv`` API; a
    :class:`~repro.envs.parallel.ParallelVectorEnv` additionally gets its
    worker-wait time attributed (``env_step.worker_wait``).  Each
    sweep's transitions go to ``handoff(sweep, batch)`` — by default a
    :class:`LocalHandoff`, or nowhere with ``learn=False``.  Returns
    collection statistics: transitions handed off, update rounds run,
    and the mean per-step reward across copies and agents.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if hasattr(vec_env, "attach_timer"):
        vec_env.attach_timer(trainer.timer)
    if hasattr(vec_env, "attach_telemetry"):
        vec_env.attach_telemetry(trainer.telemetry)
    if handoff is None and learn:
        handoff = LocalHandoff(trainer)
    obs = vec_env.reset()
    num_agents = vec_env.num_agents
    rewards_sum = 0.0
    updates_before = trainer.update_rounds
    stored = 0
    for sweep in range(steps):
        # one batched forward per agent covers all K copies
        with trainer.timer.phase(ACTION_SELECTION):
            actions: List[np.ndarray] = [
                trainer.agents[a].act(obs[a], rng=trainer.rng, explore=explore)
                for a in range(num_agents)
            ]
        with trainer.timer.phase(ENV_STEP):
            next_obs, rewards, dones, _infos = vec_env.step(actions)
        rewards_sum += float(rewards.mean())
        if handoff is not None:
            # per-agent (K, .) stacks; `obs` is the pre-step observation
            # (post-reset on copies that terminated last step).  On
            # auto-reset steps the stacked next_obs is the post-reset
            # observation; the stored next_obs uses the terminal flag
            # so the bootstrap is cut there anyway.
            batch = (
                [np.asarray(obs[a]) for a in range(num_agents)],
                [np.asarray(actions[a]) for a in range(num_agents)],
                [rewards[:, a] for a in range(num_agents)],
                [np.asarray(next_obs[a]) for a in range(num_agents)],
                [dones[:, a].astype(np.float64) for a in range(num_agents)],
            )
            stored += handoff(sweep, batch)
        obs = next_obs
    return {
        "transitions": float(stored),
        "update_rounds": float(trainer.update_rounds - updates_before),
        "mean_step_reward": rewards_sum / steps,
    }
