"""Step-driven driver tests: collection, ingest and the parallel collector.

Property-tests the determinism contract: ``--env-workers 1`` is
bit-identical to the serial batched loop, the process-parallel collector
trains bit-identically to the sync engine, and ``collect_steps`` handles
auto-reset episode boundaries for K > 1.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.envs.factory import make_env_factories, make_vector_env
from repro.envs.vector import SyncVectorEnv
from repro.profiling.phases import WORKER_WAIT
from repro.training import collect_steps, train_steps
from tests.conftest import engine_config

ENV, N = "cooperative_navigation", 3


def small_config(**overrides):
    base = dict(
        batch_size=32,
        buffer_capacity=2048,
        update_every=20,
        min_buffer_fill=64,
        hidden_units=(16, 16),
    )
    base.update(overrides)
    return engine_config(**base)


def build(algorithm, variant, vec, config, seed=11):
    return repro.make_trainer(
        algorithm, variant, vec.obs_dims, vec.act_dims, config=config, seed=seed
    )


def run_pipeline(algorithm, variant, workers, steps=50, copies=4, **cfg):
    config = small_config(**cfg)
    vec = make_vector_env(ENV, N, copies, seed=5, workers=workers)
    trainer = build(algorithm, variant, vec, config)
    try:
        result = train_steps(vec, trainer, steps, seed=99)
    finally:
        if hasattr(vec, "close"):
            vec.close()
    return trainer, result


def sequential_reference(trainer, steps, copies, seed, num_agents=N, **env_kwargs):
    """The store-one / update-once loop ``train_steps`` must reproduce:
    step the same seeded envs one by one, store each copy's transition
    in copy order, and give the update cadence a chance after every row
    (action selection stays one batched forward per agent, so the
    exploration stream is the driver's)."""
    factories = make_env_factories(ENV, num_agents, copies, seed=seed, **env_kwargs)
    envs = [f() for f in factories]
    obs = [env.reset() for env in envs]
    for _ in range(steps):
        stacked = [
            np.stack([obs[k][a] for k in range(copies)]) for a in range(num_agents)
        ]
        actions = [
            trainer.agents[a].act(stacked[a], rng=trainer.rng, explore=True)
            for a in range(num_agents)
        ]
        for k, env in enumerate(envs):
            per_env = [actions[a][k] for a in range(num_agents)]
            next_obs, rews, dones, _ = env.step(per_env)
            if all(dones):
                next_obs = env.reset()
            trainer.experience(obs[k], per_env, rews, next_obs, [bool(d) for d in dones])
            trainer.update()
            obs[k] = next_obs


def assert_trainers_equal(a, b):
    """Bit-equality of every network parameter and the replay contents."""
    nets = ["actor", "critic", "target_actor", "target_critic"]
    if a.twin_critics:
        nets += ["critic2", "target_critic2"]
    for agent_a, agent_b in zip(a.agents, b.agents):
        for net in nets:
            for pa, pb in zip(
                getattr(agent_a, net).parameters(), getattr(agent_b, net).parameters()
            ):
                np.testing.assert_array_equal(pa.value, pb.value)
    assert len(a.replay) == len(b.replay)
    for buf_a, buf_b in zip(a.replay.buffers, b.replay.buffers):
        size = len(buf_a)
        np.testing.assert_array_equal(buf_a._obs[:size], buf_b._obs[:size])
        np.testing.assert_array_equal(buf_a._rew[:size], buf_b._rew[:size])
        np.testing.assert_array_equal(buf_a._done[:size], buf_b._done[:size])
    assert a.update_rounds == b.update_rounds
    assert a.total_env_steps == b.total_env_steps


class TestSerialBitIdentity:
    """--env-workers 1 == the serial batched loop."""

    @pytest.mark.parametrize(
        "algorithm,variant",
        [("maddpg", "baseline"), ("matd3", "baseline"), ("maddpg", "per"), ("matd3", "per")],
    )
    def test_workers_one_no_prefetch_is_serial(self, algorithm, variant):
        ref, _ = run_pipeline(algorithm, variant, workers=0)
        one, _ = run_pipeline(algorithm, variant, workers=1)
        assert_trainers_equal(ref, one)

    @pytest.mark.parametrize("algorithm", ["maddpg", "matd3"])
    @pytest.mark.parametrize("storage", ["agent_major", "timestep_major"])
    def test_parallel_collector_trains_bit_identical(self, algorithm, storage):
        """Two worker processes reproduce the serial run on either
        storage engine (one per-field hand-off for both)."""
        ref, _ = run_pipeline(algorithm, "baseline", 0, storage=storage)
        par, _ = run_pipeline(algorithm, "baseline", 2, storage=storage)
        assert_trainers_equal(ref, par)

    def test_parallel_collector_reports_worker_wait(self):
        trainer, _ = run_pipeline("maddpg", "baseline", 2, steps=10)
        assert trainer.timer.count(WORKER_WAIT) == 10


class TestCollectStepsAutoReset:
    """Satellite: K>1 collection across auto-reset episode boundaries."""

    def test_terminal_rows_store_post_reset_next_obs(self):
        """At an episode boundary the stored row carries done=1 and the
        post-reset observation, matching the serial loop's convention
        (the done flag cuts the bootstrap)."""
        config = small_config(update_every=10**9)  # no updates: pure collection
        factories = make_env_factories(ENV, N, 3, seed=2, max_episode_len=5)
        vec = SyncVectorEnv(factories)
        trainer = build("maddpg", "baseline", vec, config)
        collect_steps(vec, trainer, steps=12)
        buf = trainer.replay.buffers[0]
        size = len(buf)
        done_rows = np.flatnonzero(buf._done[:size] > 0.5)
        # episodes are 5 steps long and 3 copies run in lock-step
        assert done_rows.size == 2 * 3
        # a terminal row's next_obs must equal the obs stored in the
        # following row for the same copy (the post-reset observation)
        for idx in done_rows:
            if idx + 3 < size:
                np.testing.assert_array_equal(
                    buf._next_obs[idx], buf._obs[idx + 3]
                )

    def test_collection_matches_sequential_reference(self):
        """collect_steps with K copies == stepping the same seeded envs
        one-by-one and storing each copy's transition in copy order."""
        config = small_config(update_every=10**9)
        steps, copies = 8, 3
        factories = make_env_factories(ENV, N, copies, seed=4, max_episode_len=5)
        vec = SyncVectorEnv(factories)
        vec_trainer = build("maddpg", "baseline", vec, config, seed=7)
        collect_steps(vec, vec_trainer, steps=steps)

        ref_trainer = build("maddpg", "baseline", vec, config, seed=7)
        sequential_reference(ref_trainer, steps, copies, seed=4, max_episode_len=5)
        assert len(ref_trainer.replay) == len(vec_trainer.replay)
        for a in range(N):
            ra, va = ref_trainer.replay.buffers[a], vec_trainer.replay.buffers[a]
            size = len(ra)
            np.testing.assert_array_equal(ra._obs[:size], va._obs[:size])
            np.testing.assert_array_equal(ra._act[:size], va._act[:size])
            np.testing.assert_array_equal(ra._rew[:size], va._rew[:size])
            np.testing.assert_array_equal(ra._next_obs[:size], va._next_obs[:size])
            np.testing.assert_array_equal(ra._done[:size], va._done[:size])
