"""Process-parallel vector environment tests (PR 4 tentpole).

The parallel collector must reproduce :class:`SyncVectorEnv`
trajectories bit-for-bit under shared per-copy seeds (the determinism
contract: fixed copy-index reduction order regardless of worker
scheduling), surface worker deaths as clean :class:`WorkerCrashError`
instead of hangs, honor the bounded-restart budget, and never leak
shared-memory segments.
"""

from __future__ import annotations

import glob
import os
import signal

import numpy as np
import pytest

import repro
from repro.algos import MARLConfig
from repro.envs.batched import BatchedVectorEnv
from repro.envs.factory import make_env_factories, make_vector_env
from repro.envs.parallel import SHM_PREFIX, ParallelVectorEnv, WorkerCrashError
from repro.envs.vector import SyncVectorEnv
from repro.training import collect_steps

ENV, N, K = "cooperative_navigation", 3, 5


def soft_actions(vec, rng):
    """Batched per-agent soft one-hot actions, shape (K, act_dim)."""
    out = []
    for a in range(vec.num_agents):
        logits = rng.normal(size=(vec.num_envs, vec.act_dims[a]))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out.append(e / e.sum(axis=1, keepdims=True))
    return out


def rollout(vec, steps, seed=123):
    rng = np.random.default_rng(seed)
    vec.reset()
    trace = []
    for _ in range(steps):
        obs, rew, done, _infos = vec.step(soft_actions(vec, rng))
        trace.append(([np.array(o) for o in obs], rew.copy(), done.copy()))
    return trace


def leaked_segments():
    return glob.glob(f"/dev/shm/{SHM_PREFIX}*")


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_bit_identical_to_sync(self, workers):
        """Same per-copy seeds => byte-equal obs/rewards/dones streams,
        across auto-reset boundaries (short episodes force resets)."""
        factories = make_env_factories(ENV, N, K, seed=7, max_episode_len=6)
        sync = SyncVectorEnv(factories)
        par = ParallelVectorEnv(factories, num_workers=workers)
        try:
            for (o0, r0, d0), (o1, r1, d1) in zip(
                rollout(sync, 25), rollout(par, 25)
            ):
                for a in range(N):
                    np.testing.assert_array_equal(o0[a], o1[a])
                np.testing.assert_array_equal(r0, r1)
                np.testing.assert_array_equal(d0, d1)
        finally:
            par.close()


class TestFaultHandling:
    def test_killed_worker_raises_crash_error(self):
        """SIGKILLing a worker surfaces WorkerCrashError (id + last step),
        never a hang."""
        par = ParallelVectorEnv(
            make_env_factories(ENV, N, K, seed=0), num_workers=2, step_timeout=20.0
        )
        try:
            rng = np.random.default_rng(0)
            par.reset()
            par.step(soft_actions(par, rng))
            os.kill(par._procs[0].pid, signal.SIGKILL)
            par._procs[0].join(timeout=5.0)
            with pytest.raises(WorkerCrashError) as exc_info:
                par.step(soft_actions(par, rng))
            assert exc_info.value.worker_id == 0
            assert exc_info.value.last_step == 1
        finally:
            par.close()
        assert not leaked_segments()

    def test_bounded_restart_recovers(self):
        """With max_restarts budget, a crash respawns the worker, reports
        a truncating terminal on its copies, and collection continues."""
        par = ParallelVectorEnv(
            make_env_factories(ENV, N, K, seed=0),
            num_workers=2,
            max_restarts=1,
            step_timeout=20.0,
        )
        try:
            rng = np.random.default_rng(0)
            par.reset()
            par.step(soft_actions(par, rng))
            victim = par._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            obs, rewards, dones, infos = par.step(soft_actions(par, rng))
            assert par.restarts == 1
            start, stop = par._worker_rows[1]
            for k in range(start, stop):
                assert infos[k] == {"restarted_worker": 1}
                assert dones[k].all()
                assert (rewards[k] == 0.0).all()
            for k in range(0, start):  # surviving worker's copies unaffected
                assert "restarted_worker" not in infos[k]
            # budget exhausted: the next crash surfaces
            os.kill(par._procs[1].pid, signal.SIGKILL)
            par._procs[1].join(timeout=5.0)
            with pytest.raises(WorkerCrashError):
                par.step(soft_actions(par, rng))
        finally:
            par.close()
        assert not leaked_segments()

    @pytest.mark.parametrize("storage", ["agent_major", "timestep_major"])
    def test_restart_stores_truncating_transition(self, storage):
        """Through the driver, a restarted worker's copies store exactly
        (pre-step obs, sent action, reward 0, post-restart reset obs,
        done 1); every other row equals the serial run's."""
        crash_sweep, sweeps = 2, 3
        factories = make_env_factories(ENV, N, K, seed=4)
        # warm-up never met: no update round, so both runs act identically
        config = MARLConfig(
            batch_size=8, buffer_capacity=64, min_buffer_fill=10_000, storage=storage
        )

        def stored_rows(vec):
            trainer = repro.make_trainer(
                "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=config, seed=3
            )
            collect_steps(vec, trainer, sweeps)
            return trainer.replay.gather(np.arange(sweeps * K), vectorized=True)

        serial = stored_rows(SyncVectorEnv(factories))
        par = ParallelVectorEnv(
            factories, num_workers=2, max_restarts=1, step_timeout=20.0
        )
        try:
            healthy_step = par.step

            def step(actions):
                if par._steps_done == crash_sweep:
                    os.kill(par._procs[1].pid, signal.SIGKILL)
                    par._procs[1].join(timeout=5.0)
                return healthy_step(actions)

            par.step = step
            got = stored_rows(par)
            assert par.restarts == 1
            start, stop = par._worker_rows[1]
        finally:
            par.close()
        lost = crash_sweep * K + np.arange(start, stop)
        kept = np.setdiff1d(np.arange(sweeps * K), lost)
        reset_obs = [factories[k]().reset() for k in range(start, stop)]
        for a in range(N):
            for got_field, ref_field in zip(got[a], serial[a]):
                np.testing.assert_array_equal(got_field[kept], ref_field[kept])
            obs, act, rew, next_obs, done = got[a]
            np.testing.assert_array_equal(obs[lost], serial[a][0][lost])
            np.testing.assert_array_equal(act[lost], serial[a][1][lost])
            np.testing.assert_array_equal(rew[lost], 0.0)
            np.testing.assert_array_equal(next_obs[lost], [o[a] for o in reset_obs])
            np.testing.assert_array_equal(done[lost], 1.0)
        assert not leaked_segments()

    def test_close_is_idempotent_and_unlinks(self):
        par = ParallelVectorEnv(make_env_factories(ENV, N, 2, seed=0), num_workers=2)
        name = par.shm_name
        assert os.path.exists(f"/dev/shm/{name}")
        par.close()
        par.close()
        assert par.shm_name is None
        assert not os.path.exists(f"/dev/shm/{name}")
        with pytest.raises(RuntimeError):
            par.reset()


class TestFactory:
    def test_engine_selection(self):
        sync = make_vector_env(ENV, N, 3, seed=0, workers=0)
        assert isinstance(sync, BatchedVectorEnv)
        one = make_vector_env(ENV, N, 3, seed=0, workers=1)
        assert isinstance(one, BatchedVectorEnv)
        par = make_vector_env(ENV, N, 3, seed=0, workers=2)
        try:
            assert isinstance(par, ParallelVectorEnv)
            assert par.num_workers == 2
        finally:
            par.close()

    def test_seeded_factories_decorrelate_copies(self):
        factories = make_env_factories(ENV, N, 3, seed=5)
        first = [f().reset() for f in factories]
        again = [f().reset() for f in factories]
        for a, b in zip(first, again):  # same seed -> same episode
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)
        assert not all(
            np.array_equal(x, y) for x, y in zip(first[0], first[1])
        )  # different copies differ

    def test_workers_clamped_to_copies(self):
        par = ParallelVectorEnv(make_env_factories(ENV, N, 2, seed=0), num_workers=8)
        try:
            assert par.num_workers == 2
        finally:
            par.close()
