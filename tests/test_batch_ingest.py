"""Vectorized experience-ingest equivalence tests (satellite of PR 2).

Every batch-ingest entry point — ``ReplayBuffer.add_batch``,
``PrioritizedReplayBuffer.add_batch``, ``MultiAgentReplay.add_batch``,
``MADDPGTrainer.experience_batch``, and the chunked
``training.batched.collect_steps`` loop — must leave buffers, priority
trees, cadence counters, and RNG streams in exactly the state the
row-at-a-time path produces.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.buffers.multi_agent import MultiAgentReplay
from repro.buffers.prioritized import PrioritizedReplayBuffer
from repro.buffers.replay import ReplayBuffer
from repro.envs.registry import make
from repro.envs.vector import SyncVectorEnv
from repro.training.batched import collect_steps
from tests.conftest import ENGINE, engine_config

OBS, ACT = 4, 3


def random_rows(rng, k, obs_dim=OBS, act_dim=ACT):
    return (
        rng.normal(size=(k, obs_dim)),
        rng.normal(size=(k, act_dim)),
        rng.normal(size=k),
        rng.normal(size=(k, obs_dim)),
        rng.integers(0, 2, size=k).astype(np.float64),
    )


def assert_buffers_equal(a: ReplayBuffer, b: ReplayBuffer):
    np.testing.assert_array_equal(a._obs, b._obs)
    np.testing.assert_array_equal(a._act, b._act)
    np.testing.assert_array_equal(a._rew, b._rew)
    np.testing.assert_array_equal(a._next_obs, b._next_obs)
    np.testing.assert_array_equal(a._done, b._done)
    assert a._next_idx == b._next_idx
    assert a._size == b._size


class TestReplayAddBatch:
    @pytest.mark.parametrize("prefill,k", [(0, 5), (7, 5), (14, 5), (0, 16), (3, 16)])
    def test_matches_sequential_adds(self, prefill, k):
        """Batch write == k ``add`` calls, across wraparound boundaries."""
        rng = np.random.default_rng(0)
        seq = ReplayBuffer(16, OBS, ACT)
        bat = ReplayBuffer(16, OBS, ACT)
        for buf in (seq, bat):
            r = np.random.default_rng(1)
            for _ in range(prefill):
                o, a, rw, no, d = random_rows(r, 1)
                buf.add(o[0], a[0], rw[0], no[0], bool(d[0]))
        obs, act, rew, next_obs, done = random_rows(rng, k)
        for t in range(k):
            seq.add(obs[t], act[t], rew[t], next_obs[t], bool(done[t]))
        bat.ingest((obs, act, rew, next_obs, done))
        assert_buffers_equal(seq, bat)

    def test_oversized_batch_keeps_trailing_rows(self):
        """k > capacity: only the last ``capacity`` rows survive, as they
        would under k sequential adds."""
        rng = np.random.default_rng(2)
        seq = ReplayBuffer(8, OBS, ACT)
        bat = ReplayBuffer(8, OBS, ACT)
        obs, act, rew, next_obs, done = random_rows(rng, 20)
        for t in range(20):
            seq.add(obs[t], act[t], rew[t], next_obs[t], bool(done[t]))
        bat.ingest((obs, act, rew, next_obs, done))
        assert_buffers_equal(seq, bat)

    def test_returned_indices_match_slots(self):
        buf = ReplayBuffer(8, OBS, ACT)
        rng = np.random.default_rng(3)
        obs, act, rew, next_obs, done = random_rows(rng, 5)
        idx = buf.ingest((obs, act, rew, next_obs, done))
        np.testing.assert_array_equal(idx, np.arange(5))
        np.testing.assert_array_equal(buf._obs[idx], obs)
        idx2 = buf.ingest((obs, act, rew, next_obs, done))
        np.testing.assert_array_equal(idx2, [5, 6, 7, 0, 1])

    def test_empty_batch_rejected(self):
        buf = ReplayBuffer(8, OBS, ACT)
        with pytest.raises(ValueError):
            buf.ingest(
                (
                    np.empty((0, OBS)), np.empty((0, ACT)), np.empty(0),
                    np.empty((0, OBS)), np.empty(0),
                )
            )

    def test_mismatched_lengths_rejected(self):
        buf = ReplayBuffer(8, OBS, ACT)
        rng = np.random.default_rng(4)
        obs, act, rew, next_obs, done = random_rows(rng, 4)
        with pytest.raises(ValueError):
            buf.ingest((obs, act, rew[:3], next_obs, done))


class TestPrioritizedAddBatch:
    def test_trees_match_sequential_adds(self):
        rng = np.random.default_rng(5)
        seq = PrioritizedReplayBuffer(16, OBS, ACT, alpha=0.6)
        bat = PrioritizedReplayBuffer(16, OBS, ACT, alpha=0.6)
        obs, act, rew, next_obs, done = random_rows(rng, 10)
        for t in range(10):
            seq.add(obs[t], act[t], rew[t], next_obs[t], bool(done[t]))
        bat.ingest((obs, act, rew, next_obs, done))
        assert_buffers_equal(seq, bat)
        np.testing.assert_array_equal(seq._sum_tree._tree, bat._sum_tree._tree)
        np.testing.assert_array_equal(seq._min_tree._tree, bat._min_tree._tree)

    def test_trees_match_after_priority_updates_and_wrap(self):
        """New rows take max-priority^alpha even after updates raised it;
        the batch path must track the same running maximum."""
        rng = np.random.default_rng(6)
        seq = PrioritizedReplayBuffer(8, OBS, ACT, alpha=0.6)
        bat = PrioritizedReplayBuffer(8, OBS, ACT, alpha=0.6)
        first = random_rows(rng, 4)
        more = random_rows(rng, 9)  # wraps past capacity
        for buf in (seq, bat):
            buf.ingest(first)
            buf.update_priorities([0, 2], [3.5, 0.25])
        for t in range(9):
            seq.add(more[0][t], more[1][t], more[2][t], more[3][t], bool(more[4][t]))
        bat.ingest(more)
        np.testing.assert_array_equal(seq._sum_tree._tree, bat._sum_tree._tree)
        np.testing.assert_array_equal(seq._min_tree._tree, bat._min_tree._tree)


class TestMultiAgentAddBatch:
    def test_matches_per_step_add(self):
        rng = np.random.default_rng(7)
        obs_dims, act_dims = [4, 6], [3, 3]
        seq, bat = (
            MultiAgentReplay(obs_dims, act_dims, capacity=16, storage=ENGINE["storage"])
            for _ in range(2)
        )
        k = 11
        fields = [
            [rng.normal(size=(k, d)) for d in obs_dims],        # obs
            [rng.normal(size=(k, d)) for d in act_dims],        # act
            [rng.normal(size=k) for _ in obs_dims],             # rew
            [rng.normal(size=(k, d)) for d in obs_dims],        # next_obs
            [rng.integers(0, 2, k).astype(np.float64) for _ in obs_dims],
        ]
        for t in range(k):
            seq.add(
                [f[t] for f in fields[0]],
                [f[t] for f in fields[1]],
                [float(f[t]) for f in fields[2]],
                [f[t] for f in fields[3]],
                [bool(f[t]) for f in fields[4]],
            )
        rows = bat.ingest(fields)
        assert rows == k
        for a in range(2):
            assert_buffers_equal(seq[a], bat[a])

    def test_wrong_agent_count_rejected(self):
        replay = MultiAgentReplay([4, 4], [3, 3], capacity=16, storage=ENGINE["storage"])
        with pytest.raises(ValueError, match="per-agent"):
            replay.ingest(
                (
                    [np.zeros((2, 4))], [np.zeros((2, 3))], [np.zeros(2)],
                    [np.zeros((2, 4))], [np.zeros(2)],
                )
            )


class TestExperienceBatch:
    def make_trainer(self, seed=0):
        cfg = engine_config(batch_size=8, buffer_capacity=64, update_every=10)
        return repro.make_trainer(
            "maddpg", "baseline", [OBS] * 2, [ACT] * 2, config=cfg, seed=seed
        )

    def test_matches_sequential_experience(self):
        rng = np.random.default_rng(8)
        seq = self.make_trainer()
        bat = self.make_trainer()
        k = 7
        fields = [
            [rng.normal(size=(k, OBS)) for _ in range(2)],
            [rng.normal(size=(k, ACT)) for _ in range(2)],
            [rng.normal(size=k) for _ in range(2)],
            [rng.normal(size=(k, OBS)) for _ in range(2)],
            [rng.integers(0, 2, k).astype(np.float64) for _ in range(2)],
        ]
        for t in range(k):
            seq.experience(
                [f[t] for f in fields[0]],
                [f[t] for f in fields[1]],
                [float(f[t]) for f in fields[2]],
                [f[t] for f in fields[3]],
                [bool(f[t]) for f in fields[4]],
            )
        rows = bat.experience_batch(*fields)
        assert rows == k
        assert bat.steps_since_update == seq.steps_since_update == k
        assert bat.total_env_steps == seq.total_env_steps == k
        for a in range(2):
            assert_buffers_equal(seq.replay[a], bat.replay[a])


class TestCollectStepsEquivalence:
    """The chunked vector-env loop must reproduce the row-at-a-time
    reference stream exactly: same buffer contents, same update rounds
    at the same rows, same RNG state afterwards."""

    K = 4

    def make_pair(self, update_every=6):
        cfg = engine_config(batch_size=8, buffer_capacity=128, update_every=update_every)

        def build():
            factories = [
                (lambda s=s: make("cooperative_navigation", num_agents=2, seed=s))
                for s in range(self.K)
            ]
            vec = SyncVectorEnv(factories)
            trainer = repro.make_trainer(
                "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=cfg, seed=3
            )
            return vec, trainer

        return build(), build()

    @staticmethod
    def reference_collect(vec_env, trainer, steps):
        """Pre-batching semantics: one ``experience`` + ``update`` per
        copy per step, in copy order."""
        obs = vec_env.reset()
        n = vec_env.num_agents
        for _ in range(steps):
            actions = [
                trainer.agents[a].act(obs[a], rng=trainer.rng, explore=True)
                for a in range(n)
            ]
            next_obs, rewards, dones, _ = vec_env.step(actions)
            for copy in range(vec_env.num_envs):
                trainer.experience(
                    [obs[a][copy] for a in range(n)],
                    [actions[a][copy] for a in range(n)],
                    [float(rewards[copy, a]) for a in range(n)],
                    [next_obs[a][copy] for a in range(n)],
                    [bool(dones[copy, a]) for a in range(n)],
                )
                trainer.update()
            obs = next_obs

    @pytest.mark.parametrize("update_every", [3, 6, 16])
    def test_matches_reference_loop(self, update_every):
        (vec_a, ref), (vec_b, fast) = self.make_pair(update_every)
        steps = 10
        self.reference_collect(vec_a, ref, steps)
        stats = collect_steps(vec_b, fast, steps)
        assert stats["transitions"] == float(steps * self.K)
        assert fast.update_rounds == ref.update_rounds > 0
        assert fast.total_env_steps == ref.total_env_steps
        assert fast.steps_since_update == ref.steps_since_update
        for a in range(2):
            assert_buffers_equal(ref.replay[a], fast.replay[a])
        state_a = ref.rng.bit_generator.state
        state_b = fast.rng.bit_generator.state
        np.testing.assert_array_equal(
            state_a["state"]["state"], state_b["state"]["state"]
        )
        for agent_a, agent_b in zip(ref.agents, fast.agents):
            for (ka, va), (kb, vb) in zip(
                agent_a.actor.state_dict().items(),
                agent_b.actor.state_dict().items(),
            ):
                assert ka == kb
                np.testing.assert_array_equal(va, vb)
