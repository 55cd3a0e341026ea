"""Tests for task metrics, vector envs and batched collection."""

import numpy as np
import pytest
import repro
from repro.algos import MARLConfig
from repro.envs import SyncVectorEnv, make
from repro.training import (
    MetricsCollector,
    collect_steps,
    run_episode_with_metrics,
)


class TestMetricsCollector:
    def test_collects_collisions(self):
        collector = MetricsCollector()
        collector.start_episode(2)
        collector.record_step({"n": [{"collisions": 2}, {"collisions": 0}]})
        collector.record_step({"n": [{"collisions": 1}, {"collisions": 1}]})
        episode = collector.end_episode()
        assert episode.total_collisions == 4
        assert episode.per_agent_collisions == [3, 1]
        assert episode.steps == 2
        assert episode.collisions_per_step == pytest.approx(2.0)

    def test_coverage_tracked(self):
        collector = MetricsCollector()
        collector.start_episode(1)
        collector.record_step({"n": [{"collisions": 0, "coverage": -5.0}]})
        collector.record_step({"n": [{"collisions": 0, "coverage": -2.0}]})
        episode = collector.end_episode()
        assert episode.final_coverage == -2.0
        assert collector.mean_coverage() == -2.0

    def test_lifecycle_errors(self):
        collector = MetricsCollector()
        with pytest.raises(RuntimeError):
            collector.record_step({})
        with pytest.raises(RuntimeError):
            collector.end_episode()
        with pytest.raises(ValueError):
            collector.mean_collisions()

    def test_run_episode_with_metrics_pp(self):
        env = make("predator_prey", num_agents=3, seed=0)
        cfg = MARLConfig(batch_size=32, buffer_capacity=256, update_every=100)
        trainer = repro.make_trainer(
            "maddpg", "baseline", env.obs_dims, env.act_dims, config=cfg, seed=0
        )
        collector = MetricsCollector()
        totals = run_episode_with_metrics(env, trainer, collector)
        assert len(totals) == 3
        assert len(collector) == 1
        assert "mean_collisions" in collector.summary()

    def test_run_episode_with_metrics_cn_has_coverage(self):
        env = make("cooperative_navigation", num_agents=2, seed=0)
        cfg = MARLConfig(batch_size=32, buffer_capacity=256, update_every=100)
        trainer = repro.make_trainer(
            "maddpg", "baseline", env.obs_dims, env.act_dims, config=cfg, seed=0
        )
        collector = MetricsCollector()
        run_episode_with_metrics(env, trainer, collector)
        assert "mean_coverage" in collector.summary()


class TestSyncVectorEnv:
    def make_vec(self, k=3, agents=2):
        factories = [
            (lambda s=s: make("cooperative_navigation", num_agents=agents, seed=s))
            for s in range(k)
        ]
        return SyncVectorEnv(factories)

    def test_reset_shapes(self):
        vec = self.make_vec(k=3, agents=2)
        obs = vec.reset()
        assert len(obs) == 2
        assert all(o.shape == (3, 12) for o in obs)  # CN-2: Box(6N=12)

    def test_copies_have_distinct_states(self):
        vec = self.make_vec(k=3)
        obs = vec.reset()
        assert not np.allclose(obs[0][0], obs[0][1])

    def test_step_shapes(self):
        vec = self.make_vec(k=3, agents=2)
        vec.reset()
        actions = [np.tile(np.eye(5)[1], (3, 1)) for _ in range(2)]
        obs, rewards, dones, infos = vec.step(actions)
        assert rewards.shape == (3, 2)
        assert dones.shape == (3, 2)
        assert len(infos) == 3

    def test_auto_reset_on_horizon(self):
        factories = [
            lambda: make("cooperative_navigation", num_agents=1, seed=0, max_episode_len=2)
        ]
        vec = SyncVectorEnv(factories)
        vec.reset()
        actions = [np.zeros((1, 5))]
        vec.step(actions)
        _, _, dones, _ = vec.step(actions)
        assert dones[0][0]
        # next step runs on the reset episode (no exception, not done)
        _, _, dones, _ = vec.step(actions)
        assert not dones[0][0]

    def test_mismatched_spaces_rejected(self):
        factories = [
            lambda: make("cooperative_navigation", num_agents=2, seed=0),
            lambda: make("cooperative_navigation", num_agents=3, seed=0),
        ]
        with pytest.raises(ValueError, match="share"):
            SyncVectorEnv(factories)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SyncVectorEnv([])

    def test_action_validation(self):
        vec = self.make_vec(k=2, agents=2)
        vec.reset()
        with pytest.raises(ValueError, match="per-agent"):
            vec.step([np.zeros((2, 5))])
        with pytest.raises(ValueError, match="rows"):
            vec.step([np.zeros((3, 5)), np.zeros((3, 5))])


class TestCollectSteps:
    def test_collects_and_updates(self):
        factories = [
            (lambda s=s: make("cooperative_navigation", num_agents=2, seed=s))
            for s in range(4)
        ]
        vec = SyncVectorEnv(factories)
        cfg = MARLConfig(batch_size=32, buffer_capacity=2048, update_every=20)
        trainer = repro.make_trainer(
            "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=cfg, seed=0
        )
        stats = collect_steps(vec, trainer, steps=25)
        assert stats["transitions"] == 100.0  # 25 steps x 4 copies
        assert stats["update_rounds"] >= 1
        assert len(trainer.replay) == 100

    def test_learn_false_stores_nothing(self):
        vec = SyncVectorEnv([lambda: make("cooperative_navigation", num_agents=2, seed=0)])
        cfg = MARLConfig(batch_size=32, buffer_capacity=256, update_every=20)
        trainer = repro.make_trainer(
            "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=cfg, seed=0
        )
        stats = collect_steps(vec, trainer, steps=5, learn=False)
        assert stats["transitions"] == 0.0
        assert len(trainer.replay) == 0

    def test_invalid_steps(self):
        vec = SyncVectorEnv([lambda: make("cooperative_navigation", num_agents=1, seed=0)])
        cfg = MARLConfig(batch_size=16, buffer_capacity=64)
        trainer = repro.make_trainer(
            "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=cfg, seed=0
        )
        with pytest.raises(ValueError):
            collect_steps(vec, trainer, steps=0)
