"""Tests for the training loop, evaluation, results, and seeding."""

import numpy as np
import pytest

import repro
from repro.training import (
    RunResult,
    compare_curves,
    derive_seeds,
    run_episode,
    smooth_curve,
    train,
)
from tests.conftest import engine_config


def small_setup(seed=0, variant="baseline", episodes=None):
    env = repro.make_env("cooperative_navigation", num_agents=2, seed=seed)
    cfg = engine_config(batch_size=32, buffer_capacity=1024, update_every=25)
    trainer = repro.make_trainer(
        "maddpg", variant, env.obs_dims, env.act_dims, config=cfg, seed=seed
    )
    return env, trainer


class TestRunEpisode:
    def test_episode_returns_per_agent_totals(self):
        env, trainer = small_setup()
        totals = run_episode(env, trainer)
        assert len(totals) == 2
        assert all(np.isfinite(t) for t in totals)

    def test_learn_false_stores_nothing(self):
        env, trainer = small_setup()
        run_episode(env, trainer, learn=False)
        assert len(trainer.replay) == 0

    def test_learn_true_stores_horizon_steps(self):
        env, trainer = small_setup()
        run_episode(env, trainer, learn=True)
        assert len(trainer.replay) == env.max_episode_len


class TestTrain:
    def test_result_fields(self):
        env, trainer = small_setup()
        result = train(env, trainer, episodes=4, variant="baseline", env_name="cn")
        assert result.episodes == 4
        assert len(result.episode_rewards) == 4
        assert len(result.agent_rewards) == 4
        assert result.total_seconds > 0
        assert result.env_steps == 4 * env.max_episode_len
        assert "action_selection" in result.phase_totals

    def test_updates_happen_during_training(self):
        env, trainer = small_setup()
        result = train(env, trainer, episodes=8)
        assert result.update_rounds > 0

    def test_callback_invoked(self):
        env, trainer = small_setup()
        seen = []
        train(env, trainer, episodes=3, callback=lambda ep, res: seen.append(ep))
        assert seen == [0, 1, 2]

    def test_invalid_episodes(self):
        env, trainer = small_setup()
        with pytest.raises(ValueError):
            train(env, trainer, episodes=0)

    def test_deterministic_given_seed(self):
        r1 = train(*small_setup(seed=3), episodes=3)
        r2 = train(*small_setup(seed=3), episodes=3)
        np.testing.assert_allclose(r1.episode_rewards, r2.episode_rewards)


class TestSmoothing:
    def test_smooth_curve_trailing_mean(self):
        out = smooth_curve([0.0, 2.0, 4.0], window=2)
        np.testing.assert_allclose(out, [0.0, 1.0, 3.0])

    def test_window_one_is_identity(self):
        vals = [3.0, 1.0, 2.0]
        np.testing.assert_array_equal(smooth_curve(vals, window=1), vals)

    def test_empty_input(self):
        assert smooth_curve([], window=5).size == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            smooth_curve([1.0], window=0)

    def test_long_window_converges_to_cumulative_mean(self):
        vals = list(range(10))
        out = smooth_curve([float(v) for v in vals], window=100)
        assert out[-1] == pytest.approx(np.mean(vals))


class TestRunResult:
    def make_result(self, rewards=(1.0, 2.0, 3.0, 4.0)):
        return RunResult(
            algorithm="maddpg",
            variant="baseline",
            env_name="pp",
            num_agents=3,
            episodes=len(rewards),
            total_seconds=10.0,
            phase_totals={"update_all_trainers": 6.0},
            episode_rewards=list(rewards),
        )

    def test_mean_episode_reward(self):
        assert self.make_result().mean_episode_reward() == pytest.approx(2.5)
        assert self.make_result().mean_episode_reward(last=2) == pytest.approx(3.5)

    def test_empty_rewards_raise(self):
        r = self.make_result(rewards=())
        r.episodes = 0
        with pytest.raises(ValueError):
            r.mean_episode_reward()

    def test_extrapolation(self):
        r = self.make_result()
        assert r.seconds_per_episode() == pytest.approx(2.5)
        assert r.extrapolate_seconds(60_000) == pytest.approx(150_000.0)
        with pytest.raises(ValueError):
            r.extrapolate_seconds(0)

    def test_phase_seconds(self):
        assert self.make_result().phase_seconds("update_all_trainers") == 6.0
        assert self.make_result().phase_seconds("missing") == 0.0

    def test_json_round_trip(self, tmp_path):
        r = self.make_result()
        path = str(tmp_path / "run.json")
        r.to_json(path)
        loaded = RunResult.from_json(path)
        assert loaded.algorithm == "maddpg"
        assert loaded.episode_rewards == [1.0, 2.0, 3.0, 4.0]
        assert loaded.phase_totals == r.phase_totals


class TestCurveComparison:
    def make_pair(self, offset=0.0):
        base = RunResult(
            "maddpg", "baseline", "cn", 3, 100, 1.0, {},
            episode_rewards=[float(np.sin(i / 10) * 5 + i / 10) for i in range(100)],
        )
        opt = RunResult(
            "maddpg", "opt", "cn", 3, 100, 1.0, {},
            episode_rewards=[r + offset for r in base.episode_rewards],
        )
        return base, opt

    def test_identical_curves_equivalent(self):
        cmp = compare_curves(*self.make_pair(0.0))
        assert cmp.final_gap == pytest.approx(0.0)
        assert cmp.equivalent()

    def test_shifted_curves_not_equivalent(self):
        cmp = compare_curves(*self.make_pair(offset=100.0))
        assert not cmp.equivalent()

    def test_tail_restriction(self):
        base, opt = self.make_pair(0.0)
        cmp = compare_curves(base, opt, tail=10)
        assert cmp.equivalent()
        with pytest.raises(ValueError):
            compare_curves(base, opt, tail=0)

    def test_truncates_to_shorter_run(self):
        base, opt = self.make_pair(0.0)
        opt.episode_rewards = opt.episode_rewards[:50]
        cmp = compare_curves(base, opt)
        assert cmp.equivalent()


class TestSeeding:
    def test_bundle_fields_distinct(self):
        bundle = derive_seeds(42)
        seeds = {bundle.env, bundle.trainer, bundle.sampler, bundle.eval}
        assert len(seeds) == 4

    def test_deterministic(self):
        assert derive_seeds(42) == derive_seeds(42)

    def test_different_experiments_differ(self):
        assert derive_seeds(1) != derive_seeds(2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds(-1)
