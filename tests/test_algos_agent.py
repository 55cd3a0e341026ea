"""Tests for the per-agent actor-critic bundle."""

import numpy as np
import pytest

from repro.algos import MARLConfig
from repro.algos.agent import ActorCriticAgent


def make_agent(rng, twin=False, config=None):
    config = config or MARLConfig()
    return ActorCriticAgent(
        name="a0",
        obs_dim=16,
        act_dim=5,
        joint_dim=63,
        config=config,
        rng=rng,
        twin_critics=twin,
    )


class TestActing:
    def test_single_obs_returns_action_vector(self, rng):
        agent = make_agent(rng)
        action = agent.act(rng.standard_normal(16), rng=rng)
        assert action.shape == (5,)
        assert action.sum() == pytest.approx(1.0)

    def test_batch_obs_returns_batch_actions(self, rng):
        agent = make_agent(rng)
        actions = agent.act(rng.standard_normal((7, 16)), rng=rng)
        assert actions.shape == (7, 5)
        np.testing.assert_allclose(actions.sum(axis=1), np.ones(7))

    def test_explore_requires_rng(self, rng):
        agent = make_agent(rng)
        with pytest.raises(ValueError, match="rng"):
            agent.act(np.zeros(16), explore=True)

    def test_eval_mode_deterministic(self, rng):
        agent = make_agent(rng)
        obs = rng.standard_normal(16)
        a = agent.act(obs, explore=False)
        b = agent.act(obs, explore=False)
        np.testing.assert_array_equal(a, b)

    def test_explore_is_stochastic(self, rng):
        agent = make_agent(rng)
        obs = rng.standard_normal(16)
        draws = {int(np.argmax(agent.act(obs, rng=rng))) for _ in range(100)}
        assert len(draws) > 1  # Gumbel noise explores


class TestTargets:
    def test_targets_start_identical(self, rng):
        agent = make_agent(rng)
        obs = rng.standard_normal((4, 16))
        np.testing.assert_allclose(agent.actor(obs), agent.target_actor(obs))
        x = rng.standard_normal((4, 63))
        np.testing.assert_allclose(agent.critic(x), agent.target_critic(x))

    def test_target_act_is_distribution(self, rng):
        agent = make_agent(rng)
        probs = agent.target_act(rng.standard_normal((6, 16)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6))

    def test_target_smoothing_noise_changes_output(self, rng):
        agent = make_agent(rng)
        obs = rng.standard_normal((4, 16))
        clean = agent.target_act(obs)
        noisy = agent.target_act(obs, rng=rng, noise=0.5)
        assert not np.allclose(clean, noisy)

    def test_target_noise_requires_rng(self, rng):
        agent = make_agent(rng)
        with pytest.raises(ValueError):
            agent.target_act(np.zeros((1, 16)), noise=0.1)

    def test_soft_update_moves_toward_online(self, rng):
        agent = make_agent(rng)
        # perturb the online actor, then soft-update
        for p in agent.actor.parameters():
            p.value += 1.0
        before = agent.target_actor.parameters()[0].value.copy()
        agent.soft_update_targets()
        after = agent.target_actor.parameters()[0].value
        online = agent.actor.parameters()[0].value
        assert np.all(np.abs(online - after) < np.abs(online - before))

    def test_soft_update_uses_config_tau(self, rng):
        config = MARLConfig(tau=0.5)
        agent = make_agent(rng, config=config)
        w_online = agent.actor.parameters()[0]
        w_target = agent.target_actor.parameters()[0]
        w_online.value += 2.0
        expected = 0.5 * (w_online.value) + 0.5 * (w_online.value - 2.0)
        agent.soft_update_targets()
        np.testing.assert_allclose(w_target.value, expected)


class TestTwinCritics:
    def test_twin_builds_second_pair(self, rng):
        agent = make_agent(rng, twin=True)
        assert agent.critic2 is not None
        assert agent.target_critic2 is not None

    def test_twin_critics_differ(self, rng):
        agent = make_agent(rng, twin=True)
        x = rng.standard_normal((4, 63))
        assert not np.allclose(agent.critic(x), agent.critic2(x))

    def test_twin_param_count_larger(self, rng):
        single = make_agent(np.random.default_rng(0))
        twin = make_agent(np.random.default_rng(0), twin=True)
        assert twin.num_parameters() > single.num_parameters()

    def test_twin_soft_update_covers_second_critic(self, rng):
        agent = make_agent(rng, twin=True)
        for p in agent.critic2.parameters():
            p.value += 1.0
        before = agent.target_critic2.parameters()[0].value.copy()
        agent.soft_update_targets()
        assert not np.allclose(agent.target_critic2.parameters()[0].value, before)


class TestParameterCounts:
    def test_num_parameters_matches_paper_topology(self, rng):
        agent = make_agent(rng)
        actor = 16 * 64 + 64 + 64 * 64 + 64 + 64 * 5 + 5
        critic = 63 * 64 + 64 + 64 * 64 + 64 + 64 * 1 + 1
        assert agent.num_parameters() == actor + critic

    def test_joint_dim_drives_critic_growth(self, rng):
        small = make_agent(np.random.default_rng(0))
        big = ActorCriticAgent(
            "b", 16, 5, joint_dim=126, config=MARLConfig(), rng=np.random.default_rng(0)
        )
        assert big.num_parameters() > small.num_parameters()
