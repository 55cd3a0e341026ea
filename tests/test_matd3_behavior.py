"""Behavioural tests for MATD3's three TD3 mechanisms.

Beyond the plumbing tests in test_algos_trainers.py, these verify the
*reasons* the mechanisms exist: twin-minimum targets are conservative,
target smoothing regularizes the target surface, and delayed updates
slow policy churn relative to critic churn.
"""

import numpy as np
import pytest

from repro.algos import MARLConfig, MADDPGTrainer, MATD3Trainer
from repro.nn.functional import one_hot


def make_pair(seed=0, **cfg):
    defaults = dict(batch_size=32, buffer_capacity=512, update_every=8)
    defaults.update(cfg)
    config = MARLConfig(**defaults)
    maddpg = MADDPGTrainer([6, 6], [3, 3], config=config, seed=seed)
    matd3 = MATD3Trainer([6, 6], [3, 3], config=config, seed=seed)
    return maddpg, matd3


def feed(trainer, rng, steps=48):
    for _ in range(steps):
        obs = [rng.standard_normal(d) for d in trainer.obs_dims]
        act = [one_hot(rng.integers(a), a) for a in trainer.act_dims]
        rew = [float(rng.standard_normal())] * 2
        trainer.experience(obs, act, rew, obs, [False, False])


class TestTwinMinimumConservatism:
    def test_twin_target_never_exceeds_single_critic(self, rng):
        _, matd3 = make_pair()
        feed(matd3, rng)
        batch = matd3._draw_batch(0)
        next_actions = matd3._target_actions(batch)
        joint_next = np.concatenate(
            [ab.next_obs for ab in batch.agents] + next_actions, axis=1
        )
        agent = matd3.agents[0]
        twin_min = matd3._target_q_values(0, joint_next)
        q1 = agent.target_critic(joint_next)
        q2 = agent.target_critic2(joint_next)
        assert np.all(twin_min <= q1 + 1e-12)
        assert np.all(twin_min <= q2 + 1e-12)

    def test_twin_min_strictly_below_mean_when_critics_disagree(self, rng):
        _, matd3 = make_pair()
        feed(matd3, rng)
        batch = matd3._draw_batch(0)
        next_actions = matd3._target_actions(batch)
        joint_next = np.concatenate(
            [ab.next_obs for ab in batch.agents] + next_actions, axis=1
        )
        agent = matd3.agents[0]
        twin_min = matd3._target_q_values(0, joint_next)
        mean = (agent.target_critic(joint_next) + agent.target_critic2(joint_next)) / 2
        # independent inits disagree somewhere; min is then below the mean
        assert float(np.mean(mean - twin_min)) > 0


class TestTargetSmoothing:
    def test_smoothing_perturbs_target_actions(self, rng):
        _, matd3 = make_pair()
        feed(matd3, rng)
        batch = matd3._draw_batch(0)
        obs = batch.agents[0].next_obs
        clean = matd3.agents[0].target_act(obs)
        noisy = matd3.agents[0].target_act(
            obs, rng=np.random.default_rng(1),
            noise=matd3.config.target_noise,
            noise_clip=matd3.config.target_noise_clip,
        )
        assert not np.allclose(clean, noisy)
        # but remains a valid distribution
        np.testing.assert_allclose(noisy.sum(axis=1), 1.0)

    def test_noise_clip_bounds_perturbation(self, rng):
        """With a tiny clip the smoothed logits stay near the clean ones."""
        _, matd3 = make_pair()
        feed(matd3, rng)
        obs = rng.standard_normal((16, 6))
        agent = matd3.agents[0]
        clean = agent.target_act(obs)
        tight = agent.target_act(
            obs, rng=np.random.default_rng(2), noise=10.0, noise_clip=1e-4
        )
        loose = agent.target_act(
            obs, rng=np.random.default_rng(2), noise=10.0, noise_clip=10.0
        )
        tight_gap = float(np.abs(tight - clean).max())
        loose_gap = float(np.abs(loose - clean).max())
        assert tight_gap < loose_gap
        assert tight_gap < 1e-3

    def test_smoothing_reduces_target_q_spread_sensitivity(self, rng):
        """Smoothed targets vary less across repeated draws than the raw
        actor's Gumbel-exploration output would."""
        _, matd3 = make_pair()
        feed(matd3, rng)
        obs = rng.standard_normal((8, 6))
        agent = matd3.agents[0]
        draws = np.stack([
            agent.target_act(obs, rng=np.random.default_rng(k),
                             noise=0.2, noise_clip=0.5)
            for k in range(8)
        ])
        spread = float(draws.std(axis=0).mean())
        assert spread < 0.2  # clipped small noise -> modest variation


class TestDelayedUpdates:
    def test_critic_updates_every_round_policy_every_other(self, rng):
        _, matd3 = make_pair(policy_delay=2, update_every=1)
        feed(matd3, rng)
        critic_w = matd3.agents[0].critic.parameters()[0]
        actor_w = matd3.agents[0].actor.parameters()[0]
        critic_deltas, actor_deltas = [], []
        for _ in range(4):
            c0, a0 = critic_w.value.copy(), actor_w.value.copy()
            matd3.update(force=True)
            critic_deltas.append(float(np.abs(critic_w.value - c0).max()))
            actor_deltas.append(float(np.abs(actor_w.value - a0).max()))
        assert all(d > 0 for d in critic_deltas), "critic must update every round"
        # rounds 1 and 3 (0-indexed 0, 2) skip the policy
        assert actor_deltas[0] == 0.0 and actor_deltas[2] == 0.0
        assert actor_deltas[1] > 0.0 and actor_deltas[3] > 0.0

    def test_targets_only_move_on_delayed_rounds(self, rng):
        _, matd3 = make_pair(policy_delay=2, update_every=1)
        feed(matd3, rng)
        target_w = matd3.agents[0].target_critic.parameters()[0]
        t0 = target_w.value.copy()
        matd3.update(force=True)  # round 1: not delayed
        np.testing.assert_array_equal(target_w.value, t0)
        matd3.update(force=True)  # round 2: delayed -> targets move
        assert not np.allclose(target_w.value, t0)

    def test_policy_delay_one_behaves_like_maddpg_cadence(self, rng):
        _, matd3 = make_pair(policy_delay=1, update_every=1)
        feed(matd3, rng)
        actor_w = matd3.agents[0].actor.parameters()[0]
        a0 = actor_w.value.copy()
        matd3.update(force=True)
        assert not np.allclose(actor_w.value, a0)


class TestOverestimationControl:
    def test_matd3_targets_lower_than_maddpg_on_same_data(self):
        """On identical noise-free data, twin-min targets sit below the
        single-critic targets on average (the overestimation fix)."""
        rng = np.random.default_rng(3)
        maddpg, matd3 = make_pair(seed=7)
        # identical replay contents
        for _ in range(48):
            obs = [rng.standard_normal(d) for d in maddpg.obs_dims]
            act = [one_hot(rng.integers(a), a) for a in maddpg.act_dims]
            rew = [float(rng.standard_normal())] * 2
            for tr in (maddpg, matd3):
                tr.experience(obs, act, rew, obs, [False, False])
        batch_m = maddpg._draw_batch(0)
        joint_m = np.concatenate(
            [ab.next_obs for ab in batch_m.agents]
            + maddpg._target_actions(batch_m),
            axis=1,
        )
        # evaluate both trainers' target values on the SAME joint input
        single = matd3.agents[0].target_critic(joint_m)
        twin = matd3._target_q_values(0, joint_m)
        assert float(np.mean(single - twin)) >= 0
