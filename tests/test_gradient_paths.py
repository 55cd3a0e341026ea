"""Numeric verification of the trainers' composite gradient paths.

The MADDPG policy update routes gradients through the centralized
critic's *input*, slices out the acting agent's action columns, and
backs them through the softmax relaxation into the actor.  A sign or
slicing bug here would silently mistrain — so both the critic TD path
and the actor policy path are checked against finite differences of
the *actual objectives* the trainer optimizes.
"""

import numpy as np
import pytest

from repro.algos import MARLConfig, MADDPGTrainer
from repro.nn.functional import one_hot


def make_trainer(seed=0, policy_reg=0.0):
    config = MARLConfig(
        batch_size=8,
        buffer_capacity=64,
        update_every=4,
        grad_clip=None,  # clipping would distort the comparison
        policy_reg=policy_reg,
        lr=1e-9,  # freeze parameter motion during probing
    )
    return MADDPGTrainer([5, 4], [3, 3], config=config, seed=seed)


def fill(trainer, rng, rows=16):
    for _ in range(rows):
        obs = [rng.standard_normal(d) for d in trainer.obs_dims]
        act = [one_hot(rng.integers(a), a) for a in trainer.act_dims]
        trainer.experience(
            obs, act, [float(rng.standard_normal())] * 2, obs, [False, False]
        )


def critic_td_objective(trainer, agent_idx, batch, target_q):
    """The critic loss the trainer minimizes, recomputed functionally."""
    x = trainer._critic_input(batch)
    q = trainer.agents[agent_idx].critic(x)
    return float(np.mean((q - target_q) ** 2))


def policy_objective(trainer, agent_idx, batch):
    """The actor loss: -mean Q with agent's action replaced by its policy."""
    agent = trainer.agents[agent_idx]
    logits = agent.actor(batch.agents[agent_idx].obs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    soft = exp / exp.sum(axis=1, keepdims=True)
    x = trainer._critic_input(batch).copy()
    start = trainer._act_offsets[agent_idx]
    end = start + trainer.act_dims[agent_idx]
    x[:, start:end] = soft
    q = agent.critic(x)
    reg = trainer.config.policy_reg * float(np.mean(logits**2))
    return float(-np.mean(q)) + reg


class TestCriticGradientPath:
    def test_critic_gradient_matches_finite_difference(self, rng):
        trainer = make_trainer()
        fill(trainer, rng)
        batch = trainer._draw_batch(0)
        target_q = trainer._target_q(0, batch)
        agent = trainer.agents[0]

        # analytic gradients via the trainer's own update path
        agent.critic_optimizer.zero_grad()
        x = trainer._critic_input(batch)
        q = agent.critic(x)
        from repro.nn import mse_loss

        _, grad = mse_loss(q, target_q)
        agent.critic.backward(grad)

        eps = 1e-6
        params = agent.critic.parameters()
        for p in params[:2]:  # first weight + bias suffice for path coverage
            analytic = p.grad
            for idx in [(0, 0), (1, 0)] if p.value.ndim == 2 else [(0,), (1,)]:
                orig = p.value[idx]
                p.value[idx] = orig + eps
                up = critic_td_objective(trainer, 0, batch, target_q)
                p.value[idx] = orig - eps
                down = critic_td_objective(trainer, 0, batch, target_q)
                p.value[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert analytic[idx] == pytest.approx(numeric, abs=1e-5)


class TestPolicyGradientPath:
    @pytest.mark.parametrize("policy_reg", [0.0, 1e-3])
    def test_actor_gradient_matches_finite_difference(self, rng, policy_reg):
        trainer = make_trainer(policy_reg=policy_reg)
        fill(trainer, rng)
        batch = trainer._draw_batch(0)
        agent = trainer.agents[0]

        # run the trainer's policy update to populate actor gradients;
        # lr is ~0 so parameters stay put for the numeric probe
        before = [p.value.copy() for p in agent.actor.parameters()]
        trainer._update_actor(0, batch)
        for p, b in zip(agent.actor.parameters(), before):
            np.testing.assert_allclose(p.value, b, atol=1e-6)

        eps = 1e-6
        # _update_actor stepped Adam (negligibly) but left grads populated?
        # Adam's step zeroed nothing; grads persist on the parameters.
        params = agent.actor.parameters()
        for p in params[:2]:
            analytic = p.grad
            probes = [(0, 0), (2, 1)] if p.value.ndim == 2 else [(0,), (3,)]
            for idx in probes:
                orig = p.value[idx]
                p.value[idx] = orig + eps
                up = policy_objective(trainer, 0, batch)
                p.value[idx] = orig - eps
                down = policy_objective(trainer, 0, batch)
                p.value[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert analytic[idx] == pytest.approx(numeric, abs=1e-5), (
                    f"policy-gradient mismatch at {p.name}{idx} "
                    f"(reg={policy_reg})"
                )

    def test_policy_update_does_not_corrupt_critic(self, rng):
        """The policy pass must discard its critic parameter gradients."""
        trainer = make_trainer()
        fill(trainer, rng)
        batch = trainer._draw_batch(0)
        trainer._update_actor(0, batch)
        for p in trainer.agents[0].critic.parameters():
            assert np.all(p.grad == 0), "critic grads leaked from the policy pass"

    def test_action_column_slicing_is_agent_specific(self, rng):
        """Agent 1's policy gradient must flow through agent 1's columns."""
        trainer = make_trainer()
        fill(trainer, rng)
        batch = trainer._draw_batch(1)
        agent = trainer.agents[1]
        trainer._update_actor(1, batch)
        grads = [np.abs(p.grad).sum() for p in agent.actor.parameters()]
        assert all(g > 0 for g in grads), "agent 1's actor received no gradient"
