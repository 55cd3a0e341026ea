"""Tests for the MADDPG/MATD3 trainers and the variant factory."""

import numpy as np
import pytest

from repro.algos import (
    ALGORITHMS,
    MADDPGTrainer,
    MARLConfig,
    MATD3Trainer,
    VARIANTS,
    build_trainer,
    make_sampler,
)
from repro.core import (
    CacheAwareSampler,
    InformationPrioritizedSampler,
    PrioritizedSampler,
    UniformSampler,
)
from repro.nn.functional import one_hot
from tests.conftest import engine_config


def tiny_trainer(cls=MADDPGTrainer, sampler=None, seed=0, **cfg):
    defaults = dict(batch_size=32, buffer_capacity=512, update_every=10)
    defaults.update(cfg)
    config = engine_config(**defaults)
    return cls([8, 8, 6], [5, 5, 5], config=config, sampler=sampler, seed=seed)


def feed(trainer, rng, steps):
    obs_dims = trainer.obs_dims
    for _ in range(steps):
        obs = [rng.standard_normal(d) for d in obs_dims]
        act = [one_hot(rng.integers(5), 5) for _ in obs_dims]
        rew = [float(rng.standard_normal()) for _ in obs_dims]
        next_obs = [rng.standard_normal(d) for d in obs_dims]
        done = [False] * len(obs_dims)
        trainer.experience(obs, act, rew, next_obs, done)


class TestConfig:
    def test_paper_defaults(self):
        cfg = MARLConfig()
        assert cfg.lr == 0.01
        assert cfg.gamma == 0.95
        assert cfg.tau == 0.01
        assert cfg.batch_size == 1024
        assert cfg.buffer_capacity == 1_000_000
        assert cfg.update_every == 100
        assert cfg.max_episode_len == 25
        assert cfg.hidden_units == (64, 64)

    def test_scaled_overrides(self):
        cfg = MARLConfig().scaled(batch_size=64, buffer_capacity=1000)
        assert cfg.batch_size == 64
        assert cfg.lr == 0.01  # unchanged

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lr", 0.0),
            ("gamma", 1.5),
            ("tau", 0.0),
            ("batch_size", 0),
            ("update_every", 0),
            ("policy_delay", 0),
            ("gumbel_temperature", 0.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            MARLConfig(**{field: value})

    def test_buffer_smaller_than_batch_rejected(self):
        with pytest.raises(ValueError):
            MARLConfig(batch_size=128, buffer_capacity=64)


class TestActionSelection:
    def test_act_returns_one_action_per_agent(self, rng):
        trainer = tiny_trainer()
        obs = [rng.standard_normal(d) for d in trainer.obs_dims]
        actions = trainer.act(obs)
        assert len(actions) == 3
        for a in actions:
            assert a.shape == (5,)
            assert a.sum() == pytest.approx(1.0)

    def test_act_wrong_count_raises(self, rng):
        trainer = tiny_trainer()
        with pytest.raises(ValueError):
            trainer.act([np.zeros(8)])

    def test_act_records_phase_time(self, rng):
        trainer = tiny_trainer()
        trainer.act([rng.standard_normal(d) for d in trainer.obs_dims])
        assert trainer.timer.total("action_selection") > 0


class TestUpdateCadence:
    def test_no_update_before_warmup(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 15)  # cadence met but batch not available
        assert trainer.update() is None

    def test_update_fires_after_cadence_and_warmup(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 40)
        losses = trainer.update()
        assert losses is not None
        assert np.isfinite(losses["q_loss"])
        assert np.isfinite(losses["p_loss"])

    def test_cadence_counter_resets(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 40)
        assert trainer.update() is not None
        assert trainer.update() is None  # cadence not yet met again
        feed(trainer, rng, 10)
        assert trainer.update() is not None

    def test_force_bypasses_cadence_not_warmup(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 5)
        assert trainer.update(force=True) is None  # only 5 < 32 rows
        feed(trainer, rng, 40)
        trainer.update()
        assert trainer.update(force=True) is not None

    def test_update_rounds_counted(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 40)
        trainer.update()
        assert trainer.update_rounds == 1


class TestUpdateMechanics:
    def test_update_records_subphases(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 40)
        trainer.update()
        totals = trainer.timer.totals()
        assert totals["update_all_trainers.sampling"] > 0
        assert totals["update_all_trainers.target_q"] > 0
        assert totals["update_all_trainers.loss_update"] > 0

    def test_update_changes_critic_parameters(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 40)
        before = trainer.agents[0].critic.parameters()[0].value.copy()
        trainer.update()
        assert not np.allclose(before, trainer.agents[0].critic.parameters()[0].value)

    def test_update_changes_actor_parameters(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 40)
        before = trainer.agents[0].actor.parameters()[0].value.copy()
        trainer.update()
        assert not np.allclose(before, trainer.agents[0].actor.parameters()[0].value)

    def test_update_moves_targets(self, rng):
        trainer = tiny_trainer()
        feed(trainer, rng, 40)
        before = trainer.agents[0].target_critic.parameters()[0].value.copy()
        trainer.update()
        after = trainer.agents[0].target_critic.parameters()[0].value
        assert not np.allclose(before, after)
        # tau = 0.01: targets move much less than online nets
        online_delta = np.abs(
            trainer.agents[0].critic.parameters()[0].value - before
        ).max()
        target_delta = np.abs(after - before).max()
        assert target_delta < online_delta

    def test_repeated_updates_reduce_critic_loss_on_fixed_data(self, rng):
        # stationary synthetic data: critic should fit its TD target better
        trainer = tiny_trainer(update_every=1)
        feed(trainer, rng, 64)
        first = trainer.update(force=True)["q_loss"]
        for _ in range(30):
            last = trainer.update(force=True)["q_loss"]
        assert last < first

    def test_joint_dim_matches_agents(self):
        trainer = tiny_trainer()
        assert trainer.joint_dim == 8 + 8 + 6 + 15

    def test_num_parameters_scales_with_agents(self):
        small = tiny_trainer()
        big = MADDPGTrainer(
            [8] * 6,
            [5] * 6,
            config=engine_config(batch_size=32, buffer_capacity=512),
            seed=0,
        )
        assert big.num_parameters() > small.num_parameters()


class TestSamplerIntegration:
    def test_cache_aware_trainer_updates(self, rng):
        trainer = tiny_trainer(sampler=CacheAwareSampler(neighbors=8, refs=4))
        feed(trainer, rng, 40)
        assert trainer.update() is not None

    def test_per_trainer_builds_prioritized_replay(self, rng):
        trainer = tiny_trainer(sampler=PrioritizedSampler())
        assert trainer.replay.prioritized
        feed(trainer, rng, 40)
        assert trainer.update() is not None

    def test_info_prioritized_trainer_updates(self, rng):
        trainer = tiny_trainer(sampler=InformationPrioritizedSampler())
        feed(trainer, rng, 40)
        losses = trainer.update()
        assert losses is not None and np.isfinite(losses["q_loss"])

    def test_per_beta_annealed_by_updates(self, rng):
        trainer = tiny_trainer(sampler=PrioritizedSampler(), update_every=1)
        feed(trainer, rng, 40)
        beta0 = trainer.sampler.beta
        trainer.update(force=True)
        assert trainer.sampler.beta >= beta0


class TestMATD3:
    def test_twin_critics_built(self):
        trainer = tiny_trainer(MATD3Trainer)
        assert all(a.critic2 is not None for a in trainer.agents)

    def test_update_works(self, rng):
        trainer = tiny_trainer(MATD3Trainer)
        feed(trainer, rng, 40)
        losses = trainer.update()
        assert losses is not None and np.isfinite(losses["q_loss"])

    def test_policy_delay_skips_actor_updates(self, rng):
        trainer = tiny_trainer(MATD3Trainer, update_every=1, policy_delay=2)
        feed(trainer, rng, 40)
        actor_before = trainer.agents[0].actor.parameters()[0].value.copy()
        # round 1 (update_rounds 0 -> 1): (0+1) % 2 != 0 -> no actor update
        losses = trainer.update(force=True)
        assert losses["p_loss"] == 0.0
        np.testing.assert_array_equal(
            actor_before, trainer.agents[0].actor.parameters()[0].value
        )
        # round 2: delayed update fires
        losses = trainer.update(force=True)
        assert losses["p_loss"] != 0.0
        assert not np.allclose(
            actor_before, trainer.agents[0].actor.parameters()[0].value
        )

    def test_target_q_uses_twin_minimum(self, rng):
        trainer = tiny_trainer(MATD3Trainer)
        feed(trainer, rng, 40)
        batch = trainer._draw_batch(0)
        next_actions = trainer._target_actions(batch)
        joint_next = np.concatenate(
            [ab.next_obs for ab in batch.agents] + next_actions, axis=1
        )
        agent = trainer.agents[0]
        twin_min = trainer._target_q_values(0, joint_next)
        q1 = agent.target_critic(joint_next)
        q2 = agent.target_critic2(joint_next)
        np.testing.assert_array_equal(twin_min, np.minimum(q1, q2))

    def test_name(self):
        assert tiny_trainer(MATD3Trainer).name == "matd3"
        assert tiny_trainer().name == "maddpg"


class TestVariantFactory:
    def test_all_variants_constructible(self):
        cfg = engine_config(batch_size=1024, buffer_capacity=2048)
        for variant in VARIANTS:
            trainer = build_trainer("maddpg", variant, [8, 8], [5, 5], config=cfg)
            assert isinstance(trainer, MADDPGTrainer)

    def test_algorithms_registry(self):
        assert set(ALGORITHMS) == {"maddpg", "matd3"}

    def test_paper_cache_aware_settings(self):
        s = make_sampler("cache_aware_n16_r64", batch_size=1024)
        assert isinstance(s, CacheAwareSampler)
        assert (s.neighbors, s.refs) == (16, 64)
        s = make_sampler("cache_aware_n64_r16", batch_size=1024)
        assert (s.neighbors, s.refs) == (64, 16)

    def test_cache_aware_product_validated(self):
        with pytest.raises(ValueError, match="batch size"):
            make_sampler("cache_aware_n16_r64", batch_size=512)

    def test_sampler_kinds(self):
        assert isinstance(make_sampler("baseline", 1024), UniformSampler)
        assert isinstance(make_sampler("per", 1024), PrioritizedSampler)
        assert isinstance(
            make_sampler("info_prioritized", 1024), InformationPrioritizedSampler
        )

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError, match="unknown variant"):
            make_sampler("warp_speed", 1024)

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            build_trainer("q_learning", "baseline", [4], [2])

    def test_matd3_variant(self):
        cfg = engine_config(batch_size=32, buffer_capacity=64)
        trainer = build_trainer("matd3", "baseline", [4], [2], config=cfg)
        assert isinstance(trainer, MATD3Trainer)
