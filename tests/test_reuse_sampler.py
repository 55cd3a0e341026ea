"""Tests for the AccMER-style transition-reuse sampler."""

import numpy as np
import pytest

from repro.algos import MARLConfig, build_trainer
from repro.core import (
    CacheAwareSampler,
    PrioritizedSampler,
    ReuseWindowSampler,
    UniformSampler,
)


class TestReuseSemantics:
    def test_window_one_always_fresh(self, rng, small_replay):
        sampler = ReuseWindowSampler(UniformSampler(), window=1)
        a = sampler.sample(small_replay, rng, 32)
        b = sampler.sample(small_replay, rng, 32)
        assert not np.array_equal(a.indices, b.indices)
        assert sampler.fresh_draws == 2
        assert sampler.reused_serves == 0

    def test_batch_reused_within_window(self, rng, small_replay):
        sampler = ReuseWindowSampler(UniformSampler(), window=3)
        batches = [sampler.sample(small_replay, rng, 32) for _ in range(3)]
        assert batches[0] is batches[1] is batches[2]
        assert sampler.fresh_draws == 1
        assert sampler.reused_serves == 2

    def test_fresh_draw_after_window(self, rng, small_replay):
        sampler = ReuseWindowSampler(UniformSampler(), window=2)
        a = sampler.sample(small_replay, rng, 32)
        sampler.sample(small_replay, rng, 32)
        c = sampler.sample(small_replay, rng, 32)
        assert c is not a
        assert sampler.fresh_draws == 2

    def test_caches_are_per_agent(self, rng, small_replay):
        sampler = ReuseWindowSampler(UniformSampler(), window=4)
        a0 = sampler.sample(small_replay, rng, 32, agent_idx=0)
        a1 = sampler.sample(small_replay, rng, 32, agent_idx=1)
        assert a0 is not a1
        assert sampler.sample(small_replay, rng, 32, agent_idx=0) is a0
        assert sampler.sample(small_replay, rng, 32, agent_idx=1) is a1

    def test_batch_size_change_triggers_fresh_draw(self, rng, small_replay):
        sampler = ReuseWindowSampler(UniformSampler(), window=4)
        a = sampler.sample(small_replay, rng, 32)
        b = sampler.sample(small_replay, rng, 16)
        assert b.size == 16 and a.size == 32

    def test_reuse_ratio(self, rng, small_replay):
        sampler = ReuseWindowSampler(UniformSampler(), window=4)
        for _ in range(8):
            sampler.sample(small_replay, rng, 32)
        assert sampler.reuse_ratio == pytest.approx(6 / 8)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ReuseWindowSampler(UniformSampler(), window=0)

    def test_name_composes(self):
        sampler = ReuseWindowSampler(CacheAwareSampler(16, 4), window=3)
        assert sampler.name == "reuse_w3[cache_aware_n16_r4]"


class TestPrioritizedComposition:
    def test_requires_priorities_delegates(self):
        assert not ReuseWindowSampler(UniformSampler(), 2).requires_priorities
        assert ReuseWindowSampler(PrioritizedSampler(), 2).requires_priorities

    def test_set_beta_delegates(self):
        base = PrioritizedSampler(beta=0.4)
        sampler = ReuseWindowSampler(base, 2)
        sampler.set_beta(0.9)
        assert base.beta == 0.9

    def test_priority_updates_pass_through(self, rng, prioritized_replay):
        base = PrioritizedSampler(beta=0.0)
        sampler = ReuseWindowSampler(base, window=2)
        batch = sampler.sample(prioritized_replay, rng, 32)
        sampler.update_priorities(
            prioritized_replay, 0, batch, np.full(32, 123.0)
        )
        probs = prioritized_replay.priority_buffer(0).probabilities(batch.indices[:1])
        assert probs[0] > 0


class TestTrainerIntegration:
    @pytest.mark.parametrize("variant", ["reuse_w4", "accmer_w4"])
    def test_variant_trains(self, rng, variant):
        config = MARLConfig(batch_size=32, buffer_capacity=512, update_every=10)
        trainer = build_trainer("maddpg", variant, [8, 6], [5, 5], config=config, seed=0)
        if variant == "accmer_w4":
            assert trainer.replay.prioritized
        from repro.nn.functional import one_hot

        for _ in range(40):
            obs = [rng.standard_normal(d) for d in trainer.obs_dims]
            act = [one_hot(rng.integers(5), 5) for _ in trainer.act_dims]
            trainer.experience(obs, act, [0.0, 0.0], obs, [False, False])
        losses = trainer.update(force=True)
        assert losses is not None and np.isfinite(losses["q_loss"])
        assert isinstance(trainer.sampler, ReuseWindowSampler)

    def test_bad_reuse_variant_rejected(self):
        from repro.algos import make_sampler

        with pytest.raises(ValueError, match="reuse_w"):
            make_sampler("reuse_wfoo", 1024)

    def test_reuse_is_faster_than_base(self, rng, small_replay):
        """The whole point: reuse amortizes the gather cost."""
        from repro.experiments import time_sampler_round

        base = time_sampler_round(UniformSampler(), small_replay, rng, 128, rounds=4)
        reuse = time_sampler_round(
            ReuseWindowSampler(UniformSampler(), window=4),
            small_replay,
            rng,
            128,
            rounds=4,
        )
        assert reuse.seconds < base.seconds
