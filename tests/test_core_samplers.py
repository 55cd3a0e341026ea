"""Tests for the four sampling strategies — the paper's contribution."""

import numpy as np
import pytest

from repro.core import (
    CacheAwareSampler,
    InformationPrioritizedSampler,
    PAPER_BATCH_SIZE,
    PrioritizedSampler,
    ThresholdNeighborPredictor,
    UniformSampler,
)
from tests.conftest import ENGINE


class TestUniformSampler:
    def test_paper_batch_size_constant(self):
        assert PAPER_BATCH_SIZE == 1024

    def test_batch_shape(self, rng, small_replay):
        batch = UniformSampler().sample(small_replay, rng, batch_size=64)
        assert batch.size == 64
        assert batch.num_agents == 3
        assert batch.agents[0].obs.shape == (64, 16)
        assert batch.agents[2].obs.shape == (64, 14)

    def test_no_weights_no_runs(self, rng, small_replay):
        batch = UniformSampler().sample(small_replay, rng, batch_size=32)
        assert batch.weights is None
        assert batch.runs == []

    def test_data_matches_indices(self, rng, small_replay):
        batch = UniformSampler().sample(small_replay, rng, batch_size=32)
        direct = small_replay.buffers[0].gather_vectorized(batch.indices)
        np.testing.assert_array_equal(batch.agents[0].obs, direct[0])

    def test_vectorized_matches_loop_distributionally(self, small_replay):
        a = UniformSampler(fast_path=False).sample(
            small_replay, np.random.default_rng(5), batch_size=32
        )
        b = UniformSampler(fast_path=True).sample(
            small_replay, np.random.default_rng(5), batch_size=32
        )
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.agents[1].obs, b.agents[1].obs)

    def test_insufficient_data_raises(self, rng):
        from repro.buffers import MultiAgentReplay
        from tests.conftest import fill_multi_agent_replay

        replay = MultiAgentReplay([4], [2], capacity=64, storage=ENGINE["storage"])
        fill_multi_agent_replay(replay, rng, 10)
        with pytest.raises(ValueError, match="need >= 32"):
            UniformSampler().sample(replay, rng, batch_size=32)

    def test_empty_replay_raises(self, rng):
        from repro.buffers import MultiAgentReplay

        replay = MultiAgentReplay([4], [2], capacity=64, storage=ENGINE["storage"])
        with pytest.raises(ValueError, match="empty"):
            UniformSampler().sample(replay, rng, batch_size=4)

    def test_invalid_batch_size(self, rng, small_replay):
        with pytest.raises(ValueError):
            UniformSampler().sample(small_replay, rng, batch_size=0)

    def test_update_priorities_is_noop(self, rng, small_replay):
        sampler = UniformSampler()
        batch = sampler.sample(small_replay, rng, batch_size=16)
        sampler.update_priorities(small_replay, 0, batch, np.ones(16))  # no raise


class TestCacheAwareSampler:
    def test_paper_settings_valid(self, rng, small_replay):
        # both paper configurations multiply to the batch size
        for n, r in [(16, 8), (8, 16)]:
            batch = CacheAwareSampler(n, r).sample(small_replay, rng, batch_size=128)
            assert batch.size == 128
            assert len(batch.runs) == r
            assert all(run.length == n for run in batch.runs)

    def test_product_mismatch_raises(self, rng, small_replay):
        with pytest.raises(ValueError, match="!= batch_size"):
            CacheAwareSampler(16, 8).sample(small_replay, rng, batch_size=100)

    def test_indices_are_contiguous_runs(self, rng, small_replay):
        batch = CacheAwareSampler(8, 4).sample(small_replay, rng, batch_size=32)
        size = len(small_replay)
        for k, run in enumerate(batch.runs):
            chunk = batch.indices[k * 8 : (k + 1) * 8]
            expected = (run.start + np.arange(8)) % size
            np.testing.assert_array_equal(chunk, expected)

    def test_data_matches_indices(self, rng, small_replay):
        batch = CacheAwareSampler(8, 4).sample(small_replay, rng, batch_size=32)
        for agent_idx in range(3):
            direct = small_replay.buffers[agent_idx].gather_vectorized(batch.indices)
            np.testing.assert_array_equal(batch.agents[agent_idx].obs, direct[0])
            np.testing.assert_array_equal(batch.agents[agent_idx].rew, direct[2])

    def test_unweighted(self, rng, small_replay):
        batch = CacheAwareSampler(8, 4).sample(small_replay, rng, batch_size=32)
        assert batch.weights is None

    def test_name_encodes_configuration(self):
        assert CacheAwareSampler(64, 16).name == "cache_aware_n64_r16"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CacheAwareSampler(0, 16)

    def test_references_are_random_across_calls(self, rng, small_replay):
        s = CacheAwareSampler(8, 4)
        a = s.sample(small_replay, rng, batch_size=32)
        b = s.sample(small_replay, rng, batch_size=32)
        assert not np.array_equal(a.indices, b.indices)


class TestPrioritizedSampler:
    def test_returns_weights(self, rng, prioritized_replay):
        batch = PrioritizedSampler(beta=0.5).sample(
            prioritized_replay, rng, batch_size=64
        )
        assert batch.weights is not None
        assert batch.weights.shape == (64,)
        assert np.all(batch.weights > 0) and np.all(batch.weights <= 1.0 + 1e-9)

    def test_requires_prioritized_replay(self, rng, small_replay):
        with pytest.raises(TypeError, match="not prioritized"):
            PrioritizedSampler().sample(small_replay, rng, batch_size=32)

    def test_priority_update_biases_future_sampling(self, rng, prioritized_replay):
        sampler = PrioritizedSampler(beta=0.0)
        pbuf = prioritized_replay.priority_buffer(0)
        pbuf.update_priorities(range(len(prioritized_replay)), [1e-6] * len(prioritized_replay))
        pbuf.update_priorities([42], [1000.0])
        batch = sampler.sample(prioritized_replay, rng, batch_size=64)
        assert np.mean(batch.indices == 42) > 0.9

    def test_update_priorities_via_sampler(self, rng, prioritized_replay):
        sampler = PrioritizedSampler()
        batch = sampler.sample(prioritized_replay, rng, batch_size=32)
        td = np.full(32, 7.0)
        sampler.update_priorities(prioritized_replay, 0, batch, td)
        probs = prioritized_replay.priority_buffer(0).probabilities(batch.indices[:1])
        assert probs[0] > 0

    def test_td_length_mismatch_raises(self, rng, prioritized_replay):
        sampler = PrioritizedSampler()
        batch = sampler.sample(prioritized_replay, rng, batch_size=32)
        with pytest.raises(ValueError, match="length"):
            sampler.update_priorities(prioritized_replay, 0, batch, np.ones(8))

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            PrioritizedSampler(beta=-0.1)

    def test_data_matches_indices(self, rng, prioritized_replay):
        batch = PrioritizedSampler().sample(prioritized_replay, rng, batch_size=32)
        direct = prioritized_replay.buffers[1].gather_vectorized(batch.indices)
        np.testing.assert_array_equal(batch.agents[1].obs, direct[0])


class TestInformationPrioritizedSampler:
    def test_exact_batch_size(self, rng, prioritized_replay):
        batch = InformationPrioritizedSampler().sample(
            prioritized_replay, rng, batch_size=97  # odd size forces truncation
        )
        assert batch.size == 97
        assert sum(r.length for r in batch.runs) == 97

    def test_run_lengths_respect_predictor(self, rng, prioritized_replay):
        predictor = ThresholdNeighborPredictor()
        batch = InformationPrioritizedSampler(predictor=predictor).sample(
            prioritized_replay, rng, batch_size=64
        )
        # run lengths are one of the predictor's counts (or a final truncation)
        counts = {1, 2, 4}
        for run in batch.runs[:-1]:
            assert run.length in counts

    def test_high_priority_references_expand_more(self, rng, prioritized_replay):
        pbuf = prioritized_replay.priority_buffer(0)
        n = len(prioritized_replay)
        # uniform low priorities except one dominant index
        pbuf.update_priorities(range(n), [1e-3] * n)
        pbuf.update_priorities([100], [1e6])
        sampler = InformationPrioritizedSampler(beta=0.0)
        batch = sampler.sample(prioritized_replay, rng, batch_size=64)
        runs_at_100 = [r for r in batch.runs if r.start == 100]
        assert runs_at_100, "dominant index never chosen as reference"
        # normalized priority ~1 -> max neighbor count (4)
        assert all(r.length == 4 for r in runs_at_100[:-1] or runs_at_100)

    def test_weights_broadcast_over_runs(self, rng, prioritized_replay):
        batch = InformationPrioritizedSampler(beta=0.8).sample(
            prioritized_replay, rng, batch_size=64
        )
        assert batch.weights.shape == (64,)
        offset = 0
        for run in batch.runs:
            chunk = batch.weights[offset : offset + run.length]
            np.testing.assert_allclose(chunk, chunk[0])
            offset += run.length

    def test_data_matches_indices(self, rng, prioritized_replay):
        batch = InformationPrioritizedSampler().sample(
            prioritized_replay, rng, batch_size=48
        )
        for agent_idx in range(3):
            direct = prioritized_replay.buffers[agent_idx].gather_vectorized(
                batch.indices
            )
            np.testing.assert_array_equal(batch.agents[agent_idx].obs, direct[0])

    def test_average_references_fewer_than_batch(self, rng, prioritized_replay):
        """Locality means fewer tree descents than PER's one-per-row."""
        batch = InformationPrioritizedSampler().sample(
            prioritized_replay, rng, batch_size=128
        )
        assert len(batch.runs) < 128

    def test_priorities_written_back_for_all_rows(self, rng, prioritized_replay):
        sampler = InformationPrioritizedSampler()
        batch = sampler.sample(prioritized_replay, rng, batch_size=32)
        sampler.update_priorities(
            prioritized_replay, 0, batch, np.linspace(1, 2, 32)
        )
        # no exception and the priority tree remains consistent
        pbuf = prioritized_replay.priority_buffer(0)
        assert pbuf.probabilities(batch.indices[:4]).min() > 0
