"""Tests for the transition-data layout reorganizer (paper §IV-B2)."""

import numpy as np
import pytest

from repro.buffers import MultiAgentReplay
from repro.core import LayoutReorganizer
from tests.conftest import fill_multi_agent_replay


def make_replay(rng, rows=200, capacity=512):
    replay = MultiAgentReplay([8, 6], [3, 3], capacity=capacity)
    fill_multi_agent_replay(replay, rng, rows)
    return replay


class TestLazyMode:
    def test_stale_until_reorganized(self, rng):
        replay = make_replay(rng)
        layout = LayoutReorganizer(replay)
        assert layout.stale
        layout.reorganize()
        assert not layout.stale

    def test_insert_makes_stale_again(self, rng):
        replay = make_replay(rng)
        layout = LayoutReorganizer(replay)
        layout.reorganize()
        fill_multi_agent_replay(replay, rng, 1)
        assert layout.stale

    def test_sample_triggers_sync(self, rng):
        replay = make_replay(rng)
        layout = LayoutReorganizer(replay)
        batch = layout.sample_all_agents(rng, 32)
        assert batch.size == 32
        assert layout.reorganizations == 1

    def test_reorganize_counts_floats(self, rng):
        replay = make_replay(rng, rows=100)
        layout = LayoutReorganizer(replay)
        moved = layout.reorganize()
        assert moved == 100 * replay.schema.width
        assert layout.reshape_floats == moved
        assert layout.reshape_seconds > 0

    def test_sample_content_matches_agent_major(self, rng):
        replay = make_replay(rng)
        layout = LayoutReorganizer(replay)
        batch = layout.sample_all_agents(rng, 16)
        for k, buf in enumerate(replay.buffers):
            direct = buf.gather_vectorized(batch.indices)
            np.testing.assert_array_equal(batch.agents[k].obs, direct[0])
            np.testing.assert_array_equal(batch.agents[k].act, direct[1])
            np.testing.assert_array_equal(batch.agents[k].rew, direct[2])

    def test_no_redundant_reorganization(self, rng):
        replay = make_replay(rng)
        layout = LayoutReorganizer(replay)
        layout.sample_all_agents(rng, 16)
        layout.sample_all_agents(rng, 16)
        assert layout.reorganizations == 1  # second sample reuses the store


class TestValidation:
    def test_sample_too_large(self, rng):
        replay = make_replay(rng, rows=10)
        layout = LayoutReorganizer(replay)
        with pytest.raises(ValueError, match="need >= 32"):
            layout.sample_all_agents(rng, 32)

    def test_invalid_batch_size(self, rng):
        replay = make_replay(rng)
        layout = LayoutReorganizer(replay)
        with pytest.raises(ValueError):
            layout.sample_all_agents(rng, 0)

    def test_cost_summary_keys(self, rng):
        layout = LayoutReorganizer(make_replay(rng))
        layout.reorganize()
        summary = layout.cost_summary()
        assert set(summary) == {"reshape_floats", "reshape_seconds", "reorganizations"}
