"""Shard routing and proportional allocation — the in-process half of
the replay dataset service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.replay import ShardRouter, allocate_proportional


class TestShardRouter:
    def test_round_robin_cycles(self):
        router = ShardRouter(3)
        ids = router.assign(7)
        np.testing.assert_array_equal(ids, [0, 1, 2, 0, 1, 2, 0])
        assert router.total == 7
        assert router.assign(2).tolist() == [1, 2]


class TestAllocateProportional:
    def test_sums_exactly_and_skips_empty(self):
        counts = allocate_proportional([10, 0, 30], 16)
        assert counts.sum() == 16
        assert counts[1] == 0
        assert counts[2] > counts[0]

    def test_equal_shards_split_evenly(self):
        np.testing.assert_array_equal(
            allocate_proportional([50, 50, 50, 50], 8), [2, 2, 2, 2]
        )

    def test_remainder_goes_to_largest_fraction(self):
        # quotas [1.0, 0.714.., 1.285..] floor to [1, 0, 1]; the leftover
        # draw goes to the largest fractional part (shard 1's 0.714)
        np.testing.assert_array_equal(allocate_proportional([7, 5, 9], 3), [1, 1, 1])

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            allocate_proportional([0, 0], 4)
