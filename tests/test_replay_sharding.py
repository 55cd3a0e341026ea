"""Shard routing, proportional allocation, and sharded checkpointing.

Covers the in-process half of the replay dataset service: deterministic
routing, the single-shard byte-equivalence anchor, checkpoint
round-trips with wrapped ring cursors, and sharded ↔ single-arena
interchange (``export_rows`` / ``rows_in_order``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.buffers.multi_agent import MultiAgentReplay
from repro.buffers.transition import JointSchema
from repro.replay import (
    ShardRouter,
    ShardedReplay,
    allocate_proportional,
    rows_in_order,
)

OBS_DIMS = [4, 3]
ACT_DIMS = [2, 2]
SCHEMA = JointSchema.from_dims(OBS_DIMS, ACT_DIMS)


def make_rows(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, SCHEMA.width)).astype(np.float64)


class TestShardRouter:
    def test_round_robin_cycles(self):
        router = ShardRouter(3)
        ids = router.assign(7)
        np.testing.assert_array_equal(ids, [0, 1, 2, 0, 1, 2, 0])
        assert router.total == 7
        assert router.assign(2).tolist() == [1, 2]

    def test_hash_matches_shard_of_and_is_deterministic(self):
        a, b = ShardRouter(4, "hash"), ShardRouter(4, "hash")
        ids = a.assign(64)
        np.testing.assert_array_equal(ids, b.assign(64))
        assert all(a.shard_of(g) == ids[g] for g in range(64))
        assert set(ids.tolist()) <= set(range(4))

    def test_state_roundtrip_and_topology_check(self):
        router = ShardRouter(3)
        router.assign(11)
        fresh = ShardRouter(3)
        fresh.load_state_dict(router.state_dict())
        np.testing.assert_array_equal(fresh.assign(4), router.assign(4))
        with pytest.raises(ValueError, match="topology"):
            ShardRouter(2).load_state_dict(router.state_dict())

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ShardRouter(2, "range")


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


class TestSingleShardEquivalence:
    """S=1 sharded dataset is byte-identical to one arena replay."""

    def test_push_matches_single_arena(self):
        rows = make_rows(40, seed=3)
        sharded = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=64, num_shards=1)
        single = MultiAgentReplay(
            OBS_DIMS, ACT_DIMS, capacity=64, storage="timestep_major"
        )
        for chunk in np.split(rows, 4):
            sharded.push(chunk)
            single.ingest(packed_rows=chunk)
        arena = sharded.shards[0].arena
        np.testing.assert_array_equal(arena.values, single.arena.values)
        assert len(arena) == len(single.arena)
        assert arena.next_index == single.arena.next_index

    def test_sampling_matches_single_arena(self):
        rows = make_rows(32, seed=5)
        sharded = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=64, num_shards=1)
        single = MultiAgentReplay(
            OBS_DIMS, ACT_DIMS, capacity=64, storage="timestep_major"
        )
        sharded.push(rows)
        single.ingest(packed_rows=rows)
        got = sharded.sample_rows(np.random.default_rng(9), 16)
        indices = np.random.default_rng(9).integers(0, len(single.arena), size=16)
        np.testing.assert_array_equal(got, single.arena.gather_joint(indices))


class TestShardedCheckpoint:
    """Satellite: arena checkpoints under sharding, incl. wrapped cursors."""

    @pytest.mark.parametrize("policy", ["round_robin", "hash"])
    def test_state_dict_roundtrip_with_wrapped_cursors(self, policy):
        # capacity 30 over 3 shards = 10 rows/shard; 73 pushes wrap every ring
        replay = ShardedReplay(
            OBS_DIMS, ACT_DIMS, capacity=30, num_shards=3, policy=policy
        )
        replay.push(make_rows(73, seed=7))
        assert all(len(s.arena) == s.arena.capacity for s in replay.shards)

        resumed = ShardedReplay(
            OBS_DIMS, ACT_DIMS, capacity=30, num_shards=3, policy=policy
        )
        resumed.load_state_dict(replay.state_dict())
        for live, back in zip(replay.shards, resumed.shards):
            np.testing.assert_array_equal(live.arena.values, back.arena.values)
            assert len(back.arena) == len(live.arena)
            assert back.arena.next_index == live.arena.next_index
        assert resumed.router.total == replay.router.total
        np.testing.assert_array_equal(resumed.shard_ingested, replay.shard_ingested)

        # resuming must continue byte-identically: same pushes, same state
        more = make_rows(17, seed=8)
        replay.push(more)
        resumed.push(more)
        for live, back in zip(replay.shards, resumed.shards):
            np.testing.assert_array_equal(live.arena.values, back.arena.values)
            assert back.arena.next_index == live.arena.next_index

    def test_npz_roundtrip(self, tmp_path):
        replay = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=24, num_shards=2)
        replay.push(make_rows(31, seed=11))
        path = str(tmp_path / "replay.npz")
        replay.save(path)

        resumed = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=24, num_shards=2)
        resumed.restore(path)
        np.testing.assert_array_equal(resumed.export_rows(), replay.export_rows())
        got = resumed.sample_rows(np.random.default_rng(1), 8)
        np.testing.assert_array_equal(
            got, replay.sample_rows(np.random.default_rng(1), 8)
        )

    def test_topology_mismatch_rejected(self):
        replay = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=24, num_shards=2)
        replay.push(make_rows(8))
        other = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=24, num_shards=3)
        with pytest.raises(ValueError, match="shards"):
            other.load_state_dict(replay.state_dict())


class TestInterchange:
    """Sharded ↔ single-arena conversion preserves rows and order."""

    def test_export_before_wrap_is_the_stream(self):
        rows = make_rows(20, seed=13)
        replay = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=60, num_shards=3)
        replay.push(rows)
        np.testing.assert_array_equal(replay.export_rows(), rows)

    def test_export_after_wrap_keeps_global_order(self):
        rows = make_rows(50, seed=17)
        replay = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=12, num_shards=3)
        replay.push(rows)
        exported = replay.export_rows()
        assert exported.shape[0] == len(replay)
        # expected retained set: per shard, the newest shard_capacity of its
        # round-robin slice of the stream, merged back by global index
        expected = []
        for s in range(3):
            mine = np.arange(s, 50, 3)
            expected.extend(mine[-replay.shard_capacity :])
        np.testing.assert_array_equal(exported, rows[np.sort(expected)])

    def test_sharded_to_single_to_sharded(self):
        rows = make_rows(37, seed=19)
        sharded = ShardedReplay(OBS_DIMS, ACT_DIMS, capacity=16, num_shards=4)
        sharded.push(rows)
        exported = sharded.export_rows()

        single = MultiAgentReplay(
            OBS_DIMS, ACT_DIMS, capacity=64, storage="timestep_major"
        )
        single.ingest(packed_rows=exported)
        np.testing.assert_array_equal(rows_in_order(single), exported)

        resharded = ShardedReplay.from_rows(
            rows_in_order(single), OBS_DIMS, ACT_DIMS, capacity=64, num_shards=2
        )
        np.testing.assert_array_equal(resharded.export_rows(), exported)

    def test_single_ring_unwrap(self):
        rows = make_rows(25, seed=23)
        single = MultiAgentReplay(
            OBS_DIMS, ACT_DIMS, capacity=16, storage="timestep_major"
        )
        single.ingest(packed_rows=rows)
        np.testing.assert_array_equal(rows_in_order(single), rows[-16:])

    def test_export_requires_round_robin(self):
        replay = ShardedReplay(
            OBS_DIMS, ACT_DIMS, capacity=16, num_shards=2, policy="hash"
        )
        replay.push(make_rows(8))
        with pytest.raises(ValueError, match="round_robin"):
            replay.export_rows()


class TestPrioritizedGuard:
    def test_per_cannot_shard(self):
        with pytest.raises(ValueError, match="prioritized"):
            ShardedReplay(OBS_DIMS, ACT_DIMS, num_shards=2, prioritized=True)

    def test_per_single_shard_allowed(self):
        replay = ShardedReplay(
            OBS_DIMS, ACT_DIMS, capacity=32, num_shards=1, prioritized=True
        )
        assert replay.shards[0].prioritized
