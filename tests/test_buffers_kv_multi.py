"""Tests for the KV (timestep-major) store and the multi-agent façade."""

import numpy as np
import pytest

from repro.buffers import JointSchema, KVTransitionStore, MultiAgentReplay
from tests.conftest import fill_multi_agent_replay


class TestJointSchema:
    def test_from_dims(self):
        js = JointSchema.from_dims([16, 14], [5, 5])
        assert js.num_agents == 2
        assert js.width == (16 + 5 + 1 + 16 + 1) + (14 + 5 + 1 + 14 + 1)

    def test_agent_offsets_partition_row(self):
        js = JointSchema.from_dims([4, 6, 2], [2, 2, 2])
        offsets = js.agent_offsets()
        assert offsets[0][0] == 0
        for (s0, e0), (s1, _) in zip(offsets, offsets[1:]):
            assert e0 == s1
        assert offsets[-1][1] == js.width

    def test_mismatched_dims_raise(self):
        with pytest.raises(ValueError):
            JointSchema.from_dims([4], [2, 2])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            JointSchema.from_dims([], [])


class TestKVStoreEager:
    def make_store(self):
        schema = JointSchema.from_dims([4, 3], [2, 2])
        return KVTransitionStore(16, schema), schema

    @staticmethod
    def write_joint(store, obs, act, rew, next_obs, done):
        """One timestep through the arena's write path: every agent's
        column views at the cursor, then one joint advance."""
        slot = store.next_index
        for k in range(store.num_agents):
            views = store.agent_views(k)
            views["obs"][slot] = obs[k]
            views["act"][slot] = act[k]
            views["rew"][slot] = rew[k]
            views["next_obs"][slot] = next_obs[k]
            views["done"][slot] = float(done[k])
        store.advance(1)

    def write_zeros(self, store, rew=(0.0, 0.0)):
        zeros = [np.zeros(4), np.zeros(3)]
        self.write_joint(
            store, zeros, [np.zeros(2), np.zeros(2)], rew, zeros, [False, False]
        )

    def test_append_and_unpack_round_trip(self, rng):
        store, _ = self.make_store()
        obs = [rng.standard_normal(4), rng.standard_normal(3)]
        act = [rng.standard_normal(2), rng.standard_normal(2)]
        self.write_joint(store, obs, act, [1.0, 2.0], obs, [False, True])
        rows = store.gather_joint([0])
        for k in range(2):
            o, a, r, no, d = store.schema.split_batch(rows)[k]
            np.testing.assert_array_equal(o[0], obs[k])
            np.testing.assert_array_equal(a[0], act[k])
            assert r[0] == float(k + 1)
            assert bool(d[0] > 0.5) == (k == 1)

    def test_ring_wrap(self, rng):
        store, _ = self.make_store()
        for i in range(20):
            self.write_zeros(store, rew=(float(i), 0.0))
        assert len(store) == 16
        rows = store.gather_joint([0])
        _, _, r, _, _ = store.schema.split_batch(rows)[0]
        assert r[0] == 16.0  # slot 0 overwritten by insert 16

    def test_gather_validation(self, rng):
        store, _ = self.make_store()
        with pytest.raises(ValueError):
            store.gather_joint([0])  # empty store
        self.write_zeros(store)
        with pytest.raises(IndexError):
            store.gather_joint([5])
        with pytest.raises(ValueError):
            store.gather_joint([])

    def test_split_batch_width_validation(self, rng):
        store, _ = self.make_store()
        self.write_zeros(store)
        rows = store.gather_joint([0])
        with pytest.raises(ValueError, match="packed rows"):
            store.schema.split_batch(rows[:, :-1])


class TestKVStoreIngest:
    def test_ingest_matches_agent_major_content(self, rng, small_replay):
        store = KVTransitionStore(small_replay.capacity, small_replay.schema)
        moved = store.ingest(small_replay.buffers)
        assert moved == len(small_replay) * small_replay.schema.width
        idx = rng.integers(0, len(small_replay), size=32)
        rows = store.gather_joint(idx)
        for k, buf in enumerate(small_replay.buffers):
            kv_fields = store.schema.split_batch(rows)[k]
            am_fields = buf.gather_vectorized(idx)
            for a, b in zip(kv_fields, am_fields):
                np.testing.assert_array_equal(a, b)

    def test_gather_all_agents_is_complete(self, rng, small_replay):
        store = KVTransitionStore(small_replay.capacity, small_replay.schema)
        store.ingest(small_replay.buffers)
        out = dict(enumerate(store.gather_fields([0, 1, 2])))
        assert set(out) == {0, 1, 2}
        assert out[0][0].shape == (3, 16)
        assert out[2][0].shape == (3, 14)

    def test_ingest_accumulates_cost(self, rng, small_replay):
        store = KVTransitionStore(small_replay.capacity, small_replay.schema)
        store.ingest(small_replay.buffers)
        first = store.floats_reshaped
        store.ingest(small_replay.buffers)
        assert store.floats_reshaped == 2 * first

    def test_ingest_wrong_buffer_count_raises(self, small_replay):
        store = KVTransitionStore(small_replay.capacity, small_replay.schema)
        with pytest.raises(ValueError, match="expected 3 buffers"):
            store.ingest(small_replay.buffers[:2])

    def test_ingest_matches_rowwise_bytes(self, rng, small_replay):
        """Block-copy ingest and the faithful hash-map build are equivalent:
        byte-identical packed storage, same reshaping cost, same cursor."""
        block = KVTransitionStore(small_replay.capacity, small_replay.schema)
        rowwise = KVTransitionStore(small_replay.capacity, small_replay.schema)
        moved_block = block.ingest(small_replay.buffers)
        moved_rowwise = rowwise.ingest_rowwise(small_replay.buffers)
        assert moved_block == moved_rowwise
        assert block.floats_reshaped == rowwise.floats_reshaped
        assert len(block) == len(rowwise)
        assert block._next_idx == rowwise._next_idx
        assert block._values.tobytes() == rowwise._values.tobytes()

    def test_ingest_rowwise_partial_fill_bytes(self, rng):
        replay = MultiAgentReplay([6, 4], [2, 3], capacity=32)
        fill_multi_agent_replay(replay, rng, 11)
        block = KVTransitionStore(replay.capacity, replay.schema)
        rowwise = KVTransitionStore(replay.capacity, replay.schema)
        block.ingest(replay.buffers)
        rowwise.ingest_rowwise(replay.buffers)
        assert block._values.tobytes() == rowwise._values.tobytes()
        assert block.floats_reshaped == rowwise.floats_reshaped


class TestMultiAgentReplay:
    def test_lockstep_add(self, rng):
        replay = MultiAgentReplay([4, 3], [2, 2], capacity=8)
        fill_multi_agent_replay(replay, rng, 5)
        assert len(replay) == 5
        assert all(len(b) == 5 for b in replay.buffers)

    def test_heterogeneous_dims(self, small_replay):
        assert [b.obs_dim for b in small_replay.buffers] == [16, 16, 14]

    def test_add_validates_field_counts(self, rng):
        replay = MultiAgentReplay([4], [2], capacity=8)
        with pytest.raises(ValueError):
            replay.add([np.zeros(4), np.zeros(4)], [np.zeros(2)], [0.0], [np.zeros(4)], [False])

    def test_gather_all_returns_per_agent_fields(self, rng, small_replay):
        out = small_replay.gather([0, 1, 2])
        assert len(out) == 3
        assert out[0][0].shape == (3, 16)

    def test_gather_all_vectorized_matches_loop(self, rng, small_replay):
        idx = rng.integers(0, len(small_replay), size=16)
        loop = small_replay.gather(idx, vectorized=False)
        fast = small_replay.gather(idx, vectorized=True)
        for la, fa in zip(loop, fast):
            for a, b in zip(la, fa):
                np.testing.assert_array_equal(a, b)

    def test_priority_buffer_typed_access(self, prioritized_replay, small_replay):
        assert prioritized_replay.priority_buffer(0) is prioritized_replay.buffers[0]
        with pytest.raises(TypeError, match="not prioritized"):
            small_replay.priority_buffer(0)

    def test_clear(self, small_replay):
        small_replay.clear()
        assert len(small_replay) == 0
