"""Tests for the agent-major replay buffer, including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import (
    PAPER_BUFFER_CAPACITY,
    JointSchema,
    ReplayBuffer,
    TransitionSchema,
)


def fill(buf: ReplayBuffer, rng: np.random.Generator, rows: int):
    for i in range(rows):
        buf.add(
            rng.standard_normal(buf.obs_dim),
            rng.standard_normal(buf.act_dim),
            float(i),  # reward encodes insertion order
            rng.standard_normal(buf.obs_dim),
            bool(i % 7 == 0),
        )


class TestRingSemantics:
    def test_paper_capacity_constant(self):
        assert PAPER_BUFFER_CAPACITY == 1_000_000

    def test_empty_buffer(self):
        buf = ReplayBuffer(8, 4, 2)
        assert len(buf) == 0

    def test_size_grows_to_capacity(self, rng):
        buf = ReplayBuffer(8, 4, 2)
        fill(buf, rng, 5)
        assert len(buf) == 5
        fill(buf, rng, 10)
        assert len(buf) == 8

    def test_add_returns_slot_and_wraps(self, rng):
        buf = ReplayBuffer(4, 2, 2)
        slots = [
            buf.add(np.zeros(2), np.zeros(2), 0.0, np.zeros(2), False)
            for _ in range(6)
        ]
        assert slots == [0, 1, 2, 3, 0, 1]

    def test_overwrite_on_wrap(self, rng):
        buf = ReplayBuffer(4, 2, 2)
        fill(buf, rng, 6)  # rewards 0..5, slots 0..3 hold [4, 5, 2, 3]
        _, _, rew, _, _ = buf.gather_vectorized([0, 1, 2, 3])
        np.testing.assert_array_equal(rew, [4.0, 5.0, 2.0, 3.0])

    def test_clear_resets(self, rng):
        buf = ReplayBuffer(8, 4, 2)
        fill(buf, rng, 5)
        buf.clear()
        assert len(buf) == 0
        assert buf.next_index == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 4, 2)


class TestGatherPaths:
    def test_gather_matches_vectorized(self, rng):
        buf = ReplayBuffer(64, 6, 3)
        fill(buf, rng, 50)
        idx = rng.integers(0, 50, size=20)
        loop = buf.gather(idx)
        fast = buf.gather_vectorized(idx)
        for a, b in zip(loop, fast):
            np.testing.assert_array_equal(a, b)

    def test_gather_preserves_index_order(self, rng):
        buf = ReplayBuffer(64, 2, 2)
        fill(buf, rng, 30)
        _, _, rew, _, _ = buf.gather([5, 1, 17])
        np.testing.assert_array_equal(rew, [5.0, 1.0, 17.0])

    def test_gather_out_of_range_raises(self, rng):
        buf = ReplayBuffer(64, 2, 2)
        fill(buf, rng, 10)
        with pytest.raises(IndexError):
            buf.gather([10])
        with pytest.raises(IndexError):
            buf.gather_vectorized([-1])

    def test_gather_empty_index_list_raises(self, rng):
        buf = ReplayBuffer(8, 2, 2)
        fill(buf, rng, 4)
        with pytest.raises(ValueError):
            buf.gather([])

    def test_gather_on_empty_buffer_raises(self):
        buf = ReplayBuffer(8, 2, 2)
        with pytest.raises(ValueError):
            buf.gather([0])


class TestGatherRun:
    def test_contiguous_run(self, rng):
        buf = ReplayBuffer(64, 2, 2)
        fill(buf, rng, 40)
        _, _, rew, _, _ = buf.gather_run(10, 5)
        np.testing.assert_array_equal(rew, [10.0, 11.0, 12.0, 13.0, 14.0])

    def test_run_wraps_at_valid_region(self, rng):
        buf = ReplayBuffer(64, 2, 2)
        fill(buf, rng, 40)
        _, _, rew, _, _ = buf.gather_run(38, 4)
        np.testing.assert_array_equal(rew, [38.0, 39.0, 0.0, 1.0])

    def test_run_matches_loop_gather(self, rng):
        buf = ReplayBuffer(64, 3, 2)
        fill(buf, rng, 40)
        run = buf.gather_run(7, 6)
        loop = buf.gather(range(7, 13))
        for a, b in zip(run, loop):
            np.testing.assert_array_equal(a, b)

    def test_invalid_run_parameters(self, rng):
        buf = ReplayBuffer(64, 2, 2)
        fill(buf, rng, 10)
        with pytest.raises(ValueError):
            buf.gather_run(0, 0)
        with pytest.raises(IndexError):
            buf.gather_run(10, 2)

    def test_run_on_empty_buffer_raises(self):
        buf = ReplayBuffer(8, 2, 2)
        with pytest.raises(ValueError):
            buf.gather_run(0, 1)


class TestStorageViews:
    def test_views_are_read_only(self, rng):
        buf = ReplayBuffer(16, 2, 2)
        fill(buf, rng, 8)
        views = buf.storage_views()
        with pytest.raises(ValueError):
            views["obs"][0, 0] = 1.0

    def test_views_cover_valid_region_only(self, rng):
        buf = ReplayBuffer(16, 2, 2)
        fill(buf, rng, 8)
        assert buf.storage_views()["obs"].shape == (8, 2)


class TestSchema:
    def test_width_formula(self):
        s = TransitionSchema(16, 5)
        assert s.width == 16 + 5 + 1 + 16 + 1
        assert s.nbytes == s.width * 8

    def test_pack_unpack_round_trip(self, rng):
        """The one packer and the one splitter are inverses."""
        schema = JointSchema.from_dims([4, 6], [3, 2])
        fields = (
            [rng.standard_normal((5, 4)), rng.standard_normal((5, 6))],
            [rng.standard_normal((5, 3)), rng.standard_normal((5, 2))],
            [rng.standard_normal(5), rng.standard_normal(5)],
            [rng.standard_normal((5, 4)), rng.standard_normal((5, 6))],
            [rng.integers(0, 2, 5).astype(float), np.ones(5)],
        )
        rows = schema.pack_batch(*fields)
        assert rows.shape == (5, schema.width)
        for k, agent_fields in enumerate(schema.split_batch(rows)):
            for got, field in zip(agent_fields, fields):
                np.testing.assert_array_equal(got, field[k])

    def test_slices_are_disjoint_and_cover(self):
        s = TransitionSchema(6, 2)
        covered = np.zeros(s.width, dtype=int)
        for sl in s.slices().values():
            covered[sl] += 1
        assert np.all(covered == 1)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            TransitionSchema(0, 3)


@given(
    capacity=st.integers(min_value=2, max_value=50),
    inserts=st.integers(min_value=1, max_value=150),
)
@settings(max_examples=40, deadline=None)
def test_property_ring_size_invariant(capacity, inserts):
    """len(buffer) == min(inserts, capacity) always holds."""
    buf = ReplayBuffer(capacity, 2, 2)
    for i in range(inserts):
        buf.add(np.zeros(2), np.zeros(2), float(i), np.zeros(2), False)
    assert len(buf) == min(inserts, capacity)
    assert buf.next_index == inserts % capacity


@given(
    start=st.integers(min_value=0, max_value=29),
    length=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_property_gather_run_always_full_length(start, length):
    """Runs return exactly `length` rows regardless of wraparound."""
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(64, 2, 2)
    for i in range(30):
        buf.add(np.zeros(2), np.zeros(2), float(i), np.zeros(2), False)
    obs, act, rew, next_obs, done = buf.gather_run(start, length)
    assert obs.shape == (length, 2)
    # wrapped rewards follow (start + k) mod 30
    expected = [(start + k) % 30 for k in range(length)]
    np.testing.assert_array_equal(rew, expected)
