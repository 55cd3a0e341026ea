"""Tests for index-array construction and the MiniBatch container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AgentBatch, MiniBatch, Run
from repro.core.indices import (
    expand_runs,
    reference_points,
    runs_from_references,
    uniform_indices,
)


class TestRun:
    def test_valid_run(self):
        run = Run(5, 3)
        assert run.start == 5 and run.length == 3

    def test_negative_start_raises(self):
        with pytest.raises(ValueError):
            Run(-1, 3)

    def test_zero_length_raises(self):
        with pytest.raises(ValueError):
            Run(0, 0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Run(0, 1).start = 2


class TestUniformIndices:
    def test_shape_and_range(self, rng):
        idx = uniform_indices(rng, 100, 64)
        assert idx.shape == (64,)
        assert idx.min() >= 0 and idx.max() < 100

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            uniform_indices(rng, 0, 10)
        with pytest.raises(ValueError):
            uniform_indices(rng, 10, 0)


class TestRunsAndExpansion:
    def test_runs_from_references(self):
        runs = runs_from_references([3, 9], 4)
        assert runs == [Run(3, 4), Run(9, 4)]

    def test_expand_simple(self):
        idx = expand_runs([Run(2, 3)], valid_size=100)
        np.testing.assert_array_equal(idx, [2, 3, 4])

    def test_expand_wraps(self):
        idx = expand_runs([Run(8, 4)], valid_size=10)
        np.testing.assert_array_equal(idx, [8, 9, 0, 1])

    def test_expand_multiple_runs_concatenates_in_order(self):
        idx = expand_runs([Run(0, 2), Run(5, 2)], valid_size=10)
        np.testing.assert_array_equal(idx, [0, 1, 5, 6])

    def test_expand_empty_raises(self):
        with pytest.raises(ValueError):
            expand_runs([], valid_size=10)

    def test_expand_start_out_of_range_raises(self):
        with pytest.raises(IndexError):
            expand_runs([Run(10, 2)], valid_size=10)

    def test_reference_points_in_range(self, rng):
        refs = reference_points(rng, 50, 16)
        assert refs.shape == (16,)
        assert refs.max() < 50

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=1, max_value=100),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_expansion_size_and_range(self, run_specs):
        """Expanded size equals the sum of run lengths; all in range."""
        runs = [Run(s, l) for s, l in run_specs]
        idx = expand_runs(runs, valid_size=64)
        assert idx.shape[0] == sum(l for _, l in run_specs)
        assert idx.min() >= 0 and idx.max() < 64


def make_agent_batch(rng, b=8, obs=4, act=2):
    return AgentBatch(
        obs=rng.standard_normal((b, obs)),
        act=rng.standard_normal((b, act)),
        rew=rng.standard_normal(b),
        next_obs=rng.standard_normal((b, obs)),
        done=np.zeros(b),
    )


class TestAgentBatch:
    def test_size(self, rng):
        assert make_agent_batch(rng, b=5).size == 5

    def test_mismatched_fields_raise(self, rng):
        with pytest.raises(ValueError):
            AgentBatch(
                obs=np.zeros((4, 2)),
                act=np.zeros((3, 2)),
                rew=np.zeros(4),
                next_obs=np.zeros((4, 2)),
                done=np.zeros(4),
            )

    def test_from_fields(self, rng):
        fields = (
            np.zeros((4, 2)),
            np.zeros((4, 2)),
            np.zeros(4),
            np.zeros((4, 2)),
            np.zeros(4),
        )
        ab = AgentBatch.from_fields(fields)
        assert ab.size == 4


class TestMiniBatch:
    def test_joint_views(self, rng):
        agents = [make_agent_batch(rng, b=6, obs=3), make_agent_batch(rng, b=6, obs=5)]
        mb = MiniBatch(agents=agents, indices=np.arange(6))
        assert mb.joint_obs().shape == (6, 8)
        assert mb.joint_act().shape == (6, 4)
        np.testing.assert_array_equal(mb.joint_obs()[:, :3], agents[0].obs)

    def test_size_and_num_agents(self, rng):
        mb = MiniBatch(
            agents=[make_agent_batch(rng, b=4)], indices=np.arange(4)
        )
        assert mb.size == 4 and mb.num_agents == 1

    def test_mismatched_agent_sizes_raise(self, rng):
        with pytest.raises(ValueError):
            MiniBatch(
                agents=[make_agent_batch(rng, b=4), make_agent_batch(rng, b=5)],
                indices=np.arange(4),
            )

    def test_indices_length_must_match(self, rng):
        with pytest.raises(ValueError):
            MiniBatch(agents=[make_agent_batch(rng, b=4)], indices=np.arange(3))

    def test_weights_length_must_match(self, rng):
        with pytest.raises(ValueError):
            MiniBatch(
                agents=[make_agent_batch(rng, b=4)],
                indices=np.arange(4),
                weights=np.ones(3),
            )

    def test_empty_agents_raise(self):
        with pytest.raises(ValueError):
            MiniBatch(agents=[], indices=np.arange(0))
