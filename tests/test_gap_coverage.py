"""Coverage for paths the main suites exercise only indirectly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import JointSchema, KVTransitionStore, MultiAgentReplay
from repro.core import LayoutReorganizer
from repro.envs import SyncVectorEnv, make
from tests.conftest import fill_multi_agent_replay


class TestRowwiseIngest:
    def make_replay(self, rng, rows=60):
        replay = MultiAgentReplay([6, 4], [3, 3], capacity=128)
        fill_multi_agent_replay(replay, rng, rows)
        return replay

    def test_rowwise_matches_block_ingest(self, rng):
        replay = self.make_replay(rng)
        block = KVTransitionStore(replay.capacity, replay.schema)
        rowwise = KVTransitionStore(replay.capacity, replay.schema)
        block.ingest(replay.buffers)
        rowwise.ingest_rowwise(replay.buffers)
        idx = list(range(len(replay)))
        np.testing.assert_array_equal(
            block.gather_joint(idx), rowwise.gather_joint(idx)
        )

    def test_rowwise_counts_same_floats_as_block(self, rng):
        replay = self.make_replay(rng, rows=40)
        block = KVTransitionStore(replay.capacity, replay.schema)
        rowwise = KVTransitionStore(replay.capacity, replay.schema)
        assert block.ingest(replay.buffers) == rowwise.ingest_rowwise(replay.buffers)

    def test_rowwise_validation(self, rng):
        replay = self.make_replay(rng)
        store = KVTransitionStore(replay.capacity, replay.schema)
        with pytest.raises(ValueError, match="expected 2 buffers"):
            store.ingest_rowwise(replay.buffers[:1])
        small = KVTransitionStore(8, replay.schema)
        with pytest.raises(ValueError, match="exceeds"):
            small.ingest_rowwise(replay.buffers)

    def test_layout_reorganizer_ingest_modes(self, rng):
        replay = self.make_replay(rng)
        with pytest.raises(ValueError, match="ingest"):
            LayoutReorganizer(replay, ingest="quantum")
        rowwise = LayoutReorganizer(replay, ingest="rowwise")
        block = LayoutReorganizer(replay, ingest="block")
        rowwise.reorganize()
        block.reorganize()
        batch_a = rowwise.sample_all_agents(np.random.default_rng(0), 16)
        batch_b = block.sample_all_agents(np.random.default_rng(0), 16)
        np.testing.assert_array_equal(batch_a.agents[0].obs, batch_b.agents[0].obs)


class TestVectorEnvDetails:
    def test_stacked_obs_match_per_copy_resets(self):
        vec = SyncVectorEnv(
            [(lambda s=s: make("cooperative_navigation", num_agents=2, seed=s)) for s in range(3)]
        )
        stacked = vec.reset()
        per_env = [
            make("cooperative_navigation", num_agents=2, seed=s).reset() for s in range(3)
        ]
        for agent in range(2):
            for k in range(3):
                np.testing.assert_array_equal(stacked[agent][k], per_env[k][agent])


class TestEnvDeterminismProperties:
    @given(
        actions=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=25),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_same_seed_same_trajectory(self, actions, seed):
        """Identical seeds + identical action sequences => identical rollouts."""
        a = make("predator_prey", num_agents=3, seed=seed)
        b = make("predator_prey", num_agents=3, seed=seed)
        oa, ob = a.reset(), b.reset()
        for x, y in zip(oa, ob):
            np.testing.assert_array_equal(x, y)
        for action in actions:
            ra = a.step([action] * 3)
            rb = b.step([action] * 3)
            for x, y in zip(ra[0], rb[0]):
                np.testing.assert_array_equal(x, y)
            assert ra[1] == rb[1]
            assert ra[2] == rb[2]

    @given(
        actions=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=25)
    )
    @settings(max_examples=25, deadline=None)
    def test_property_observations_and_rewards_always_finite(self, actions):
        """No action sequence produces NaN/inf observations or rewards."""
        env = make("cooperative_navigation", num_agents=2, seed=1)
        env.reset()
        for action in actions:
            obs, rewards, _, _ = env.step([action, (action + 2) % 5])
            for o in obs:
                assert np.all(np.isfinite(o))
            assert all(np.isfinite(r) for r in rewards)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_property_observation_dims_stable_across_seeds(self, seed):
        env = make("predator_prey", num_agents=3, seed=seed)
        obs = env.reset()
        assert [o.shape[0] for o in obs] == [16, 16, 16]


class TestJointSchemaProperties:
    @given(
        dims=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=32),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_offsets_partition_width(self, dims):
        schema = JointSchema.from_dims([d[0] for d in dims], [d[1] for d in dims])
        offsets = schema.agent_offsets()
        assert offsets[0][0] == 0
        assert offsets[-1][1] == schema.width
        for (s0, e0), (s1, _) in zip(offsets, offsets[1:]):
            assert e0 == s1
        for (start, end), agent in zip(offsets, schema.agents):
            assert end - start == agent.width
