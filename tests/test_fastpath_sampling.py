"""Fast-path sampling engine: scalar/vectorized observable equivalence.

The vectorized engine (batched sum-tree descents, fancy-index gathers,
run-slice batch assembly, chunked reference draws) must be *observably
equivalent* to the faithful scalar loops: given the same RNG stream it
consumes the same variates and produces identical ``MiniBatch.indices``,
``runs``, and ``weights`` — so memsim address traces and reward curves
are unchanged.  These are the property tests the ISSUE pins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import MultiAgentReplay, PrioritizedReplayBuffer
from repro.buffers.sum_tree import MinTree, SumTree
from repro.core import (
    CacheAwareSampler,
    InformationPrioritizedSampler,
    PrioritizedSampler,
    UniformSampler,
)
from repro.core.indices import Run, expand_run_arrays, expand_runs
from tests.conftest import ENGINE, engine_config, fill_multi_agent_replay


def spread_priorities(replay: MultiAgentReplay, seed: int = 9) -> None:
    """Give every agent buffer a non-degenerate priority distribution."""
    rng = np.random.default_rng(seed)
    n = len(replay)
    for i in range(replay.num_agents):
        replay.priority_buffer(i).update_priorities(
            range(n), rng.uniform(0.01, 5.0, n)
        )


# -- batched sum-tree primitives ---------------------------------------------------


class TestFindPrefixsumIdxBatch:
    @given(
        priorities=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=64,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_on_random_trees(self, priorities, seed):
        """Batch descent == [find_prefixsum_idx(m) for m in masses].

        Trees include zero-mass leaves; masses include the 0 and
        near-total edges.
        """
        tree = SumTree(len(priorities))
        for i, p in enumerate(priorities):
            tree[i] = p
        total = tree.total()
        if total <= 0:
            return  # nothing to descend into
        rng = np.random.default_rng(seed)
        masses = rng.uniform(0.0, total, size=32)
        # edge masses: zero and just below the full mass
        masses = np.concatenate([masses, [0.0, total * (1 - 1e-12)]])
        expected = np.array([tree.find_prefixsum_idx(m) for m in masses])
        got = tree.find_prefixsum_idx_batch(masses)
        np.testing.assert_array_equal(got, expected)

    def test_empty_batch(self):
        tree = SumTree(4)
        tree[0] = 1.0
        assert tree.find_prefixsum_idx_batch([]).shape == (0,)

    def test_validation_matches_scalar(self):
        tree = SumTree(4)
        tree[0] = 1.0
        with pytest.raises(ValueError, match="non-negative"):
            tree.find_prefixsum_idx_batch([-0.1])
        with pytest.raises(ValueError, match="exceeds"):
            tree.find_prefixsum_idx_batch([2.0])

    def test_single_leaf_tree(self):
        tree = SumTree(1)
        tree[0] = 3.0
        np.testing.assert_array_equal(
            tree.find_prefixsum_idx_batch([0.0, 1.5, 2.999]), [0, 0, 0]
        )


class TestSetBatch:
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_setitem(self, capacity, seed):
        rng = np.random.default_rng(seed)
        n_updates = int(rng.integers(1, 40))
        idx = rng.integers(0, capacity, size=n_updates)
        vals = rng.uniform(0.0, 5.0, size=n_updates)
        for tree_cls in (SumTree, MinTree):
            sequential, batched = tree_cls(capacity), tree_cls(capacity)
            for i, v in zip(idx, vals):
                sequential[int(i)] = float(v)
            batched.set_batch(idx, vals)
            np.testing.assert_array_equal(sequential._tree, batched._tree)

    def test_duplicate_indices_last_wins(self):
        a, b = SumTree(8), SumTree(8)
        a[3] = 1.0
        a[3] = 7.0
        b.set_batch([3, 3], [1.0, 7.0])
        np.testing.assert_array_equal(a._tree, b._tree)
        assert b[3] == 7.0

    def test_out_of_range_raises(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            tree.set_batch([4], [1.0])
        with pytest.raises(ValueError, match="equal-length"):
            tree.set_batch([0, 1], [1.0])


class TestSampleProportionalFast:
    def make_tree(self, n=200, seed=5):
        tree = SumTree(n)
        rng = np.random.default_rng(seed)
        for i in range(n):
            tree[i] = float(rng.uniform(0.0, 4.0))
        return tree

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
    def test_stream_and_indices_identical(self, batch_size):
        tree = self.make_tree()
        r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
        scalar = tree.sample_proportional(r1, batch_size, 200)
        fast = tree.sample_proportional(r2, batch_size, 200, fast_path=True)
        np.testing.assert_array_equal(scalar, fast)
        assert r1.random() == r2.random()  # streams stay aligned

    def test_chunk_matches_single_draws(self):
        tree = self.make_tree()
        r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
        singles = np.array(
            [tree.sample_proportional(r1, 1, 200)[0] for _ in range(33)]
        )
        chunk = tree.sample_proportional_chunk(r2, 33, 200)
        np.testing.assert_array_equal(singles, chunk)
        assert r1.random() == r2.random()


# -- batched prioritized-buffer operations ------------------------------------------


class TestPrioritizedBufferFastOps:
    def make_buffer(self, rows=300, seed=2):
        buf = PrioritizedReplayBuffer(512, obs_dim=4, act_dim=2)
        rng = np.random.default_rng(seed)
        for _ in range(rows):
            buf.add(rng.standard_normal(4), rng.standard_normal(2),
                    float(rng.standard_normal()), rng.standard_normal(4), False)
        buf.update_priorities(range(rows), rng.uniform(0.01, 8.0, rows))
        return buf

    def test_probabilities_fast_identical(self, rng):
        buf = self.make_buffer()
        idx = rng.integers(0, len(buf), size=64)
        np.testing.assert_array_equal(
            buf.probabilities(idx), buf.probabilities(idx, fast_path=True)
        )

    def test_normalized_priorities_fast_identical(self, rng):
        buf = self.make_buffer()
        idx = rng.integers(0, len(buf), size=64)
        np.testing.assert_array_equal(
            buf.normalized_priorities(idx),
            buf.normalized_priorities(idx, fast_path=True),
        )

    def test_importance_weights_fast_identical(self, rng):
        buf = self.make_buffer()
        idx = rng.integers(0, len(buf), size=64)
        np.testing.assert_array_equal(
            buf.importance_weights(idx, 0.4),
            buf.importance_weights(idx, 0.4, fast_path=True),
        )

    def test_update_priorities_fast_identical(self, rng):
        scalar, fast = self.make_buffer(), self.make_buffer()
        idx = rng.integers(0, 300, size=128)  # duplicates likely
        prio = rng.uniform(0.01, 9.0, size=128)
        scalar.update_priorities(idx, prio)
        fast.update_priorities(idx, prio, fast_path=True)
        np.testing.assert_array_equal(scalar._sum_tree._tree, fast._sum_tree._tree)
        np.testing.assert_array_equal(scalar._min_tree._tree, fast._min_tree._tree)
        assert scalar.max_priority() == fast.max_priority()

    def test_update_priorities_fast_validation(self):
        buf = self.make_buffer()
        with pytest.raises(ValueError, match="positive"):
            buf.update_priorities([0], [0.0], fast_path=True)
        with pytest.raises(IndexError, match="out of range"):
            buf.update_priorities([len(buf)], [1.0], fast_path=True)
        with pytest.raises(ValueError, match="mismatch"):
            buf.update_priorities([0, 1], [1.0], fast_path=True)


# -- vectorized run expansion and gathers ------------------------------------------


class TestExpandRunArrays:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        valid_size=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_run_list_form(self, seed, valid_size):
        rng = np.random.default_rng(seed)
        n_runs = int(rng.integers(1, 12))
        starts = rng.integers(0, valid_size, size=n_runs)
        lengths = rng.integers(1, 20, size=n_runs)
        runs = [Run(int(s), int(l)) for s, l in zip(starts, lengths)]
        np.testing.assert_array_equal(
            expand_runs(runs, valid_size),
            expand_run_arrays(starts, lengths, valid_size),
        )

    def test_validation(self):
        with pytest.raises(IndexError, match="out of range"):
            expand_run_arrays([5], [2], 5)
        with pytest.raises(ValueError, match="positive"):
            expand_run_arrays([0], [0], 5)
        with pytest.raises(ValueError):
            expand_run_arrays([], [], 5)


class TestGatherRuns:
    def test_matches_concatenated_gather_run(self, small_replay):
        buf = small_replay.buffers[0]
        runs = [Run(10, 16), Run(490, 32), Run(499, 4), Run(0, 1)]  # incl. wraparound
        fast = buf.gather_runs(runs)
        parts = [buf.gather_run(r.start, r.length) for r in runs]
        slow = tuple(np.concatenate([p[f] for p in parts]) for f in range(5))
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)

    def test_validation(self, small_replay):
        buf = small_replay.buffers[0]
        with pytest.raises(ValueError, match="at least one run"):
            buf.gather_runs([])
        with pytest.raises(IndexError, match="out of range"):
            buf.gather_runs([Run(len(buf), 4)])


class TestKVGatherRowsFast:
    def test_fancy_index_matches_loop(self, rng, small_replay):
        from repro.buffers import KVTransitionStore

        store = KVTransitionStore(small_replay.capacity, small_replay.schema)
        store.ingest(small_replay.buffers)
        idx = rng.integers(0, len(small_replay), size=64)
        np.testing.assert_array_equal(
            store.gather_joint(idx), store.gather_joint(idx, vectorized=False)
        )

    def test_loop_path_validation_preserved(self, small_replay):
        from repro.buffers import KVTransitionStore

        store = KVTransitionStore(small_replay.capacity, small_replay.schema)
        store.ingest(small_replay.buffers)
        for vectorized in (True, False):
            with pytest.raises(IndexError, match="out of range"):
                store.gather_joint([len(small_replay)], vectorized=vectorized)
            with pytest.raises(ValueError, match="empty index list"):
                store.gather_joint([], vectorized=vectorized)


# -- whole-sampler scalar/fast equivalence -------------------------------------------


def assert_batches_identical(a, b):
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.runs == b.runs
    if a.weights is None:
        assert b.weights is None
    else:
        np.testing.assert_array_equal(a.weights, b.weights)
    assert len(a.agents) == len(b.agents)
    for x, y in zip(a.agents, b.agents):
        np.testing.assert_array_equal(x.obs, y.obs)
        np.testing.assert_array_equal(x.act, y.act)
        np.testing.assert_array_equal(x.rew, y.rew)
        np.testing.assert_array_equal(x.next_obs, y.next_obs)
        np.testing.assert_array_equal(x.done, y.done)


class TestSamplerEquivalence:
    """ISSUE acceptance: identical indices, runs, and IS weights under a
    shared RNG stream, for all four samplers."""

    def pairs(self, prioritized):
        if prioritized:
            return [
                (PrioritizedSampler(), PrioritizedSampler(fast_path=True)),
                (
                    InformationPrioritizedSampler(),
                    InformationPrioritizedSampler(fast_path=True),
                ),
            ]
        return [
            (UniformSampler(), UniformSampler(fast_path=True)),
            (CacheAwareSampler(16, 8), CacheAwareSampler(16, 8, fast_path=True)),
        ]

    @pytest.mark.parametrize("seed", [0, 7, 123, 9999])
    def test_unprioritized_samplers(self, seed, small_replay):
        for scalar, fast in self.pairs(prioritized=False):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            a = scalar.sample(small_replay, r1, 128)
            b = fast.sample(small_replay, r2, 128)
            assert_batches_identical(a, b)
            assert r1.random() == r2.random(), "RNG streams diverged"

    @pytest.mark.parametrize("seed", [0, 7, 123, 9999])
    def test_prioritized_samplers(self, seed, prioritized_replay):
        spread_priorities(prioritized_replay)
        for scalar, fast in self.pairs(prioritized=True):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            a = scalar.sample(prioritized_replay, r1, 128)
            b = fast.sample(prioritized_replay, r2, 128)
            assert_batches_identical(a, b)
            assert r1.random() == r2.random(), "RNG streams diverged"

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_info_prioritized_property(self, seed):
        """The trickiest equivalence (dynamic reference counts): chunked
        fast draws must replay the scalar while-loop's stream exactly."""
        replay = MultiAgentReplay(
            [6, 4], [3, 3], capacity=512, prioritized=True, storage=ENGINE["storage"]
        )
        fill_rng = np.random.default_rng(seed % 1000)
        fill_multi_agent_replay(replay, fill_rng, 300)
        spread_priorities(replay, seed=seed % 97)
        scalar = InformationPrioritizedSampler()
        fast = InformationPrioritizedSampler(fast_path=True)
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        a = scalar.sample(replay, r1, 96)
        b = fast.sample(replay, r2, 96)
        assert_batches_identical(a, b)
        assert r1.random() == r2.random()

    def test_consecutive_calls_stay_aligned(self, prioritized_replay):
        """Stream equivalence must hold across a sequence of samples —
        the property that keeps whole training runs identical."""
        spread_priorities(prioritized_replay)
        scalar = InformationPrioritizedSampler()
        fast = InformationPrioritizedSampler(fast_path=True)
        r1, r2 = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(5):
            a = scalar.sample(prioritized_replay, r1, 64)
            b = fast.sample(prioritized_replay, r2, 64)
            assert_batches_identical(a, b)
        assert r1.random() == r2.random()

    def test_update_priorities_keeps_equivalence(self, rng):
        """Full loop: sample -> priority write-back -> sample again."""
        scalar_replay, fast_replay = (
            MultiAgentReplay(
                [6], [3], capacity=256, prioritized=True, storage=ENGINE["storage"]
            )
            for _ in range(2)
        )
        fill_multi_agent_replay(scalar_replay, np.random.default_rng(4), 200)
        fill_multi_agent_replay(fast_replay, np.random.default_rng(4), 200)
        spread_priorities(scalar_replay)
        spread_priorities(fast_replay)
        scalar = InformationPrioritizedSampler()
        fast = InformationPrioritizedSampler(fast_path=True)
        r1, r2 = np.random.default_rng(8), np.random.default_rng(8)
        td_rng = np.random.default_rng(55)
        for _ in range(3):
            a = scalar.sample(scalar_replay, r1, 48)
            b = fast.sample(fast_replay, r2, 48)
            assert_batches_identical(a, b)
            td = td_rng.standard_normal(48)
            scalar.update_priorities(scalar_replay, 0, a, td)
            fast.update_priorities(fast_replay, 0, b, td)
            np.testing.assert_array_equal(
                scalar_replay.priority_buffer(0)._sum_tree._tree,
                fast_replay.priority_buffer(0)._sum_tree._tree,
            )


class TestFastPathThreading:
    def test_set_fast_path_toggles(self):
        s = PrioritizedSampler()
        assert s.fast_path is False
        s.set_fast_path(True)
        assert s.fast_path is True

    def test_reuse_wrapper_delegates(self):
        from repro.core.reuse import ReuseWindowSampler

        wrapped = ReuseWindowSampler(UniformSampler(), window=2)
        wrapped.set_fast_path(True)
        assert wrapped.fast_path is True
        assert wrapped.base.fast_path is True

    def test_config_threads_into_trainer(self):
        from repro.algos import MADDPGTrainer

        config = engine_config(batch_size=32, buffer_capacity=256, fast_path=True)
        trainer = MADDPGTrainer([4, 4], [2, 2], config=config, seed=0)
        assert trainer.fast_path is True
        assert trainer.sampler.fast_path is True

    def test_build_trainer_respects_config(self):
        from repro.algos.variants import build_trainer

        config = engine_config(batch_size=32, buffer_capacity=256, fast_path=True)
        trainer = build_trainer("maddpg", "info_prioritized", [4, 4], [2, 2], config=config)
        assert trainer.sampler.fast_path is True

    def test_fast_path_training_reward_identical(self):
        """End-to-end: a short training run's losses are unchanged by
        the fast path (the 'reward curves unchanged' criterion)."""
        from repro.algos import MADDPGTrainer
        from repro.core import InformationPrioritizedSampler

        results = []
        for fast in (False, True):
            config = engine_config(batch_size=16, buffer_capacity=128, update_every=8)
            trainer = MADDPGTrainer(
                [4, 4],
                [2, 2],
                config=config,
                sampler=InformationPrioritizedSampler(fast_path=fast),
                seed=3,
            )
            step_rng = np.random.default_rng(12)
            losses = []
            for _ in range(40):
                obs = [step_rng.standard_normal(4) for _ in range(2)]
                act = trainer.act(obs, explore=True)
                next_obs = [step_rng.standard_normal(4) for _ in range(2)]
                trainer.experience(obs, act, [0.1, 0.2], next_obs, [False, False])
                out = trainer.update()
                if out is not None:
                    losses.append((out["q_loss"], out["p_loss"]))
            results.append(losses)
        assert results[0], "expected at least one update round"
        assert results[0] == results[1]
