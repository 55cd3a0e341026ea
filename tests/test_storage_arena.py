"""Storage-engine equivalence: timestep-major arena vs agent-major arrays.

The timestep-major :class:`TransitionArena` must be a *transparent*
substrate: under identical ingest streams the per-agent front-end views
hold byte-identical contents (including ring wraparound and PER tree
state), and full training runs consume the identical RNG stream and
reproduce agent-major reward curves bit-for-bit — for MADDPG and MATD3,
N in {3, 6}, with and without PER and the batched update engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos.config import MARLConfig
from repro.buffers import (
    STORAGE_ENGINES,
    MultiAgentReplay,
    TransitionArena,
    resolve_storage,
)
from repro.core.indices import Run
from repro.core.layout import LayoutReorganizer


def ingest_stream(replay: MultiAgentReplay, seed: int, steps: int) -> None:
    """Feed `steps` joint transitions drawn from a fixed stream."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        replay.add(
            [rng.standard_normal(b.obs_dim) for b in replay.buffers],
            [rng.standard_normal(b.act_dim) for b in replay.buffers],
            [float(rng.standard_normal()) for _ in replay.buffers],
            [rng.standard_normal(b.obs_dim) for b in replay.buffers],
            [bool(rng.integers(2)) for _ in replay.buffers],
        )


def make_pair(capacity=16, prioritized=False, obs_dims=(4, 3), act_dims=(2, 2)):
    am = MultiAgentReplay(
        list(obs_dims),
        list(act_dims),
        capacity=capacity,
        prioritized=prioritized,
        storage="agent_major",
    )
    tm = MultiAgentReplay(
        list(obs_dims),
        list(act_dims),
        capacity=capacity,
        prioritized=prioritized,
        storage="timestep_major",
    )
    return am, tm


def assert_bytes_equal(a: np.ndarray, b: np.ndarray) -> None:
    """Strict byte equality (catches -0.0 vs 0.0, unlike array_equal)."""
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestResolveStorage:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown storage engine"):
            resolve_storage("column_major")

    def test_config_validates_engine(self):
        with pytest.raises(ValueError, match="unknown storage engine"):
            MARLConfig(storage="bogus")

    def test_engines_tuple(self):
        assert STORAGE_ENGINES == ("agent_major", "timestep_major")


class TestArenaViews:
    def test_views_write_through_to_packed_rows(self):
        _, tm = make_pair(capacity=8)
        ingest_stream(tm, seed=0, steps=3)
        buf = tm.buffers[0]
        buf._obs[1] = 42.0
        start, _end = tm.schema.agent_offsets()[0]
        s = tm.schema.agents[0].slices()
        row_block = tm.arena.values[1, start + s["obs"].start : start + s["obs"].stop]
        assert (row_block == 42.0).all()

    def test_front_end_reports_engine(self):
        am, tm = make_pair()
        assert am.storage == "agent_major" and am.arena is None
        assert tm.storage == "timestep_major" and tm.arena is not None
        assert all(b.storage == "timestep_major" for b in tm.buffers)

    def test_arena_cursor_tracks_front_ends(self):
        _, tm = make_pair(capacity=4)
        ingest_stream(tm, seed=1, steps=6)  # wraps
        assert len(tm.arena) == 4
        assert tm.arena.next_index == 6 % 4
        assert tm.buffers[0].next_index == tm.arena.next_index


class TestByteEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.integers(1, 70),
        capacity=st.integers(4, 32),
        seed=st.integers(0, 999),
        prioritized=st.booleans(),
    )
    def test_identical_ingest_streams_identical_contents(
        self, steps, capacity, seed, prioritized
    ):
        """Property: same stream -> byte-identical per-agent fields,
        sizes, and cursors, including ring wraparound past capacity."""
        am, tm = make_pair(capacity=capacity, prioritized=prioritized)
        ingest_stream(am, seed=seed, steps=steps)
        ingest_stream(tm, seed=seed, steps=steps)
        assert len(am) == len(tm) == min(steps, capacity)
        for ba, bt in zip(am.buffers, tm.buffers):
            assert ba.next_index == bt.next_index
            assert_bytes_equal(ba._obs[: len(ba)], bt._obs[: len(bt)])
            assert_bytes_equal(ba._act[: len(ba)], bt._act[: len(bt)])
            assert_bytes_equal(ba._rew[: len(ba)], bt._rew[: len(bt)])
            assert_bytes_equal(ba._next_obs[: len(ba)], bt._next_obs[: len(bt)])
            assert_bytes_equal(ba._done[: len(ba)], bt._done[: len(bt)])

    @settings(max_examples=15, deadline=None)
    @given(
        steps=st.integers(2, 60),
        capacity=st.integers(4, 24),
        seed=st.integers(0, 999),
    )
    def test_per_trees_identical_under_priority_updates(self, steps, capacity, seed):
        """Property: PER sum/min trees evolve identically on both engines
        (priorities index rows, which are engine-independent)."""
        am, tm = make_pair(capacity=capacity, prioritized=True)
        ingest_stream(am, seed=seed, steps=steps)
        ingest_stream(tm, seed=seed, steps=steps)
        size = len(am)
        prio_rng = np.random.default_rng(seed + 1)
        idx = prio_rng.integers(0, size, size=min(size, 8))
        prios = prio_rng.uniform(0.01, 5.0, size=idx.size)
        for replay in (am, tm):
            for k in range(replay.num_agents):
                replay.priority_buffer(k).update_priorities(idx, prios)
        leaves = np.arange(size)
        for ba, bt in zip(am.buffers, tm.buffers):
            assert_bytes_equal(
                ba._sum_tree.leaf_values(leaves), bt._sum_tree.leaf_values(leaves)
            )
            assert ba._sum_tree.total() == bt._sum_tree.total()
            assert ba._min_tree.min() == bt._min_tree.min()
            assert ba._max_priority == bt._max_priority

    @settings(max_examples=15, deadline=None)
    @given(
        steps=st.integers(4, 60),
        capacity=st.integers(8, 32),
        seed=st.integers(0, 999),
    )
    def test_gathers_identical_across_engines(self, steps, capacity, seed):
        """Scalar, vectorized, and run gathers agree byte-for-byte."""
        am, tm = make_pair(capacity=capacity)
        ingest_stream(am, seed=seed, steps=steps)
        ingest_stream(tm, seed=seed, steps=steps)
        size = len(am)
        idx_rng = np.random.default_rng(seed + 2)
        idx = idx_rng.integers(0, size, size=6)
        for fa, ft in zip(am.gather(idx), tm.gather(idx)):
            for a, t in zip(fa, ft):
                assert_bytes_equal(a, t)
        for fa, ft in zip(
            am.gather(idx, vectorized=True),
            tm.gather(idx, vectorized=True),
        ):
            for a, t in zip(fa, ft):
                assert_bytes_equal(a, t)
        # runs, including one that wraps past the valid region
        runs = [Run(start=0, length=min(3, size)), Run(start=size - 1, length=2)]
        for fa, ft in zip(
            am.gather(runs=runs, vectorized=True), tm.gather(runs=runs, vectorized=True)
        ):
            for a, t in zip(fa, ft):
                assert_bytes_equal(a, t)

    def test_add_batch_equivalent_to_sequential_adds(self):
        """Vectorized ingest and the arena cursor stay in lock-step."""
        am, tm = make_pair(capacity=16)
        rng = np.random.default_rng(3)
        k = 20  # wraps past capacity
        obs = [rng.standard_normal((k, b.obs_dim)) for b in am.buffers]
        act = [rng.standard_normal((k, b.act_dim)) for b in am.buffers]
        rew = [rng.standard_normal(k) for _ in am.buffers]
        nxt = [rng.standard_normal((k, b.obs_dim)) for b in am.buffers]
        done = [rng.integers(2, size=k).astype(np.float64) for _ in am.buffers]
        am.ingest((obs, act, rew, nxt, done))
        tm.ingest((obs, act, rew, nxt, done))
        assert tm.arena.next_index == am.buffers[0].next_index
        for ba, bt in zip(am.buffers, tm.buffers):
            assert_bytes_equal(ba._obs, np.ascontiguousarray(bt._obs))


class TestSharedArenaReorganizer:
    def test_reorganizer_adopts_replay_arena(self):
        _, tm = make_pair(capacity=16)
        layout = LayoutReorganizer(tm)
        assert layout.shared_arena
        assert layout.store is tm.arena

    def test_never_stale_and_zero_reshape_cost(self):
        _, tm = make_pair(capacity=16)
        layout = LayoutReorganizer(tm)
        ingest_stream(tm, seed=4, steps=10)
        assert not layout.stale
        assert layout.reorganize() == 0
        summary = layout.cost_summary()
        assert summary["reshape_floats"] == 0.0
        assert summary["reorganizations"] == 0.0

    def test_samples_match_mirrored_reorganizer(self):
        """Shared-arena sampling == ingest-on-demand mirror sampling."""
        am, tm = make_pair(capacity=32)
        ingest_stream(am, seed=6, steps=20)
        ingest_stream(tm, seed=6, steps=20)
        mirrored = LayoutReorganizer(am)
        shared = LayoutReorganizer(tm)
        batch_a = mirrored.sample_all_agents(np.random.default_rng(9), 8)
        batch_t = shared.sample_all_agents(np.random.default_rng(9), 8)
        assert_bytes_equal(batch_a.indices, batch_t.indices)
        for aa, at in zip(batch_a.agents, batch_t.agents):
            assert_bytes_equal(aa.obs, at.obs)
            assert_bytes_equal(aa.act, at.act)
            assert_bytes_equal(aa.rew, at.rew)
            assert_bytes_equal(aa.next_obs, at.next_obs)
            assert_bytes_equal(aa.done, at.done)


class TestTrainingEquivalence:
    """Acceptance matrix: arena-backed training reproduces agent-major
    reward curves bit-for-bit under the shared RNG stream."""

    @staticmethod
    def _episode_rewards(algorithm, n, variant, batched, storage):
        from repro.experiments.runner import run_workload
        from repro.experiments.workloads import WorkloadSpec

        config = MARLConfig(
            batch_size=32,
            buffer_capacity=256,
            update_every=20,
            max_episode_len=15,
            fast_path=batched,  # exercise the joint-gather path with the engine
            batched_update=batched,
            storage=storage,
        )
        spec = WorkloadSpec(
            algorithm=algorithm,
            env_name="cooperative_navigation",
            num_agents=n,
            variant=variant,
            episodes=3,
            seed=13,
            config=config,
        )
        return np.array(run_workload(spec).episode_rewards)

    @pytest.mark.parametrize("algorithm", ["maddpg", "matd3"])
    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("variant", ["baseline", "per"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_reward_curves_bit_identical(self, algorithm, n, variant, batched):
        agent_major = self._episode_rewards(
            algorithm, n, variant, batched, "agent_major"
        )
        timestep_major = self._episode_rewards(
            algorithm, n, variant, batched, "timestep_major"
        )
        assert agent_major.tobytes() == timestep_major.tobytes()


class TestCLIStorageFlag:
    def test_profile_reports_gather_split_phases(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "profile",
                    "--agents",
                    "3",
                    "--batch-size",
                    "32",
                    "--rounds",
                    "1",
                    "--fast-path",
                    "--storage",
                    "timestep_major",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "joint_gather" in out
        assert "agent_split" in out

    def test_train_accepts_storage_flag(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "train",
                    "--episodes",
                    "1",
                    "--batch-size",
                    "16",
                    "--buffer",
                    "128",
                    "--update-every",
                    "10",
                    "--storage",
                    "timestep_major",
                ]
            )
            == 0
        )
        assert "done:" in capsys.readouterr().out

    def test_bad_storage_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["train", "--storage", "diagonal"])
