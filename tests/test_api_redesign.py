"""Tests for the redesigned replay/sampler construction API.

Contracts under test:

* ``make_replay`` — the unified construction entry point (config
  defaults, engine routing).
* ``ingest`` — one batch-write verb over both call shapes, producing
  byte-identical buffer state.
* ``gather`` — one read verb over ``(indices | runs, *, vectorized)``.
* keyword-only option flags on ``make_sampler`` / ``build_trainer``.
"""

import numpy as np
import pytest

from repro.algos import MARLConfig, build_trainer, make_sampler
from repro.buffers import (
    MultiAgentReplay,
    PrioritizedReplayBuffer,
    ReplayBuffer,
    make_replay,
    validate_batch_fields,
)
from repro.core import Run

OBS_DIMS = [4, 6]
ACT_DIMS = [2, 3]


def _joint_batch(rng, k, obs_dims=OBS_DIMS, act_dims=ACT_DIMS):
    """One per-agent field 5-tuple holding k joint timesteps."""
    n = len(obs_dims)
    obs = [rng.normal(size=(k, obs_dims[a])) for a in range(n)]
    act = [rng.normal(size=(k, act_dims[a])) for a in range(n)]
    rew = [rng.normal(size=k) for _ in range(n)]
    next_obs = [rng.normal(size=(k, obs_dims[a])) for a in range(n)]
    done = [(rng.random(k) < 0.1).astype(np.float64) for _ in range(n)]
    return obs, act, rew, next_obs, done


def _pack(batch, schema):
    """Pack a per-agent field batch into (K, schema.width) joint rows."""
    obs, act, rew, next_obs, done = batch
    k = rew[0].shape[0]
    rows = np.zeros((k, schema.width))
    for a, (start, end) in enumerate(schema.agent_offsets()):
        s = schema.agents[a].slices()
        block = rows[:, start:end]
        block[:, s["obs"]] = obs[a]
        block[:, s["act"]] = act[a]
        block[:, s["rew"]] = rew[a][:, None]
        block[:, s["next_obs"]] = next_obs[a]
        block[:, s["done"]] = done[a][:, None]
    return rows


def _buffer_state(replay):
    """Full observable state of every agent buffer, for exact comparison."""
    out = []
    for buf in replay.buffers:
        idx = np.arange(len(buf))
        out.append(buf.gather(idx))
    return out


def _assert_state_equal(a, b):
    for fields_a, fields_b in zip(a, b):
        for fa, fb in zip(fields_a, fields_b):
            np.testing.assert_array_equal(fa, fb)


class TestMakeReplay:
    def test_explicit_dims(self):
        replay = make_replay(obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=64)
        assert isinstance(replay, MultiAgentReplay)
        assert replay.num_agents == 2
        assert replay.capacity == 64
        assert all(isinstance(b, ReplayBuffer) for b in replay.buffers)
        assert not any(isinstance(b, PrioritizedReplayBuffer) for b in replay.buffers)

    def test_config_supplies_defaults_and_keywords_override(self):
        cfg = MARLConfig(batch_size=64, buffer_capacity=128, per_alpha=0.5)
        replay = make_replay(cfg, obs_dims=OBS_DIMS, act_dims=ACT_DIMS, prioritized=True)
        assert replay.capacity == 128
        assert replay.priority_buffer(0).alpha == 0.5
        replay = make_replay(
            cfg, obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=16,
            prioritized=True, alpha=0.9,
        )
        assert replay.capacity == 16
        assert replay.priority_buffer(0).alpha == 0.9

    def test_storage_routing(self):
        arena_replay = make_replay(
            obs_dims=OBS_DIMS, act_dims=ACT_DIMS, storage="timestep_major"
        )
        assert arena_replay.arena is not None
        dense_replay = make_replay(
            obs_dims=OBS_DIMS, act_dims=ACT_DIMS, storage="agent_major"
        )
        assert dense_replay.arena is None


class TestValidateBatchFields:
    def test_normalizes_and_counts(self):
        (obs, act, rew, next_obs, done), k = validate_batch_fields(
            ([[1.0, 2.0]], [[0.5]], [0.1], [[2.0, 3.0]], [0.0])
        )
        assert k == 1
        assert obs.dtype == np.float64

    def test_rejects_wrong_arity_and_mismatched_leading_dim(self):
        with pytest.raises(ValueError):
            validate_batch_fields(([[1.0]], [[1.0]], [0.0]))
        with pytest.raises(ValueError, match="leading dimension"):
            validate_batch_fields(
                (np.zeros((2, 3)), np.zeros((1, 2)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
            )
        with pytest.raises(ValueError, match="at least one"):
            validate_batch_fields(
                (np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 3)), np.zeros(0))
            )


@pytest.mark.parametrize("storage", ["agent_major", "timestep_major"])
class TestIngest:
    def test_batch_and_packed_shapes_agree(self, storage):
        rng = np.random.default_rng(0)
        via_batch = make_replay(obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=64, storage=storage)
        via_packed = make_replay(obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=64, storage=storage)
        for _ in range(3):  # 72 rows into 64 slots: the third write wraps
            batch = _joint_batch(rng, 24)
            rows = _pack(batch, via_packed.schema)
            np.testing.assert_array_equal(via_packed.schema.pack_batch(*batch), rows)
            if storage == "agent_major":
                # the packed arm is the arena's ring write; no replay re-splits rows
                with pytest.raises(ValueError, match="timestep_major"):
                    via_packed.ingest(packed_rows=rows)
                return
            assert via_batch.ingest(batch) == 24
            assert via_packed.ingest(packed_rows=rows) == 24
        _assert_state_equal(_buffer_state(via_batch), _buffer_state(via_packed))
        assert via_packed.arena.next_index == via_batch.arena.next_index == 8

    def test_packed_rows_rejected_on_prioritized(self, storage):
        replay = make_replay(
            obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=32,
            prioritized=True, storage=storage,
        )
        rows = _pack(_joint_batch(np.random.default_rng(1), 4), replay.schema)
        with pytest.raises(ValueError, match="non-prioritized"):
            replay.ingest(packed_rows=rows)
        assert len(replay) == 0

    def test_exactly_one_call_shape(self, storage):
        replay = make_replay(obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=32, storage=storage)
        rng = np.random.default_rng(3)
        batch = _joint_batch(rng, 4)
        rows = _pack(batch, replay.schema)
        with pytest.raises(ValueError, match="exactly one"):
            replay.ingest(batch, packed_rows=rows)
        with pytest.raises(ValueError, match="exactly one"):
            replay.ingest()

    def test_prioritized_ingest_updates_trees(self, storage):
        rng = np.random.default_rng(4)
        batch = _joint_batch(rng, 8)
        replay = make_replay(
            obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=32,
            prioritized=True, storage=storage,
        )
        replay.ingest(batch)
        buf = replay.priority_buffer(0)
        # new transitions get max priority — samplable immediately
        sampled = buf.sample_proportional_indices(np.random.default_rng(0), 4)
        assert sampled.shape == (4,)
        probs = buf.probabilities(sampled)
        assert np.all(probs > 0)


@pytest.mark.parametrize("storage", ["agent_major", "timestep_major"])
class TestGather:
    def _filled(self, storage, seed=0, k=48, capacity=64):
        rng = np.random.default_rng(seed)
        replay = make_replay(
            obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=capacity, storage=storage
        )
        replay.ingest(_joint_batch(rng, k))
        return replay

    def test_vectorized_matches_scalar(self, storage):
        replay = self._filled(storage)
        indices = np.random.default_rng(7).integers(0, len(replay), size=16)
        scalar = replay.gather(indices, vectorized=False)
        fast = replay.gather(indices, vectorized=True)
        _assert_state_equal(scalar, fast)

    def test_runs_paths_match_indices_path(self, storage):
        replay = self._filled(storage)
        runs = [Run(4, 8), Run(20, 8)]
        indices = np.concatenate([np.arange(r.start, r.start + r.length) for r in runs])
        by_indices = replay.gather(indices, vectorized=False)
        by_runs = replay.gather(runs=runs, vectorized=False)
        by_runs_fast = replay.gather(runs=runs, vectorized=True)
        _assert_state_equal(by_indices, by_runs)
        _assert_state_equal(by_indices, by_runs_fast)

    def test_exactly_one_selector(self, storage):
        replay = self._filled(storage)
        with pytest.raises(ValueError, match="exactly one"):
            replay.gather([0, 1], runs=[Run(0, 2)])
        with pytest.raises(ValueError, match="exactly one"):
            replay.gather()



class TestArenaGatherAliases:
    def _arena(self, k=32):
        replay = make_replay(
            obs_dims=OBS_DIMS, act_dims=ACT_DIMS, capacity=64, storage="timestep_major"
        )
        replay.ingest(_joint_batch(np.random.default_rng(9), k))
        return replay.arena

    def test_gather_joint_selectors(self):
        arena = self._arena()
        indices = np.arange(8)
        rows_fast = arena.gather_joint(indices)
        rows_loop = arena.gather_joint(indices, vectorized=False)
        np.testing.assert_array_equal(rows_fast, rows_loop)
        runs_rows = arena.gather_joint(runs=[Run(0, 8)])
        np.testing.assert_array_equal(rows_fast, runs_rows)
        with pytest.raises(ValueError, match="exactly one"):
            arena.gather_joint(indices, runs=[Run(0, 8)])


class TestKeywordOnlyFlags:
    def test_make_sampler_flags_are_keyword_only(self):
        with pytest.raises(TypeError):
            make_sampler("per", 32, 0.4)  # beta positionally
        sampler = make_sampler("per", 32, beta=0.5, fast_path=True)
        assert sampler is not None

    def test_build_trainer_flags_are_keyword_only(self):
        with pytest.raises(TypeError):
            build_trainer("maddpg", "baseline", OBS_DIMS, ACT_DIMS, None, 0)
        trainer = build_trainer(
            "maddpg", "baseline", OBS_DIMS, ACT_DIMS,
            MARLConfig(batch_size=32, buffer_capacity=256, storage="timestep_major"),
            seed=0,
        )
        assert trainer.replay.arena is not None


class TestSamplerDrawEquivalence:
    """Canonical gather verbs leave sampler draws byte-identical."""

    @pytest.mark.parametrize("variant", ["baseline", "cache_aware_n16_r64", "per"])
    def test_trainer_update_deterministic_across_spellings(self, variant):
        def run():
            cfg = MARLConfig(batch_size=1024, buffer_capacity=4096, update_every=10**9)
            trainer = build_trainer("maddpg", variant, OBS_DIMS, ACT_DIMS, cfg, seed=11)
            rng = np.random.default_rng(42)
            batch = _joint_batch(rng, 2048)
            trainer.replay.ingest(batch)
            trainer.total_env_steps = 2048
            losses = trainer.update(force=True)
            params = [
                p.value.copy()
                for agent in trainer.agents
                for p in agent.actor.parameters()
            ]
            return losses, params

        l1, p1 = run()
        l2, p2 = run()
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)
