"""Tests for trainer checkpointing (save/load/resume)."""

import numpy as np
import pytest

from repro.algos import (
    MADDPGTrainer,
    MATD3Trainer,
    checkpoint_metadata,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.functional import one_hot
from tests.conftest import engine_config
from tests.test_pipeline import assert_trainers_equal


def make_trainer(cls=MADDPGTrainer, seed=0):
    config = engine_config(batch_size=16, buffer_capacity=256, update_every=8)
    return cls([6, 4], [3, 3], config=config, seed=seed)


def make_homog_trainer(
    cls=MADDPGTrainer,
    seed=0,
    batched_update=False,
    sampler=None,
    capacity=256,
    **engine,
):
    """Homogeneous dims so the batched update engine is applicable."""
    config = engine_config(
        batch_size=16,
        buffer_capacity=capacity,
        update_every=8,
        batched_update=batched_update,
        **engine,
    )
    return cls([5, 5], [3, 3], config=config, sampler=sampler, seed=seed)


def feed_and_update(trainer, rng, steps=40, updates=2):
    for _ in range(steps):
        obs = [rng.standard_normal(d) for d in trainer.obs_dims]
        act = [one_hot(rng.integers(a), a) for a in trainer.act_dims]
        trainer.experience(obs, act, [0.1, -0.1], obs, [False, False])
    for _ in range(updates):
        trainer.update(force=True)


class TestMetadata:
    def test_metadata_fields(self, rng):
        trainer = make_trainer()
        feed_and_update(trainer, rng)
        meta = checkpoint_metadata(trainer)
        assert meta["algorithm"] == "maddpg"
        assert meta["obs_dims"] == [6, 4]
        assert meta["total_env_steps"] == 40
        assert meta["update_rounds"] == 2


class TestSaveLoad:
    def test_round_trip_restores_policies(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)

        fresh = make_trainer(seed=99)  # different init
        obs = rng.standard_normal(6)
        before = fresh.agents[0].act(obs, explore=False)
        meta = load_checkpoint(fresh, path)
        after = fresh.agents[0].act(obs, explore=False)
        original = trainer.agents[0].act(obs, explore=False)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, original)
        assert meta["update_rounds"] == 2

    def test_round_trip_restores_targets_and_critics(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        fresh = make_trainer(seed=99)
        load_checkpoint(fresh, path)
        x = rng.standard_normal((3, fresh.joint_dim))
        for a, b in zip(trainer.agents, fresh.agents):
            np.testing.assert_allclose(a.critic(x), b.critic(x))
            np.testing.assert_allclose(a.target_critic(x), b.target_critic(x))

    def test_optimizer_state_restored(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        fresh = make_trainer(seed=99)
        load_checkpoint(fresh, path)
        assert fresh.agents[0].actor_optimizer.t == trainer.agents[0].actor_optimizer.t
        np.testing.assert_allclose(
            fresh.agents[0].critic_optimizer._m[0],
            trainer.agents[0].critic_optimizer._m[0],
        )

    def test_progress_counters_restored(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        fresh = make_trainer()
        load_checkpoint(fresh, path)
        assert fresh.total_env_steps == trainer.total_env_steps
        assert fresh.update_rounds == trainer.update_rounds
        assert fresh.beta_schedule.step_count == trainer.beta_schedule.step_count

    def test_strict_progress_false_keeps_counters(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        fresh = make_trainer()
        load_checkpoint(fresh, path, strict_progress=False)
        assert fresh.total_env_steps == 0

    @pytest.mark.parametrize("cls", [MADDPGTrainer, MATD3Trainer])
    @pytest.mark.parametrize("prioritized", [False, True])
    def test_resumed_training_matches_uninterrupted(self, tmp_path, cls, prioritized):
        """A checkpoint loaded into a fresh same-seed trainer continues
        the interrupted run: the RNG stream (sampling, MATD3 smoothing
        noise) resumes where it stopped, so k more rounds land on
        bit-identical parameters."""
        from repro.core.samplers import PrioritizedSampler

        make = lambda: make_homog_trainer(
            cls, seed=1, sampler=PrioritizedSampler(beta=0.4) if prioritized else None
        )
        a = make()
        feed_and_update(a, np.random.default_rng(5), steps=40, updates=2)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path, include_replay=True)
        b = make()
        load_checkpoint(b, path)
        for _ in range(4):  # spans MATD3's delayed policy rounds
            a.update(force=True)
            b.update(force=True)
        assert_trainers_equal(a, b)

    def test_checkpoint_without_rng_state_still_loads(self, rng, tmp_path, monkeypatch):
        """Checkpoints written before the RNG stream was archived carry
        no ``rng_state`` key; loading one leaves the trainer's own stream."""
        from repro.algos import checkpoint as ckpt

        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng)
        meta = {k: v for k, v in checkpoint_metadata(trainer).items() if k != "rng_state"}
        monkeypatch.setattr(ckpt, "checkpoint_metadata", lambda _trainer: meta)
        path = str(tmp_path / "old.npz")
        save_checkpoint(trainer, path)
        fresh = make_trainer(seed=3)
        before = fresh.rng.bit_generator.state
        assert "rng_state" not in load_checkpoint(fresh, path)
        assert fresh.rng.bit_generator.state == before
        assert fresh.update_rounds == trainer.update_rounds


class TestReplayArchival:
    def test_include_replay_restores_contents(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng, steps=30, updates=0)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path, include_replay=True)
        fresh = make_trainer()
        load_checkpoint(fresh, path)
        assert len(fresh.replay) == 30
        idx = [0, 7, 29]
        for k in range(2):
            a = trainer.replay.buffers[k].gather_vectorized(idx)
            b = fresh.replay.buffers[k].gather_vectorized(idx)
            for fa, fb in zip(a, b):
                np.testing.assert_array_equal(fa, fb)

    def test_exclude_replay_leaves_buffer_empty(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        feed_and_update(trainer, rng, steps=30, updates=0)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path, include_replay=False)
        fresh = make_trainer()
        load_checkpoint(fresh, path)
        assert len(fresh.replay) == 0


class TestEngineRoundTrips:
    """Resume must be bit-identical for every storage/update engine combo."""

    def _resume_pair(self, make, tmp_path):
        a = make(seed=1)
        feed_and_update(a, np.random.default_rng(5), steps=40, updates=1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path, include_replay=True)
        b = make(seed=42)  # different init and RNG, fully overwritten by the load
        load_checkpoint(b, path)
        return a, b, path

    def _assert_updates_identical(self, a, b, rounds=2):
        for _ in range(rounds):
            la = a.update(force=True)
            lb = b.update(force=True)
            assert la["q_loss"] == lb["q_loss"]  # exact, not approx
            assert la["p_loss"] == lb["p_loss"]
        x = np.random.default_rng(3).standard_normal((4, a.joint_dim))
        for aa, ab in zip(a.agents, b.agents):
            np.testing.assert_array_equal(aa.critic(x), ab.critic(x))
            np.testing.assert_array_equal(aa.target_critic(x), ab.target_critic(x))

    def test_batched_engine_resume_bit_identical(self, tmp_path):
        """Stacked params/Adam moments rebound by view adoption survive a
        load: np.copyto lands inside the engine's (N, ...) stacks."""
        make = lambda seed: make_homog_trainer(seed=seed, batched_update=True)
        a, b, _ = self._resume_pair(make, tmp_path)
        assert a._engine is not None and b._engine is not None
        self._assert_updates_identical(a, b)

    def test_arena_backed_resume_bit_identical(self, tmp_path):
        make = lambda seed: make_homog_trainer(seed=seed, storage="timestep_major")
        a, b, _ = self._resume_pair(make, tmp_path)
        assert a.replay.arena is not None and b.replay.arena is not None
        size = len(a.replay)
        np.testing.assert_array_equal(
            a.replay.arena.values[:size], b.replay.arena.values[:size]
        )
        assert b.replay.arena.next_index == a.replay.arena.next_index
        self._assert_updates_identical(a, b)

    def test_arena_plus_batched_resume_bit_identical(self, tmp_path):
        make = lambda seed: make_homog_trainer(
            seed=seed, storage="timestep_major", batched_update=True
        )
        a, b, _ = self._resume_pair(make, tmp_path)
        self._assert_updates_identical(a, b)

    def test_cross_engine_checkpoints_interchange(self, tmp_path):
        """An agent-major checkpoint restores into an arena-backed trainer
        (and vice versa) with identical subsequent training."""
        a = make_homog_trainer(seed=1, storage="agent_major")
        feed_and_update(a, np.random.default_rng(5), steps=40, updates=1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path, include_replay=True)
        b = make_homog_trainer(seed=9, storage="timestep_major")
        load_checkpoint(b, path)
        self._assert_updates_identical(a, b)

    @pytest.mark.parametrize("storage", ["agent_major", "timestep_major"])
    def test_per_tree_state_round_trip(self, tmp_path, storage):
        from repro.core.samplers import PrioritizedSampler

        make = lambda seed: make_homog_trainer(
            seed=seed, storage=storage, sampler=PrioritizedSampler(beta=0.4)
        )
        a = make(1)
        feed_and_update(a, np.random.default_rng(5), steps=40, updates=2)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path, include_replay=True)
        b = make(42)
        load_checkpoint(b, path)
        size = len(a.replay)
        idx = np.arange(size)
        for ba, bb in zip(a.replay.buffers, b.replay.buffers):
            assert bb._max_priority == ba._max_priority
            np.testing.assert_array_equal(
                bb._sum_tree.leaf_values(idx), ba._sum_tree.leaf_values(idx)
            )
            assert bb._sum_tree.total() == ba._sum_tree.total()
            assert bb._min_tree.min() == ba._min_tree.min()
        self._assert_updates_identical(a, b)

    @pytest.mark.parametrize("storage", ["agent_major", "timestep_major"])
    def test_wraparound_cursor_restored_exactly(self, tmp_path, storage):
        """After ring wraparound, resumes overwrite the same slots."""
        make = lambda seed: make_homog_trainer(seed=seed, storage=storage, capacity=32)
        a = make(1)
        feed_and_update(a, np.random.default_rng(5), steps=50, updates=0)
        assert a.replay.buffers[0].next_index == 50 % 32  # wrapped
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(a, path, include_replay=True)
        b = make(42)
        load_checkpoint(b, path)
        assert b.replay.buffers[0].next_index == a.replay.buffers[0].next_index
        # one more joint insert must displace the same slot in both
        for t in (a, b):
            rng2 = np.random.default_rng(11)
            obs = [rng2.standard_normal(d) for d in t.obs_dims]
            act = [one_hot(rng2.integers(ad), ad) for ad in t.act_dims]
            t.experience(obs, act, [0.3, 0.4], obs, [False, False])
        for ba, bb in zip(a.replay.buffers, b.replay.buffers):
            for fa, fb in zip(
                ba.gather_vectorized(np.arange(32)),
                bb.gather_vectorized(np.arange(32)),
            ):
                np.testing.assert_array_equal(fa, fb)


class TestValidation:
    def test_algorithm_mismatch_rejected(self, rng, tmp_path):
        trainer = make_trainer(MADDPGTrainer, seed=1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        wrong = make_trainer(MATD3Trainer)
        with pytest.raises(ValueError, match="maddpg"):
            load_checkpoint(wrong, path)

    def test_dimension_mismatch_rejected(self, rng, tmp_path):
        trainer = make_trainer(seed=1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        config = engine_config(batch_size=16, buffer_capacity=256)
        wrong = MADDPGTrainer([8, 4], [3, 3], config=config, seed=0)
        with pytest.raises(ValueError, match="dimensions"):
            load_checkpoint(wrong, path)

    def test_matd3_twin_critics_round_trip(self, rng, tmp_path):
        trainer = make_trainer(MATD3Trainer, seed=1)
        feed_and_update(trainer, rng)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(trainer, path)
        fresh = make_trainer(MATD3Trainer, seed=50)
        load_checkpoint(fresh, path)
        x = rng.standard_normal((2, fresh.joint_dim))
        np.testing.assert_allclose(
            trainer.agents[0].critic2(x), fresh.agents[0].critic2(x)
        )
