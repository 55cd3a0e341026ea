"""Topology tests of the one step-driven driver, ``train_steps``.

The driver reads its topology from ``trainer.config``:
``(replay_shards, learners)``.  The serial cell ``(1, 1)`` must
reproduce the store-one / update-once sequential reference bit for bit;
the service cells (shard servers + learner processes) must conserve
rows, merge the learners' work back, and leak nothing.  Prioritized
replay lands on the reference in *every* cell: the PER guard degrades
service topologies explicitly.

The learners run the trainer's own update round on an injected batch;
``TestInjectedRound`` pins that to the standalone round function it
replaced.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.envs.factory import make_vector_env
from repro.profiling.phases import LOSS_UPDATE, TARGET_Q, UPDATE_ALL_TRAINERS
from repro.replay import minibatch_from_rows
from repro.telemetry import memory_recorder
from repro.training import train_steps

from tests.test_pipeline import (
    ENV,
    assert_trainers_equal,
    build,
    sequential_reference,
    small_config,
)

COPIES, STEPS, ENV_SEED = 4, 60, 5

#: (replay_shards, learners)
TOPOLOGIES = [(1, 1), (2, 1), (2, 2)]


def shm_leaks():
    return glob.glob("/dev/shm/repro_svc_*") + glob.glob("/dev/shm/repro_param_*")


def run_topology(algorithm, variant, shards, learners, telemetry=None, workers=0):
    config = small_config(
        min_buffer_fill=32, batch_size=16, replay_shards=shards, learners=learners
    )
    vec = make_vector_env(ENV, 3, COPIES, seed=ENV_SEED, workers=workers)
    trainer = build(algorithm, variant, vec, config)
    initial = [p.value.copy() for a in trainer.agents for p in a.actor.parameters()]
    try:
        result = train_steps(vec, trainer, STEPS, seed=7, telemetry=telemetry)
    finally:
        if workers > 1:
            vec.close()
    final = [p.value for a in trainer.agents for p in a.actor.parameters()]
    moved = any(not np.array_equal(p, q) for p, q in zip(initial, final))
    return trainer, result, moved


def reference(algorithm, variant):
    """The sequential store-one / update-once run of the same cell."""
    vec = make_vector_env(ENV, 3, COPIES, seed=ENV_SEED, workers=0)
    trainer = build(algorithm, variant, vec, small_config(min_buffer_fill=32, batch_size=16))
    sequential_reference(trainer, STEPS, COPIES, seed=ENV_SEED)
    return trainer


@pytest.mark.parametrize("algorithm", ["maddpg", "matd3"])
@pytest.mark.parametrize("shards,learners", TOPOLOGIES)
class TestTopologies:
    def test_uniform(self, algorithm, shards, learners):
        leaks_before = set(shm_leaks())
        recorder = memory_recorder()
        trainer, result, moved = run_topology(
            algorithm, "baseline", shards, learners, telemetry=recorder
        )
        assert result.extra["transitions"] == STEPS * COPIES
        if shards > 1 or learners > 1:
            extra = result.extra
            assert extra["replay_shards"] == shards and extra["learners"] == learners
            # every pushed transition landed in exactly one shard
            ingested = sum(extra[f"shard{s}_ingested"] for s in range(shards))
            assert ingested == extra["transitions"]
            # the learners' work merged back: rounds, phase totals, parameters
            assert result.update_rounds == int(extra["learner_rounds"]) > 0
            assert extra["sampled_rows"] > 0
            assert 0.0 < extra["learner_utilization"] <= 1.0
            assert result.phase_totals.get("service_push", 0.0) > 0.0
            assert any(k.startswith("learner.") for k in result.phase_totals)
            assert moved, "no learner progress merged back into the trainer"
            assert set(shm_leaks()) <= leaks_before
            units = {r.name: r.unit for r in recorder.sink.of_kind("counter")}
            assert units["service.shards"] == "shards"
            assert units["service.staleness_max"] == "versions"
            assert all(units[f"service.shard{s}.ingested"] == "rows" for s in range(shards))
        else:
            assert_trainers_equal(reference(algorithm, "baseline"), trainer)

    def test_prioritized(self, algorithm, shards, learners):
        recorder = memory_recorder()
        if shards > 1 or learners > 1:
            with pytest.warns(RuntimeWarning, match="single-shard guard"):
                trainer, result, _ = run_topology(
                    algorithm, "per", shards, learners, telemetry=recorder
                )
        else:
            trainer, result, _ = run_topology(
                algorithm, "per", shards, learners, telemetry=recorder
            )
        guard = [
            r for r in recorder.sink.of_kind("counter") if r.name == "service.per_guard"
        ]
        assert len(guard) == (1 if shards > 1 or learners > 1 else 0)
        assert "learner_rounds" not in result.extra  # local hand-off, no service
        assert_trainers_equal(reference(algorithm, "per"), trainer)


def test_parallel_collector_feeds_the_service():
    """A 2-worker ``ParallelVectorEnv`` under (2 shards, 1 learner): its
    sweeps reach the shards through ``pack_batch`` like the serial
    env's, every row lands in exactly one shard, nothing leaks."""
    leaks_before = set(shm_leaks() + glob.glob("/dev/shm/repro_penv_*"))
    _, result, moved = run_topology("maddpg", "baseline", 2, 1, workers=2)
    extra = result.extra
    assert extra["transitions"] == STEPS * COPIES
    # round-robin over the global insertion index: an even split
    assert extra["shard0_ingested"] == extra["shard1_ingested"] == STEPS * COPIES / 2
    assert result.update_rounds == int(extra["learner_rounds"]) > 0 and moved
    assert set(shm_leaks() + glob.glob("/dev/shm/repro_penv_*")) <= leaks_before


def injected_round_reference(trainer, batch, agents):
    """The standalone service-mode round ``trainer._injected_round``
    replaced (``replay.coordinator.run_injected_round``), kept verbatim."""
    owned = list(agents)
    policy_due = trainer._policy_update_due()
    trainer.steps_since_update = 0
    trainer.sampler.set_beta(trainer.beta_schedule.step())
    trainer._round_cache = {}
    with trainer.timer.phase(UPDATE_ALL_TRAINERS):
        for i in owned:
            with trainer.timer.phase(TARGET_Q):
                target_q = trainer._target_q(i, batch)
            with trainer.timer.phase(LOSS_UPDATE):
                critic_x = trainer._critic_input_cached(batch)
                trainer._update_critic(i, batch, target_q, critic_x=critic_x)
                if policy_due:
                    trainer._update_actor(i, batch, critic_x=critic_x)
        if policy_due:
            for i in owned:
                trainer.agents[i].soft_update_targets()
    trainer.update_rounds += 1


class TestInjectedRound:
    @pytest.mark.parametrize("algorithm", ["maddpg", "matd3"])
    @pytest.mark.parametrize("batched_update", [False, True])
    def test_injected_round_matches_standalone_round(
        self, algorithm, batched_update
    ):
        vec = make_vector_env(ENV, 3, 1, seed=ENV_SEED, workers=0)
        config = small_config(batched_update=batched_update)
        ours = build(algorithm, "baseline", vec, config)
        theirs = build(algorithm, "baseline", vec, config)
        rows = np.random.default_rng(3).normal(size=(32, ours.replay.schema.width))
        batch = minibatch_from_rows(ours.replay.schema, rows)
        owned = [0, 2]
        for _ in range(3):  # spans MATD3's delayed policy round
            losses = ours._injected_round(batch, owned)
            injected_round_reference(theirs, batch, owned)
            assert set(losses) == {"q_loss", "p_loss"}
        assert_trainers_equal(theirs, ours)
        assert ours.update_rounds == 3
