"""Tests for the experiment harness: workloads, runner, microbench, counters."""

import numpy as np
import pytest

from repro.algos import MARLConfig
from repro.buffers import MultiAgentReplay
from repro.core import CacheAwareSampler, LayoutReorganizer, UniformSampler
from repro.experiments import (
    PAPER_AGENT_COUNTS,
    PAPER_EPISODES,
    SCALABILITY_AGENT_COUNTS,
    WorkloadSpec,
    breakdown_row,
    build_workload,
    env_obs_dims,
    fill_replay,
    reduction_rows,
    render_rows,
    run_workload,
    simulate_sampling_counters,
    table1_rows,
    time_layout_round,
    time_sampler_round,
)


def tiny_spec(**kw):
    defaults = dict(
        algorithm="maddpg",
        env_name="cooperative_navigation",
        num_agents=2,
        variant="baseline",
        episodes=3,
        config=MARLConfig(batch_size=32, buffer_capacity=512, update_every=25),
    )
    defaults.update(kw)
    return WorkloadSpec(**defaults)


class TestWorkloadSpec:
    def test_paper_constants(self):
        assert PAPER_AGENT_COUNTS == (3, 6, 12, 24)
        assert SCALABILITY_AGENT_COUNTS == (3, 6, 12, 24, 48)
        assert PAPER_EPISODES == 60_000

    def test_key(self):
        assert tiny_spec().key == "maddpg/cooperative_navigation/2/baseline"

    def test_scaled(self):
        spec = tiny_spec().scaled(episodes=10, batch_size=64)
        assert spec.episodes == 10
        assert spec.config.batch_size == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(algorithm="dqn")
        with pytest.raises(ValueError):
            tiny_spec(num_agents=0)
        with pytest.raises(ValueError):
            tiny_spec(episodes=0)


class TestRunner:
    def test_build_workload(self):
        env, trainer = build_workload(tiny_spec())
        assert env.num_agents == 2
        assert trainer.name == "maddpg"

    def test_run_workload_returns_result(self):
        result = run_workload(tiny_spec())
        assert result.episodes == 3
        assert result.algorithm == "maddpg"
        assert result.num_agents == 2

    def test_seeds_decorrelated_from_variant(self):
        a = run_workload(tiny_spec(seed=5))
        b = run_workload(tiny_spec(seed=5))
        np.testing.assert_allclose(a.episode_rewards, b.episode_rewards)


class TestMicrobench:
    def make_replay(self, rng, rows=300):
        replay = MultiAgentReplay([8, 8], [5, 5], capacity=1024)
        fill_replay(replay, rng, rows)
        return replay

    def test_fill_replay(self, rng):
        replay = self.make_replay(rng)
        assert len(replay) == 300

    def test_fill_validation(self, rng):
        replay = MultiAgentReplay([8], [5], capacity=16)
        with pytest.raises(ValueError):
            fill_replay(replay, rng, 0)
        with pytest.raises(ValueError):
            fill_replay(replay, rng, 17)

    def test_time_sampler_round(self, rng):
        replay = self.make_replay(rng)
        timing = time_sampler_round(
            UniformSampler(), replay, rng, batch_size=64, rounds=2
        )
        assert timing.seconds > 0
        assert timing.rounds == 2
        assert timing.batches == 4  # 2 rounds x 2 trainers
        assert timing.seconds_per_round == pytest.approx(timing.seconds / 2)

    def test_cache_aware_faster_than_baseline_loop(self, rng):
        """The core performance claim at microbench scale."""
        replay = self.make_replay(rng)
        base = time_sampler_round(
            UniformSampler(), replay, rng, batch_size=256, rounds=3
        )
        opt = time_sampler_round(
            CacheAwareSampler(neighbors=64, refs=4), replay, rng, batch_size=256, rounds=3
        )
        assert opt.seconds < base.seconds

    def test_time_layout_round_with_and_without_reshape(self, rng):
        replay = self.make_replay(rng)
        layout = LayoutReorganizer(replay)
        with_reshape = time_layout_round(layout, rng, batch_size=64, rounds=2)
        layout2 = LayoutReorganizer(replay)
        without = time_layout_round(
            layout2, rng, batch_size=64, rounds=2, include_reshape=False
        )
        assert with_reshape.seconds >= without.seconds

    def test_validation(self, rng):
        replay = self.make_replay(rng)
        with pytest.raises(ValueError):
            time_sampler_round(UniformSampler(), replay, rng, 64, num_trainers=0)


class TestCountersStudy:
    def test_env_obs_dims_match_environments(self):
        assert env_obs_dims("predator_prey", 3) == [16, 16, 16]
        assert env_obs_dims("predator_prey", 24)[0] == 98
        assert env_obs_dims("cooperative_navigation", 12) == [72] * 12
        with pytest.raises(KeyError):
            env_obs_dims("chess", 2)

    def test_env_obs_dims_scale_to_48_agents(self):
        dims = env_obs_dims("predator_prey", 48)
        assert dims[0] > env_obs_dims("predator_prey", 24)[0]

    def test_random_pattern_counters(self):
        profile = simulate_sampling_counters(
            [16] * 3, [5] * 3, capacity=20_000, batch_size=128, pattern="random"
        )
        assert profile["cache_misses"] > 0
        assert profile["dtlb_misses"] > 0
        assert profile["instructions"] > 0

    def test_cache_aware_reduces_misses(self):
        base = simulate_sampling_counters(
            [16] * 3, [5] * 3, capacity=20_000, batch_size=128, pattern="random"
        )
        opt = simulate_sampling_counters(
            [16] * 3, [5] * 3, capacity=20_000, batch_size=128,
            pattern="cache_aware", neighbors=16, refs=8,
        )
        assert opt["cache_misses"] < base["cache_misses"]
        assert opt["dtlb_misses"] < base["dtlb_misses"]

    def test_kv_reduces_accesses(self):
        base = simulate_sampling_counters(
            [16] * 3, [5] * 3, capacity=20_000, batch_size=128, pattern="random"
        )
        kv = simulate_sampling_counters(
            [16] * 3, [5] * 3, capacity=20_000, batch_size=128, pattern="kv"
        )
        assert kv["accesses"] < base["accesses"]
        assert kv["instructions"] < base["instructions"]

    def test_misses_grow_with_agents(self):
        small = simulate_sampling_counters(
            [16] * 2, [5] * 2, capacity=20_000, batch_size=128, pattern="random"
        )
        large = simulate_sampling_counters(
            [16] * 4, [5] * 4, capacity=20_000, batch_size=128, pattern="random"
        )
        # N trainers x N agents: doubling N roughly quadruples misses
        assert large["cache_misses"] > 3 * small["cache_misses"]

    def test_pattern_validation(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            simulate_sampling_counters([16], [5], 100, 16, pattern="zigzag")
        with pytest.raises(ValueError, match="batch_size"):
            simulate_sampling_counters(
                [16], [5], 100, 100, pattern="cache_aware", neighbors=16, refs=8
            )


class TestFigureBuilders:
    def test_table1_rows(self):
        result = run_workload(tiny_spec())
        rows = table1_rows([result])
        assert rows[0].num_agents == 2
        assert rows[0].extrapolated_60k_seconds > rows[0].measured_seconds
        assert "projection" in rows[0].render()

    def test_breakdown_row(self):
        result = run_workload(tiny_spec())
        row = breakdown_row(result)
        assert 0 <= row["update_all_trainers"] <= 100
        assert row["sampling"] + row["target_q"] + row["loss_update"] == pytest.approx(100)

    def test_reduction_rows(self):
        rows = reduction_rows("fig8", {3: 1.0, 6: 2.0}, {3: 0.8, 6: 1.2})
        assert rows[0].reduction_pct == pytest.approx(20.0)
        assert rows[1].speedup == pytest.approx(2.0 / 1.2)

    def test_reduction_rows_mismatched_scales(self):
        with pytest.raises(ValueError):
            reduction_rows("x", {3: 1.0}, {6: 1.0})

    def test_render_rows(self):
        rows = reduction_rows("fig8", {3: 1.0}, {3: 0.5})
        text = render_rows("Figure 8", rows, paper_note="30-37%")
        assert "Figure 8" in text
        assert "paper" in text
        assert "50.00%" in text
