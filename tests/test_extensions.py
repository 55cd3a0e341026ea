"""Tests for extension features: physical deception, CLI."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.envs import PhysicalDeceptionScenario, make


class TestPhysicalDeception:
    def make_scenario(self, **kw):
        scenario = PhysicalDeceptionScenario(**kw)
        world = scenario.make_world(np.random.default_rng(0))
        return scenario, world

    def test_agent_composition(self):
        scenario, world = self.make_scenario(num_good=2, num_adversaries=1)
        assert len(scenario.good_agents(world)) == 2
        assert len(scenario.adversaries(world)) == 1

    def test_observation_dims(self):
        # adversary: 2L + 2(A-1); good: 2 + 2L + 2(A-1) with L=2, A=3
        scenario, world = self.make_scenario(num_good=2, num_adversaries=1, num_landmarks=2)
        adv = scenario.adversaries(world)[0]
        good = scenario.good_agents(world)[0]
        assert scenario.observation(adv, world).shape == (4 + 4,)
        assert scenario.observation(good, world).shape == (2 + 4 + 4,)

    def test_adversary_rewarded_for_goal_proximity(self):
        scenario, world = self.make_scenario()
        adv = scenario.adversaries(world)[0]
        goal = scenario.goal(world)
        adv.state.p_pos = goal.state.p_pos.copy()
        near = scenario.reward(adv, world)
        adv.state.p_pos = goal.state.p_pos + 5.0
        far = scenario.reward(adv, world)
        assert near > far

    def test_good_agents_rewarded_for_coverage_and_deception(self):
        scenario, world = self.make_scenario()
        good = scenario.good_agents(world)[0]
        adv = scenario.adversaries(world)[0]
        goal = scenario.goal(world)
        # good on goal, adversary far: best case
        good.state.p_pos = goal.state.p_pos.copy()
        for other in scenario.good_agents(world)[1:]:
            other.state.p_pos = goal.state.p_pos + 3.0
        adv.state.p_pos = goal.state.p_pos + 5.0
        best = scenario.reward(good, world)
        # adversary on goal: worst case
        adv.state.p_pos = goal.state.p_pos.copy()
        worst = scenario.reward(good, world)
        assert best > worst

    def test_goal_hidden_from_adversary_observation(self):
        """Adversary obs must not change when the goal index changes."""
        scenario, world = self.make_scenario(num_landmarks=3)
        adv = scenario.adversaries(world)[0]
        scenario._goal_index = 0
        obs_a = scenario.observation(adv, world)
        scenario._goal_index = 2
        obs_b = scenario.observation(adv, world)
        np.testing.assert_array_equal(obs_a, obs_b)
        # while the good agent's observation does change
        good = scenario.good_agents(world)[0]
        scenario._goal_index = 0
        good_a = scenario.observation(good, world)
        scenario._goal_index = 2
        good_b = scenario.observation(good, world)
        assert not np.allclose(good_a, good_b)

    def test_registered_env_runs(self):
        env = make("physical_deception", num_agents=2, seed=0)
        obs = env.reset()
        assert len(obs) == 3  # 1 adversary + 2 good
        o, r, d, _ = env.step([0, 1, 2])
        assert len(r) == 3 and all(np.isfinite(x) for x in r)

    def test_goal_varies_across_resets(self):
        env = make("physical_deception", num_agents=2, seed=0, num_landmarks=4)
        scenario = env.scenario
        goals = set()
        for _ in range(30):
            env.reset()
            goals.add(scenario._goal_index)
        assert len(goals) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalDeceptionScenario(num_good=0)
        with pytest.raises(ValueError):
            PhysicalDeceptionScenario(num_landmarks=1)


def assert_usage_error(capsys, command, flags, message):
    """``repro <command> <flags>`` exits 2 through the subparser's error."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {command}: error:" in err and message in err


SERVE_SAMPLE_COUNT_FLAGS = {
    "serve": [
        "--agents", "--obs-dim", "--act-dim", "--hidden", "--users",
        "--requests", "--max-batch", "--max-queue-depth",
    ],
    "sample": ["--agents", "--batch-size", "--rows", "--rounds"],
}


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("train", "profile", "sample", "envs", "variants"):
            args = parser.parse_args(
                [command] if command in ("envs", "variants") else [command, "--seed", "1"]
            )
            assert args.command == command

    def test_envs_command(self, capsys):
        assert main(["envs"]) == 0
        out = capsys.readouterr().out
        assert "predator_prey" in out
        assert "cooperative_navigation" in out

    def test_variants_command(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "info_prioritized" in out

    def test_train_command(self, capsys, tmp_path):
        json_path = str(tmp_path / "run.json")
        code = main([
            "train",
            "--episodes", "3",
            "--agents", "2",
            "--batch-size", "16",
            "--buffer", "256",
            "--update-every", "10",
            "--save-json", json_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "done:" in out
        from repro.training import RunResult

        result = RunResult.from_json(json_path)
        assert result.episodes == 3

    @pytest.mark.parametrize(
        "flags,engine",
        [
            ([], "[BatchedVectorEnv, workers=1,"),
            (["--env", "keep_away"], "[SyncVectorEnv, workers=1,"),
            # the banner reports the engine's worker count, clamped to the copies
            (["--env-workers", "4"], "[ParallelVectorEnv, workers=2,"),
        ],
    )
    def test_step_driven_train_names_its_env_engine(self, capsys, flags, engine):
        code = main([
            "train", "--steps", "20", "--copies", "2", "--batch-size", "16",
            "--buffer", "256", "--update-every", "10", *flags,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert engine in out
        # the env step is shown as a part of "other", not folded into it
        assert re.search(r"\| other \d+\.\d% \(env step \d+\.\d%\)", out)

    def test_profile_command(self, capsys):
        code = main([
            "profile", "--agents", "2", "--batch-size", "64", "--rounds", "1",
        ])
        assert code == 0
        assert "sampling" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "profile"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--variant", "nosuch"], "unknown variant 'nosuch'"),
            (["--variant", "layout"], "--variant baseline --fast-path"),
            (["--env", "nosuch"], "unknown environment 'nosuch'; available:"),
            (
                ["--variant", "cache_aware_n16_r64", "--batch-size", "64"],
                "16 * 64 != batch size 64",
            ),
        ],
    )
    def test_bad_cell_is_a_usage_error_not_a_traceback(
        self, capsys, command, flags, message
    ):
        assert_usage_error(capsys, command, flags, message)

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("train", ["--copies", "0"], "--copies: must be a positive integer"),
            ("train", ["--steps", "0"], "--steps: must be a positive integer"),
            ("train", ["--episodes", "0"], "--episodes: must be a positive integer"),
            ("train", ["--agents", "0"], "--agents: must be a positive integer"),
            ("profile", ["--agents", "0"], "--agents: must be a positive integer"),
            ("profile", ["--rounds", "0"], "--rounds: must be a positive integer"),
            (
                "train",
                ["--buffer", "32", "--batch-size", "64"],
                "buffer_capacity 32 smaller than batch_size 64",
            ),
            (
                "train",
                ["--env", "keep_away", "--batched-update"],
                "batched_update requires homogeneous agents",
            ),
            (
                "profile",
                ["--env", "keep_away", "--batched-update"],
                "batched_update requires homogeneous agents",
            ),
            *[
                (command, [flag, "0"], f"{flag}: must be a positive integer")
                for command, flags in SERVE_SAMPLE_COUNT_FLAGS.items()
                for flag in flags
            ],
            (
                "serve",
                ["--batch-window-ms", "-1"],
                "--batch-window-ms: must be non-negative",
            ),
            ("serve", ["--open-rate", "0"], "--open-rate: must be positive"),
            (
                "serve",
                ["--open-rate", "100", "--duration", "0"],
                "--duration: must be positive",
            ),
            ("sample", ["--env", "nope"], "unknown environment 'nope'; available:"),
            (
                "sample",
                ["--rows", "100", "--batch-size", "256"],
                "--rows (100) must be >= --batch-size (256)",
            ),
        ],
    )
    def test_bad_value_is_a_usage_error_not_a_traceback(
        self, capsys, command, flags, message
    ):
        assert_usage_error(capsys, command, flags, message)

    def test_retired_backend_option_is_a_usage_error(self, capsys, tmp_path):
        """PR 22 removed the option: the flag is unrecognized and a spec
        file that still sets the field is rejected, both with exit 2."""
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--backend", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err
        spec = tmp_path / "old.toml"
        spec.write_text('[config]\nbackend = "numba"\n')
        assert_usage_error(
            capsys, "train", ["--spec", str(spec)],
            "unknown config field(s) in spec file: ['backend']",
        )

    def test_sample_command(self, capsys):
        code = main([
            "sample", "--agents", "2", "--batch-size", "64", "--rows", "256",
            "--rounds", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "uniform" in out
        assert "info_prioritized" in out
