"""Tests for the ``repro.api`` facade and the report rendering behind
``repro report --history`` / ``--registry``."""

import json

import numpy as np
import pytest

from repro import api
from repro.algos.config import MARLConfig
from repro.bench import BENCH_SCHEMA_VERSION
from repro.configio import resolve_config
from repro.sweep import SweepSpec, sparkline
from repro.telemetry.records import RunManifest, TELEMETRY_SCHEMA_VERSION
from repro.telemetry.recorder import memory_recorder
from repro.training.results import RunResult

TINY = MARLConfig(
    batch_size=16, buffer_capacity=128, update_every=10, max_episode_len=10
)


class TestTrain:
    def test_episode_mode(self):
        result = api.train(TINY, episodes=2, seed=1)
        assert isinstance(result, RunResult)
        assert result.episodes == 2
        assert result.env_steps == 2 * TINY.max_episode_len
        assert result.algorithm == "maddpg"

    def test_steps_mode(self):
        result = api.train(TINY, steps=4, copies=2, num_agents=2, seed=1)
        assert result.env_steps == 4 * 2
        assert "steps_per_second" in result.extra

    @pytest.mark.parametrize("mode", ["episodes", "steps"])
    def test_checkpoint_holds_the_trained_parameters(self, tmp_path, mode):
        """``checkpoint=`` saves the trainer the driver trained — not a
        fresh build at the same seed (the old ``repro train --checkpoint``)."""
        from repro.algos import build_trainer, load_checkpoint
        from repro.envs import make_vector_env
        from repro.experiments.runner import build_workload
        from repro.experiments.workloads import WorkloadSpec
        from repro.training import train, train_steps

        def arrays(trainer):
            return [
                p.value.copy()
                for agent in trainer.agents
                for net in (agent.actor, agent.critic)
                for p in net.parameters()
            ]

        env_name, path = "cooperative_navigation", tmp_path / "ck.npz"
        if mode == "steps":

            def build():
                vec = make_vector_env(env_name, num_agents=3, copies=2, seed=3)
                return vec, build_trainer(
                    "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=TINY, seed=3
                )

            api.train(TINY, steps=12, copies=2, seed=3, checkpoint=path)
            env, trained = build()
            train_steps(env, trained, 12, seed=3)
        else:
            spec = WorkloadSpec(env_name=env_name, episodes=3, seed=3, config=TINY)

            def build():
                return build_workload(spec)

            api.train(TINY, episodes=3, seed=3, checkpoint=path)
            env, trained = build()
            train(env, trained, 3)
        assert trained.update_rounds > 0
        _, reloaded = build()
        fresh = arrays(reloaded)
        load_checkpoint(reloaded, str(path))
        assert all(np.array_equal(a, b) for a, b in zip(arrays(reloaded), arrays(trained)))
        assert not all(np.array_equal(a, b) for a, b in zip(arrays(reloaded), fresh))

    def test_episodes_and_steps_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            api.train(TINY, episodes=2, steps=2)

    def test_resolved_config_stamps_provenance_into_manifest(self):
        resolved = resolve_config(
            cli_overrides={
                "batch_size": 16,
                "buffer_capacity": 128,
                "update_every": 10,
                "max_episode_len": 10,
            },
            env={},
        )
        recorder = memory_recorder()
        api.train(resolved, episodes=1, telemetry=recorder)
        manifests = [
            r for r in recorder.sink.records if isinstance(r, RunManifest)
        ]
        assert manifests
        assert manifests[0].provenance["batch_size"] == "cli"
        assert manifests[0].provenance["lr"] == "default"

    def test_explicit_provenance_wins_over_resolved(self):
        resolved = resolve_config(cli_overrides={"batch_size": 16}, env={})
        resolved = resolve_config(
            cli_overrides={
                "batch_size": 16,
                "buffer_capacity": 128,
                "max_episode_len": 10,
            },
            env={},
        )
        recorder = memory_recorder()
        api.train(
            resolved, episodes=1, telemetry=recorder,
            provenance={"batch_size": "env:REPRO_BATCH_SIZE"},
        )
        manifest = next(
            r for r in recorder.sink.records if isinstance(r, RunManifest)
        )
        assert manifest.provenance == {"batch_size": "env:REPRO_BATCH_SIZE"}


class TestExecuteRun:
    def test_writes_result_and_telemetry(self, tmp_path):
        spec = SweepSpec.from_dict(
            {
                "name": "one",
                "base": {
                    "episodes": 1,
                    "batch_size": 16,
                    "buffer_capacity": 128,
                    "max_episode_len": 10,
                },
            }
        )
        (run,) = spec.expand()
        result = api.execute_run(run, run_dir=tmp_path)
        assert (tmp_path / "result.json").exists()
        assert (tmp_path / "telemetry.jsonl").exists()
        restored = RunResult.from_json(str(tmp_path / "result.json"))
        assert restored.env_steps == result.env_steps
        # telemetry starts with the run manifest
        first = json.loads(
            (tmp_path / "telemetry.jsonl").read_text().splitlines()[0]
        )
        assert first["kind"] == "manifest"

    def test_telemetry_off(self, tmp_path):
        spec = SweepSpec.from_dict(
            {
                "name": "one",
                "base": {
                    "episodes": 1,
                    "batch_size": 16,
                    "buffer_capacity": 128,
                    "max_episode_len": 10,
                },
            }
        )
        (run,) = spec.expand()
        api.execute_run(run, run_dir=tmp_path, telemetry=False)
        assert not (tmp_path / "telemetry.jsonl").exists()


def fake_report(path, sha, reward, sps, *, stamp, suite="smoke"):
    """A synthetic bench-report generation.  Only the ``e2e`` suite has
    gates (BENCHMARK.json), so for these the gate line renders 'n/a'."""
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
        "suite": suite,
        "git_sha": sha,
        "platform": {"python": "x"},
        "created_unix": stamp,
        "results": [
            {
                "bench": "fake_bench",
                "seconds": 1.0,
                "ok": True,
                "error": "",
                "metrics": {"mean_episode_reward": reward, "steps_per_second": sps},
            }
        ],
    }
    path.write_text(json.dumps(report))
    return report


class TestReportHistory:
    def test_trajectories_across_generations(self, tmp_path):
        # written newest-first to prove ordering comes from created_unix
        fake_report(tmp_path / "BENCH_b.json", "bbbbbbbbb", -3.0, 200.0, stamp=2e9)
        fake_report(tmp_path / "BENCH_a.json", "aaaaaaaaa", -4.0, 100.0, stamp=1e9)
        text = api.report_history(tmp_path)
        assert "generations: 2" in text
        assert "(aaaaaaaaa → bbbbbbbbb)" in text
        assert "fake_bench.mean_episode_reward" in text
        assert "+25.0%" in text  # -4.0 → -3.0
        assert "gate vs previous generation: n/a (no gates for suite smoke)" in text

    def test_metric_filter_and_single_generation(self, tmp_path):
        fake_report(tmp_path / "BENCH_a.json", "aaaaaaaaa", -4.0, 100.0, stamp=1e9)
        text = api.report_history(tmp_path, metrics=["steps_per_second"])
        assert "steps_per_second" in text
        assert "mean_episode_reward" not in text
        assert "n/a (single generation)" in text

    def test_suite_filter(self, tmp_path):
        fake_report(tmp_path / "BENCH_a.json", "a" * 9, -4.0, 1.0, stamp=1.0)
        fake_report(
            tmp_path / "BENCH_other.json", "b" * 9, -4.0, 1.0,
            stamp=2.0, suite="other",
        )
        text = api.report_history(tmp_path, suite="other")
        assert "suite: other  generations: 1" in text

    def test_empty_history(self, tmp_path):
        assert "no bench report" in api.report_history(tmp_path)

    def test_non_finite_metrics_render_as_gaps(self, tmp_path):
        """A NaN/inf metric (e.g. a degenerate mean) must not abort the
        whole render — it shows as a gap like sparkline() already does."""
        fake_report(
            tmp_path / "BENCH_a.json", "a" * 9,
            float("nan"), float("inf"), stamp=1e9,
        )
        fake_report(tmp_path / "BENCH_b.json", "b" * 9, -3.0, 200.0, stamp=2e9)
        text = api.report_history(tmp_path)
        assert "generations: 2" in text
        assert "fake_bench.mean_episode_reward" in text

    def test_fmt_tolerates_non_finite(self):
        from repro.sweep.report import _fmt

        assert _fmt(None) == "—"
        assert _fmt(float("nan")) == "—"
        assert _fmt(float("inf")) == "—"
        assert _fmt(float("-inf")) == "—"
        assert _fmt(3.0) == "3"


class TestSweepRegistryReuse:
    BASE = {
        "episodes": 1,
        "batch_size": 16,
        "buffer_capacity": 128,
        "max_episode_len": 10,
    }

    def test_rerun_into_same_root_refused(self, tmp_path):
        """Re-running a sweep whose run_ids already occupy the registry
        would overwrite artifacts and desync the manifest from disk."""
        from repro.sweep import RunRegistry

        spec = SweepSpec.from_dict({"name": "tiny", "base": dict(self.BASE)})
        registry = RunRegistry(tmp_path / "reg")
        for run in spec.expand():
            registry.open_run(run)  # simulates an earlier invocation
        with pytest.raises(ValueError, match="already contains"):
            api.sweep(spec, tmp_path / "reg")

    def test_distinct_sweeps_may_share_a_root(self, tmp_path):
        """Non-colliding sweeps accumulate in one registry, and the
        rebuild-from-disk invariant survives the second invocation."""
        from repro.sweep import RunRegistry

        spec_a = SweepSpec.from_dict(
            {"name": "a", "base": dict(self.BASE),
             "grid": {"algorithm": ["maddpg"]}}
        )
        spec_b = SweepSpec.from_dict(
            {"name": "b", "base": dict(self.BASE),
             "grid": {"algorithm": ["matd3"]}}
        )
        out_a = api.sweep(spec_a, tmp_path / "reg", telemetry=False)
        out_b = api.sweep(spec_b, tmp_path / "reg", telemetry=False)
        assert out_a.all_ok and out_b.all_ok
        registry = RunRegistry.load(tmp_path / "reg")
        assert len(registry.records) == 2
        rebuilt = RunRegistry.load(tmp_path / "reg", rebuild=True)
        assert sorted(r.run_id for r in rebuilt.records) == sorted(
            r.run_id for r in registry.records
        )


class TestSparkline:
    def test_shape_and_gaps(self):
        line = sparkline([1.0, None, 3.0])
        assert len(line) == 3
        assert line[0] == "▁"
        assert line[1] == " "
        assert line[2] == "█"

    def test_flat_series_renders_mid_height(self):
        assert sparkline([2.0, 2.0]) == "▅▅"

    def test_all_none(self):
        assert sparkline([None, None]) == "  "


class TestCli:
    def write_sweep_toml(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "cli-sweep"',
                    "[base]",
                    "episodes = 1",
                    "batch_size = 16",
                    "buffer_capacity = 128",
                    "max_episode_len = 10",
                    "[grid]",
                    'algorithm = ["maddpg", "matd3"]',
                ]
            )
        )
        return path

    def test_sweep_dry_run(self, tmp_path, capsys):
        from repro.cli import main

        spec = self.write_sweep_toml(tmp_path)
        code = main(
            ["sweep", str(spec), "--registry", str(tmp_path / "reg"), "--dry-run"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep 'cli-sweep': 2 runs" in out
        assert "algorithm-maddpg" in out and "algorithm-matd3" in out

    def test_report_registry_cli(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sweep import RunRegistry

        spec = SweepSpec.from_file(self.write_sweep_toml(tmp_path))
        registry = RunRegistry(tmp_path / "reg")
        for run in spec.expand():
            registry.open_run(run)
            registry.record_failure(run, "not really run", attempt=1)
        code = main(["report", "--registry", str(tmp_path / "reg")])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 runs" in out and "2 failed" in out

    def test_report_rejects_both_modes(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["report", "--registry", str(tmp_path), "--history", str(tmp_path)]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_train_spec_file_round_trip(self, tmp_path, capsys):
        """`repro train --spec file.toml` resolves config from the file."""
        from repro.cli import main

        spec = tmp_path / "train.toml"
        spec.write_text(
            "[config]\nbatch_size = 16\nbuffer_capacity = 128\n"
            "update_every = 10\nmax_episode_len = 10\n"
        )
        code = main(["train", "--spec", str(spec), "--episodes", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "done:" in out
