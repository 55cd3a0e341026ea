"""RunRegistry round-trip tests: append + load, rebuild-from-disk
equivalence, torn-manifest-line tolerance, and status queries."""

import dataclasses
import json

import pytest

from repro.sweep import RunRegistry, SweepSpec
from repro.sweep.registry import RunRecord
from repro.training.results import RunResult


def make_runs(n=2):
    spec = SweepSpec.from_dict(
        {
            "name": "t",
            "base": {"episodes": 2, "batch_size": 16, "buffer_capacity": 128},
            "grid": {"num_agents": [2, 3, 4, 5][:n]},
        }
    )
    return spec.expand()


def fake_result(run, seconds=1.5, reward=-3.25):
    return RunResult(
        algorithm=run.algorithm,
        variant=run.variant,
        env_name=run.env_name,
        num_agents=run.num_agents,
        episodes=run.episodes,
        total_seconds=seconds,
        phase_totals={"env_step": seconds * 0.5, "update": seconds * 0.5},
        episode_rewards=[reward - 1, reward + 1],
        agent_rewards=[],
        update_rounds=4,
        env_steps=100,
    )


def strip_time(record):
    return dataclasses.replace(record, recorded_unix=0.0)


class TestRecordAndLoad:
    def test_result_round_trips_through_manifest(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        runs = make_runs(2)
        for run in runs:
            registry.open_run(run)
            registry.record_result(run, fake_result(run))
        loaded = RunRegistry.load(tmp_path / "reg")
        assert loaded.records == registry.records
        record = loaded.records[0]
        assert record.status == "ok"
        assert record.seconds == 1.5
        assert record.metrics["mean_episode_reward"] == pytest.approx(-3.25)
        assert (tmp_path / "reg" / record.paths["result"]).exists()
        assert (tmp_path / "reg" / record.paths["spec"]).exists()

    def test_failure_writes_attempt_file(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        (run,) = make_runs(1)
        registry.open_run(run)
        registry.record_failure(run, "boom\ntraceback", attempt=1)
        registry.record_failure(run, "boom again", attempt=2, status="timeout")
        run_dir = registry.run_dir(run.run_id)
        assert (run_dir / "failure_1.json").exists()
        assert (run_dir / "failure_2.json").exists()
        payload = json.loads((run_dir / "failure_2.json").read_text())
        assert payload["status"] == "timeout"

    def test_bad_failure_status_rejected(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        (run,) = make_runs(1)
        with pytest.raises(ValueError, match="failed|timeout"):
            registry.record_failure(run, "x", status="exploded")

    def test_torn_trailing_line_is_skipped_with_warning(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        (run,) = make_runs(1)
        registry.open_run(run)
        registry.record_result(run, fake_result(run))
        with open(registry.manifest_path, "a") as f:
            f.write('{"run_id": "torn", "status"')  # crashed mid-append
        with pytest.warns(RuntimeWarning, match="unparseable"):
            loaded = RunRegistry.load(tmp_path / "reg")
        assert len(loaded.records) == 1
        assert loaded.records[0].run_id == run.run_id


class TestRebuild:
    def test_rebuild_matches_in_memory_modulo_timestamps(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        runs = make_runs(3)
        # run 0: clean success; run 1: one failure then success; run 2: two failures
        registry.open_run(runs[0])
        registry.record_result(runs[0], fake_result(runs[0]))
        registry.open_run(runs[1])
        registry.record_failure(runs[1], "transient", attempt=1)
        registry.record_result(runs[1], fake_result(runs[1], seconds=2.0), attempt=2)
        registry.open_run(runs[2])
        registry.record_failure(runs[2], "crash", attempt=1)
        registry.record_failure(runs[2], "crash", attempt=2, status="timeout")

        rebuilt = RunRegistry.load(tmp_path / "reg", rebuild=True)
        key = lambda r: (r.run_id, r.attempt)
        original = sorted((strip_time(r) for r in registry.records), key=key)
        derived = sorted((strip_time(r) for r in rebuilt.records), key=key)
        assert derived == original

    def test_rebuild_survives_deleted_manifest(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        (run,) = make_runs(1)
        registry.open_run(run)
        registry.record_result(run, fake_result(run))
        registry.manifest_path.unlink()
        rebuilt = RunRegistry.load(tmp_path / "reg", rebuild=True)
        assert [strip_time(r) for r in rebuilt.records] == [
            strip_time(r) for r in registry.records
        ]

    def test_rebuild_ignores_specless_dirs(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        (tmp_path / "reg" / "runs" / "stray").mkdir(parents=True)
        assert RunRegistry.load(tmp_path / "reg", rebuild=True).records == []


class TestFilesFromEarlierCommits:
    """A field retired from a dataclass must not stop old files loading."""

    def test_spec_with_retired_config_fields_rebuilds(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        (run,) = make_runs(1)
        registry.open_run(run)
        registry.record_result(run, fake_result(run))
        spec_path = registry.run_dir(run.run_id) / "spec.json"
        payload = json.loads(spec_path.read_text())
        payload["config"].update(
            backend="python", prefetch=False, shared_batch=True
        )
        spec_path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning) as caught:
            rebuilt = RunRegistry.load(tmp_path / "reg", rebuild=True)
        (warning,) = caught
        assert "['backend', 'prefetch', 'shared_batch']" in str(warning.message)
        assert run.run_id in str(warning.message)
        assert [strip_time(r) for r in rebuilt.records] == [
            strip_time(r) for r in registry.records
        ]

    def test_manifest_line_with_retired_backend_field_parses(self, tmp_path):
        from repro.telemetry import read_jsonl
        from repro.telemetry.records import CounterSample, RunManifest

        # the first two lines of a PR 21 `repro train --telemetry` stream
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"git_sha":"13518e6","platform":{"python":"3.11.7"},"seed":null,'
            '"config":{"batch_size":16,"backend":"numpy"},'
            '"label":"train/cooperative_navigation/maddpg/baseline",'
            '"created_unix":1791079255.95,'
            '"backend":{"name":"numpy","compiled":false,"jitted":false},'
            '"provenance":{"batch_size":"cli","backend":"default"},'
            '"schema_version":1,"kind":"manifest"}\n'
            '{"name":"backend.selected","value":1.0,"unit":"numpy",'
            '"at_unix":1791079255.95,"kind":"counter"}\n'
        )
        manifest, counter = read_jsonl(str(path))
        assert isinstance(manifest, RunManifest)
        assert manifest.config["backend"] == "numpy"  # free-form dict: kept
        assert not hasattr(manifest, "backend")
        assert isinstance(counter, CounterSample)


class TestQueries:
    def test_final_status_takes_last_attempt(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        runs = make_runs(2)
        registry.open_run(runs[0])
        registry.record_failure(runs[0], "first try", attempt=1)
        registry.record_result(runs[0], fake_result(runs[0]), attempt=2)
        registry.open_run(runs[1])
        registry.record_failure(runs[1], "dead", attempt=1)
        status = registry.final_status()
        assert status[runs[0].run_id] == "ok"
        assert status[runs[1].run_id] == "failed"
        assert len(registry.by_status("ok")) == 1
        assert len(registry.by_status("failed")) == 2

    def test_record_round_trips_as_dict(self, tmp_path):
        registry = RunRegistry(tmp_path / "reg")
        (run,) = make_runs(1)
        registry.open_run(run)
        record = registry.record_result(run, fake_result(run))
        assert RunRecord.from_dict(record.to_dict()) == record
