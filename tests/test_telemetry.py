"""Tests for the structured telemetry subsystem and the bench harness.

Covers the typed-record schema round-trip through JSONL, the PhaseTimer
span adapter, the disabled-path overhead contract (shared null context,
no record construction), the training-loop integration, and the bench
harness compare gate.
"""

import json

import numpy as np
import pytest

import repro
from repro.algos import MARLConfig
from repro.profiling import PhaseTimer
from repro.telemetry import (
    NULL_RECORDER,
    TELEMETRY_SCHEMA_VERSION,
    CounterSample,
    JSONLSink,
    MemorySink,
    NullSink,
    RunManifest,
    SeriesPoint,
    SpanEvent,
    TelemetryRecorder,
    jsonl_recorder,
    memory_recorder,
    read_jsonl,
    record_from_dict,
)
from repro.training import train


class TestRecordRoundTrip:
    def test_all_kinds_round_trip_through_dict(self):
        records = [
            RunManifest.capture(seed=7, config={"batch_size": 32}, label="t"),
            SpanEvent(name="update_all_trainers.sampling", seconds=0.25),
            CounterSample(name="serve.shed", value=3.0, unit="requests"),
            SeriesPoint(series="episode_reward", step=4, value=-1.5),
        ]
        for record in records:
            rebuilt = record_from_dict(record.to_dict())
            assert rebuilt == record
            assert rebuilt.kind == record.kind

    def test_manifest_captures_schema_version_and_platform(self):
        m = RunManifest.capture(config=MARLConfig(batch_size=16))
        assert m.schema_version == TELEMETRY_SCHEMA_VERSION
        assert m.platform["system"]
        assert m.config["batch_size"] == 16  # dataclass config serialized

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry record kind"):
            record_from_dict({"kind": "mystery", "name": "x"})

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with jsonl_recorder(path) as rec:
            rec.manifest(seed=11, label="round-trip")
            with rec.span("phase.a"):
                pass
            rec.counter("hits", 2, unit="rounds")
            rec.series("reward", 0, 1.25)
        records = read_jsonl(path)
        kinds = [r.kind for r in records]
        assert kinds == ["manifest", "span", "counter", "series"]
        assert records[0].seed == 11
        assert records[1].name == "phase.a" and records[1].seconds >= 0.0
        assert records[2] == CounterSample(
            name="hits", value=2.0, unit="rounds", at_unix=records[2].at_unix
        )
        assert records[3] == SeriesPoint(series="reward", step=0, value=1.25)

    def test_future_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        record = RunManifest.capture().to_dict()
        record["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="newer than supported"):
            read_jsonl(str(path))

    def test_corrupt_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "series", "series": "r", "step": 0, "value": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(str(path))


class TestDisabledPath:
    def test_null_recorder_is_disabled(self):
        assert not NULL_RECORDER.enabled
        assert isinstance(NULL_RECORDER.sink, NullSink)

    def test_disabled_span_returns_shared_context(self):
        rec = TelemetryRecorder()
        # one reusable context object — the no-allocation contract
        assert rec.span("a") is rec.span("b")
        with rec.span("a"):
            pass  # usable as a context manager

    def test_disabled_methods_are_noops(self):
        rec = TelemetryRecorder(NullSink())
        assert rec.manifest(seed=1) is None
        rec.counter("x", 1.0)
        rec.series("s", 0, 0.0)
        rec.counters_from({"a": 1.0})

    def test_timer_attach_drops_disabled_recorder(self):
        timer = PhaseTimer()
        timer.attach_telemetry(TelemetryRecorder())
        assert timer._telemetry is None  # hot path pays one is-None check


class TestPhaseTimerAdapter:
    def test_phases_emit_spans_with_dotted_names(self):
        timer = PhaseTimer()
        rec = memory_recorder()
        timer.attach_telemetry(rec)
        with timer.phase("update"):
            with timer.phase("sampling"):
                pass
        spans = rec.sink.of_kind("span")
        assert [s.name for s in spans] == ["update.sampling", "update"]
        assert all(s.seconds >= 0.0 for s in spans)

    def test_add_emits_counter(self):
        timer = PhaseTimer()
        rec = memory_recorder()
        timer.attach_telemetry(rec)
        timer.add("env_step.worker_wait", 0.5, count=1)
        counters = rec.sink.of_kind("counter")
        assert counters == [
            CounterSample(
                name="env_step.worker_wait",
                value=0.5,
                unit="s",
                at_unix=counters[0].at_unix,
            )
        ]

    def test_detach(self):
        timer = PhaseTimer()
        rec = memory_recorder()
        timer.attach_telemetry(rec)
        timer.attach_telemetry(None)
        with timer.phase("p"):
            pass
        assert rec.sink.records == []


class TestTrainingIntegration:
    def test_train_streams_manifest_series_and_counters(self):
        env = repro.make_env("cooperative_navigation", num_agents=2, seed=0)
        cfg = MARLConfig(batch_size=32, buffer_capacity=1024, update_every=25)
        trainer = repro.make_trainer(
            "maddpg", "baseline", env.obs_dims, env.act_dims, config=cfg, seed=0
        )
        rec = memory_recorder()
        result = train(env, trainer, episodes=3, env_name="cn", telemetry=rec)
        sink = rec.sink
        manifests = sink.of_kind("manifest")
        assert len(manifests) == 1
        assert manifests[0].label == "train/cn/maddpg/baseline"
        series = sink.of_kind("series")
        assert [p.step for p in series] == [0, 1, 2]
        np.testing.assert_allclose(
            [p.value for p in series], result.episode_rewards
        )
        counter_names = {c.name for c in sink.of_kind("counter")}
        assert {"update_rounds", "env_steps", "total_seconds"} <= counter_names
        # phase spans mirrored from the trainer's PhaseTimer
        span_names = {s.name for s in sink.of_kind("span")}
        assert "action_selection" in span_names

    def test_train_without_telemetry_unchanged(self):
        env = repro.make_env("cooperative_navigation", num_agents=2, seed=5)
        cfg = MARLConfig(batch_size=32, buffer_capacity=1024, update_every=25)

        def run(telemetry):
            trainer = repro.make_trainer(
                "maddpg", "baseline", env.obs_dims, env.act_dims, config=cfg, seed=5
            )
            e = repro.make_env("cooperative_navigation", num_agents=2, seed=5)
            return train(e, trainer, episodes=2, telemetry=telemetry)

        r_off = run(None)
        r_null = run(TelemetryRecorder())
        assert r_off.episode_rewards == r_null.episode_rewards


class TestSinks:
    def test_jsonl_sink_rejects_emit_after_close(self, tmp_path):
        sink = JSONLSink(str(tmp_path / "s.jsonl"))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit(SeriesPoint(series="s", step=0, value=0.0))

    def test_memory_sink_of_kind_and_clear(self):
        sink = MemorySink()
        sink.emit(SeriesPoint(series="s", step=0, value=0.0))
        sink.emit(CounterSample(name="c", value=1.0))
        assert len(sink.of_kind("series")) == 1
        sink.clear()
        assert sink.records == []


class TestBenchHarness:
    def _report(self, metrics):
        from repro import bench

        spec = bench.spec_by_name("telemetry_overhead")
        return {
            "schema_version": bench.BENCH_SCHEMA_VERSION,
            "suite": "smoke",
            "results": [
                {
                    "bench": spec.name,
                    "ok": True,
                    "seconds": 0.1,
                    "error": "",
                    "metrics": metrics,
                }
            ],
        }

    def test_registry_names_unique_and_suites_known(self):
        from repro import bench

        names = [s.name for s in bench.REGISTRY]
        assert len(names) == len(set(names))
        assert {s.suite for s in bench.REGISTRY} <= {"smoke", "ci", "exhibit"}

    def test_compare_passes_identical_reports(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 2.0})
        assert bench.compare_reports(base, base) == []

    def test_compare_flags_exact_gate_regression(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 2.0})
        cur = self._report({"spans_emitted_ok": 0.0, "enabled_overhead_ratio": 2.0})
        violations = bench.compare_reports(cur, base)
        assert violations and "spans_emitted_ok" in violations[0]

    def test_compare_tolerates_band_and_flags_beyond_it(self):
        from repro import bench

        # disabled_overhead_ratio is band-gated (lower is better,
        # tolerance 1.0): anything up to 2x the baseline passes
        base = self._report({"spans_emitted_ok": 1.0, "disabled_overhead_ratio": 1.0})
        within = self._report({"spans_emitted_ok": 1.0, "disabled_overhead_ratio": 1.9})
        assert bench.compare_reports(within, base) == []
        beyond = self._report({"spans_emitted_ok": 1.0, "disabled_overhead_ratio": 2.5})
        violations = bench.compare_reports(beyond, base)
        assert violations and "disabled_overhead_ratio" in violations[0]

    def test_ungated_metric_never_gates(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 1.0})
        cur = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 100.0})
        assert bench.compare_reports(cur, base) == []

    def test_compare_flags_missing_bench(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0})
        cur = dict(base, results=[])
        violations = bench.compare_reports(cur, base)
        assert violations and "missing" in violations[0]

    def test_checked_in_baseline_is_current_schema(self):
        from repro import bench

        with open(bench._REPO_ROOT / "benchmarks" / "baselines" / "BENCH_smoke.json") as f:
            baseline = json.load(f)
        assert baseline["schema_version"] == bench.BENCH_SCHEMA_VERSION
        baseline_names = {r["bench"] for r in baseline["results"]}
        smoke_names = {s.name for s in bench.REGISTRY if s.suite == "smoke"}
        assert baseline_names == smoke_names

    def test_serving_bench_registered(self):
        from repro import bench

        spec = bench.spec_by_name("serving")
        assert spec.suite == "smoke"
        gated = {m.name for m in spec.metrics if m.gate}
        assert {"batch_parity", "responses_conserved"} <= gated
        script_names = {s.name for s in bench.REGISTRY}
        assert "cli_serving" in script_names
        assert bench.spec_by_name("cli_serving").file == "bench_serving.py"

    def test_bench_list_prints_registry(self, capsys):
        from repro import bench
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == len(bench.REGISTRY)  # one row per spec
        serving_rows = [l for l in lines if l.startswith("serving ")]
        assert len(serving_rows) == 1
        row = serving_rows[0]
        assert "smoke" in row
        assert any(l.startswith("cli_serving ") for l in lines)
