"""Tests for the structured telemetry subsystem and the bench harness.

Covers the typed-record schema round-trip through JSONL, the PhaseTimer
span adapter, the disabled-path overhead contract (shared null context,
no record construction), the training-loop integration, the bench
report compare gate, the exhibit listing, and the end-to-end trajectory
gate ``repro report --history --suite e2e`` reads from BENCHMARK.json.
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
    #: the policy a caller hands compare_reports: one exact gate, one band
    GATES = {
        "spans_emitted_ok": ("higher", 0.0),
        "disabled_overhead_ratio": ("lower", 1.0),
    }

    def _report(self, metrics):
        from repro import bench

        return {
            "schema_version": bench.BENCH_SCHEMA_VERSION,
            "suite": "smoke",
            "results": [
                {
                    "bench": "telemetry_overhead",
                    "ok": True,
                    "seconds": 0.1,
                    "error": "",
                    "metrics": metrics,
                }
            ],
        }

    def test_compare_passes_identical_reports(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 2.0})
        assert bench.compare_reports(base, base, self.GATES) == []

    def test_compare_flags_exact_gate_regression(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 2.0})
        cur = self._report({"spans_emitted_ok": 0.0, "enabled_overhead_ratio": 2.0})
        violations = bench.compare_reports(cur, base, self.GATES)
        assert violations and "spans_emitted_ok" in violations[0]

    def test_compare_tolerates_band_and_flags_beyond_it(self):
        from repro import bench

        # disabled_overhead_ratio is band-gated (lower is better,
        # tolerance 1.0): anything up to 2x the baseline passes
        base = self._report({"spans_emitted_ok": 1.0, "disabled_overhead_ratio": 1.0})
        within = self._report({"spans_emitted_ok": 1.0, "disabled_overhead_ratio": 1.9})
        assert bench.compare_reports(within, base, self.GATES) == []
        beyond = self._report({"spans_emitted_ok": 1.0, "disabled_overhead_ratio": 2.5})
        violations = bench.compare_reports(beyond, base, self.GATES)
        assert violations and "disabled_overhead_ratio" in violations[0]

    def test_ungated_metric_never_gates(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 1.0})
        cur = self._report({"spans_emitted_ok": 1.0, "enabled_overhead_ratio": 100.0})
        assert bench.compare_reports(cur, base, self.GATES) == []

    def test_compare_flags_missing_bench(self):
        from repro import bench

        base = self._report({"spans_emitted_ok": 1.0})
        cur = dict(base, results=[])
        violations = bench.compare_reports(cur, base, self.GATES)
        assert violations and "missing" in violations[0]

    def test_bench_list_prints_one_row_per_exhibit_file(self, capsys):
        from repro import bench
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        rows = [l.split()[0] for l in capsys.readouterr().out.splitlines() if l.strip()]
        on_disk = sorted(
            p.stem[len("bench_"):]
            for p in (bench._REPO_ROOT / "benchmarks").glob("bench_*.py")
        )
        assert rows == on_disk and len(rows) == len(set(rows))

    @pytest.mark.parametrize("argv", [["--suite", "smoke"], ["--compare", "x"]])
    def test_bench_suite_and_compare_are_unrecognized(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEndToEndGate:
    """``repro report --history … --suite e2e`` gates on BENCHMARK.json."""

    def _history(self, tmp_path, mutate=None):
        """The two checked-in generations, plus a synthetic third."""
        from repro import api, bench

        root = bench._REPO_ROOT / "benchmarks"
        first = bench.load_report(root / "e2e" / "baselines" / "BENCH_e2e.json")
        second = bench.load_report(root / "baselines" / "BENCH_e2e_pr23.json")
        generations = [first, second]
        if mutate is not None:
            third = json.loads(json.dumps(second))
            third["created_unix"] = second["created_unix"] + 1.0
            mutate({r["bench"]: r for r in third["results"]}, third)
            generations.append(third)
        for i, report in enumerate(generations):
            (tmp_path / f"BENCH_e2e_{i}.json").write_text(json.dumps(report))
        return api.report_history(tmp_path, suite="e2e")

    def test_gates_are_the_declared_end_to_end_bounds(self):
        from repro import bench

        gates = bench.suite_gates("e2e")
        assert gates["env_steps_per_s"] == ("higher", 0.2)
        assert gates["peak_rss_mb"] == ("lower", 0.05)
        assert set(gates) == {
            "env_steps_per_s", "update_rounds_per_s", "cpu_s_per_kstep",
            "setup_s", "peak_rss_mb",
        }
        assert bench.suite_gates("smoke") == {}

    def test_checked_in_generations_pass(self, tmp_path):
        text = self._history(tmp_path)
        assert "generations: 2" in text
        assert text.endswith("gate vs previous generation: pass")

    @pytest.mark.parametrize(
        "metric, factor, verdict",
        [
            ("env_steps_per_s", 0.70, "FAIL"),  # bound 0.20, higher is better
            ("env_steps_per_s", 0.90, "pass"),
            ("peak_rss_mb", 1.06, "FAIL"),  # bound 0.05, lower is better
            ("peak_rss_mb", 1.04, "pass"),
        ],
    )
    def test_synthetic_third_generation(self, tmp_path, metric, factor, verdict):
        def mutate(by_bench, _report):
            by_bench["paper_n12"]["metrics"][metric] *= factor

        text = self._history(tmp_path, mutate)
        assert "generations: 3" in text
        assert f"gate vs previous generation: {verdict}" in text
        assert (f"- paper_n12.{metric}:" in text) == (verdict == "FAIL")

    def test_dropped_or_failed_bench_is_a_violation(self, tmp_path):
        def drop(_by_bench, report):
            report["results"] = [
                r for r in report["results"] if r["bench"] != "per_n6"
            ]

        text = self._history(tmp_path, drop)
        assert "gate vs previous generation: FAIL" in text
        assert "- per_n6: missing from current run" in text

        def fail(by_bench, _report):
            by_bench["per_n6"]["ok"] = False

        text = self._history(tmp_path, fail)
        assert "gate vs previous generation: FAIL" in text
        assert "- per_n6: failed" in text
