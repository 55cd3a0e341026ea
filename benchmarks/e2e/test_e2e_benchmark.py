"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (tier-1's
``testpaths`` does not include this directory).
"""

from __future__ import annotations

import json
import types

import pytest

import run as bench
import spans as tracing
import worker
import workloads as wl

DECLARED = json.loads((bench.REPO / "BENCHMARK.json").read_text())


def _names(section: str) -> set:
    return {m["name"] for m in DECLARED[section]}


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory) -> dict:
    """One smoke run of every workload, with a hostile REPRO_* variable set."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_STORAGE", "agent_major")
        assert bench.main(["--smoke", "--passes", "1", "--out", str(out), "--bench-report"]) == 0
    doc = json.loads(out.read_text())
    doc["bench_report_path"] = out.parent / "BENCH_e2e.json"
    return doc


def test_declarations_agree_with_the_code():
    assert _names("end_to_end") == set(bench.E2E_METRICS)
    assert _names("per_layer") == set(tracing.LAYER_METRICS)
    assert {w["name"] for w in DECLARED["workloads"]} == set(wl.WORKLOADS)
    for section, table in (("end_to_end", bench.E2E_METRICS), ("per_layer", tracing.LAYER_METRICS)):
        for m in DECLARED[section]:
            assert (m["unit"], m["better"]) == table[m["name"]], m["name"]


def test_smoke_emits_exactly_the_declared_names(smoke_doc):
    assert [s["workload"] for s in smoke_doc["workloads"]] == list(wl.WORKLOADS)
    for s in smoke_doc["workloads"]:
        assert set(s["end_to_end"]) == _names("end_to_end")
        assert set(s["per_layer"]) == _names("per_layer")
        assert all(v is not None and v > 0 for v in s["end_to_end"].values()), s["end_to_end"]
        assert all(v is not None for v in s["per_layer"].values()), s["per_layer"]
        assert s["failed"] == 0 and s["failed_share"] == 0.0
        assert s["checks"] == {
            "check.reference_match": 1, "check.deterministic": 1,
            "check.finite": 1, "check.phase_sum": 1,
        }


def test_parent_environment_does_not_reach_the_program(smoke_doc, monkeypatch):
    for s in smoke_doc["workloads"]:
        assert s["config_applied"]["storage"] == "timestep_major"
    monkeypatch.setenv("REPRO_BACKEND", "numba")
    env = bench.child_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"


def test_bench_report_is_in_the_repro_bench_schema(smoke_doc):
    from repro.bench import load_report

    report = load_report(smoke_doc["bench_report_path"])  # rejects another schema_version
    assert report["suite"] == "e2e"
    assert {"created_unix", "git_sha", "platform"} <= set(report)
    assert [r["bench"] for r in report["results"]] == list(wl.WORKLOADS)
    for r in report["results"]:
        assert r["ok"] and set(bench.E2E_METRICS) <= set(r["metrics"])


def test_timed_mode_prints_one_result_line(capsys, tmp_path):
    for trace, declared in ((0, bench.E2E_METRICS), (1, tracing.LAYER_METRICS)):
        code = bench.main([
            "--workload", "paper_n3", "--smoke", "--seed", "5", "--seconds", "0.3",
            "--trace", str(trace), "--out", str(tmp_path / "r.json"),
        ])
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(declared)
        for name, m in line["metrics"].items():
            assert m["unit"] == declared[name][0] and isinstance(m["value"], float)


def test_self_time_is_duration_minus_direct_children():
    # window [0, 10] > update [1, 7] > sample [2, 4] > gather [3, 4]; step [8, 9.5]
    spans = [
        tracing.Span("training.window", 0.0, 10.0, -1),
        tracing.Span("algos.update", 1.0, 7.0, 0, note=1.0),
        tracing.Span("core.samplers.sample", 2.0, 4.0, 1),
        tracing.Span("buffers.gather", 3.0, 4.0, 2),
        tracing.Span("envs.step", 8.0, 9.5, 0),
    ]
    assert tracing.self_times(spans) == [2.5, 4.0, 1.0, 1.0, 1.5]
    m = tracing.layer_metrics(
        spans, [], copies=8, prefill_rows_per_s=1.0,
        timer_delta={"update_all_trainers.target_q": 2.0, "update_all_trainers.loss_update": 3.0},
    )
    assert m["training.window_self_share"] == 0.25
    assert m["algos.update_share"] == 0.6 and m["algos.update_self_share"] == 0.4
    assert m["core.samplers.sample_share"] == 0.2 and m["core.samplers.sample_self_share"] == 0.1
    assert m["buffers.gather_share"] == 0.1 and m["envs.step_share"] == 0.15
    assert m["envs.step_ms_p50"] == 1500.0 and m["envs.step_ms_per_copy"] == 187.5
    assert m["algos.update_rounds"] == 1.0 and m["algos.update_ms_p50"] == 6000.0
    assert m["algos.update_target_q_share"] == 0.2 and m["algos.update_loss_share"] == 0.3


def test_recorder_nests_wrapped_calls():
    rec = tracing.SpanRecorder()
    inner = rec.wrap("inner", lambda: 7, note=float)
    outer = rec.wrap("outer", lambda: inner() + 1)
    with rec.span(tracing.ROOT):
        assert outer() == 8
    assert [(s.name, s.parent) for s in rec.spans] == [(tracing.ROOT, -1), ("outer", 0), ("inner", 1)]
    assert rec.spans[2].note == 7.0
    assert all(s.end >= s.start for s in rec.spans)


def test_missing_wrapped_attribute_gives_null_metrics_not_a_crash():
    class Replay:
        def ingest(self, batch):
            return 3

    class Sampler:
        def sample(self):
            return None

        def update_priorities(self):
            return None

    trainer = types.SimpleNamespace(
        agents=[types.SimpleNamespace(act=lambda obs: obs)],
        replay=Replay(), sampler=Sampler(), update=lambda: {"q_loss": 0.0},
    )
    vec_env = types.SimpleNamespace(step=lambda actions: actions)
    rec = tracing.SpanRecorder()
    rec.install(vec_env, trainer)
    assert rec.missing == ["buffers.gather"]
    with rec.span(tracing.ROOT):
        vec_env.step(0)
        trainer.replay.ingest(None)
        trainer.update()
    rec.uninstall()
    assert "ingest" not in vars(trainer.replay)  # the class method shows again
    m = tracing.layer_metrics(rec.spans, rec.missing, copies=8, timer_delta=None, prefill_rows_per_s=1.0)
    assert m["buffers.gather_share"] is None and m["buffers.gather_calls"] is None
    assert m["buffers.ingest_rows"] == 3.0 and m["algos.update_rounds"] == 1.0
    assert m["algos.update_target_q_share"] is None
    assert set(m) == set(tracing.LAYER_METRICS)


@pytest.mark.parametrize("name", ["paper_n3", "per_n6"])  # update_every 100 and 8
def test_expected_rounds_matches_the_trainer(name):
    from repro.training.loop import train_steps

    w = wl.smoke(wl.WORKLOADS[name])
    config, applied = wl.production_config(w)
    assert applied["update_every"] == w.update_every
    vec_env, trainer = wl.build(w, config, seed=0)
    wl.prefill(trainer, w.prefill_rows, seed=1)
    records = worker.run_windows(train_steps, vec_env, trainer, w, windows=3, seconds=None)
    assert [r["rounds"] for r in records] == [wl.expected_rounds(w, 1)] * 3
    assert [r["steps"] for r in records] == [w.steps_per_window] * 3
    assert sum(r["rounds"] for r in records) == wl.expected_rounds(w, 3)


def test_a_window_that_raises_is_counted_as_failed():
    w = wl.smoke(wl.WORKLOADS["learner_n6"])
    trainer = types.SimpleNamespace(total_env_steps=0, update_rounds=0)
    calls = []

    def train_steps(vec_env, trainer, sweeps):
        calls.append(sweeps)
        if len(calls) == 2:
            raise RuntimeError("boom")
        trainer.total_env_steps += sweeps * wl.COPIES
        trainer.update_rounds += wl.expected_rounds(w, 1)

    records = worker.run_windows(train_steps, None, trainer, w, windows=4, seconds=None)
    assert len(records) == 2 and "boom" in records[1]["error"]  # the pass ends there
    output = {
        "trace": False, "planned_windows": 4, "windows": records,
        "setup_s": 1.0, "peak_rss_mb": 1.0, "warm_digest": "w", "config_applied": {},
        "final": {"digest": "d", "l2": 1.0, "finite": True},
    }
    s = bench.summarize(w, [output], probe_ok=True)
    per_window = w.steps_per_window + wl.expected_rounds(w, 1)
    assert s["attempted"] == 4 * per_window
    assert s["failed"] == 3 * per_window + 1 and 0.0 < s["failed_share"] < 1.0
    clean = dict(output, windows=records[:1], planned_windows=1)
    assert bench.summarize(w, [clean], probe_ok=True)["failed_share"] == 0.0
