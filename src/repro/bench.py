"""Unified benchmark harness: declarative specs over every exhibit.

The repo accumulated one ``benchmarks/bench_*.py`` per paper exhibit,
each with its own entry point (four expose ``--smoke`` CLI modes, the
rest are pytest exhibits).  This module registers all of them — plus a
set of fast inline smoke runners — behind one declarative registry, so

    python -m repro bench --suite smoke

runs a suite, writes a schema-versioned ``BENCH_<suite>.json`` report
(git SHA, platform fingerprint, per-bench metrics), and

    python -m repro bench --suite smoke --compare benchmarks/baselines/BENCH_smoke.json

gates each metric against a baseline with per-metric tolerances,
exiting nonzero on regression.  Correctness metrics (bit-identical
equivalence flags) gate exactly; timing ratios gate with generous
tolerances so the job stays stable across hosts; raw seconds are
recorded but never gated.

Suites
------
``smoke``    inline runners only — seconds of wall clock, no subprocesses
``ci``       smoke + the four ``--smoke``-capable bench scripts
``exhibit``  the pytest exhibit benches (minutes; regenerates figures)
``all``      everything
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .telemetry.records import TELEMETRY_SCHEMA_VERSION, git_sha, platform_fingerprint

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchSpec",
    "MetricSpec",
    "BenchResult",
    "REGISTRY",
    "suites",
    "select",
    "run_suite",
    "write_report",
    "load_report",
    "compare_reports",
    "main",
]

BENCH_SCHEMA_VERSION = 1

_REPO_ROOT = Path(__file__).resolve().parents[2]
_BENCH_DIR = _REPO_ROOT / "benchmarks"


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    """One headline metric a bench reports.

    ``direction`` says which way is better (``higher`` / ``lower``);
    ``tolerance`` is the allowed relative regression vs the baseline
    (0.0 = exact); ``gate`` controls whether ``--compare`` fails on it.
    """

    name: str
    unit: str = ""
    direction: str = "higher"
    tolerance: float = 0.0
    gate: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"direction must be higher|lower, got {self.direction!r}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark.

    ``kind`` is how it runs: ``inline`` (a fast callable in this module),
    ``script`` (``python benchmarks/<file> --smoke`` subprocess), or
    ``pytest`` (full exhibit via pytest).  ``budget_seconds`` is the
    declared time budget — enforced as a subprocess timeout for
    script/pytest kinds, advisory for inline ones.
    """

    name: str
    suite: str
    kind: str
    description: str
    budget_seconds: float
    metrics: Tuple[MetricSpec, ...] = ()
    runner: Optional[Callable[[], Dict[str, float]]] = None
    file: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)

    def headline(self) -> Optional[str]:
        """Name of the first gated metric (the spec's headline), if any."""
        for metric in self.metrics:
            if metric.gate:
                return metric.name
        return self.metrics[0].name if self.metrics else None


@dataclass
class BenchResult:
    """Measured outcome of one spec."""

    name: str
    seconds: float
    metrics: Dict[str, float]
    ok: bool = True
    error: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "bench": self.name,
            "seconds": self.seconds,
            "ok": self.ok,
            "error": self.error,
            "metrics": dict(self.metrics),
        }


# ---------------------------------------------------------------------------
# inline smoke runners — seconds each, deterministic headline flags
# ---------------------------------------------------------------------------


def _run_replay_service() -> Dict[str, float]:
    """Sharded dataset service: pulled rows must be pushed rows, conserved."""
    from .buffers.transition import JointSchema
    from .replay import ReplayShardService

    obs_dims, act_dims = [6] * 4, [2] * 4
    width = JointSchema.from_dims(obs_dims, act_dims).width
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(512, width)).astype(np.float64)
    rows[:, 0] = np.arange(512, dtype=np.float64)  # traceable ids
    content_ok = True
    total = 0
    with ReplayShardService(
        obs_dims,
        act_dims,
        capacity=512,
        num_shards=2,
        num_clients=2,
        max_push=256,
        max_batch=64,
        seed=0,
    ) as service:
        service.push(rows)
        start = time.perf_counter()
        for c in range(2):
            client = service.pull_client(c)
            client.refresh_sizes()
            for _ in range(10):
                got = client.sample_rows(64)
                total += got.shape[0]
                ids = got[:, 0].astype(int)
                if not (
                    np.all((ids >= 0) & (ids < 512))
                    and np.array_equal(got, rows[ids])
                ):
                    content_ok = False
        pull_s = time.perf_counter() - start
        stats = service.stats()
        conserved = (
            sum(s["ingested"] for s in stats) == 512
            and sum(s["sampled"] for s in stats) == total
        )
    return {
        "rows_conserved": float(content_ok and conserved),
        "pull_rows_per_second": total / max(pull_s, 1e-12),
    }


def _run_serving() -> Dict[str, float]:
    """Serving tier: batch/single forward parity + response conservation."""
    from .nn.functional import softmax
    from .nn.mlp import mlp
    from .serving import LoadGenerator, PolicyServer, SnapshotStore

    rng = np.random.default_rng(0)
    n, obs_dim, act_dim = 3, 12, 5
    actors = [mlp(obs_dim, act_dim, hidden=(32, 32), rng=rng) for _ in range(n)]
    store = SnapshotStore(actors)
    store.publish_actors(actors)
    # snapshot forwards must match the per-agent reference nets bitwise
    # (numpy path, width-matched batches)
    snap = store.current()
    obs = rng.standard_normal((n, 4, obs_dim))
    parity = 1.0
    dist = snap.forward_batch(obs)
    for s in range(n):
        if not np.array_equal(dist[s], softmax(actors[s](obs[s]))):
            parity = 0.0
        one = snap.forward_single(s, obs[s, 0])
        if not np.array_equal(one, softmax(actors[s](obs[s, :1]))[0]):
            parity = 0.0
    server = PolicyServer(
        store, batch_window_ms=1.0, max_batch=256, max_queue_depth=4096
    )
    with server:
        gen = LoadGenerator(server, num_users=128, seed=1)
        report = gen.run_closed(8000)
    conserved = float(
        report.responses + report.shed == report.requests == 8000
        and server.served == report.responses
        and report.version_violations == 0
    )
    return {
        "batch_parity": parity,
        "responses_conserved": conserved,
        "throughput_rps": report.throughput,
    }


def _run_telemetry_overhead() -> Dict[str, float]:
    """Disabled recorder must cost ~nothing on the phase hot path."""
    from .profiling.timers import PhaseTimer
    from .telemetry import NULL_RECORDER, memory_recorder

    iters = 20_000

    def loop(timer: PhaseTimer) -> float:
        start = time.perf_counter()
        for _ in range(iters):
            with timer.phase("smoke"):
                pass
        return time.perf_counter() - start

    bare = PhaseTimer()
    bare_s = min(loop(bare) for _ in range(3))
    disabled = PhaseTimer()
    disabled.attach_telemetry(NULL_RECORDER)
    disabled_s = min(loop(disabled) for _ in range(3))
    recorder = memory_recorder()
    enabled = PhaseTimer()
    enabled.attach_telemetry(recorder)
    enabled_s = min(loop(enabled) for _ in range(3))
    emitted = len(recorder.sink.of_kind("span"))
    return {
        "disabled_overhead_ratio": disabled_s / max(bare_s, 1e-12),
        "enabled_overhead_ratio": enabled_s / max(bare_s, 1e-12),
        "spans_emitted_ok": float(emitted == 3 * iters),
    }


def _run_sweep_registry() -> Dict[str, float]:
    """Tiny sweep with one crashing cell: isolation + registry integrity."""
    import dataclasses
    import tempfile

    from .sweep import RunRegistry, SweepRunner, SweepSpec
    from .sweep.report import render_registry

    spec = SweepSpec.from_dict(
        {
            "name": "bench-smoke",
            "base": {
                "episodes": 1,
                "batch_size": 16,
                "buffer_capacity": 128,
                "update_every": 10,
                "max_episode_len": 10,
            },
            "grid": {"algorithm": ["maddpg", "matd3"]},
            "cells": [{"env": "no_such_env"}],
        }
    )
    with tempfile.TemporaryDirectory() as root:
        registry = RunRegistry(root)
        runner = SweepRunner(registry, max_workers=2, telemetry=False)
        outcome = runner.run(spec.expand())
        statuses = sorted(outcome.statuses.values())
        isolated = float(
            outcome.total_runs == 3 and statuses == ["failed", "ok", "ok"]
        )
        rebuilt = RunRegistry.load(root, rebuild=True)
        strip = lambda r: dataclasses.replace(r, recorded_unix=0.0)
        key = lambda r: (r.run_id, r.attempt)
        round_trip = float(
            sorted(map(strip, rebuilt.records), key=key)
            == sorted(map(strip, registry.records), key=key)
        )
        renders = float(render_registry(registry).startswith("registry "))
    return {
        "crash_isolated": isolated,
        "registry_round_trip": round_trip,
        "report_renders": renders,
        "runs_per_second": outcome.total_runs / max(outcome.wall_seconds, 1e-12),
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _gate_eq(name: str) -> MetricSpec:
    """Equivalence flag: deterministic, gates exactly."""
    return MetricSpec(name, unit="bool", direction="higher", tolerance=0.0, gate=True)


def _free(name: str, unit: str = "", direction: str = "higher") -> MetricSpec:
    return MetricSpec(name, unit=unit, direction=direction, gate=False)


def _script_spec(file: str, description: str, budget: float = 120.0) -> BenchSpec:
    # "cli_" prefix keeps script specs distinct from the inline smoke
    # runners that cover the same subsystem (e.g. replay_service)
    name = "cli_" + file[len("bench_"):-len(".py")]
    return BenchSpec(
        name=name,
        suite="ci",
        kind="script",
        description=description,
        budget_seconds=budget,
        file=file,
        metrics=(_gate_eq("exit_ok"), _free("seconds", "s", "lower")),
        params={"args": ["--smoke"]},
    )


def _pytest_spec(file: str, description: str, budget: float = 600.0) -> BenchSpec:
    name = file[len("bench_"):-len(".py")]
    return BenchSpec(
        name=name,
        suite="exhibit",
        kind="pytest",
        description=description,
        budget_seconds=budget,
        file=file,
        metrics=(_gate_eq("exit_ok"), _free("seconds", "s", "lower")),
    )


REGISTRY: Tuple[BenchSpec, ...] = (
    # -- inline smoke runners (suite: smoke) -------------------------------
    BenchSpec(
        name="replay_service",
        suite="smoke",
        kind="inline",
        description="sharded replay service: cross-process push/pull row conservation",
        budget_seconds=30.0,
        runner=_run_replay_service,
        metrics=(
            _gate_eq("rows_conserved"),
            _free("pull_rows_per_second", "rows/s"),
        ),
    ),
    BenchSpec(
        name="serving",
        suite="smoke",
        kind="inline",
        description="micro-batched serving: forward parity, response conservation",
        budget_seconds=20.0,
        runner=_run_serving,
        metrics=(
            _gate_eq("batch_parity"),
            _gate_eq("responses_conserved"),
            _free("throughput_rps", "req/s"),
        ),
    ),
    BenchSpec(
        name="telemetry_overhead",
        suite="smoke",
        kind="inline",
        description="phase hot path with no/disabled/enabled telemetry recorder",
        budget_seconds=15.0,
        runner=_run_telemetry_overhead,
        metrics=(
            _gate_eq("spans_emitted_ok"),
            MetricSpec(
                "disabled_overhead_ratio", unit="x", direction="lower",
                tolerance=1.0, gate=True,
            ),
            _free("enabled_overhead_ratio", "x", "lower"),
        ),
    ),
    BenchSpec(
        name="sweep_registry",
        suite="smoke",
        kind="inline",
        description="sweep runner: crash isolation + registry rebuild round-trip",
        budget_seconds=60.0,
        runner=_run_sweep_registry,
        metrics=(
            _gate_eq("crash_isolated"),
            _gate_eq("registry_round_trip"),
            _gate_eq("report_renders"),
            _free("runs_per_second", "runs/s"),
        ),
    ),
    # -- --smoke-capable bench scripts (suite: ci) -------------------------
    _script_spec("bench_fastpath_sampling.py", "fast-path sampling exhibit, smoke geometry"),
    _script_spec("bench_batched_update.py", "stacked-agent update exhibit, smoke geometry"),
    _script_spec("bench_storage_arena.py", "storage engine exhibit, smoke geometry"),
    _script_spec("bench_pipeline_overlap.py", "parallel rollout collector exhibit, smoke geometry"),
    _script_spec("bench_replay_service.py", "sharded replay service exhibit, smoke geometry"),
    _script_spec("bench_serving.py", "micro-batched serving exhibit, smoke geometry"),
    _script_spec("bench_sweep.py", "sweep orchestration exhibit, smoke geometry"),
    # -- pytest exhibit benches (suite: exhibit) ---------------------------
    _pytest_spec("bench_fig2_e2e_breakdown.py", "Figure 2: end-to-end phase breakdown"),
    _pytest_spec("bench_fig3_update_breakdown.py", "Figure 3: update-phase breakdown"),
    _pytest_spec("bench_fig4_hw_counters.py", "Figure 4: hardware-counter proxies"),
    _pytest_spec("bench_fig6_scalability.py", "Figure 6: agent-count scalability"),
    _pytest_spec("bench_fig8_sampling_reduction.py", "Figure 8: sampling-time reduction"),
    _pytest_spec("bench_fig9_e2e_reduction.py", "Figure 9: end-to-end reduction"),
    _pytest_spec("bench_fig10_reward_curves.py", "Figure 10: reward-curve parity"),
    _pytest_spec("bench_fig11_ip_reward_curves.py", "Figure 11: info-prioritized rewards"),
    _pytest_spec("bench_fig12_13_cross_platform.py", "Figures 12-13: cross-platform"),
    _pytest_spec("bench_fig14_layout_reorg.py", "Figure 14: layout reorganization"),
    _pytest_spec("bench_table1_training_time.py", "Table 1: training-time grid"),
    _pytest_spec("bench_ablation_gather.py", "ablation: gather strategies"),
    _pytest_spec("bench_ablation_layout_ingest.py", "ablation: layout ingest cost"),
    _pytest_spec("bench_ablation_memsim_sensitivity.py", "ablation: memsim sensitivity"),
    _pytest_spec("bench_ablation_neighbor_tradeoff.py", "ablation: cache-aware neighbors"),
    _pytest_spec("bench_ablation_predictor.py", "ablation: reuse predictor"),
    _pytest_spec("bench_ext_complexity_fit.py", "extension: complexity fit"),
    _pytest_spec("bench_ext_reuse_multiseed.py", "extension: multi-seed reuse"),
    _pytest_spec("bench_ext_vectorized_env.py", "extension: vectorized env"),
)

_SUITE_EXPANSION = {
    "smoke": ("smoke",),
    "ci": ("smoke", "ci"),
    "exhibit": ("exhibit",),
    "all": ("smoke", "ci", "exhibit"),
}


def suites() -> List[str]:
    return sorted(_SUITE_EXPANSION)


def select(suite: str) -> List[BenchSpec]:
    """Specs belonging to a suite (``ci`` includes ``smoke``; ``all`` everything)."""
    if suite not in _SUITE_EXPANSION:
        raise ValueError(f"unknown suite {suite!r}; choose from {suites()}")
    members = _SUITE_EXPANSION[suite]
    return [spec for spec in REGISTRY if spec.suite in members]


def spec_by_name(name: str) -> BenchSpec:
    for spec in REGISTRY:
        if spec.name == name:
            return spec
    raise KeyError(f"no bench named {name!r}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _run_subprocess(cmd: Sequence[str], budget: float) -> Tuple[float, bool, str]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            list(cmd), cwd=str(_REPO_ROOT), timeout=budget,
            capture_output=True, text=True,
        )
        ok = proc.returncode == 0
        error = "" if ok else (proc.stderr.strip()[-500:] or f"exit {proc.returncode}")
    except subprocess.TimeoutExpired:
        ok, error = False, f"timeout after {budget:.0f}s"
    return time.perf_counter() - start, ok, error


def run_spec(spec: BenchSpec) -> BenchResult:
    """Execute one spec and normalize its outcome."""
    if spec.kind == "inline":
        start = time.perf_counter()
        try:
            metrics = dict(spec.runner())
            ok, error = True, ""
        except Exception as exc:  # the report carries the failure, compare gates it
            metrics, ok, error = {}, False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    elif spec.kind == "script":
        args = list(spec.params.get("args", []))
        seconds, ok, error = _run_subprocess(
            [sys.executable, str(_BENCH_DIR / spec.file), *args], spec.budget_seconds
        )
        metrics = {"exit_ok": float(ok), "seconds": seconds}
    elif spec.kind == "pytest":
        seconds, ok, error = _run_subprocess(
            [sys.executable, "-m", "pytest", str(_BENCH_DIR / spec.file), "-q", "-s"],
            spec.budget_seconds,
        )
        metrics = {"exit_ok": float(ok), "seconds": seconds}
    else:
        raise ValueError(f"unknown bench kind {spec.kind!r}")
    if spec.kind == "inline" and ok:
        metrics.setdefault("seconds", seconds)
    return BenchResult(name=spec.name, seconds=seconds, metrics=metrics, ok=ok, error=error)


def run_suite(suite: str, verbose: bool = True) -> List[BenchResult]:
    results = []
    for spec in select(suite):
        if verbose:
            print(f"[bench] {spec.name} ({spec.kind}) ...", flush=True)
        result = run_spec(spec)
        results.append(result)
        if verbose:
            status = "ok" if result.ok else f"FAIL ({result.error})"
            headline = spec.headline()
            extra = (
                f"  {headline}={result.metrics[headline]:.3f}"
                if headline and headline in result.metrics
                else ""
            )
            print(f"[bench]   {status} in {result.seconds:.2f}s{extra}", flush=True)
    return results


# ---------------------------------------------------------------------------
# reports + compare gating
# ---------------------------------------------------------------------------


def write_report(suite: str, results: List[BenchResult], path: Path) -> Dict[str, object]:
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
        "suite": suite,
        "git_sha": git_sha(),
        "platform": platform_fingerprint(),
        # generation ordering key for `repro report --history`
        "created_unix": time.time(),
        "results": [r.to_dict() for r in results],
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def load_report(path: Path) -> Dict[str, object]:
    report = json.loads(Path(path).read_text())
    version = report.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench report schema {version!r} != supported {BENCH_SCHEMA_VERSION}"
        )
    return report


def _metric_regressed(metric: MetricSpec, current: float, baseline: float) -> bool:
    if metric.tolerance == 0.0:
        return (current < baseline) if metric.direction == "higher" else (current > baseline)
    if metric.direction == "higher":
        return current < baseline * (1.0 - metric.tolerance)
    return current > baseline * (1.0 + metric.tolerance)


def compare_reports(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[str]:
    """Violations of the baseline's gated metrics; empty list = pass.

    Only metrics with ``gate=True`` in the current registry participate;
    benches present in the baseline but missing (or failed) in the
    current run are violations too — a bench silently dropping out of
    the suite must not read as a pass.
    """
    violations: List[str] = []
    current_by_name = {r["bench"]: r for r in current.get("results", [])}
    for entry in baseline.get("results", []):
        name = entry["bench"]
        try:
            spec = spec_by_name(name)
        except KeyError:
            continue  # baseline knows a bench this registry no longer has
        run = current_by_name.get(name)
        if run is None:
            violations.append(f"{name}: missing from current run")
            continue
        if not run.get("ok", False):
            violations.append(f"{name}: failed ({run.get('error', 'unknown error')})")
            continue
        for metric in spec.metrics:
            if not metric.gate or metric.name not in entry["metrics"]:
                continue
            base_value = float(entry["metrics"][metric.name])
            if metric.name not in run["metrics"]:
                violations.append(f"{name}.{metric.name}: missing from current run")
                continue
            value = float(run["metrics"][metric.name])
            if _metric_regressed(metric, value, base_value):
                violations.append(
                    f"{name}.{metric.name}: {value:.4f} regressed vs baseline "
                    f"{base_value:.4f} ({metric.direction} is better, "
                    f"tolerance {metric.tolerance:.0%})"
                )
    return violations


# ---------------------------------------------------------------------------
# CLI entry (wired as `repro bench`)
# ---------------------------------------------------------------------------


def main(args) -> int:
    if args.list:
        for spec in REGISTRY:
            head = spec.headline() or "-"
            print(
                f"{spec.name:<28} suite={spec.suite:<8} kind={spec.kind:<7} "
                f"budget={spec.budget_seconds:>5.0f}s "
                f"headline={head}"
            )
        return 0
    results = run_suite(args.suite)
    out = Path(args.output) if args.output else _REPO_ROOT / f"BENCH_{args.suite}.json"
    report = write_report(args.suite, results, out)
    failed = [r for r in results if not r.ok]
    print(f"[bench] report written to {out}")
    if failed:
        for r in failed:
            print(f"[bench] FAILED: {r.name}: {r.error}", file=sys.stderr)
    if args.compare:
        baseline = load_report(Path(args.compare))
        violations = compare_reports(report, baseline)
        if violations:
            print(f"[bench] {len(violations)} regression(s) vs {args.compare}:",
                  file=sys.stderr)
            for violation in violations:
                print(f"[bench]   {violation}", file=sys.stderr)
            return 1
        print(f"[bench] compare vs {args.compare}: all gated metrics within tolerance")
    return 1 if failed else 0
