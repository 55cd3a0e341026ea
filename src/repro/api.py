"""The programmatic facade: one import for the whole reproduction.

Everything the CLI can do is a function here, with the CLI subcommands
reduced to argument parsing plus a call into this module::

    from repro import api

    result = api.train(cfg, algorithm="matd3", steps=200, copies=8)
    report, violations = api.bench(output="BENCH_exhibit.json")
    outcome = api.serve(users=500, requests=10_000)
    summary = api.sweep(api.load_sweep_spec("sweeps/smoke.toml"), "registry/")

:func:`train` builds one env + trainer and hands them to one of two
drivers, exactly like ``repro train``: ``episodes`` to the oracle loop
(serial, the paper's characterized loop), ``steps`` to the step-driven
default, whose topology (serial, sharded replay service + learner
processes) the config names.  :func:`execute_run`
is the sweep-child entry point: it materializes one
:class:`~repro.sweep.spec.RunSpec` into a registry run directory.

Functions return data (``RunResult``, report dicts, outcome
dataclasses) and never call ``sys.exit``; ``verbose=True`` reproduces
the CLI's progress lines for interactive use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .algos.config import MARLConfig
from .configio import ResolvedConfig, resolve_config
from .training.results import RunResult

__all__ = [
    "ServeOutcome",
    "bench",
    "execute_run",
    "load_sweep_spec",
    "report_history",
    "report_registry",
    "resolve_config",
    "serve",
    "sweep",
    "train",
]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _make_recorder(telemetry, provenance):
    """(recorder-or-None, owned) from a path / recorder / None."""
    if telemetry is None:
        return None, False
    if isinstance(telemetry, (str, Path)):
        from .telemetry import jsonl_recorder

        recorder = jsonl_recorder(str(telemetry))
        owned = True
    else:
        recorder = telemetry
        owned = False
    if provenance is not None:
        recorder.provenance = dict(provenance)
    return recorder, owned


def train(
    config: Optional[Union[MARLConfig, ResolvedConfig]] = None,
    *,
    algorithm: str = "maddpg",
    env_name: str = "cooperative_navigation",
    num_agents: int = 3,
    variant: str = "baseline",
    episodes: Optional[int] = None,
    steps: Optional[int] = None,
    copies: int = 8,
    seed: int = 0,
    telemetry=None,
    provenance: Optional[Mapping[str, str]] = None,
    progress_every: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    verbose: bool = False,
) -> RunResult:
    """Train one workload cell; returns its :class:`RunResult`.

    ``steps=None`` runs ``episodes`` serial episodes (default 50)
    through :func:`~repro.training.loop.train`, the paper's
    characterized loop; ``steps`` set runs that many vector steps over
    ``copies`` env copies through
    :func:`~repro.training.loop.train_steps`, whose topology (env
    workers, replay shards, learners) ``config`` names.
    ``telemetry`` is a JSONL path or a
    :class:`~repro.telemetry.TelemetryRecorder`; passing a
    :class:`~repro.configio.ResolvedConfig` (or an explicit
    ``provenance`` mapping) stamps config-field provenance into the
    run's telemetry manifest.  ``checkpoint`` is a path the trained
    trainer is saved to once the driver returns.
    """
    from .training.loop import train as train_episodes
    from .training.loop import train_steps

    if isinstance(config, ResolvedConfig):
        if provenance is None:
            provenance = config.provenance
        config = config.config
    cfg = config if config is not None else MARLConfig()
    if episodes is not None and steps is not None:
        raise ValueError("pass episodes or steps, not both")
    recorder, owned = _make_recorder(telemetry, provenance)
    env = None
    try:
        if steps is not None:
            from .algos.variants import build_trainer
            from .envs.factory import make_vector_env

            env = make_vector_env(
                env_name, num_agents=num_agents, copies=copies, seed=seed,
                workers=cfg.env_workers,
            )
            trainer = build_trainer(
                algorithm, variant, env.obs_dims, env.act_dims, config=cfg, seed=seed
            )
            if verbose:
                print(
                    f"training {algorithm}/{env_name}/{num_agents} agents "
                    f"({variant}) for {steps} vector steps x {copies} copies "
                    f"[{type(env).__name__}, workers={getattr(env, 'num_workers', 1)}, "
                    f"shards={cfg.replay_shards}, learners={cfg.learners}, "
                    f"staleness={cfg.param_staleness}]"
                )
            result = train_steps(
                env, trainer, steps,
                variant=variant, env_name=env_name, seed=seed, telemetry=recorder,
            )
        else:
            from .experiments.runner import build_workload
            from .experiments.workloads import WorkloadSpec

            episodes = episodes if episodes is not None else 50
            spec = WorkloadSpec(
                algorithm=algorithm,
                env_name=env_name,
                num_agents=num_agents,
                variant=variant,
                episodes=episodes,
                seed=seed,
                config=cfg,
            )
            env, trainer = build_workload(spec)
            if verbose:
                print(f"training {spec.key} for {episodes} episodes ...")
            if progress_every is None:
                progress_every = max(episodes // 5, 1) if verbose else episodes + 1
            result = train_episodes(
                env, trainer, episodes,
                variant=variant, env_name=env_name,
                progress_every=progress_every, telemetry=recorder,
            )
    finally:
        if hasattr(env, "close"):
            env.close()
        if owned:
            recorder.close()
    if checkpoint is not None:
        from .algos.checkpoint import save_checkpoint

        save_checkpoint(trainer, str(checkpoint))
    return result


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def load_sweep_spec(path: Union[str, Path]):
    """Load a :class:`~repro.sweep.spec.SweepSpec` from TOML/JSON."""
    from .sweep import SweepSpec

    return SweepSpec.from_file(path)


def execute_run(spec, run_dir: Union[str, Path], telemetry: bool = True) -> RunResult:
    """Run one sweep cell into its registry directory (child entry point).

    Elastic cores → env workers: a pipeline-mode run granted more than
    its floor (``spec.cores > 1``) and not already pinned to a worker
    count spends the extra cores as rollout workers — the PR 4
    trajectory-equivalence contract keeps that bit-identical.
    """
    run_dir = Path(run_dir)
    cfg = spec.config
    if spec.steps is not None and spec.cores > 1 and cfg.env_workers == 0:
        cfg = cfg.scaled(env_workers=spec.cores)
    result = train(
        cfg,
        algorithm=spec.algorithm,
        env_name=spec.env_name,
        num_agents=spec.num_agents,
        variant=spec.variant,
        episodes=spec.episodes if spec.steps is None else None,
        steps=spec.steps,
        copies=spec.copies,
        seed=spec.seed,
        telemetry=str(run_dir / "telemetry.jsonl") if telemetry else None,
    )
    result.to_json(str(run_dir / "result.json"))
    return result


def sweep(
    spec,
    registry_root: Union[str, Path],
    max_workers: Optional[int] = None,
    total_cores: Optional[int] = None,
    telemetry: bool = True,
    verbose: bool = False,
):
    """Expand and execute a sweep; returns its
    :class:`~repro.sweep.runner.SweepOutcome`.

    ``spec`` is a :class:`~repro.sweep.spec.SweepSpec` or a path to one.
    Timeout and retry policy come from the spec (``timeout_s``,
    ``max_attempts``); pool bounds from the arguments.

    A registry root may accumulate *distinct* sweeps, but re-running a
    sweep whose run_ids already exist there is refused: it would
    overwrite the earlier attempt's artifacts and append duplicate
    manifest lines, breaking the registry's rebuild-from-disk
    invariant.  Use a fresh subdirectory per invocation instead.
    """
    from .sweep import RunRegistry, SweepRunner, SweepSpec

    if not isinstance(spec, SweepSpec):
        spec = load_sweep_spec(spec)
    registry = RunRegistry.load(registry_root)
    runs = spec.expand()
    clashes = sorted(
        registry.existing_run_ids().intersection(run.run_id for run in runs)
    )
    if clashes:
        shown = ", ".join(clashes[:5]) + (" …" if len(clashes) > 5 else "")
        raise ValueError(
            f"registry {registry.root} already contains run(s) {shown}; "
            f"re-running a sweep into the same registry root would "
            f"overwrite their artifacts — point --registry at a fresh "
            f"directory (e.g. a per-invocation subdirectory)"
        )
    runner = SweepRunner(
        registry,
        max_workers=max_workers,
        total_cores=total_cores,
        timeout_s=spec.timeout_s,
        max_attempts=spec.max_attempts,
        telemetry=telemetry,
    )
    return runner.run(runs, verbose=verbose)


# ---------------------------------------------------------------------------
# bench / report
# ---------------------------------------------------------------------------


def bench(
    output: Optional[Union[str, Path]] = None,
    verbose: bool = False,
) -> Tuple[Dict[str, object], List[str]]:
    """Run every ``benchmarks/bench_*.py`` exhibit; returns ``(report, violations)``.

    The report is written to ``output`` (default ``BENCH_exhibit.json``
    at the repo root); ``violations`` names the exhibits that failed
    (empty list = pass, the ``repro bench`` exit-0 condition).
    """
    from . import bench as bench_mod

    results = bench_mod.run_exhibits(verbose=verbose)
    out = (
        Path(output)
        if output is not None
        else bench_mod._REPO_ROOT / "BENCH_exhibit.json"
    )
    report = bench_mod.write_report("exhibit", results, out)
    if verbose:
        print(f"[bench] report written to {out}")
    violations = [
        f"{r.name}: failed ({r.error})" for r in results if not r.ok
    ]
    return report, violations


def report_history(
    source: Union[str, Path, Sequence[Union[str, Path]]],
    suite: Optional[str] = None,
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Render cross-commit bench trajectories (see ``repro report --history``)."""
    from .sweep.report import load_history, render_history

    return render_history(load_history(source, suite=suite), metrics=metrics)


def report_registry(root: Union[str, Path]) -> str:
    """Render a sweep registry summary (see ``repro report --registry``)."""
    from .sweep.report import render_registry

    return render_registry(root)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


@dataclass
class ServeOutcome:
    """Load report plus the served stack, for inspection after the run."""

    report: Any  # serving.LoadReport
    server: Any  # serving.PolicyServer (stopped)
    store: Any  # serving.SnapshotStore

    @property
    def summary(self) -> Dict[str, float]:
        return self.report.summary()


def serve(
    *,
    agents: int = 4,
    obs_dim: int = 24,
    act_dim: int = 5,
    hidden: Sequence[int] = (128, 128),
    users: int = 1000,
    requests: int = 50_000,
    batch_window_ms: float = 2.0,
    max_batch: int = 1024,
    max_queue_depth: int = 8192,
    deadline_ms: Optional[float] = None,
    open_rate: Optional[float] = None,
    duration: float = 2.0,
    publish_every_ms: Optional[float] = None,
    seed: int = 0,
) -> ServeOutcome:
    """Drive the policy-inference serving tier under simulated load.

    Closed loop (``requests`` total) by default; ``open_rate`` switches
    to a fixed-rate open loop for ``duration`` seconds.
    ``publish_every_ms`` republishes a perturbed snapshot on a cadence
    to exercise hot swaps while requests stream.
    """
    import threading

    import numpy as np

    from .nn.mlp import mlp
    from .serving import LoadGenerator, PolicyServer, SnapshotStore

    rng = np.random.default_rng(seed)
    actors = [
        mlp(obs_dim, act_dim, hidden=tuple(hidden), rng=rng)
        for _ in range(agents)
    ]
    store = SnapshotStore(actors)
    store.publish_actors(actors)
    server = PolicyServer(
        store,
        batch_window_ms=batch_window_ms,
        max_batch=max_batch,
        max_queue_depth=max_queue_depth,
    )
    stop_publishing = threading.Event()

    def _republish() -> None:
        period = publish_every_ms / 1e3
        while not stop_publishing.wait(period):
            for actor in actors:
                for p in actor.parameters():
                    p.value += rng.standard_normal(p.value.shape) * 1e-4
            store.publish_actors(actors)

    publisher = (
        threading.Thread(target=_republish, daemon=True)
        if publish_every_ms is not None
        else None
    )
    gen = LoadGenerator(
        server, num_users=users, seed=seed, deadline_ms=deadline_ms
    )
    with server:
        if publisher is not None:
            publisher.start()
        if open_rate is not None:
            report = gen.run_open(open_rate, duration)
        else:
            report = gen.run_closed(requests)
        if publisher is not None:
            stop_publishing.set()
            publisher.join()
    return ServeOutcome(report=report, server=server, store=store)
