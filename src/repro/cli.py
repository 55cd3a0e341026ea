"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``      train one workload cell and print the result summary
``profile``    run update rounds on a synthetic buffer and print the
               paper-style phase breakdowns
``sample``     microbenchmark the sampling strategies against each other
``envs``       list registered environments and their observation spaces
``variants``   list trainer variants
``bench``      run every paper exhibit (``benchmarks/bench_*.py``) and
               write BENCH_exhibit.json; --list names them
``serve``      drive the micro-batched policy-inference serving tier with
               simulated concurrent users and print the latency/throughput
               report
``sweep``      expand a declarative experiment spec (TOML/JSON) and run
               every cell concurrently into a run registry
``report``     regenerate headline exhibits as markdown (default), render
               cross-commit bench trajectories (--history), or summarize a
               sweep registry (--registry)

Every subcommand is a thin wrapper over :mod:`repro.api`; training
configuration resolves through :func:`repro.configio.resolve_config`
with the precedence chain **CLI flag > ``REPRO_<FIELD>`` env var >
``--spec`` file > defaults**, and the per-field provenance of that
resolution is stamped into the run's telemetry manifest.

Every command accepts ``--seed`` and prints deterministic, parseable
output; see ``python -m repro <command> --help`` for knobs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

import numpy as np

from .algos.batched_update import BatchedUpdateEngine
from .algos.variants import VARIANTS, build_trainer, make_sampler
from .configio import resolve_config
from .envs.registry import available_envs, make
from .experiments.microbench import fill_replay, time_sampler_round
from .profiling.breakdown import end_to_end_breakdown, update_breakdown
from .profiling.timers import PhaseTimer

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type for count flags: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for rate/length flags: a float > 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value:g}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for window flags where 0 is a meaningful setting."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value:g}")
    return value


def _add_config_flags(parser) -> None:
    """Flags that map 1:1 onto MARLConfig fields.

    Every default is ``None`` — "flag not given" — so the resolver can
    tell a real CLI override from silence and record honest provenance.
    """
    parser.add_argument(
        "--fast-path",
        action="store_true",
        default=None,
        dest="fast_path",
        help="use the vectorized sampling engine (equivalent draws, batched execution)",
    )
    parser.add_argument(
        "--batched-update",
        action="store_true",
        default=None,
        dest="batched_update",
        help="run update rounds through the stacked-agent batched engine "
        "(homogeneous agents only; numerically equivalent to the scalar loop)",
    )
    parser.add_argument(
        "--storage",
        choices=["agent_major", "timestep_major"],
        default=None,
        help="replay storage engine: agent_major (baseline N dense rings) or "
        "timestep_major (shared packed arena; bit-identical training); "
        "REPRO_STORAGE overrides the default",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MARL performance characterization & optimization (IISWC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one workload cell")
    train.add_argument("--algorithm", choices=["maddpg", "matd3"], default="maddpg")
    train.add_argument("--env", default="cooperative_navigation")
    train.add_argument("--agents", type=_positive_int, default=3)
    train.add_argument("--variant", default="baseline")
    train.add_argument("--episodes", type=_positive_int, default=50)
    train.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="TOML/JSON config spec; its [config] table seeds the "
        "resolution chain (CLI > REPRO_* env > spec file > defaults)",
    )
    train.add_argument(
        "--batch-size", type=int, default=None, dest="batch_size"
    )
    train.add_argument("--buffer", type=int, default=None, dest="buffer_capacity")
    train.add_argument(
        "--update-every", type=int, default=None, dest="update_every"
    )
    train.add_argument("--seed", type=int, default=0)
    train.set_defaults(usage_error=train.error)
    _add_config_flags(train)
    train.add_argument(
        "--steps",
        type=_positive_int,
        default=None,
        help="train for this many vector steps over --copies env copies through "
        "the execution pipeline instead of --episodes serial episodes",
    )
    train.add_argument(
        "--copies",
        type=_positive_int,
        default=8,
        help="environment copies stepped in lock-step (pipeline mode, with --steps)",
    )
    train.add_argument(
        "--env-workers",
        type=int,
        default=None,
        dest="env_workers",
        help="rollout worker processes stepping env copies over shared memory; "
        "0/1 = serial in-process engine (default; REPRO_ENV_WORKERS overrides)",
    )
    train.add_argument(
        "--replay-shards",
        type=int,
        default=None,
        dest="replay_shards",
        metavar="S",
        help="shard the replay across S dataset-server processes (pipeline "
        "mode, with --steps); 1 = in-process mode, bit-identical to the "
        "serial loop (REPRO_REPLAY_SHARDS overrides)",
    )
    train.add_argument(
        "--learners",
        type=int,
        default=None,
        metavar="L",
        help="learner processes pulling mini-batches from the replay service "
        "and publishing versioned parameter snapshots (with --steps; "
        "1 learner + 1 shard = the serial loop)",
    )
    train.add_argument(
        "--staleness",
        type=int,
        default=None,
        dest="param_staleness",
        metavar="T",
        help="async-broadcast staleness bound: the rollout actor re-polls "
        "the parameter store every T vector sweeps (service mode)",
    )
    train.add_argument("--save-json", default=None, help="write RunResult JSON here")
    train.add_argument("--checkpoint", default=None, help="write a trainer checkpoint here")
    train.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream the run as typed telemetry records (manifest, spans, "
        "counters, reward series) to a JSONL file at PATH",
    )

    profile = sub.add_parser("profile", help="phase breakdown of update rounds")
    profile.add_argument("--algorithm", choices=["maddpg", "matd3"], default="maddpg")
    profile.add_argument("--env", default="predator_prey")
    profile.add_argument("--agents", type=_positive_int, default=3)
    profile.add_argument("--variant", default="baseline")
    profile.add_argument("--batch-size", type=int, default=None, dest="batch_size")
    profile.add_argument("--rounds", type=_positive_int, default=3)
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(usage_error=profile.error)
    _add_config_flags(profile)

    sample = sub.add_parser("sample", help="sampling-strategy microbenchmark")
    sample.add_argument("--env", default="predator_prey")
    sample.add_argument("--agents", type=_positive_int, default=6)
    sample.add_argument("--batch-size", type=_positive_int, default=256)
    sample.add_argument("--rows", type=_positive_int, default=4096)
    sample.add_argument("--rounds", type=_positive_int, default=2)
    sample.add_argument("--seed", type=int, default=0)
    sample.set_defaults(usage_error=sample.error)
    sample.add_argument(
        "--fast-path",
        action="store_true",
        help="benchmark the vectorized sampling engine instead of the faithful loops",
    )
    sample.add_argument(
        "--storage",
        choices=["agent_major", "timestep_major"],
        default=None,
        help="replay storage engine backing the benchmarked buffers",
    )

    sub.add_parser("envs", help="list registered environments")
    sub.add_parser("variants", help="list trainer variants")

    bench = sub.add_parser(
        "bench", help="run every paper exhibit under benchmarks/bench_*.py"
    )
    bench.add_argument(
        "--output",
        default=None,
        help="report path (default: BENCH_exhibit.json at the repo root)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list the exhibits and exit"
    )

    serve = sub.add_parser(
        "serve", help="micro-batched policy-inference serving under simulated load"
    )
    serve.add_argument("--agents", type=_positive_int, default=4)
    serve.add_argument("--obs-dim", type=_positive_int, default=24)
    serve.add_argument("--act-dim", type=_positive_int, default=5)
    serve.add_argument(
        "--hidden", type=_positive_int, nargs="+", default=[128, 128],
        help="actor hidden widths (the served policy network)",
    )
    serve.add_argument(
        "--users", type=_positive_int, default=1000,
        help="simulated concurrent clients (closed loop: one request in flight each)",
    )
    serve.add_argument(
        "--requests", type=_positive_int, default=50000,
        help="total requests for the closed-loop run",
    )
    serve.add_argument(
        "--batch-window-ms", type=_non_negative_float, default=2.0,
        help="micro-batch coalescing window; 0 = request-at-a-time baseline",
    )
    serve.add_argument(
        "--max-batch", type=_positive_int, default=1024,
        help="flush early (and cap the flush) at this many pending requests",
    )
    serve.add_argument(
        "--max-queue-depth", type=_positive_int, default=8192,
        help="admission control: shed submissions beyond this backlog",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="drop requests still queued after this long instead of serving them",
    )
    serve.add_argument(
        "--open-rate", type=_positive_float, default=None, metavar="HZ",
        help="open loop: issue requests at this fixed rate for --duration "
        "seconds instead of the closed loop",
    )
    serve.add_argument(
        "--duration", type=_positive_float, default=2.0,
        help="open-loop run length in seconds (with --open-rate)",
    )
    serve.add_argument(
        "--publish-every-ms", type=float, default=None, metavar="MS",
        help="hot-swap demo: republish a perturbed policy snapshot at this "
        "period while the load runs",
    )
    serve.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="run a declarative experiment sweep into a run registry"
    )
    sweep.add_argument("spec", help="TOML/JSON sweep spec (grid/cells over run + config fields)")
    sweep.add_argument(
        "--registry",
        required=True,
        metavar="DIR",
        help="run-registry directory (append-only; reused across sweeps)",
    )
    sweep.add_argument(
        "--max-workers", type=int, default=None,
        help="concurrent child processes (default: total cores)",
    )
    sweep.add_argument(
        "--total-cores", type=int, default=None,
        help="core budget shared by all concurrent runs (default: host cores)",
    )
    sweep.add_argument(
        "--no-telemetry",
        action="store_true",
        help="skip per-run telemetry.jsonl streams",
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expansion (run ids, seeds, configs) without running",
    )

    report = sub.add_parser(
        "report",
        help="exhibits markdown (default), bench trajectories (--history), "
        "or sweep summary (--registry)",
    )
    report.add_argument("--output", default=None, help="write markdown here (default: stdout)")
    report.add_argument("--agents", type=int, nargs="+", default=[3, 6])
    report.add_argument("--batch-size", type=int, default=256)
    report.add_argument("--rows", type=int, default=2048)
    report.add_argument("--env", default="predator_prey")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--history",
        default=None,
        metavar="SOURCE",
        help="render per-metric regression trajectories from accumulated "
        "BENCH_<suite>.json generations (a directory of reports, or one "
        "report path)",
    )
    report.add_argument(
        "--suite",
        default=None,
        help="restrict --history to one suite when the source mixes several",
    )
    report.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="restrict --history rows to bench.metric keys containing this "
        "substring (repeatable)",
    )
    report.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="summarize a sweep run registry instead of generating exhibits",
    )
    return parser


# ---------------------------------------------------------------------------
# config resolution plumbing
# ---------------------------------------------------------------------------

#: argparse dest names that are MARLConfig fields (set on train/profile).
_CONFIG_DESTS = (
    "batch_size",
    "buffer_capacity",
    "update_every",
    "fast_path",
    "batched_update",
    "storage",
    "env_workers",
    "replay_shards",
    "learners",
    "param_staleness",
)


def _cli_overrides(args) -> Dict[str, object]:
    """Config-field overrides actually given on the command line."""
    return {
        name: getattr(args, name)
        for name in _CONFIG_DESTS
        if getattr(args, name, None) is not None
    }


def _resolve(args, **kwargs):
    """``resolve_config`` over this command's flags; a value the config
    rejects is a usage error, not a traceback."""
    try:
        return resolve_config(cli_overrides=_cli_overrides(args), **kwargs)
    except ValueError as exc:
        args.usage_error(str(exc))


def _check_env(args) -> None:
    """Exit with a usage message on an ``--env`` the registry rejects."""
    if args.env not in available_envs():
        args.usage_error(
            f"unknown environment {args.env!r}; available: {available_envs()}"
        )


def _check_cell(args, config) -> None:
    """Exit with a usage message, not a traceback, on an ``--env`` or
    ``--variant`` the registries reject (``make_sampler`` also checks the
    variant's geometry against the batch size) and on ``--batched-update``
    over a scenario whose agents differ in width."""
    _check_env(args)
    try:
        make_sampler(args.variant, config.batch_size)
        if config.batched_update:
            env = make(args.env, num_agents=args.agents, seed=args.seed)
            BatchedUpdateEngine.check_homogeneous(env.obs_dims, env.act_dims)
    except ValueError as exc:
        args.usage_error(str(exc))


def _print_end_to_end(result) -> None:
    timer = PhaseTimer()
    for key, value in result.phase_totals.items():
        timer.add(key, value)
    print("end-to-end:", end_to_end_breakdown(timer, result.total_seconds).render())


# ---------------------------------------------------------------------------
# commands (thin wrappers over repro.api)
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    from . import api

    resolved = _resolve(
        args,
        file=args.spec,
        defaults={
            # the train command's historical laptop-scale defaults (the
            # paper-exact MARLConfig defaults stay for API users)
            "batch_size": 64,
            "buffer_capacity": 8192,
            "update_every": 25,
        },
    )
    _check_cell(args, resolved.config)
    result = api.train(
        resolved,
        algorithm=args.algorithm,
        env_name=args.env,
        num_agents=args.agents,
        variant=args.variant,
        episodes=None if args.steps is not None else args.episodes,
        steps=args.steps,
        copies=args.copies,
        seed=args.seed,
        telemetry=args.telemetry,
        checkpoint=args.checkpoint,
        verbose=True,
    )
    if args.telemetry is not None:
        print(f"telemetry written to {args.telemetry}")
    if args.steps is not None:
        service = "learner_rounds" in result.extra
        print(
            f"done: {result.total_seconds:.1f}s, {result.update_rounds} update rounds, "
            f"{result.extra['transitions']:.0f} transitions "
            f"({result.extra['steps_per_second']:.0f} steps/s)"
            + (
                f", mean step reward {result.extra['mean_step_reward']:.3f}"
                if not service
                else ""
            )
        )
        if service:
            print(
                f"service: {result.extra['learner_rounds']:.0f} learner rounds, "
                f"{result.extra['sampled_rows']:.0f} rows sampled "
                f"({result.extra['sampled_rows_per_s']:.0f} rows/s aggregate), "
                f"learner utilization {result.extra['learner_utilization']:.2f}, "
                f"staleness mean/max {result.extra['staleness_mean']:.1f}/"
                f"{result.extra['staleness_max']:.0f}"
            )
        if not service:
            _print_end_to_end(result)
    else:
        print(
            f"done: {result.total_seconds:.1f}s, {result.update_rounds} update rounds, "
            f"mean reward (last 20%) "
            f"{result.mean_episode_reward(last=max(args.episodes // 5, 1)):.2f}"
        )
        _print_end_to_end(result)
        timer = PhaseTimer()
        for key, value in result.phase_totals.items():
            timer.add(key, value)
        try:
            print("update:    ", update_breakdown(timer).render())
        except ValueError:
            print("update:     (no update rounds ran; buffer never reached batch size)")
    if args.save_json:
        result.to_json(args.save_json)
        print(f"result written to {args.save_json}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_profile(args) -> int:
    resolved = _resolve(args, defaults={"batch_size": 1024, "update_every": 100})
    config = resolved.config
    if resolved.provenance["buffer_capacity"] == "default":
        config = config.scaled(
            buffer_capacity=max(4 * config.batch_size, 4096)
        )
    _check_cell(args, config)
    env = make(args.env, num_agents=args.agents, seed=args.seed)
    trainer = build_trainer(
        args.algorithm, args.variant, env.obs_dims, env.act_dims,
        config=config, seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    fill_replay(trainer.replay, rng, 2 * config.batch_size)
    for _ in range(args.rounds):
        trainer.update(force=True)
    print(f"{args.algorithm}/{args.env}/{args.agents} agents, variant {args.variant}, "
          f"batch {config.batch_size}, {args.rounds} update rounds")
    print(update_breakdown(trainer.timer).render())
    print()
    print(trainer.timer.render_tree())
    return 0


def _cmd_sample(args) -> int:
    from .buffers.multi_agent import MultiAgentReplay
    from .core import (
        CacheAwareSampler,
        InformationPrioritizedSampler,
        PrioritizedSampler,
        UniformSampler,
    )

    _check_env(args)
    if args.rows < args.batch_size:
        args.usage_error(
            f"--rows ({args.rows}) must be >= --batch-size ({args.batch_size})"
        )
    env = make(args.env, num_agents=args.agents, seed=args.seed)
    obs_dims, act_dims = env.obs_dims, env.act_dims
    rng = np.random.default_rng(args.seed)
    storage = resolve_config(cli_overrides={"storage": args.storage}).config.storage

    replay = MultiAgentReplay(
        obs_dims, act_dims, capacity=args.rows, storage=storage
    )
    fill_replay(replay, rng, args.rows)
    preplay = MultiAgentReplay(
        obs_dims,
        act_dims,
        capacity=args.rows,
        prioritized=True,
        storage=storage,
    )
    fill_replay(preplay, rng, args.rows)
    for i in range(env.num_agents):
        preplay.priority_buffer(i).update_priorities(
            range(args.rows), rng.uniform(0.01, 5.0, args.rows)
        )

    neighbors = 16 if args.batch_size % 16 == 0 else 1
    fast = args.fast_path
    samplers = [
        (UniformSampler(fast_path=fast), replay),
        (CacheAwareSampler(neighbors, args.batch_size // neighbors, fast_path=fast), replay),
        (PrioritizedSampler(fast_path=fast), preplay),
        (InformationPrioritizedSampler(fast_path=fast), preplay),
    ]
    engine = "fast-path (vectorized)" if fast else "faithful (scalar loops)"
    print(f"{args.env}, {env.num_agents} agents, batch {args.batch_size}, "
          f"{args.rows} rows, {args.rounds} rounds per strategy, {engine} engine")
    baseline_s: Optional[float] = None
    for sampler, target in samplers:
        timing = time_sampler_round(sampler, target, rng, args.batch_size, rounds=args.rounds)
        if baseline_s is None:
            baseline_s = timing.seconds
        rel = baseline_s / timing.seconds
        print(f"  {sampler.name:<28} {timing.seconds_per_round * 1e3:9.2f} ms/round "
              f"({rel:5.2f}x vs baseline)")
    return 0


def _cmd_report(args) -> int:
    from . import api

    if args.history is not None and args.registry is not None:
        print("report: pass --history or --registry, not both", file=sys.stderr)
        return 2
    if args.history is not None:
        text = api.report_history(
            args.history, suite=args.suite, metrics=args.metric
        )
    elif args.registry is not None:
        text = api.report_registry(args.registry)
    else:
        from .experiments.report import generate_report

        text = generate_report(
            agent_counts=tuple(args.agents),
            batch_size=args.batch_size,
            rows=args.rows,
            env_name=args.env,
            seed=args.seed,
        )
    if args.output:
        with open(args.output, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_bench(args) -> int:
    from . import api
    from . import bench as bench_mod

    if args.list:
        for name, description, _path in bench_mod.exhibits():
            print(f"{name:<28} {description}")
        return 0
    _report, violations = api.bench(output=args.output, verbose=True)
    if violations:
        print(f"[bench] {len(violations)} violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"[bench]   {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    from . import api

    spec = api.load_sweep_spec(args.spec)
    runs = spec.expand()
    print(
        f"sweep {spec.name!r}: {len(runs)} runs "
        f"({len(spec.grid)} grid axes, {len(spec.cells)} explicit cells, "
        f"repeats={spec.repeats})"
    )
    if args.dry_run:
        for run in runs:
            print(f"  {run.run_id:<40} seed={run.seed:<11} {run.key}")
        return 0
    outcome = api.sweep(
        spec,
        args.registry,
        max_workers=args.max_workers,
        total_cores=args.total_cores,
        telemetry=not args.no_telemetry,
        verbose=True,
    )
    print(
        f"sweep done: {outcome.ok}/{outcome.total_runs} ok, "
        f"{outcome.failed} failed, {outcome.timeout} timed out "
        f"({outcome.attempts} attempts, {outcome.wall_seconds:.1f}s wall)"
    )
    print(api.report_registry(args.registry))
    return 0 if outcome.all_ok else 1


def _cmd_serve(args) -> int:
    from . import api
    from .profiling.phases import (
        SERVE_BATCH_FORWARD,
        SERVE_FLUSH,
        SERVE_QUEUE_WAIT,
    )

    hidden = tuple(args.hidden)
    mode = (
        f"open loop at {args.open_rate:.0f} req/s for {args.duration:.1f}s"
        if args.open_rate is not None
        else f"closed loop, {args.requests} requests"
    )
    print(
        f"serving {args.agents} agents (obs {args.obs_dim} -> "
        f"{list(hidden)} -> {args.act_dim} actions), "
        f"window {args.batch_window_ms:g}ms, max-batch {args.max_batch}, "
        f"queue {args.max_queue_depth}"
    )
    print(f"{args.users} simulated users, {mode}")
    outcome = api.serve(
        agents=args.agents,
        obs_dim=args.obs_dim,
        act_dim=args.act_dim,
        hidden=hidden,
        users=args.users,
        requests=args.requests,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        max_queue_depth=args.max_queue_depth,
        deadline_ms=args.deadline_ms,
        open_rate=args.open_rate,
        duration=args.duration,
        publish_every_ms=args.publish_every_ms,
        seed=args.seed,
    )
    s = outcome.summary
    versions = outcome.report.versions
    store, server = outcome.store, outcome.server
    print(
        f"done: {s['duration_s']:.2f}s, {s['throughput_rps']:.0f} req/s, "
        f"latency p50 {s['latency_p50_ms']:.2f}ms p99 {s['latency_p99_ms']:.2f}ms, "
        f"shed {s['shed']:.0f}/{s['requests']:.0f}"
    )
    observed = f"versions {versions[0]}..{versions[-1]}" if versions else "no versions"
    print(
        f"snapshots: {observed} observed, {store.swaps} swaps, "
        f"per-user version violations {s['version_violations']:.0f}"
    )
    timer = server.timer
    for phase in (SERVE_FLUSH, SERVE_BATCH_FORWARD, SERVE_QUEUE_WAIT):
        if timer.count(phase):
            print(
                f"  {phase:<22} n={timer.count(phase):<7} "
                f"mean {timer.mean(phase) * 1e3:8.3f}ms  "
                f"p50 {timer.percentile(phase, 50) * 1e3:8.3f}ms  "
                f"p99 {timer.percentile(phase, 99) * 1e3:8.3f}ms"
            )
    print(f"flushes {server.flushes}, served {server.served}, shed {server.shed}")
    return 0


def _cmd_envs(_args) -> int:
    for name in available_envs():
        env = make(name, num_agents=3, seed=0)
        print(f"{name:<26} agents={env.num_agents} obs_dims={env.obs_dims} "
              f"actions={env.act_dims}")
    return 0


def _cmd_variants(_args) -> int:
    for variant in VARIANTS:
        print(variant)
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "profile": _cmd_profile,
    "sample": _cmd_sample,
    "envs": _cmd_envs,
    "variants": _cmd_variants,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
