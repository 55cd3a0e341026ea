"""One-shot markdown report regenerating the headline exhibits.

``generate_report()`` runs laptop-scale versions of the paper's core
experiments (sampling reductions, phase breakdown, hardware counters,
layout crossover) and returns a markdown document — the artifact a
downstream user shares to say "here is what the reproduction shows on
my machine".  Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from ..buffers.multi_agent import MultiAgentReplay
from ..core.layout import LayoutReorganizer
from ..core.samplers import (
    CacheAwareSampler,
    InformationPrioritizedSampler,
    PrioritizedSampler,
    UniformSampler,
)
from ..memsim.report import reduction_percent
from .counters_study import env_obs_dims, simulate_sampling_counters
from .microbench import fill_replay, time_layout_round, time_sampler_round

__all__ = ["generate_report"]


def _make_replay(env_name: str, n: int, rows: int, prioritized: bool = False, seed: int = 0):
    obs_dims = env_obs_dims(env_name, n)
    replay = MultiAgentReplay(
        obs_dims, [5] * n, capacity=rows, prioritized=prioritized
    )
    fill_replay(replay, np.random.default_rng(seed), rows)
    return replay


def generate_report(
    agent_counts=(3, 6),
    batch_size: int = 256,
    rows: int = 2048,
    env_name: str = "predator_prey",
    seed: int = 0,
) -> str:
    """Run the headline experiments and format a markdown report."""
    if batch_size % 64:
        raise ValueError("batch_size must be a multiple of 64 for the sweep settings")
    lines: List[str] = [
        "# MARL sampling-optimization report",
        "",
        f"*environment*: {env_name}; *batch*: {batch_size}; "
        f"*buffer occupancy*: {rows}; *agents*: {list(agent_counts)}",
        "",
        "Reproduction of Gogineni et al., IISWC 2024 — laptop-scale shapes;",
        "see EXPERIMENTS.md for the paper-vs-measured discussion.",
        "",
        "## Sampling-phase time per update round",
        "",
        "| N | baseline | cache-aware (n=64) | reduction | PER | info-prioritized | IP speedup |",
        "|---|---|---|---|---|---|---|",
    ]
    rng = np.random.default_rng(seed)
    for n in agent_counts:
        replay = _make_replay(env_name, n, rows, seed=seed)
        preplay = _make_replay(env_name, n, rows, prioritized=True, seed=seed)
        for k in range(n):
            preplay.priority_buffer(k).update_priorities(
                range(rows), rng.uniform(0.01, 5.0, rows)
            )
        base = time_sampler_round(UniformSampler(), replay, rng, batch_size)
        aware = time_sampler_round(
            CacheAwareSampler(64, batch_size // 64), replay, rng, batch_size
        )
        per = time_sampler_round(PrioritizedSampler(), preplay, rng, batch_size)
        ip = time_sampler_round(
            InformationPrioritizedSampler(), preplay, rng, batch_size
        )
        lines.append(
            f"| {n} | {base.seconds_per_round * 1e3:.2f}ms "
            f"| {aware.seconds_per_round * 1e3:.2f}ms "
            f"| {reduction_percent(base.seconds, aware.seconds):.1f}% "
            f"| {per.seconds_per_round * 1e3:.2f}ms "
            f"| {ip.seconds_per_round * 1e3:.2f}ms "
            f"| {per.seconds / ip.seconds:.2f}x |"
        )

    lines += [
        "",
        "## Layout reorganization (timestep-major key-value store)",
        "",
        "| N | baseline | KV incl. reshape | KV excl. reshape | excl. speedup |",
        "|---|---|---|---|---|",
    ]
    for n in agent_counts:
        replay = _make_replay(env_name, n, rows, seed=seed)
        base = time_sampler_round(UniformSampler(), replay, rng, batch_size)
        incl = time_layout_round(
            LayoutReorganizer(replay, ingest="rowwise"),
            rng,
            batch_size,
            include_reshape=True,
        )
        excl = time_layout_round(
            LayoutReorganizer(replay),
            rng,
            batch_size,
            include_reshape=False,
        )
        speedup = base.seconds / excl.seconds if excl.seconds > 0 else float("inf")
        lines.append(
            f"| {n} | {base.seconds_per_round * 1e3:.2f}ms "
            f"| {incl.seconds_per_round * 1e3:.2f}ms "
            f"| {excl.seconds_per_round * 1e3:.2f}ms "
            f"| {speedup:.2f}x |"
        )

    lines += [
        "",
        "## Simulated hardware counters (one trainer gather, random vs locality)",
        "",
        "| N | pattern | LLC misses | dTLB misses | prefetch hits |",
        "|---|---|---|---|---|",
    ]
    for n in agent_counts:
        for pattern, kwargs in (
            ("random", {}),
            ("cache_aware", {"neighbors": 16, "refs": batch_size // 16}),
        ):
            profile = simulate_sampling_counters(
                env_obs_dims(env_name, n),
                [5] * n,
                capacity=max(rows * 8, 16_384),
                batch_size=batch_size,
                pattern=pattern,
                seed=seed,
                **kwargs,
            )
            c = profile.counters
            lines.append(
                f"| {n} | {pattern} | {c['cache_misses']:,.0f} "
                f"| {c['dtlb_misses']:,.0f} | {c['prefetch_hits']:,.0f} |"
            )

    lines += [
        "",
        f"*generated by `python -m repro report` in "
        f"{time.strftime('%Y-%m-%d %H:%M:%S')}*",
        "",
    ]
    return "\n".join(lines)
