"""Ablation — how much of the sampling bottleneck is the gather loop?

DESIGN.md design choice: the baseline sampler reproduces the reference
MADDPG per-index Python gather because that loop *is* the paper's
characterized bottleneck.  This ablation quantifies the decomposition:

* ``loop``       — reference-faithful per-index gather (the baseline);
* ``vectorized`` — numpy fancy indexing over the same indices
  (interpreter overhead removed, memory behaviour unchanged);
* ``cache_aware``— contiguous runs (locality added on top).

The gap between ``loop`` and ``vectorized`` is interpreter overhead;
the gap between ``vectorized`` and ``cache_aware`` plus the memsim
miss reductions is the memory-behaviour component the paper targets.
"""

from __future__ import annotations

import numpy as np

from conftest import BENCH_BATCH, make_filled_replay, print_exhibit
from repro.core import CacheAwareSampler, UniformSampler
from repro.experiments import time_sampler_round

AGENT_COUNTS = (3, 6, 12)


def bench_ablation_gather_paths(benchmark):
    timings = {}

    def run_all():
        for n in AGENT_COUNTS:
            replay = make_filled_replay("predator_prey", n, seed=n)
            rng = np.random.default_rng(0)
            loop = time_sampler_round(
                UniformSampler(fast_path=False), replay, rng, BENCH_BATCH, rounds=2
            )
            vector = time_sampler_round(
                UniformSampler(fast_path=True), replay, rng, BENCH_BATCH, rounds=2
            )
            aware = time_sampler_round(
                CacheAwareSampler(64, BENCH_BATCH // 64), replay, rng, BENCH_BATCH, rounds=2
            )
            timings[n] = (loop.seconds, vector.seconds, aware.seconds)
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = []
    for n, (loop, vector, aware) in timings.items():
        lines.append(
            f"N={n:<3} loop {loop * 1e3:8.2f}ms  "
            f"vectorized {vector * 1e3:8.2f}ms ({loop / vector:4.1f}x)  "
            f"cache-aware {aware * 1e3:8.2f}ms ({loop / aware:4.1f}x)"
        )
    print_exhibit(
        "Ablation — gather-path decomposition of the sampling bottleneck",
        lines,
        paper_note="the reference per-index loop is the characterized baseline; "
        "vectorization and locality attack different components",
    )

    for n, (loop, vector, aware) in timings.items():
        assert vector < loop, f"N={n}: vectorized gather should beat the loop"
        assert aware < loop, f"N={n}: cache-aware should beat the loop"
