"""Ablation — layout-reorganization ingest strategies (DESIGN.md knob).

Three ways to keep the timestep-major store in sync:

* ``eager``          — mirror every joint insert (steady per-step cost);
* ``lazy + rowwise`` — rebuild before sampling with the paper-faithful
  per-timestep hash-map assembly (Figure 14's heavy reshaping);
* ``lazy + block``   — rebuild with vectorized field-block copies (the
  engineering fix that removes most of the reshaping penalty).

The bench measures one sync + one sampling round per strategy and
asserts the ordering: block-lazy reshaping is far cheaper than rowwise,
which is what turns Figure 14's small-N slowdown into a win.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import BENCH_BATCH, make_filled_replay, print_exhibit
from repro.core import LayoutReorganizer

N_AGENTS = 6
FILL = 4_096


def _measure(ingest: str):
    replay = make_filled_replay(
        "predator_prey", N_AGENTS, seed=2, rows=FILL, capacity=FILL
    )
    layout = LayoutReorganizer(replay, ingest=ingest)
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    layout.reorganize()
    reshape_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(N_AGENTS):
        layout.sample_all_agents(rng, BENCH_BATCH)
    sample_s = time.perf_counter() - start
    return reshape_s, sample_s


def bench_ablation_layout_ingest(benchmark):
    results = {}

    def run_all():
        for ingest in ("rowwise", "block"):
            results[ingest] = _measure(ingest)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = []
    for ingest, (reshape_s, sample_s) in results.items():
        lines.append(
            f"lazy+{ingest:<8} reshape {reshape_s * 1e3:8.2f}ms  "
            f"sampling round {sample_s * 1e3:8.2f}ms"
        )
    rowwise_reshape = results["rowwise"][0]
    block_reshape = results["block"][0]
    lines.append(
        f"block ingest is {rowwise_reshape / block_reshape:.1f}x cheaper than "
        "the paper-faithful rowwise assembly"
    )
    print_exhibit(
        "Ablation — layout-reorganization ingest strategies (PP-6)",
        lines,
        paper_note="Figure 14's reshaping penalty is an implementation "
        "artifact; block ingest removes most of it",
    )

    assert block_reshape < rowwise_reshape / 3.0, (
        f"block ingest should be >=3x cheaper: {block_reshape:.4f}s vs "
        f"{rowwise_reshape:.4f}s"
    )
    # sampling cost is layout-determined, not ingest-determined
    assert abs(results["rowwise"][1] - results["block"][1]) < max(
        results["rowwise"][1], results["block"][1]
    )
