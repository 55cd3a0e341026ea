"""Compiled compute backend — fused numba kernels vs the numpy reference.

The pluggable backend layer (``repro.nn.backend``) keeps pure numpy as
the numerical oracle — selecting ``backend="numpy"`` dispatches no
kernels at all, so the reference path runs untouched — and layers
``@njit``-fused kernels on top for the two hottest loops this repo
owns: the stacked (N, B, dim) update round of the batched engine, and
the per-address memsim trace replay.

This bench measures both at the paper's characterization scale: the
full update-all-trainers round at N=12 / B=1024, and a mixed
random+sequential address trace through the default Table-II hierarchy
geometry.  With numba installed the headline acceptance is >= 5x on
each; without numba the full exhibit skips (there is nothing compiled
to measure) while the equivalence contract still runs, because the
same kernel source executes un-jitted in "python mode".

``python benchmarks/bench_compiled_backend.py --smoke`` runs the CI
geometry: backend fallback behaviour, python-mode kernel equivalence
against the numpy reference round for round, and exact memsim counter
equality, completing in seconds.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

import numpy as np

import repro
from repro.algos import MARLConfig
from repro.experiments import fill_replay
from repro.memsim import CompiledMemoryHierarchy, MemoryHierarchy
from repro.nn.backend import get_backend, reset_backend_warnings, warmup_kernels

try:  # pytest runs from benchmarks/, __main__ from anywhere
    from conftest import print_exhibit
except ImportError:  # pragma: no cover - __main__ --smoke path
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from conftest import print_exhibit

FULL_BATCH = 1024
FULL_ROWS = 4_096
FULL_AGENTS = 12
TRACE_LEN = 200_000

#: Synthetic homogeneous geometry (the engine requires equal per-agent
#: dims; cooperative-navigation-like widths).
OBS_DIM = 24
ACT_DIM = 5


def _numba_available() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def _make_trainer(num_agents: int, batch_size: int, capacity: int,
                  backend: str, seed: int = 0):
    config = MARLConfig(
        batch_size=batch_size,
        buffer_capacity=capacity,
        update_every=100,
        fast_path=True,
        batched_update=True,
        backend=backend,
    )
    return repro.make_trainer(
        "maddpg", "baseline",
        [OBS_DIM] * num_agents, [ACT_DIM] * num_agents,
        config=config, seed=seed,
    )


def _time_rounds(trainer, rounds: int, repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed blocks of ``rounds`` update rounds.

    One unmeasured round runs first: it warms caches/allocator for the
    numpy engine and (for a jitted backend) absorbs any residual
    compilation, so medians compare steady-state compute only.
    """
    trainer.update(force=True)
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        for _ in range(rounds):
            trainer.update(force=True)
        best = min(best, time.perf_counter() - start)
    return best


def _mixed_trace(length: int, seed: int = 0) -> np.ndarray:
    """Half random gathers, half sequential runs — both memsim regimes."""
    rng = np.random.default_rng(seed)
    random_part = rng.integers(0, 1 << 26, size=length // 2)
    sequential = (np.arange(length - length // 2, dtype=np.int64) * 64
                  + int(rng.integers(0, 1 << 20)))
    trace = np.empty(length, dtype=np.int64)
    trace[0::2] = random_part[: len(trace[0::2])]
    trace[1::2] = sequential[: len(trace[1::2])]
    return trace


def _time_memsim(sim, trace: np.ndarray, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(max(repeats, 1)):
        sim.reset()
        start = time.perf_counter()
        sim.run(trace)
        best = min(best, time.perf_counter() - start)
    return best


def bench_compiled_vs_numpy(benchmark):
    """Numba kernels vs the numpy reference: update round and memsim loop."""
    import pytest

    if not _numba_available():
        pytest.skip("numba not installed; nothing compiled to measure")
    results = {}

    def run_all():
        warmup_kernels("numba")  # compile outside every timed block
        numba_be = get_backend("numba")
        ref = _make_trainer(FULL_AGENTS, FULL_BATCH, 2 * FULL_ROWS, "numpy")
        jit = _make_trainer(FULL_AGENTS, FULL_BATCH, 2 * FULL_ROWS, "numba")
        for trainer in (ref, jit):
            fill_replay(trainer.replay, np.random.default_rng(1), FULL_ROWS)
        results["update_numpy"] = _time_rounds(ref, rounds=3)
        results["update_numba"] = _time_rounds(jit, rounds=3)
        trace = _mixed_trace(TRACE_LEN)
        results["memsim_numpy"] = _time_memsim(MemoryHierarchy(), trace)
        results["memsim_numba"] = _time_memsim(
            CompiledMemoryHierarchy(kernels=numba_be.kernels), trace
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    update_x = results["update_numpy"] / results["update_numba"]
    memsim_x = results["memsim_numpy"] / results["memsim_numba"]
    print_exhibit(
        "Compiled backend — fused numba kernels vs the numpy reference",
        [
            f"update round (N={FULL_AGENTS}, B={FULL_BATCH}): "
            f"numpy {results['update_numpy'] * 1e3:9.2f}ms  "
            f"numba {results['update_numba'] * 1e3:9.2f}ms  ({update_x:5.2f}x)",
            f"memsim trace ({TRACE_LEN:,} addrs):           "
            f"numpy {results['memsim_numpy'] * 1e3:9.2f}ms  "
            f"numba {results['memsim_numba'] * 1e3:9.2f}ms  ({memsim_x:5.2f}x)",
        ],
        paper_note="numpy stays the oracle: backend='numpy' dispatches no "
        "kernels, and the jitted path is tolerance-gated against it",
    )
    assert update_x >= 5.0, (
        f"update round: numba only {update_x:.2f}x over numpy (need >= 5x)"
    )
    assert memsim_x >= 5.0, (
        f"memsim loop: numba only {memsim_x:.2f}x over numpy (need >= 5x)"
    )


def _smoke() -> int:
    """CI check: fallback behaviour + python-mode equivalence contract."""
    # 1. requesting numba always yields a usable backend
    reset_backend_warnings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        backend = get_backend("numba")
    if backend.name == "numba":
        print(f"backend: numba {backend.version} (jitted)")
    elif backend.fallback_from == "numba" and any(
        "falling back" in str(w.message) for w in caught
    ):
        print("backend: numpy (numba unavailable, warned fallback)")
    else:
        print(f"FAIL: numba request resolved to {backend.describe()} "
              f"without a fallback warning", file=sys.stderr)
        return 1

    # 2. kernel path vs numpy reference, round for round (python mode —
    #    the same source the numba backend jits)
    n, batch, rows = 3, 32, 256
    ref = _make_trainer(n, batch, rows, "numpy", seed=7)
    ker = _make_trainer(n, batch, rows, "python", seed=7)
    fill_replay(ref.replay, np.random.default_rng(8), rows)
    fill_replay(ker.replay, np.random.default_rng(8), rows)
    start = time.perf_counter()
    for round_idx in range(3):
        a = ref.update(force=True)
        b = ker.update(force=True)
        for key in a:
            if not np.isclose(a[key], b[key], rtol=1e-10, atol=1e-12):
                print(
                    f"FAIL: round {round_idx} {key}: numpy {a[key]!r} "
                    f"vs kernels {b[key]!r}",
                    file=sys.stderr,
                )
                return 1
    print(f"kernel path matches numpy round for round "
          f"({(time.perf_counter() - start) * 1e3:.1f}ms)")

    # 3. memsim replica: exact counter equality on a mixed trace
    trace = _mixed_trace(20_000, seed=3)
    ref_counts = MemoryHierarchy().run(int(a) for a in trace)
    got_counts = CompiledMemoryHierarchy().run(trace)
    if ref_counts.as_dict() != got_counts.as_dict():
        print(f"FAIL: memsim counters diverge: {ref_counts.as_dict()} "
              f"vs {got_counts.as_dict()}", file=sys.stderr)
        return 1
    print(f"memsim replica exact: {got_counts.as_dict()}")
    print("smoke OK: compiled backend honors the numpy oracle contract")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI geometry + equivalence check"
    )
    cli = parser.parse_args()
    if cli.smoke:
        sys.exit(_smoke())
    print("run the full exhibit via: pytest benchmarks/bench_compiled_backend.py "
          "--benchmark-only -s")
    sys.exit(0)
