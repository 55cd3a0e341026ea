"""Overlapped actor-learner pipeline — end-to-end steps/sec and overlap.

ISSUE 4's tentpole measured end to end: the process-parallel collector
(2 shared-memory rollout workers) plus background mini-batch prefetch
against the serial ``SyncVectorEnv`` + inline-sampling loop, at the
paper's main characterization point of N=12 agents and K=8 environment
copies.  Reports the steps/sec ratio and the measured overlap fraction
(sampling seconds hidden behind update compute, from the new
``prefetch.hit`` / ``update_all_trainers.sampling`` PhaseTimer phases).

Acceptance: >= 1.5x end-to-end steps/sec with 2 workers + prefetch.
That ratio needs real parallel hardware, so the hard assertion is
guarded on ``len(os.sched_getaffinity(0)) >= 2``; on a single-core
host the bench still verifies the pipeline's correctness signals
(prefetch hits, zero stale rounds under uniform sampling, worker-wait
accounting) and prints the measured ratio for the record.

``python benchmarks/bench_pipeline_overlap.py --smoke`` runs a reduced
geometry for CI.
"""

from __future__ import annotations

import argparse
import os
import sys

import repro
from repro.algos.config import MARLConfig
from repro.envs.factory import make_vector_env
from repro.profiling.phases import PREFETCH_STALE, WORKER_WAIT

try:  # pytest runs from benchmarks/, __main__ from anywhere
    from conftest import print_exhibit
except ImportError:  # pragma: no cover - __main__ --smoke path
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from conftest import print_exhibit

from repro.training import train_steps

FULL_AGENTS = 12
FULL_COPIES = 8
FULL_STEPS = 150
SMOKE_AGENTS = 4
SMOKE_COPIES = 4
SMOKE_STEPS = 60

#: >= 2 usable cores: the collector's worker processes and the prefetch
#: thread can actually run beside the update compute.
MULTI_CORE = len(os.sched_getaffinity(0)) >= 2


def _config(smoke: bool) -> MARLConfig:
    if smoke:
        return MARLConfig(
            batch_size=32,
            buffer_capacity=4_096,
            update_every=20,
            min_buffer_fill=64,
            hidden_units=(16, 16),
        )
    return MARLConfig(
        batch_size=128,
        buffer_capacity=16_384,
        update_every=10,
        min_buffer_fill=256,
        hidden_units=(32, 32),
    )


def _run(num_agents, copies, steps, workers, prefetch, smoke):
    """One pipeline run; returns (trainer, RunResult)."""
    vec = make_vector_env(
        "cooperative_navigation", num_agents, copies, seed=0, workers=workers
    )
    trainer = repro.make_trainer(
        "maddpg", "baseline", vec.obs_dims, vec.act_dims,
        config=_config(smoke).scaled(prefetch=prefetch), seed=3,
    )
    try:
        result = train_steps(vec, trainer, steps, seed=17)
    finally:
        if hasattr(vec, "close"):
            vec.close()
    return trainer, result


def _measure(num_agents, copies, steps, smoke):
    serial_tr, serial = _run(num_agents, copies, steps, 0, False, smoke)
    pipe_tr, pipe = _run(num_agents, copies, steps, 2, True, smoke)
    return serial_tr, serial, pipe_tr, pipe


def _check_pipeline_signals(pipe_tr, pipe, steps) -> list:
    """Correctness signals that must hold regardless of core count."""
    failures = []
    extra = pipe.extra
    if extra["prefetch_hits"] <= 0:
        failures.append("prefetch never served a round (hits == 0)")
    if extra["prefetch_stale"] != 0 or pipe_tr.timer.count(PREFETCH_STALE):
        failures.append("uniform sampling produced stale prefetch rounds")
    served = (
        extra["prefetch_hits"] + extra["prefetch_misses"] + extra["prefetch_stale"]
    )
    if served != pipe.update_rounds:
        failures.append(
            f"prefetch counters {served} != update rounds {pipe.update_rounds}"
        )
    if pipe_tr.timer.count(WORKER_WAIT) != steps:
        failures.append(
            f"worker-wait recorded {pipe_tr.timer.count(WORKER_WAIT)} of {steps} steps"
        )
    if not 0.0 < extra["overlap_fraction"] <= 1.0:
        failures.append(f"overlap fraction {extra['overlap_fraction']} out of range")
    return failures


def bench_pipeline_overlap(benchmark):
    """N=12, K=8: serial loop vs 2 workers + prefetch, end to end."""
    result = {}

    def run():
        result["runs"] = _measure(FULL_AGENTS, FULL_COPIES, FULL_STEPS, smoke=False)
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    _serial_tr, serial, pipe_tr, pipe = result["runs"]
    serial_sps = serial.extra["steps_per_second"]
    pipe_sps = pipe.extra["steps_per_second"]
    ratio = pipe_sps / serial_sps
    print_exhibit(
        f"Pipeline overlap — end-to-end steps/sec "
        f"(N={FULL_AGENTS}, K={FULL_COPIES})",
        [
            f"serial loop              {serial_sps:9.1f} steps/s  (1.00x)",
            f"2 workers + prefetch     {pipe_sps:9.1f} steps/s  ({ratio:5.2f}x)",
            f"overlap fraction         {pipe.extra['overlap_fraction']:9.2f}   "
            f"(sampling hidden behind update compute)",
            f"prefetch hit/miss/stale  {int(pipe.extra['prefetch_hits'])}/"
            f"{int(pipe.extra['prefetch_misses'])}/{int(pipe.extra['prefetch_stale'])}",
        ],
        paper_note="overlapping collection and mini-batch assembly with "
        "update compute removes serialized phases from the critical path",
    )
    failures = _check_pipeline_signals(pipe_tr, pipe, FULL_STEPS)
    assert not failures, "; ".join(failures)
    if MULTI_CORE:
        assert ratio >= 1.5, (
            f"pipelined loop only {ratio:.2f}x over serial at "
            f"N={FULL_AGENTS}, K={FULL_COPIES} (need >= 1.5x)"
        )
    else:  # single-core host: record the ratio, skip the hardware claim
        print(
            f"(single usable core: {ratio:.2f}x measured; >=1.5x assertion "
            f"needs >= 2 cores)"
        )


def _smoke() -> int:
    """Reduced-geometry CI check: pipeline signals hold end to end."""
    _serial_tr, serial, pipe_tr, pipe = _measure(
        SMOKE_AGENTS, SMOKE_COPIES, SMOKE_STEPS, smoke=True
    )
    ratio = pipe.extra["steps_per_second"] / serial.extra["steps_per_second"]
    print(
        f"N={SMOKE_AGENTS} K={SMOKE_COPIES}: "
        f"serial {serial.extra['steps_per_second']:7.1f} steps/s  "
        f"pipelined {pipe.extra['steps_per_second']:7.1f} steps/s  "
        f"({ratio:4.2f}x)  overlap {pipe.extra['overlap_fraction']:.2f}  "
        f"hits {int(pipe.extra['prefetch_hits'])}"
    )
    failures = _check_pipeline_signals(pipe_tr, pipe, SMOKE_STEPS)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if MULTI_CORE and ratio < 1.0:
        print(
            f"FAIL: pipelined slower than serial ({ratio:.2f}x) on a "
            f"multi-core host",
            file=sys.stderr,
        )
        return 1
    print("smoke OK: pipeline serves prefetched rounds with clean accounting")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced CI geometry + signal checks"
    )
    cli = parser.parse_args()
    if cli.smoke:
        sys.exit(_smoke())
    print(
        "run the full exhibit via: pytest benchmarks/bench_pipeline_overlap.py "
        "--benchmark-only -s"
    )
    sys.exit(0)
