"""Fleet-scale sweep orchestration — parallel vs serial wall clock.

ISSUE 10's tentpole measured at the sweep interface: the elastic
``SweepRunner`` forks one child per cell over a bounded process pool, so
the *wall clock* of a sweep should shrink toward ``serial / cores``
instead of serializing cells one after another.  The bench expands one
declarative ``SweepSpec`` into 8 short training cells (MADDPG/MATD3 x
agent count x 2 repeats) and times the identical work twice:

* ``max_workers=1`` — the serial baseline (one child at a time, same
  fork/registry overheads so only the concurrency differs).
* ``max_workers=cores`` — the parallel pool the acceptance gates.

Acceptance: >= 2.5x serial/parallel wall-clock speedup.  That needs real
parallel hardware, so the hard assertion is guarded on
``os.cpu_count() >= 4``; smaller hosts still verify the correctness
signals (every cell ok in both topologies, identical per-cell results
registered, registry rebuild round-trips) and print measured ratios for
the record.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from pathlib import Path

from conftest import print_exhibit
from repro.sweep import RunRegistry, SweepRunner, SweepSpec

EPISODES = 6
REPEATS = 2

#: >= 4 usable cores: 8 one-core children can actually overlap.
QUAD_CORE = (os.cpu_count() or 1) >= 4


def _spec() -> SweepSpec:
    """8 short cells, all single-core learners."""
    return SweepSpec.from_dict(
        {
            "name": "bench-sweep",
            "base": {
                "episodes": EPISODES,
                "batch_size": 16,
                "buffer_capacity": 256,
                "update_every": 10,
                "max_episode_len": 25,
            },
            "grid": {
                "algorithm": ["maddpg", "matd3"],
                "agents": [2, 3],
            },
            "repeats": REPEATS,
        }
    )


def _run_topology(spec: SweepSpec, root: Path, max_workers: int):
    registry = RunRegistry(root)
    runner = SweepRunner(
        registry,
        max_workers=max_workers,
        total_cores=max_workers,
        telemetry=False,
    )
    outcome = runner.run(spec.expand())
    return registry, outcome


def _registered_rewards(registry: RunRegistry):
    """run_id -> mean episode reward of the final ok attempt."""
    return {
        r.run_id: r.metrics.get("mean_episode_reward")
        for r in registry.records
        if r.status == "ok"
    }


def _measure():
    spec = _spec()
    workers = max(os.cpu_count() or 1, 2)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        serial_reg, serial = _run_topology(spec, Path(tmp) / "serial", 1)
        parallel_reg, parallel = _run_topology(
            spec, Path(tmp) / "parallel", workers
        )
        for label, outcome in (("serial", serial), ("parallel", parallel)):
            if not outcome.all_ok:
                failures.append(
                    f"{label} sweep: {outcome.failed} failed, "
                    f"{outcome.timeout} timed out of {outcome.total_runs}"
                )
        if _registered_rewards(serial_reg).keys() != _registered_rewards(
            parallel_reg
        ).keys():
            failures.append("topologies registered different run sets")
        # the manifest index must survive a rebuild from run dirs alone
        strip = lambda r: dataclasses.replace(r, recorded_unix=0.0)
        key = lambda r: (r.run_id, r.attempt)
        rebuilt = RunRegistry.load(parallel_reg.root, rebuild=True)
        if sorted(map(strip, rebuilt.records), key=key) != sorted(
            map(strip, parallel_reg.records), key=key
        ):
            failures.append("registry rebuild diverged from manifest")
    return serial, parallel, workers, failures


def bench_sweep(benchmark):
    """Serial vs parallel sweep wall clock over the same 8 cells."""
    result = {}

    def run():
        result["runs"] = _measure()
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    serial, parallel, workers, failures = result["runs"]
    ratio = serial.wall_seconds / max(parallel.wall_seconds, 1e-12)
    print_exhibit(
        "Sweep orchestration — wall clock over 8 training cells",
        [
            f"serial   (1 worker)      {serial.wall_seconds:8.2f} s  (1.00x)",
            f"parallel ({workers} workers)     "
            f"{parallel.wall_seconds:8.2f} s  ({ratio:5.2f}x)",
            f"cells ok                 {parallel.ok:8d} / {parallel.total_runs}",
            f"attempts                 {parallel.attempts:8d}",
        ],
        paper_note="one forked child per sweep cell removes the serial "
        "experiment queue from characterization studies",
    )
    assert not failures, "; ".join(failures)
    if QUAD_CORE:
        assert ratio >= 2.5, (
            f"sweep wall clock only {ratio:.2f}x faster with {workers} "
            f"workers (need >= 2.5x)"
        )
    else:  # small host: record the ratio, skip the hardware claim
        print(
            f"({os.cpu_count()} usable cores: {ratio:.2f}x measured; "
            f">=2.5x assertion needs >= 4 cores)"
        )
