"""Sharded replay dataset service — aggregate pull throughput scaling.

ISSUE 7's tentpole measured at the dataset interface: S shard server
processes each answer mini-batch pulls with one fancy-index packed
gather, so the *aggregate* sampled rows/s across L concurrent learner
clients should scale with the shard count instead of serializing on one
ring.  The bench prefills the service, forks L puller processes per
topology, and times the pull phase wall clock end to end:

* ``(1 shard, 1 learner)`` — the single-ring baseline.
* ``(4 shards, 2 learners)`` — the scaling point the acceptance gates.

Acceptance: >= 2.5x aggregate sampled rows/s from the first topology to
the second.  That needs real parallel hardware, so the hard assertion
is guarded on ``os.cpu_count() >= 4``; smaller hosts still verify the
correctness signals (row conservation, per-shard counter reconciliation,
clean shutdown) and print measured ratios for the record.  A short
``train_steps`` run reports end-to-end learner utilization alongside.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

import repro
from conftest import print_exhibit
from repro.algos.config import MARLConfig
from repro.buffers.transition import JointSchema
from repro.envs.factory import make_vector_env
from repro.replay import ReplayShardService
from repro.training import train_steps

OBS_DIMS, ACT_DIMS = [10] * 8, [2] * 8
PREFILL = 8_192
BATCH = 256
PULLS = 150
SCALED_SHARDS = 4

#: >= 4 usable cores: 4 shard servers + 2 pullers can actually overlap.
QUAD_CORE = (os.cpu_count() or 1) >= 4


def _prefill_rows(width: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(count, width)).astype(np.float64)
    rows[:, 0] = np.arange(count, dtype=np.float64)  # traceable ids
    return rows


def _puller_main(client, pulls: int, batch: int, max_id: int, conn) -> None:
    """One learner client: pull `pulls` batches, verify, report rows/s."""
    try:
        client.refresh_sizes()
        pulled = 0
        start = time.perf_counter()
        for _ in range(pulls):
            rows = client.sample_rows(batch)
            pulled += rows.shape[0]
        busy = time.perf_counter() - start
        ids = rows[:, 0]  # spot-check the last batch's provenance
        ok = bool(np.all((ids >= 0) & (ids < max_id)) and ids.astype(int).size)
        conn.send(("ok" if ok else "bad-rows", pulled, busy))
    except Exception as exc:  # pragma: no cover - surfaced by the parent
        conn.send(("error", repr(exc), 0.0))


def _measure_topology(shards: int, clients: int):
    """Aggregate rows/s across `clients` concurrent pullers."""
    width = JointSchema.from_dims(OBS_DIMS, ACT_DIMS).width
    rows = _prefill_rows(width, PREFILL)
    ctx = multiprocessing.get_context("fork")
    with ReplayShardService(
        OBS_DIMS,
        ACT_DIMS,
        capacity=PREFILL,
        num_shards=shards,
        num_clients=clients,
        max_push=min(PREFILL, 1024),
        max_batch=BATCH,
        seed=0,
    ) as service:
        service.push(rows)
        procs, conns = [], []
        for c in range(clients):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_puller_main,
                args=(service.pull_client(c), PULLS, BATCH, PREFILL, child),
                daemon=True,
            )
            proc.start()
            child.close()
            procs.append(proc)
            conns.append(parent)
        start = time.perf_counter()
        failures, total_rows = [], 0
        for c, conn in enumerate(conns):
            if not conn.poll(300.0):  # pragma: no cover - hung puller
                failures.append(f"puller {c} timed out")
                continue
            status, pulled, _busy = conn.recv()
            if status != "ok":
                failures.append(f"puller {c}: {status} ({pulled})")
            else:
                total_rows += pulled
        wall = time.perf_counter() - start
        for proc in procs:
            proc.join(timeout=30)
        stats = service.stats()
        sampled = sum(s["sampled"] for s in stats)
        expected = clients * PULLS * BATCH
        if not failures:
            if total_rows != expected:
                failures.append(f"pulled {total_rows} rows, expected {expected}")
            if sampled != expected:
                failures.append(f"shards served {sampled} rows, expected {expected}")
            if sum(s["ingested"] for s in stats) != PREFILL:
                failures.append("ingest counters lost rows")
    return {
        "rows_per_s": total_rows / max(wall, 1e-12),
        "rows": total_rows,
        "wall_s": wall,
        "failures": failures,
    }


def _utilization_run():
    """Short service-mode train_steps run for the end-to-end utilization figure."""
    config = MARLConfig(
        batch_size=64,
        buffer_capacity=4_096,
        update_every=20,
        min_buffer_fill=64,
        hidden_units=(16, 16),
        replay_shards=2,
        learners=2,
    )
    vec = make_vector_env("cooperative_navigation", 3, 4, seed=0)
    trainer = repro.make_trainer(
        "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=config, seed=3
    )
    try:
        result = train_steps(vec, trainer, 80, seed=5)
    finally:
        if hasattr(vec, "close"):
            vec.close()
    return result


def bench_replay_service(benchmark):
    """(1 shard, 1 learner) vs (4 shards, 2 learners) pull throughput."""
    result = {}

    def run():
        result["base"] = _measure_topology(1, 1)
        result["scaled"] = _measure_topology(SCALED_SHARDS, 2)
        result["train"] = _utilization_run()
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    base, scaled = result["base"], result["scaled"]
    train = result["train"]
    ratio = scaled["rows_per_s"] / max(base["rows_per_s"], 1e-12)
    print_exhibit(
        "Replay dataset service — aggregate sampled rows/s",
        [
            f"1 shard,  1 learner      {base['rows_per_s']:12.0f} rows/s  (1.00x)",
            f"{SCALED_SHARDS} shards, 2 learners     "
            f"{scaled['rows_per_s']:12.0f} rows/s  ({ratio:5.2f}x)",
            f"learner utilization      {train.extra['learner_utilization']:12.2f}"
            f"   (train_steps, 2 shards x 2 learners)",
            f"staleness mean/max       "
            f"{train.extra['staleness_mean']:6.2f} / "
            f"{train.extra['staleness_max']:.0f} versions",
        ],
        paper_note="sharding the replay dataset across server processes "
        "removes the single-ring bottleneck from concurrent learner pulls",
    )
    failures = base["failures"] + scaled["failures"]
    assert not failures, "; ".join(failures)
    assert train.extra["learner_rounds"] > 0
    assert 0.0 < train.extra["learner_utilization"] <= 1.0
    if QUAD_CORE:
        assert ratio >= 2.5, (
            f"aggregate pull throughput only {ratio:.2f}x from (1,1) to "
            f"({SCALED_SHARDS},2) (need >= 2.5x)"
        )
    else:  # small host: record the ratio, skip the hardware claim
        print(
            f"({os.cpu_count()} usable cores: {ratio:.2f}x measured; "
            f">=2.5x assertion needs >= 4 cores)"
        )
