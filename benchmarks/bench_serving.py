"""Micro-batched policy serving — throughput and latency vs batch window.

ISSUE 9's tentpole measured at the request interface: thousands of
simulated users each submit one observation at a time, and the server
either answers them one by one (window 0, max-batch 1 — the
request-at-a-time baseline) or coalesces everything arriving within a
batch window into a single stacked ``(N, B, dim)`` actor forward.  The
bench sweeps the batch window at 1k closed-loop users and reports
throughput plus client-observed p50/p99 latency per window.

Acceptance: micro-batched throughput >= 3x the request-at-a-time
baseline at 1000 users.  The ratio needs the flusher and the client
callbacks to genuinely overlap, so the hard assertion is guarded on
``os.cpu_count() >= 2``; smaller hosts still verify the correctness
signals (response conservation, snapshot version traceability, zero
per-user version regressions) and print measured ratios for the
record.  An overload section drives an open loop past capacity into a
shallow queue and checks that shedding engages while the p99 of
*admitted* requests stays bounded.
"""

from __future__ import annotations

import os

import numpy as np

from conftest import print_exhibit
from repro.nn.mlp import mlp
from repro.serving import LoadGenerator, PolicyServer, SnapshotStore

AGENTS, OBS_DIM, ACT_DIM = 4, 24, 5
HIDDEN = (128, 128)
USERS = 1_000
REQUESTS = 40_000
WINDOWS_MS = (0.5, 1.0, 2.0, 5.0)

#: >= 2 usable cores: the flusher thread and client callbacks overlap.
DUAL_CORE = (os.cpu_count() or 1) >= 2


def _build_store(agents: int, obs_dim: int, act_dim: int, hidden):
    rng = np.random.default_rng(0)
    actors = [mlp(obs_dim, act_dim, hidden=hidden, rng=rng) for _ in range(agents)]
    store = SnapshotStore(actors)
    store.publish_actors(actors)
    return store


def _run_closed(store, window_ms: float, max_batch: int, users: int,
                requests: int):
    """One closed-loop measurement; returns (report, failures)."""
    server = PolicyServer(
        store,
        batch_window_ms=window_ms,
        max_batch=max_batch,
        max_queue_depth=4 * users,
        record_waits=False,
    )
    with server:
        gen = LoadGenerator(server, num_users=users, seed=1)
        report = gen.run_closed(requests)
    failures = []
    if report.responses + report.shed != requests:
        failures.append(
            f"window {window_ms}ms: {report.responses} responses + "
            f"{report.shed} shed != {requests} submitted"
        )
    if server.served != report.responses:
        failures.append(
            f"window {window_ms}ms: server counted {server.served} served, "
            f"clients saw {report.responses}"
        )
    current = store.version()
    if any(not 1 <= v <= current for v in report.versions):
        failures.append(
            f"window {window_ms}ms: responses cite versions {report.versions} "
            f"outside the published range 1..{current}"
        )
    if report.version_violations:
        failures.append(
            f"window {window_ms}ms: {report.version_violations} per-user "
            f"version regressions"
        )
    return report, failures


def _run_overload(store, users: int, capacity_rps: float):
    """Open loop past capacity into a shallow queue: shedding engages.

    Self-calibrating: the server runs request-at-a-time (whose capacity
    the closed-loop baseline just measured on THIS host) and the open
    loop offers 4x that, so the overload is real on any hardware.
    """
    max_queue = 64
    server = PolicyServer(
        store,
        batch_window_ms=0.0,
        max_batch=1,
        max_queue_depth=max_queue,
        record_waits=False,
    )
    with server:
        gen = LoadGenerator(server, num_users=users, seed=2, deadline_ms=100.0)
        report = gen.run_open(
            rate_hz=max(4.0 * capacity_rps, 5_000.0), duration_s=0.5
        )
        depth = server.queue_depth()
    failures = []
    if report.shed == 0:
        failures.append("overload: open loop past capacity shed nothing")
    if server.shed != report.shed:
        failures.append(
            f"overload: server counted {server.shed} shed, clients saw "
            f"{report.shed}"
        )
    if server.timer.count("serve.shed") != server.shed:
        failures.append(
            f"overload: serve.shed counter {server.timer.count('serve.shed')} "
            f"!= {server.shed} shed requests"
        )
    if depth > max_queue:
        failures.append(
            f"overload: queue depth {depth} exceeded the {max_queue} cap"
        )
    # the point of shedding: the p99 of what WAS admitted stays bounded
    # by roughly queue-drain time, not by the (unbounded) offered backlog
    if report.responses and report.latency_p(99.0) > 0.5:
        failures.append(
            f"overload: admitted p99 {report.latency_p(99.0) * 1e3:.0f}ms "
            f"unbounded despite shedding"
        )
    return report, failures


def _measure():
    store = _build_store(AGENTS, OBS_DIM, ACT_DIM, HIDDEN)
    base, failures = _run_closed(
        store, window_ms=0.0, max_batch=1, users=USERS, requests=REQUESTS // 4,
    )
    sweep = []
    for window_ms in WINDOWS_MS:
        report, report_failures = _run_closed(
            store, window_ms=window_ms, max_batch=1024, users=USERS,
            requests=REQUESTS,
        )
        sweep.append((window_ms, report))
        failures.extend(report_failures)
    overload, overload_failures = _run_overload(store, USERS, base.throughput)
    failures.extend(overload_failures)
    return base, sweep, overload, failures


def bench_serving(benchmark):
    """Request-at-a-time vs micro-batched serving at 1k closed-loop users."""
    result = {}

    def run():
        result["runs"] = _measure()
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    base, sweep, overload, failures = result["runs"]
    best_ratio = max(
        report.throughput / max(base.throughput, 1e-12) for _, report in sweep
    )
    lines = [
        f"window   0.0ms (B=1)  {base.throughput:10.0f} req/s  (1.00x)   "
        f"p50 {base.latency_p(50) * 1e3:7.2f}ms  p99 {base.latency_p(99) * 1e3:7.2f}ms"
    ]
    for window_ms, report in sweep:
        ratio = report.throughput / max(base.throughput, 1e-12)
        lines.append(
            f"window {window_ms:5.1f}ms        {report.throughput:10.0f} req/s  "
            f"({ratio:5.2f}x)  p50 {report.latency_p(50) * 1e3:7.2f}ms  "
            f"p99 {report.latency_p(99) * 1e3:7.2f}ms"
        )
    lines.append(
        f"overload (open loop)  shed {overload.shed}/{overload.requests} "
        f"requests, admitted p99 {overload.latency_p(99) * 1e3:7.2f}ms"
    )
    print_exhibit(
        f"Micro-batched policy serving — {USERS} concurrent users",
        lines,
        paper_note="coalescing concurrent per-user requests into one stacked "
        "(N, B, dim) forward amortizes per-request dispatch the same way "
        "batching amortizes the update round",
    )
    assert not failures, "; ".join(failures)
    if DUAL_CORE:
        assert best_ratio >= 3.0, (
            f"micro-batched throughput only {best_ratio:.2f}x the "
            f"request-at-a-time baseline at {USERS} users (need >= 3x)"
        )
    else:  # single core: record the ratio, skip the hardware claim
        print(
            f"({os.cpu_count()} usable cores: {best_ratio:.2f}x measured; "
            f">=3x assertion needs >= 2 cores)"
        )
