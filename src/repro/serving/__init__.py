"""Batched policy-inference serving tier.

Training optimizes throughput of the update round; *deployment*
optimizes a different loop — thousands of concurrent users each asking
for one action at a time.  This package reuses the repo's batched
substrate (stacked homogeneous-agent networks, PhaseTimer telemetry)
to serve that workload:

* :class:`SnapshotStore` / :class:`PolicySnapshot` — versioned,
  immutable policy snapshots, hot-swapped atomically as training
  publishes (``snapshot``)
* :class:`MicroBatcher` — batch-window request coalescing plus
  admission control (``batcher``)
* :class:`PolicyServer` — the frontend: flusher thread, one stacked
  ``(N, B, dim)`` forward per flush, deadline shedding (``server``)
* :class:`LoadGenerator` — closed- and open-loop simulated user
  populations with client-side latency accounting (``loadgen``)
"""

from .batcher import MicroBatcher, ServeFuture, ServeRequest, ServeResponse
from .loadgen import LoadGenerator, LoadReport
from .server import PolicyServer
from .snapshot import PolicySnapshot, SnapshotStore

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "MicroBatcher",
    "PolicyServer",
    "PolicySnapshot",
    "ServeFuture",
    "ServeRequest",
    "ServeResponse",
    "SnapshotStore",
]
