"""Sharded replay dataset service and multi-learner coordination.

The package breaks the one-process replay ceiling (ROADMAP item 1,
malib's ``offline_dataset_server`` push/pull design):

* :mod:`repro.replay.sharding` — the round-robin shard router and the
  fill-proportional draw allocation.
* :mod:`repro.replay.service` — :class:`ReplayShardService`: S shard
  server processes over one shared-memory segment with a zero-copy push
  endpoint for rollout producers and per-learner pull endpoints serving
  one-gather packed mini-batch reads.
* :mod:`repro.replay.params` — the versioned-snapshot parameter store
  (:class:`SharedParameterStore`) for async broadcast: learners publish
  monotonic versions, actors poll under a staleness bound, no lock-step
  barrier.
* :mod:`repro.replay.coordinator` — :class:`MultiLearnerCoordinator`:
  partitions agents across L learner processes, runs injected update
  rounds off the service, merges parameters and telemetry at stop.
"""

from .coordinator import MultiLearnerCoordinator, minibatch_from_rows
from .params import (
    ParameterStore,
    ParameterSubscriber,
    SharedParameterStore,
    agent_param_arrays,
)
from .service import ReplayShardService, ShardPullClient
from .sharding import ShardRouter, allocate_proportional

__all__ = [
    "MultiLearnerCoordinator",
    "ParameterStore",
    "ParameterSubscriber",
    "ReplayShardService",
    "ShardPullClient",
    "ShardRouter",
    "SharedParameterStore",
    "agent_param_arrays",
    "allocate_proportional",
    "minibatch_from_rows",
]
