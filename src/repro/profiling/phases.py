"""Canonical phase names used across trainers, breakdowns, and benches.

The names mirror the paper's decomposition:

* Figure 2 splits end-to-end time into *action selection*, *update all
  trainers*, and *other segments* (environment stepping, buffer writes,
  bookkeeping).
* Figure 3 splits *update all trainers* into *mini-batch sampling*,
  *target Q calculation*, and *Q loss + P loss* (network updates).

The parallel collector adds one phase that makes its waiting observable:

* ``env_step.worker_wait`` — time the main thread spends blocked on the
  parallel rollout workers inside the environment-step phase; the rest
  of ``env_step`` is IPC plus result assembly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

__all__ = [
    "ACTION_SELECTION",
    "ENV_STEP",
    "BUFFER_WRITE",
    "UPDATE_ALL_TRAINERS",
    "SAMPLING",
    "TARGET_Q",
    "LOSS_UPDATE",
    "WORKER_WAIT",
    "SERVICE_PUSH",
    "SERVICE_PULL",
    "PARAM_REFRESH",
    "SERVE",
    "SERVE_QUEUE_WAIT",
    "SERVE_BATCH_FORWARD",
    "SERVE_FLUSH",
    "SERVE_SHED",
    "TOP_LEVEL_PHASES",
    "UPDATE_SUBPHASES",
    "OTHER_SEGMENTS",
    "qualified",
]

ACTION_SELECTION = "action_selection"
ENV_STEP = "env_step"
BUFFER_WRITE = "buffer_write"
UPDATE_ALL_TRAINERS = "update_all_trainers"
SAMPLING = "sampling"
TARGET_Q = "target_q"
LOSS_UPDATE = "loss_update"

#: sub-phase of env_step: main thread blocked on parallel rollout workers
WORKER_WAIT = f"{ENV_STEP}.worker_wait"

#: replay-dataset-service phases (producer side of the push/pull protocol)
SERVICE_PUSH = "service_push"
#: learner-side mini-batch pull (inside the service update round)
SERVICE_PULL = "service_pull"
#: rollout actor applying a newer published parameter snapshot
PARAM_REFRESH = "param_refresh"

#: serving-tier phases (batched policy-inference frontend)
SERVE = "serve"
#: per-request time from admission to batch drain (the batching cost)
SERVE_QUEUE_WAIT = f"{SERVE}.queue_wait"
#: the stacked (N, B, dim) actor forward of one flush
SERVE_BATCH_FORWARD = f"{SERVE}.batch_forward"
#: one full flush cycle: drain + assemble + forward + deliver
SERVE_FLUSH = f"{SERVE}.flush"
#: requests dropped by admission control or deadline expiry (count)
SERVE_SHED = f"{SERVE}.shed"

#: Figure-2-level phases ("other segments" = everything not listed).
TOP_LEVEL_PHASES = (ACTION_SELECTION, UPDATE_ALL_TRAINERS)

#: Figure-3-level sub-phases of update_all_trainers.
UPDATE_SUBPHASES = (SAMPLING, TARGET_Q, LOSS_UPDATE)

#: Phases folded into Figure 2's "other segments" bar.
OTHER_SEGMENTS = (ENV_STEP, BUFFER_WRITE)


def qualified(subphase: str) -> str:
    """Dotted key of an update-all-trainers sub-phase."""
    if subphase not in UPDATE_SUBPHASES:
        raise ValueError(
            f"unknown sub-phase {subphase!r}; expected one of {UPDATE_SUBPHASES}"
        )
    return f"{UPDATE_ALL_TRAINERS}.{subphase}"


def percentages(totals: Mapping[str, float], keys: List[str]) -> Dict[str, float]:
    """Normalize the named totals to percentages of their sum."""
    values = [max(totals.get(k, 0.0), 0.0) for k in keys]
    denom = sum(values)
    if denom <= 0:
        raise ValueError(f"no time recorded under any of {keys}")
    return {k: v / denom * 100.0 for k, v in zip(keys, values)}
