"""Experience-replay substrate: front-ends over pluggable storage engines.

Two storage engines back the paper's experiments (selectable per
:class:`MultiAgentReplay` via ``storage=`` or the ``REPRO_STORAGE``
environment variable, see :func:`resolve_storage`):

* ``agent_major`` — :class:`ReplayBuffer` / :class:`MultiAgentReplay`
  over dense per-agent arrays, the baseline layout whose O(N*m)
  scattered gathers the paper profiles.  The default.
* ``timestep_major`` — the same front-ends over one shared packed
  :class:`TransitionArena` (the paper's §IV-B2 key-value layout), where
  per-agent fields are zero-copy column views and joint consumers read
  whole mini-batches with one O(m) row gather.

:class:`PrioritizedReplayBuffer` adds PER (sum-tree proportional
sampling) on either engine; :class:`KVTransitionStore` is the ingest-
on-demand reorganization mirror used by the Figure-14 characterization.
"""

from typing import Optional, Sequence

from .arena import AGENT_SPLIT, JOINT_GATHER, TransitionArena
from .kv_layout import KVTransitionStore
from .multi_agent import MultiAgentReplay
from .prioritized import PrioritizedReplayBuffer
from .replay import PAPER_BUFFER_CAPACITY, ReplayBuffer, validate_batch_fields
from .storage import (
    STORAGE_ENGINES,
    AgentMajorStorage,
    ArenaAgentStorage,
    resolve_storage,
)
from .sum_tree import MinTree, SegmentTree, SumTree
from .transition import FLOAT_BYTES, JointSchema, TransitionSchema


def make_replay(
    config=None,
    *,
    obs_dims: Sequence[int],
    act_dims: Sequence[int],
    capacity: Optional[int] = None,
    prioritized: bool = False,
    alpha: Optional[float] = None,
    storage: Optional[str] = None,
) -> MultiAgentReplay:
    """Construct a :class:`MultiAgentReplay` from config + explicit options.

    The construction entry point.  A
    :class:`~repro.algos.config.MARLConfig` (``config=``, optional)
    supplies defaults for ``capacity`` (``buffer_capacity``), ``alpha``
    (``per_alpha``), and ``storage``; every keyword overrides its config
    field.  With no config, defaults match ``MultiAgentReplay``'s own
    (capacity 1e6, alpha 0.6, agent-major storage).

    >>> replay = make_replay(config, obs_dims=[8, 8], act_dims=[5, 5])
    >>> replay = make_replay(obs_dims=[8, 8], act_dims=[5, 5], prioritized=True)
    """
    if capacity is None:
        capacity = config.buffer_capacity if config is not None else 1_000_000
    if alpha is None:
        alpha = config.per_alpha if config is not None else 0.6
    if storage is None:
        storage = config.storage if config is not None else "agent_major"
    return MultiAgentReplay(
        obs_dims,
        act_dims,
        capacity=capacity,
        prioritized=prioritized,
        alpha=alpha,
        storage=storage,
    )


__all__ = [
    "ReplayBuffer",
    "make_replay",
    "validate_batch_fields",
    "PAPER_BUFFER_CAPACITY",
    "PrioritizedReplayBuffer",
    "MultiAgentReplay",
    "TransitionArena",
    "JOINT_GATHER",
    "AGENT_SPLIT",
    "STORAGE_ENGINES",
    "resolve_storage",
    "AgentMajorStorage",
    "ArenaAgentStorage",
    "KVTransitionStore",
    "SumTree",
    "MinTree",
    "SegmentTree",
    "TransitionSchema",
    "JointSchema",
    "FLOAT_BYTES",
]
