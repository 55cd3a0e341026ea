"""Address-trace generation from sampler access patterns.

Bridges the sampling strategies to the cache model: given the indices
(or contiguous runs) a sampler produced, emit the line-granular address
stream the corresponding gather loop performs over the modeled storage
layout.  The loop structures mirror the real code paths:

* baseline / cache-aware (agent-major): ``for trainer in N: for agent in
  N: for idx in indices: read 5 field rows`` — the paper's O(N^2 B)
  pattern.  The per-trainer inner ordering is what the cache sees.
* layout-reorganized (timestep-major): ``for idx in indices: read one
  packed row`` serving all trainers at once — O(m).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..buffers.transition import JointSchema
from .address_map import AgentMajorAddressMap, TimestepMajorAddressMap

__all__ = [
    "trainer_gather_trace",
    "update_round_trace",
    "kv_gather_trace",
    "buffer_write_trace",
]


def trainer_gather_trace(
    address_map: AgentMajorAddressMap,
    indices: Sequence[int],
    agent_order: Optional[Sequence[int]] = None,
) -> Iterator[int]:
    """One trainer's gather: all agents' buffers at the common indices."""
    if agent_order is None:
        agent_order = range(address_map.num_agents)
    yield from address_map.gather_addresses(agent_order, indices)


def update_round_trace(
    address_map: AgentMajorAddressMap,
    per_trainer_indices: Iterable[Sequence[int]],
) -> Iterator[int]:
    """A full update-all-trainers round: every trainer gathers in turn.

    ``per_trainer_indices`` yields one common-indices array per agent
    trainer (they differ per trainer in the real workload, so each
    trainer's gather revisits the buffers at fresh random offsets —
    the cache pressure the paper measures).
    """
    for indices in per_trainer_indices:
        yield from trainer_gather_trace(address_map, indices)


def kv_gather_trace(
    address_map: TimestepMajorAddressMap,
    indices: Sequence[int],
) -> Iterator[int]:
    """The reorganized layout's single O(m) packed-row gather."""
    yield from address_map.gather_addresses(indices)


def buffer_write_trace(
    address_map: AgentMajorAddressMap,
    start_row: int,
    num_steps: int,
) -> Iterator[int]:
    """The experience-storage phase's write stream.

    Each environment step appends one row to every agent's five field
    arrays at the *same* ring slot — a small set of perfectly sequential
    streams.  This is why buffer writes are a rounding error in the
    paper's breakdown (Figure 2's "other segments") while reads dominate:
    the same data that costs a cache miss per row to gather randomly was
    written nearly for free.
    """
    if num_steps <= 0:
        raise ValueError(f"num_steps must be positive, got {num_steps}")
    capacity = address_map.capacity
    for step in range(num_steps):
        row = (start_row + step) % capacity
        for agent_idx in range(address_map.num_agents):
            yield from address_map.row_addresses(agent_idx, row)


def make_agent_major_map(
    schema: JointSchema, capacity: int, line_bytes: int = 64
) -> AgentMajorAddressMap:
    """Convenience constructor mirroring the replay's storage geometry."""
    return AgentMajorAddressMap(schema, capacity, line_bytes)
