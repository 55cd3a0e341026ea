"""Shard routing and the in-process sharded replay dataset.

A shard is one timestep-major :class:`~repro.buffers.multi_agent.
MultiAgentReplay` (arena-backed packed ring).  The router assigns every
inserted timestep to a shard by its *global insertion index* — either
round-robin (the default: perfectly balanced, order-reconstructible) or
a splitmix64 hash (decorrelates shard contents from insertion phase).
Routing is a pure function of the global index, so a checkpointed
router counter is all it takes to resume byte-identically.

:class:`ShardedReplay` is the single-process composition the service
processes build on: push packed rows in, sample joint mini-batches out
(per-shard draws proportional to shard fill), checkpoint/restore all S
ring cursors, and convert to/from a single-arena replay
(``export_rows`` / ``from_rows``) for cross-engine interchange.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..buffers.multi_agent import MultiAgentReplay
from ..buffers.transition import JointSchema

__all__ = [
    "SHARD_POLICIES",
    "ShardRouter",
    "ShardedReplay",
    "allocate_proportional",
    "rows_in_order",
]

SHARD_POLICIES = ("round_robin", "hash")


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — the deterministic timestep hash."""
    x = x.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def allocate_proportional(sizes: Sequence[int], batch_size: int) -> np.ndarray:
    """Per-shard draw counts proportional to shard fill (largest remainder).

    Deterministic: quotas floor-divide, then leftovers go to the largest
    fractional parts (ties broken by shard index).  Empty shards draw
    zero rows; sampling is with replacement so a count may exceed a
    shard's size.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    total = int(sizes.sum())
    if total <= 0:
        raise ValueError("cannot sample from empty shards")
    quota = batch_size * sizes / total
    counts = np.floor(quota).astype(np.int64)
    remainder = batch_size - int(counts.sum())
    if remainder > 0:
        frac = np.where(sizes > 0, quota - counts, -1.0)
        order = np.argsort(-frac, kind="stable")
        counts[order[:remainder]] += 1
    return counts


class ShardRouter:
    """Deterministic shard assignment by global insertion index."""

    def __init__(self, num_shards: int, policy: str = "round_robin") -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {policy!r}; expected one of {SHARD_POLICIES}"
            )
        self.num_shards = int(num_shards)
        self.policy = policy
        #: total timesteps routed so far (the next global index)
        self.total = 0

    def shard_of(self, global_index: int) -> int:
        """Shard that owns the timestep at ``global_index``."""
        if self.policy == "round_robin":
            return int(global_index) % self.num_shards
        mixed = _mix64(np.asarray([global_index], dtype=np.uint64))
        return int(mixed[0] % np.uint64(self.num_shards))

    def assign(self, count: int) -> np.ndarray:
        """Shard id per row for the next ``count`` insertions (advances)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        g = self.total + np.arange(count, dtype=np.int64)
        if self.policy == "round_robin":
            ids = g % self.num_shards
        else:
            ids = (_mix64(g.astype(np.uint64)) % np.uint64(self.num_shards)).astype(
                np.int64
            )
        self.total += count
        return ids

    def state_dict(self) -> dict:
        return {"total": self.total, "policy": self.policy, "num_shards": self.num_shards}

    def load_state_dict(self, state: dict) -> None:
        if int(state["num_shards"]) != self.num_shards or state["policy"] != self.policy:
            raise ValueError(
                "router checkpoint disagrees on shard topology: "
                f"saved ({state['num_shards']}, {state['policy']!r}) vs "
                f"live ({self.num_shards}, {self.policy!r})"
            )
        self.total = int(state["total"])


def rows_in_order(replay: MultiAgentReplay) -> np.ndarray:
    """A single arena-backed replay's retained rows, oldest → newest.

    The single-arena side of sharded ↔ single interchange: unrolls the
    ring so the result can be re-pushed into any topology.
    """
    if replay.arena is None:
        raise ValueError("rows_in_order requires a timestep-major (arena) replay")
    arena = replay.arena
    size = len(arena)
    if size < arena.capacity:
        return arena.values[:size].copy()
    next_idx = arena.next_index
    return np.concatenate([arena.values[next_idx:], arena.values[:next_idx]], axis=0)


class ShardedReplay:
    """S timestep-major replay shards behind one dataset interface.

    Prioritized replay is deliberately rejected for S > 1: PER's
    sum-tree is a global structure over one index space, and splitting
    it across shards changes the sampling distribution.  Orchestration
    layers route PER configs through the single-shard guard instead
    (see :func:`repro.training.loop.train_steps`).
    """

    def __init__(
        self,
        obs_dims: Sequence[int],
        act_dims: Sequence[int],
        capacity: int = 1_000_000,
        num_shards: int = 1,
        policy: str = "round_robin",
        prioritized: bool = False,
        alpha: float = 0.6,
    ) -> None:
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if prioritized and num_shards > 1:
            raise ValueError(
                "prioritized replay cannot shard (global sum-tree semantics); "
                "use the single-shard guard"
            )
        self.capacity = int(capacity)
        self.num_shards = num_shards
        self.policy = policy
        self.shard_capacity = -(-self.capacity // num_shards)  # ceil division
        self.schema = JointSchema.from_dims(list(obs_dims), list(act_dims))
        self.shards: List[MultiAgentReplay] = [
            MultiAgentReplay(
                obs_dims,
                act_dims,
                capacity=self.shard_capacity,
                prioritized=prioritized,
                alpha=alpha,
                storage="timestep_major",
            )
            for _ in range(num_shards)
        ]
        self.router = ShardRouter(num_shards, policy)
        #: per-shard lifetime ingest / sample row counters (telemetry)
        self.shard_ingested = np.zeros(num_shards, dtype=np.int64)
        self.shard_sampled = np.zeros(num_shards, dtype=np.int64)

    @property
    def num_agents(self) -> int:
        return self.schema.num_agents

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def sizes(self) -> List[int]:
        return [len(shard) for shard in self.shards]

    # -- push ----------------------------------------------------------------

    def push(self, packed_rows: np.ndarray) -> int:
        """Route K packed joint rows to their shards; returns K."""
        rows = np.asarray(packed_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.schema.width:
            raise ValueError(
                f"expected packed rows of shape (K, {self.schema.width}), "
                f"got {rows.shape}"
            )
        ids = self.router.assign(rows.shape[0])
        for s in range(self.num_shards):
            pos = np.flatnonzero(ids == s)
            if pos.size:
                self.shards[s].ingest(packed_rows=rows[pos])
                self.shard_ingested[s] += pos.size
        return int(rows.shape[0])

    # -- pull ----------------------------------------------------------------

    def sample_rows(self, rng: np.random.Generator, batch_size: int) -> np.ndarray:
        """A joint mini-batch as packed rows, drawn across shards.

        Each shard contributes draws proportional to its fill and serves
        them with one fancy-index packed read (``gather_joint``) — the
        per-shard cost the service parallelizes across processes.
        """
        counts = allocate_proportional(self.sizes(), batch_size)
        parts: List[np.ndarray] = []
        for s, n in enumerate(counts):
            n = int(n)
            if n == 0:
                continue
            size = len(self.shards[s])
            indices = rng.integers(0, size, size=n)
            parts.append(self.shards[s].arena.gather_joint(indices))
            self.shard_sampled[s] += n
        return np.concatenate(parts, axis=0)

    def sample_fields(self, rng: np.random.Generator, batch_size: int):
        """Per-agent batch fields of one cross-shard joint mini-batch."""
        return self.schema.split_batch(self.sample_rows(rng, batch_size))

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Full dataset state: every shard's ring block + cursors + router."""
        shards = []
        for s, shard in enumerate(self.shards):
            arena = shard.arena
            shards.append(
                {
                    "values": arena.values.copy(),
                    "size": len(arena),
                    "next_idx": arena.next_index,
                    "ingested": int(self.shard_ingested[s]),
                    "sampled": int(self.shard_sampled[s]),
                }
            )
        return {
            "num_shards": self.num_shards,
            "policy": self.policy,
            "capacity": self.capacity,
            "shard_capacity": self.shard_capacity,
            "router": self.router.state_dict(),
            "shards": shards,
        }

    def load_state_dict(self, state: dict) -> None:
        if int(state["num_shards"]) != self.num_shards:
            raise ValueError(
                f"checkpoint has {state['num_shards']} shards, replay has "
                f"{self.num_shards}; use export_rows/from_rows to re-shard"
            )
        if int(state["shard_capacity"]) != self.shard_capacity:
            raise ValueError(
                f"checkpoint shard capacity {state['shard_capacity']} != "
                f"{self.shard_capacity}"
            )
        self.router.load_state_dict(state["router"])
        for s, saved in enumerate(state["shards"]):
            shard = self.shards[s]
            values = np.asarray(saved["values"], dtype=np.float64)
            if values.shape != shard.arena.values.shape:
                raise ValueError(
                    f"shard {s} block shape {values.shape} != "
                    f"{shard.arena.values.shape}"
                )
            shard.arena.values[:] = values
            shard.restore_cursor(int(saved["size"]), int(saved["next_idx"]))
            self.shard_ingested[s] = int(saved["ingested"])
            self.shard_sampled[s] = int(saved["sampled"])

    def save(self, path: str) -> None:
        state = self.state_dict()
        arrays = {
            f"shard{s}_values": entry["values"]
            for s, entry in enumerate(state["shards"])
        }
        meta = np.array(
            [
                state["num_shards"],
                SHARD_POLICIES.index(state["policy"]),
                state["capacity"],
                state["shard_capacity"],
                state["router"]["total"],
            ],
            dtype=np.int64,
        )
        cursors = np.array(
            [
                [e["size"], e["next_idx"], e["ingested"], e["sampled"]]
                for e in state["shards"]
            ],
            dtype=np.int64,
        )
        np.savez(path, meta=meta, cursors=cursors, **arrays)

    def restore(self, path: str) -> None:
        with np.load(path) as data:
            meta = data["meta"]
            cursors = data["cursors"]
            state = {
                "num_shards": int(meta[0]),
                "policy": SHARD_POLICIES[int(meta[1])],
                "capacity": int(meta[2]),
                "shard_capacity": int(meta[3]),
                "router": {
                    "total": int(meta[4]),
                    "policy": SHARD_POLICIES[int(meta[1])],
                    "num_shards": int(meta[0]),
                },
                "shards": [
                    {
                        "values": data[f"shard{s}_values"],
                        "size": int(cursors[s, 0]),
                        "next_idx": int(cursors[s, 1]),
                        "ingested": int(cursors[s, 2]),
                        "sampled": int(cursors[s, 3]),
                    }
                    for s in range(int(meta[0]))
                ],
            }
        self.load_state_dict(state)

    # -- interchange ---------------------------------------------------------

    def export_rows(self) -> np.ndarray:
        """Retained rows merged back into global insertion order.

        Only defined for round-robin routing: there the global index of
        a shard-local insert is reconstructible (insert ``j`` of shard
        ``s`` was global index ``j * S + s``), even after ring
        wraparound has evicted each shard's oldest rows independently.
        Hash routing scatters indices irreversibly — convert those
        datasets by replaying the source stream instead.
        """
        if self.policy != "round_robin":
            raise ValueError("export_rows requires round_robin routing")
        total = self.router.total
        s_count = self.num_shards
        globals_parts: List[np.ndarray] = []
        rows_parts: List[np.ndarray] = []
        for s, shard in enumerate(self.shards):
            arena = shard.arena
            kept = len(arena)
            if kept == 0:
                continue
            # inserts this shard has seen over the run's lifetime
            inserted = (total - s + s_count - 1) // s_count if total > s else 0
            j = inserted - kept + np.arange(kept)  # per-shard insert ordinals
            globals_parts.append(j * s_count + s)
            rows_parts.append(arena.values[j % arena.capacity])
        if not rows_parts:
            return np.empty((0, self.schema.width), dtype=np.float64)
        order = np.argsort(np.concatenate(globals_parts), kind="stable")
        return np.concatenate(rows_parts, axis=0)[order]

    @classmethod
    def from_rows(
        cls,
        rows: np.ndarray,
        obs_dims: Sequence[int],
        act_dims: Sequence[int],
        **kwargs,
    ) -> "ShardedReplay":
        """Build a sharded dataset by replaying rows in insertion order."""
        replay = cls(obs_dims, act_dims, **kwargs)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[0]:
            replay.push(rows)
        return replay
