"""The replay dataset service: shard servers with push/pull endpoints.

:class:`ReplayShardService` forks S shard-server processes, each owning
one timestep-major :class:`~repro.buffers.multi_agent.MultiAgentReplay`
(a packed :class:`~repro.buffers.arena.TransitionArena` ring).  All row
traffic moves through **one** shared-memory segment — pipes carry only
tiny ``(command, count)`` tuples — following malib's
``offline_dataset_server`` push/pull decoupling:

* **push** — the rollout producer routes each packed sweep's rows to
  shards (round-robin on the global timestep index), writes them into
  per-shard push slots in the segment, and sends one message per
  touched shard.  The shard ingests with the ``ingest(packed_rows=)``
  fancy-index ring write.
* **pull** — each learner owns a response slot per shard.  A mini-batch
  request fans out counts proportional to shard fill; every shard
  serves its slice with one ``gather_joint`` fancy-index packed read
  into the learner's slot, concurrently with the other shards.  That
  per-shard one-gather read is the unit that scales: aggregate sampled
  rows/s grows with S because the gathers run in S processes.

Request handling is single-threaded per shard over
``multiprocessing.connection.wait``, so per-shard ingest order (and
thus ring content) is deterministic for a single producer.  Sampling
uses a per-shard ``default_rng(seed + shard_id)`` stream.
"""

from __future__ import annotations

import os
import time
from multiprocessing import connection, get_context
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..buffers.multi_agent import MultiAgentReplay
from ..buffers.transition import JointSchema
from ..shm import create_segment, release_segment
from .sharding import ShardRouter, allocate_proportional

__all__ = ["ReplayServiceError", "ReplayShardService", "ShardPullClient", "SERVICE_SHM_PREFIX"]

#: recognizable shared-memory name prefix (leak checks key on it)
SERVICE_SHM_PREFIX = "repro_svc_"

_CMD_PUSH = "push"
_CMD_SAMPLE = "sample"
_CMD_STATS = "stats"
_CMD_CLOSE = "close"


class ReplayServiceError(RuntimeError):
    """A shard server died or answered out of protocol."""


def _shard_main(
    shard_id: int,
    obs_dims: Sequence[int],
    act_dims: Sequence[int],
    capacity: int,
    seed: int,
    push_block: np.ndarray,
    resp_blocks: List[np.ndarray],
    conns: List,
) -> None:
    """One shard server: serve push/sample/stats until told to close.

    Runs in a forked child; ``push_block`` / ``resp_blocks`` alias the
    parent's shared segment, so rows never cross a pipe.
    """
    replay = MultiAgentReplay(
        obs_dims, act_dims, capacity=capacity, storage="timestep_major"
    )
    rng = np.random.default_rng(seed)
    ingested = 0
    sampled = 0
    requests = 0
    queue_peak = 0
    busy_seconds = 0.0
    # conns[0] is the producer; conns[1 + c] belongs to pull client c
    client_of = {id(conn): i - 1 for i, conn in enumerate(conns)}
    live = list(conns)
    try:
        while live:
            ready = connection.wait(live, timeout=1.0)
            if not ready:
                continue
            queue_peak = max(queue_peak, len(ready))
            for conn in ready:
                try:
                    msg = conn.recv()
                except EOFError:
                    live.remove(conn)
                    continue
                t0 = time.perf_counter()
                cmd = msg[0]
                if cmd == _CMD_PUSH:
                    k = int(msg[1])
                    replay.ingest(packed_rows=push_block[:k])
                    ingested += k
                    requests += 1
                    conn.send(("ok", len(replay)))
                elif cmd == _CMD_SAMPLE:
                    n = int(msg[1])
                    size = len(replay)
                    requests += 1
                    if size == 0:
                        conn.send(("empty", 0, 0))
                    else:
                        indices = rng.integers(0, size, size=n)
                        block = resp_blocks[client_of[id(conn)]]
                        block[:n] = replay.arena.gather_joint(indices)
                        sampled += n
                        conn.send(("ok", n, size))
                elif cmd == _CMD_STATS:
                    conn.send(
                        (
                            "ok",
                            {
                                "shard": shard_id,
                                "size": len(replay),
                                "ingested": ingested,
                                "sampled": sampled,
                                "requests": requests,
                                "queue_peak": queue_peak,
                                "busy_seconds": busy_seconds,
                            },
                        )
                    )
                elif cmd == _CMD_CLOSE:
                    conn.send(("ok", None))
                    return
                else:  # pragma: no cover - protocol misuse
                    conn.send(("error", f"unknown command {cmd!r}"))
                busy_seconds += time.perf_counter() - t0
    except (KeyboardInterrupt, BrokenPipeError, OSError):  # pragma: no cover
        pass


class ShardPullClient:
    """One learner's pull endpoint over every shard.

    Owns this client's per-shard pipe ends and response-slot views.
    ``sample_rows`` fans the request out to all shards *before* reading
    any reply, so the per-shard gathers overlap; rows are copied out of
    the shared slots into a private block the learner may mutate.
    """

    def __init__(
        self,
        client_id: int,
        schema: JointSchema,
        conns: List,
        resp_views: List[np.ndarray],
        max_batch: int,
    ) -> None:
        self.client_id = client_id
        self.schema = schema
        self._conns = conns
        self._resp = resp_views
        self.max_batch = int(max_batch)
        self._sizes = [0] * len(conns)
        self.rows_pulled = 0
        self.requests = 0
        self.wait_seconds = 0.0

    @property
    def num_shards(self) -> int:
        return len(self._conns)

    def refresh_sizes(self) -> List[int]:
        for conn in self._conns:
            conn.send((_CMD_STATS,))
        for s, conn in enumerate(self._conns):
            status, stats = conn.recv()
            if status != "ok":  # pragma: no cover - protocol misuse
                raise ReplayServiceError(f"stats request failed on shard {s}")
            self._sizes[s] = int(stats["size"])
        return list(self._sizes)

    def total_size(self) -> int:
        return sum(self._sizes)

    def sample_rows(self, batch_size: int) -> np.ndarray:
        """One joint mini-batch as ``(batch_size, width)`` packed rows."""
        if batch_size > self.max_batch:
            raise ValueError(
                f"batch_size {batch_size} exceeds response slot ({self.max_batch})"
            )
        counts = allocate_proportional(self._sizes, batch_size)
        asked = [s for s, n in enumerate(counts) if n > 0]
        for s in asked:
            self._conns[s].send((_CMD_SAMPLE, int(counts[s])))
        t0 = time.perf_counter()
        parts: List[np.ndarray] = []
        for s in asked:
            status, n, size = self._conns[s].recv()
            self._sizes[s] = int(size)
            if status == "ok":
                parts.append(np.array(self._resp[s][:n]))
        self.wait_seconds += time.perf_counter() - t0
        if not parts:
            raise ReplayServiceError("all shards answered empty")
        self.requests += 1
        rows = np.concatenate(parts, axis=0)
        self.rows_pulled += rows.shape[0]
        return rows

    def sample_fields(self, batch_size: int):
        """Per-agent batch fields of one pulled joint mini-batch."""
        return self.schema.split_batch(self.sample_rows(batch_size))

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


class ReplayShardService:
    """Parent-side handle: spawns shard servers, owns the segment.

    Parameters
    ----------
    capacity:
        Total ring capacity in timesteps, split evenly across shards.
    num_clients:
        Pull clients (learners) that will sample concurrently; each
        gets a dedicated response slot per shard.
    max_push:
        Largest single :meth:`push` row count (one rollout sweep).
    max_batch:
        Largest per-client mini-batch.
    """

    def __init__(
        self,
        obs_dims: Sequence[int],
        act_dims: Sequence[int],
        capacity: int = 1_000_000,
        num_shards: int = 1,
        num_clients: int = 1,
        max_push: int = 1024,
        max_batch: int = 4096,
        seed: int = 0,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        self.schema = JointSchema.from_dims(list(obs_dims), list(act_dims))
        self.obs_dims = list(obs_dims)
        self.act_dims = list(act_dims)
        self.num_shards = int(num_shards)
        self.num_clients = int(num_clients)
        self.max_push = int(max_push)
        self.max_batch = int(max_batch)
        self.shard_capacity = -(-int(capacity) // self.num_shards)
        self.router = ShardRouter(self.num_shards)
        width = self.schema.width

        # one segment: per shard, a push slot + one response slot per client
        shard_floats = (self.max_push + self.num_clients * self.max_batch) * width
        total_floats = shard_floats * self.num_shards
        self._segment, self._guard = create_segment(
            f"{SERVICE_SHM_PREFIX}{os.getpid()}_{id(self):x}", total_floats * 8
        )
        flat = np.ndarray(
            (total_floats,), dtype=np.float64, buffer=self._segment.buf
        )
        flat[:] = 0.0
        self._push_blocks: List[np.ndarray] = []
        self._resp_blocks: List[List[np.ndarray]] = []
        for s in range(self.num_shards):
            base = s * shard_floats
            push = flat[base : base + self.max_push * width].reshape(
                self.max_push, width
            )
            self._push_blocks.append(push)
            views = []
            for c in range(self.num_clients):
                start = base + (self.max_push + c * self.max_batch) * width
                views.append(
                    flat[start : start + self.max_batch * width].reshape(
                        self.max_batch, width
                    )
                )
            self._resp_blocks.append(views)

        ctx = get_context("fork")
        self._producer_conns: List = []
        self._client_conns: List[List] = [[] for _ in range(self.num_clients)]
        self._procs: List = []
        for s in range(self.num_shards):
            shard_conns = []
            producer_parent, producer_child = ctx.Pipe()
            self._producer_conns.append(producer_parent)
            shard_conns.append(producer_child)
            for c in range(self.num_clients):
                client_parent, client_child = ctx.Pipe()
                self._client_conns[c].append(client_parent)
                shard_conns.append(client_child)
            proc = ctx.Process(
                target=_shard_main,
                args=(
                    s,
                    self.obs_dims,
                    self.act_dims,
                    self.shard_capacity,
                    seed + s,
                    self._push_blocks[s],
                    self._resp_blocks[s],
                    shard_conns,
                ),
                daemon=True,
                name=f"replay-shard-{s}",
            )
            proc.start()
            for conn in shard_conns:
                conn.close()
            self._procs.append(proc)
        self._sizes = [0] * self.num_shards
        self.pushed_rows = 0
        self.pushes = 0
        self._closed = False

    # -- producer endpoint ----------------------------------------------------

    def push(self, packed_rows: np.ndarray) -> int:
        """Route K packed rows to shards and wait for the ingest acks."""
        rows = np.asarray(packed_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.schema.width:
            raise ValueError(
                f"expected packed rows of shape (K, {self.schema.width}), "
                f"got {rows.shape}"
            )
        total = rows.shape[0]
        if total > self.max_push:
            pushed = 0
            for start in range(0, total, self.max_push):
                pushed += self.push(rows[start : start + self.max_push])
            return pushed
        ids = self.router.assign(total)
        touched = []
        for s in range(self.num_shards):
            pos = np.flatnonzero(ids == s)
            if not pos.size:
                continue
            self._push_blocks[s][: pos.size] = rows[pos]
            self._producer_conns[s].send((_CMD_PUSH, int(pos.size)))
            touched.append(s)
        for s in touched:
            status, size = self._recv_producer(s)
            if status != "ok":
                raise ReplayServiceError(f"push rejected by shard {s}: {size!r}")
            self._sizes[s] = int(size)
        self.pushed_rows += total
        self.pushes += 1
        return total

    def _recv_producer(self, shard: int):
        proc = self._procs[shard]
        conn = self._producer_conns[shard]
        deadline = time.monotonic() + 30.0
        while not conn.poll(0.1):
            if not proc.is_alive():
                raise ReplayServiceError(f"shard server {shard} died")
            if time.monotonic() > deadline:  # pragma: no cover - stuck server
                raise ReplayServiceError(f"shard server {shard} timed out")
        return conn.recv()

    # -- consumer endpoint ----------------------------------------------------

    def pull_client(self, client_id: int) -> ShardPullClient:
        """The pull endpoint for learner ``client_id`` (fork-inheritable)."""
        if not 0 <= client_id < self.num_clients:
            raise IndexError(f"client id {client_id} out of range")
        return ShardPullClient(
            client_id,
            self.schema,
            [self._client_conns[client_id][s] for s in range(self.num_shards)],
            [self._resp_blocks[s][client_id] for s in range(self.num_shards)],
            self.max_batch,
        )

    # -- introspection ---------------------------------------------------------

    def sizes(self) -> List[int]:
        """Last-acked per-shard sizes (producer view; no round trip)."""
        return list(self._sizes)

    def __len__(self) -> int:
        return sum(self._sizes)

    def stats(self) -> List[Dict]:
        """Authoritative per-shard counters (one stats round trip each)."""
        for conn in self._producer_conns:
            conn.send((_CMD_STATS,))
        out = []
        for s in range(self.num_shards):
            status, stats = self._recv_producer(s)
            if status != "ok":  # pragma: no cover - protocol misuse
                raise ReplayServiceError(f"stats failed on shard {s}")
            self._sizes[s] = int(stats["size"])
            out.append(stats)
        return out

    # -- lifecycle -------------------------------------------------------------

    @property
    def shm_name(self) -> str:
        return self._segment.name

    def close(self) -> None:
        """Stop every shard server and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for s, conn in enumerate(self._producer_conns):
            try:
                if self._procs[s].is_alive():
                    conn.send((_CMD_CLOSE,))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for s, proc in enumerate(self._procs):
            conn = self._producer_conns[s]
            try:
                if conn.poll(2.0):
                    conn.recv()
            except (EOFError, OSError):  # pragma: no cover
                pass
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck server
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self._producer_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for conns in self._client_conns:
            for conn in conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._push_blocks = []
        self._resp_blocks = []
        release_segment(self._segment, self._guard)

    def __enter__(self) -> "ReplayShardService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
