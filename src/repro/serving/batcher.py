"""Request coalescing for the serving tier.

The frontend accepts one observation per request — thousands of
simulated users each asking "what should my agent do next?" — but the
network substrate is batch-oriented: one stacked ``(N, B, dim)``
forward amortizes dispatch and cache traffic over the whole batch.
:class:`MicroBatcher` bridges the two: requests accumulate in per-agent
pending lists, and a flush drains everything that arrived within one
*batch window* into a single padded ``(N, B, obs)`` tensor.

Admission control lives at the mouth of the queue: :meth:`submit`
refuses (sheds) when the total backlog already holds ``max_queue_depth``
requests, and :meth:`take` drops requests whose deadline expired while
they queued — under overload the server answers fewer requests rather
than answering all of them late.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MicroBatcher",
    "ServeFuture",
    "ServeRequest",
    "ServeResponse",
    "assemble",
]


class ServeResponse:
    """One answered request: greedy action + the snapshot that chose it.

    ``version`` is the :class:`~repro.serving.snapshot.PolicySnapshot`
    version that produced the action — every response traces to exactly
    one published snapshot.  ``probs`` is a read-only view into the
    flush's softmax output (copy it to outlive the batch).
    """

    __slots__ = ("user", "agent", "action", "probs", "version", "queue_wait")

    def __init__(self, user, agent, action, probs, version, queue_wait):
        self.user = user
        self.agent = agent
        self.action = action
        self.probs = probs
        self.version = version
        self.queue_wait = queue_wait

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServeResponse(user={self.user!r}, agent={self.agent}, "
            f"action={self.action}, version={self.version}, "
            f"queue_wait={self.queue_wait * 1e3:.3f}ms)"
        )


class ServeFuture:
    """Blocking handle for one request's response.

    ``result`` returns the :class:`ServeResponse`, or ``None`` when the
    request was shed after admission (deadline expiry) — the completed
    flag distinguishes "shed" from "not answered yet".
    """

    __slots__ = ("_event", "_response")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: Optional[ServeResponse] = None

    def _complete(self, response: Optional[ServeResponse]) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Optional[ServeResponse]:
        if not self._event.wait(timeout):
            raise TimeoutError("serving response did not arrive in time")
        return self._response


class ServeRequest:
    """One user's pending observation.

    Delivery is callback-first (``callback(response_or_None)`` runs on
    the flusher thread — keep it tiny) with an optional
    :class:`ServeFuture` for blocking callers; shed requests deliver
    ``None`` through both.  ``deadline`` is an absolute
    ``time.perf_counter()`` instant after which the request is dropped
    instead of served.
    """

    __slots__ = ("user", "agent", "obs", "submitted", "deadline",
                 "callback", "future")

    def __init__(
        self,
        user,
        agent: int,
        obs: np.ndarray,
        deadline: Optional[float] = None,
        callback: Optional[Callable[[Optional[ServeResponse]], None]] = None,
        future: Optional[ServeFuture] = None,
    ) -> None:
        self.user = user
        self.agent = agent
        self.obs = obs
        self.submitted = 0.0  # stamped by MicroBatcher.submit
        self.deadline = deadline
        self.callback = callback
        self.future = future

    def deliver(self, response: Optional[ServeResponse]) -> None:
        if self.future is not None:
            self.future._complete(response)
        if self.callback is not None:
            self.callback(response)


class MicroBatcher:
    """Per-agent pending queues with batch-window flush triggering.

    A flush cycle is: the flusher blocks in :meth:`take` until work
    exists, lingers up to ``window`` seconds after the *first* request
    of the cycle arrived (so a lone request is never delayed by a full
    window once the queue has been idle-drained), returns early the
    moment ``max_batch`` requests are pending, and hands back the
    per-agent request lists.  ``window=0`` degenerates to
    request-at-a-time serving — the unbatched baseline the bench
    compares against.
    """

    def __init__(
        self,
        num_agents: int,
        max_batch: int = 256,
        max_queue_depth: int = 4096,
        window: float = 0.002,
    ) -> None:
        if num_agents < 1:
            raise ValueError(f"num_agents must be >= 1, got {num_agents}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.num_agents = num_agents
        self.max_batch = max_batch
        self.max_queue_depth = max_queue_depth
        self.window = window
        self._cond = threading.Condition()
        self._pending: List[List[ServeRequest]] = [[] for _ in range(num_agents)]
        self._total = 0
        self._first_arrival = 0.0
        self._closed = False
        #: requests refused at admission (queue full); deadline drops are
        #: counted by the server, which owns the flush loop
        self.rejected = 0

    def depth(self) -> int:
        with self._cond:
            return self._total

    def submit(self, request: ServeRequest) -> bool:
        """Enqueue; returns False (and delivers ``None``) when shed."""
        agent = request.agent
        if not 0 <= agent < self.num_agents:
            raise ValueError(
                f"agent index {agent} out of range [0, {self.num_agents})"
            )
        now = time.perf_counter()
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self._total >= self.max_queue_depth:
                self.rejected += 1
                shed = True
            else:
                request.submitted = now
                if self._total == 0:
                    self._first_arrival = now
                self._pending[agent].append(request)
                self._total += 1
                shed = False
                # wake the flusher: first arrival starts the window,
                # hitting max_batch ends it early
                if self._total == 1 or self._total >= self.max_batch:
                    self._cond.notify()
        if shed:
            request.deliver(None)
            return False
        return True

    def take(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[List[List[ServeRequest]], int]]:
        """Block for one batch-window's worth of requests.

        Returns ``(per_agent_requests, total)`` with at most
        ``max_batch`` requests, or ``None`` when the batcher was closed
        (after draining any leftovers) or ``timeout`` elapsed with an
        empty queue.  A backlog beyond ``max_batch`` stays queued and
        the next call returns immediately (its window already ran).
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cond:
            while self._total == 0:
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if self._total == 0:
                            return None
            flush_at = self._first_arrival + self.window
            while self._total < self.max_batch and not self._closed:
                remaining = flush_at - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            if self._total <= self.max_batch:
                batches = self._pending
                total = self._total
                self._pending = [[] for _ in range(self.num_agents)]
                self._total = 0
                return batches, total
            return self._split(self.max_batch)

    def _split(self, cap: int) -> Tuple[List[List[ServeRequest]], int]:
        """Detach the oldest ``cap`` requests; leftovers stay pending.

        Requests are FIFO within an agent; the cap is filled agent by
        agent (per-flush agent balance matters less than bounding the
        flush, and the leftover agents lead the very next flush).
        Caller holds the lock.
        """
        batches: List[List[ServeRequest]] = []
        leftovers: List[List[ServeRequest]] = []
        budget = cap
        for pend in self._pending:
            if budget >= len(pend):
                batches.append(pend)
                leftovers.append([])
                budget -= len(pend)
            else:
                batches.append(pend[:budget])
                leftovers.append(pend[budget:])
                budget = 0
        taken = cap - budget
        self._pending = leftovers
        self._total -= taken
        # the window for what remains effectively started when its
        # oldest request arrived, so the next take() flushes promptly
        oldest = min(
            (batch[0].submitted for batch in leftovers if batch),
            default=time.perf_counter(),
        )
        self._first_arrival = oldest
        return batches, taken

    def close(self) -> None:
        """Refuse new submissions and wake any blocked :meth:`take`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> List[ServeRequest]:
        """Remove and return every pending request (shutdown path)."""
        with self._cond:
            leftovers = [r for batch in self._pending for r in batch]
            self._pending = [[] for _ in range(self.num_agents)]
            self._total = 0
        return leftovers


def assemble(
    batches: Sequence[Sequence[ServeRequest]],
    obs_dim: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Pack per-agent request lists into a padded ``(N, B, obs)`` tensor.

    ``B`` is the largest per-agent count this flush; agents with fewer
    requests leave trailing rows untouched (garbage in, never read out
    — results are scattered back only for real requests).  ``out``
    reuses a preallocated ``(N, max_batch, obs)`` buffer when large
    enough, so steady-state flushes allocate nothing.
    """
    width = max((len(batch) for batch in batches), default=0)
    if width == 0:
        raise ValueError("assemble called with no requests")
    n = len(batches)
    if out is not None and out.shape[0] == n and out.shape[1] >= width:
        x = out[:, :width, :]
    else:
        x = np.empty((n, width, obs_dim), dtype=np.float64)
    for s, batch in enumerate(batches):
        rows = x[s]
        for i, request in enumerate(batch):
            rows[i] = request.obs
    return x, width
