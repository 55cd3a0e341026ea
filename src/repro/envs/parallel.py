"""Process-parallel vectorized environments over shared memory.

:class:`ParallelVectorEnv` promotes :class:`~repro.envs.vector.SyncVectorEnv`
to a multi-process rollout engine with the *same* per-agent ``(K,
obs_dim)`` API: K environment copies are partitioned contiguously across
worker processes, each stepping its slice with the serial engine
:func:`~repro.envs.batched.serial_vector_env` picks (the array program
where the scenario has array hooks), and every cross-process field
travels through one ``multiprocessing.shared_memory`` segment of three
blocks:

* an **action block** ``(K, sum(act_dims))`` the parent writes before
  each step;
* a **reward/done block** ``(K, 2 * num_agents)`` — rewards in the first
  ``num_agents`` columns, done flags in the rest — which workers fill as
  they step;
* an **observation block** ``(K, sum(obs_dims))`` holding the post-step
  (post-auto-reset) observations that feed the next batched actor
  forward.

Determinism contract (property-tested): given identical per-copy
factories/seeds, the parallel collector reproduces ``SyncVectorEnv``
trajectories **bit-for-bit** — copies are assigned to workers in fixed
contiguous index order and all reductions read the shared blocks in copy
order, so worker completion order never reorders results.

Fault handling: a worker that dies mid-episode is detected (no hangs)
and surfaces a :class:`WorkerCrashError` carrying the worker id and the
last completed step; with ``max_restarts > 0`` the crashed worker is
respawned (bounded), its copies report a truncating terminal
(``done=True``, zero reward) for the lost step, and collection
continues.  :meth:`close` tears down workers and unlinks the shared
segment, leaving nothing behind in ``/dev/shm``.

Workers require the ``fork`` start method (the shared views and env
factories are inherited, not pickled), which is the default on Linux.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..shm import attach_unlink_guard, release_segment
from .batched import serial_vector_env
from .environment import MultiAgentEnv

__all__ = ["ParallelVectorEnv", "WorkerCrashError"]

#: recognizable shared-memory name prefix (leak checks key on it)
SHM_PREFIX = "repro_penv_"

_CMD_RESET = "reset"
_CMD_STEP = "step"
_CMD_CLOSE = "close"


class WorkerCrashError(RuntimeError):
    """A rollout worker died or stopped responding.

    Attributes
    ----------
    worker_id:
        Index of the crashed worker.
    last_step:
        Number of fully completed vector steps before the crash.
    """

    def __init__(self, worker_id: int, last_step: int, reason: str = "died") -> None:
        self.worker_id = worker_id
        self.last_step = last_step
        super().__init__(
            f"rollout worker {worker_id} {reason} "
            f"(last completed step: {last_step})"
        )


def _field_offsets(dims: Sequence[int]) -> List[int]:
    """Start column of each agent's block in a concatenated field array."""
    out, offset = [], 0
    for d in dims:
        out.append(offset)
        offset += d
    return out


def _worker_main(
    worker_id: int,
    factories: Sequence[Callable[[], MultiAgentEnv]],
    row_start: int,
    act_block: np.ndarray,
    rew_done_block: np.ndarray,
    obs_block: np.ndarray,
    act_offsets: Sequence[int],
    obs_offsets: Sequence[int],
    conn,
) -> None:
    """Worker loop: step this worker's slice of the copies against the
    shared blocks — one engine call plus N per-agent block writes per
    command.

    Runs in a forked child; the numpy views alias the parent's shared
    segment, so writes land directly in the parent's address space.
    """
    try:
        # the same serial engine make_vector_env(workers <= 1) returns,
        # over this worker's slice of the copies
        vec = serial_vector_env(factories)
        num_agents = vec.num_agents
        rows = slice(row_start, row_start + vec.num_envs)

        def publish(obs) -> None:
            for a, o in enumerate(obs_offsets):
                obs_block[rows, o : o + vec.obs_dims[a]] = obs[a]

        while True:
            cmd = conn.recv()
            if cmd == _CMD_RESET:
                publish(vec.reset())
                conn.send(("ok", None))
            elif cmd == _CMD_STEP:
                actions = [
                    act_block[rows, o : o + vec.act_dims[a]]
                    for a, o in enumerate(act_offsets)
                ]
                # the observations written are the post-(auto-)reset ones;
                # rewards and done flags belong to the terminating step
                obs, rewards, dones, infos = vec.step(actions)
                rew_done_block[rows, :num_agents] = rewards
                rew_done_block[rows, num_agents:] = dones
                publish(obs)
                conn.send(("ok", infos))
            elif cmd == _CMD_CLOSE:
                conn.send(("ok", None))
                return
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown command {cmd!r}"))
                return
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        return
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class ParallelVectorEnv:
    """K lock-step environment copies partitioned over worker processes.

    Parameters
    ----------
    factories:
        One zero-argument :class:`MultiAgentEnv` factory per copy (seeds
        should differ per copy); copy ``k`` keeps index ``k`` regardless
        of which worker steps it.
    num_workers:
        Worker process count (clamped to the copy count).
    max_restarts:
        Crashed-worker restart budget.  ``0`` (default) surfaces every
        crash as :class:`WorkerCrashError`; ``n > 0`` respawns up to
        ``n`` crashed workers, reporting a truncating terminal for the
        lost step on the affected copies.
    step_timeout:
        Seconds to wait for a worker's step before declaring it hung.
    """

    def __init__(
        self,
        factories: Sequence[Callable[[], MultiAgentEnv]],
        num_workers: int = 2,
        max_restarts: int = 0,
        step_timeout: float = 60.0,
    ) -> None:
        if not factories:
            raise ValueError("ParallelVectorEnv needs at least one environment factory")
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if step_timeout <= 0:
            raise ValueError(f"step_timeout must be positive, got {step_timeout}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ParallelVectorEnv requires the 'fork' start method (workers "
                "inherit shared views and env factories); use SyncVectorEnv "
                "on platforms without fork"
            )
        self._ctx = get_context("fork")
        self._factories = list(factories)
        self.num_envs = len(self._factories)
        self.num_workers = min(int(num_workers), self.num_envs)
        self.max_restarts = int(max_restarts)
        self.step_timeout = float(step_timeout)
        self.restarts = 0

        # probe one copy for the spaces (discarded; workers build their own)
        probe = self._factories[0]()
        self.num_agents = probe.num_agents
        self.obs_dims = list(probe.obs_dims)
        self.act_dims = list(probe.act_dims)
        del probe
        self._act_offsets = _field_offsets(self.act_dims)
        self._obs_offsets = _field_offsets(self.obs_dims)
        self._act_total = sum(self.act_dims)
        self._obs_total = sum(self.obs_dims)

        # one shared segment: action block | reward/done block | obs block
        k = self.num_envs
        act_n = k * self._act_total
        rew_done_n = k * 2 * self.num_agents
        obs_n = k * self._obs_total
        nbytes = (act_n + rew_done_n + obs_n) * 8
        self._shm: Optional[shared_memory.SharedMemory] = shared_memory.SharedMemory(
            create=True, size=nbytes, name=f"{SHM_PREFIX}{os.getpid()}_{id(self):x}"
        )
        # finalizer guard: the segment unlinks at GC / interpreter exit
        # even when close() is never reached (crash mid-collection)
        self._shm_guard = attach_unlink_guard(self._shm)
        flat = np.ndarray((nbytes // 8,), dtype=np.float64, buffer=self._shm.buf)
        flat[:] = 0.0
        self._act_block = flat[:act_n].reshape(k, self._act_total)
        self._rew_done_block = flat[act_n : act_n + rew_done_n].reshape(
            k, 2 * self.num_agents
        )
        self._obs_block = flat[act_n + rew_done_n :].reshape(k, self._obs_total)

        # contiguous copy partition -> fixed reduction order
        splits = np.array_split(np.arange(self.num_envs), self.num_workers)
        self._worker_rows: List[Tuple[int, int]] = [
            (int(rows[0]), int(rows[-1]) + 1) for rows in splits
        ]
        self._procs: List[Optional[object]] = [None] * self.num_workers
        self._conns: List[Optional[object]] = [None] * self.num_workers
        for w in range(self.num_workers):
            self._spawn_worker(w)
        self._steps_done = 0
        self._was_reset = False
        self._timer = None
        self._telemetry = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def _spawn_worker(self, worker_id: int) -> None:
        start, stop = self._worker_rows[worker_id]
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._factories[start:stop],
                start,
                self._act_block,
                self._rew_done_block,
                self._obs_block,
                self._act_offsets,
                self._obs_offsets,
                child_conn,
            ),
            daemon=True,
            name=f"rollout-worker-{worker_id}",
        )
        proc.start()
        child_conn.close()
        self._procs[worker_id] = proc
        self._conns[worker_id] = parent_conn

    def attach_timer(self, timer) -> None:
        """Report ``env_step.worker_wait`` into ``timer`` (see phases)."""
        self._timer = timer

    def attach_telemetry(self, recorder) -> None:
        """Emit worker lifecycle events as typed telemetry records.

        Worker-wait durations already flow through the attached timer
        (``env_step.worker_wait`` counter samples); this adds explicit
        ``env_step.worker_restart`` counters, one per bounded respawn,
        tagged with the restarted worker id.
        """
        if recorder is not None and not recorder.enabled:
            recorder = None
        self._telemetry = recorder

    def close(self) -> None:
        """Shut workers down and unlink the shared-memory segment.

        Idempotent; guarantees no leaked ``/dev/shm`` entries even after
        a worker crash.
        """
        if self._closed:
            return
        self._closed = True
        for w, conn in enumerate(self._conns):
            proc = self._procs[w]
            if conn is None or proc is None:
                continue
            try:
                if proc.is_alive():
                    conn.send(_CMD_CLOSE)
            except (BrokenPipeError, OSError):
                pass
        for w, proc in enumerate(self._procs):
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
            conn = self._conns[w]
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._procs[w] = None
            self._conns[w] = None
        if self._shm is not None:
            # drop views before closing the mapping
            self._act_block = self._rew_done_block = self._obs_block = None
            release_segment(self._shm, self._shm_guard)
            self._shm = None
            self._shm_guard = None

    def __enter__(self) -> "ParallelVectorEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    @property
    def shm_name(self) -> Optional[str]:
        """Backing segment name (None once closed)."""
        return self._shm.name if self._shm is not None else None

    # -- protocol helpers ------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("ParallelVectorEnv is closed")

    def _recv(self, worker_id: int):
        """Receive one ack from a worker, detecting death and hangs."""
        conn = self._conns[worker_id]
        proc = self._procs[worker_id]
        deadline = time.perf_counter() + self.step_timeout
        while True:
            try:
                if conn.poll(0.02):
                    return conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                raise WorkerCrashError(worker_id, self._steps_done) from None
            if not proc.is_alive():
                raise WorkerCrashError(worker_id, self._steps_done)
            if time.perf_counter() > deadline:
                raise WorkerCrashError(
                    worker_id, self._steps_done, reason="timed out"
                )

    def _broadcast(self, cmd: str) -> None:
        for w in range(self.num_workers):
            try:
                self._conns[w].send(cmd)
            except (BrokenPipeError, OSError):
                raise WorkerCrashError(w, self._steps_done) from None

    def _restart_worker(self, worker_id: int) -> None:
        """Respawn a crashed worker and reset its env copies."""
        proc = self._procs[worker_id]
        if proc is not None:
            if proc.is_alive():  # pragma: no cover - hung, not dead
                proc.terminate()
            proc.join(timeout=2.0)
        conn = self._conns[worker_id]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._spawn_worker(worker_id)
        self.restarts += 1
        if self._telemetry is not None:
            self._telemetry.counter(
                "env_step.worker_restart", float(worker_id), unit="worker_id"
            )
        self._conns[worker_id].send(_CMD_RESET)
        self._recv(worker_id)

    # -- API (mirrors SyncVectorEnv) -------------------------------------------

    def reset(self) -> List[np.ndarray]:
        """Reset every copy; returns per-agent stacked observations."""
        self._require_open()
        self._broadcast(_CMD_RESET)
        for w in range(self.num_workers):
            self._recv(w)
        self._was_reset = True
        return self._stacked_obs()

    def step(
        self, actions: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, List[dict]]:
        """Step every copy with batched per-agent actions.

        Same contract as :meth:`SyncVectorEnv.step`: per-agent stacked
        observations (post-auto-reset), rewards/dones of shape
        ``(num_envs, num_agents)``, one info dict per copy.
        """
        self._require_open()
        if not self._was_reset:
            raise RuntimeError("call reset() before step()")
        if len(actions) != self.num_agents:
            raise ValueError(
                f"expected {self.num_agents} per-agent action arrays, got {len(actions)}"
            )
        for a, arr in enumerate(actions):
            arr = np.asarray(arr)
            if arr.shape[0] != self.num_envs:
                raise ValueError(f"each action array must have {self.num_envs} rows")
            off = self._act_offsets[a]
            self._act_block[:, off : off + self.act_dims[a]] = arr
        crashed: List[int] = []
        for w in range(self.num_workers):
            try:
                self._conns[w].send(_CMD_STEP)
            except (BrokenPipeError, OSError):
                if self.restarts + len(crashed) >= self.max_restarts:
                    raise WorkerCrashError(w, self._steps_done) from None
                crashed.append(w)
        infos: List[Optional[dict]] = [None] * self.num_envs
        wait_start = time.perf_counter()
        for w in range(self.num_workers):
            if w in crashed:
                continue
            try:
                _status, worker_infos = self._recv(w)
            except WorkerCrashError:
                if self.restarts + len(crashed) >= self.max_restarts:
                    raise
                crashed.append(w)
                continue
            start, stop = self._worker_rows[w]
            for k, info in zip(range(start, stop), worker_infos):
                infos[k] = info
        if self._timer is not None:
            self._timer.add("env_step.worker_wait", time.perf_counter() - wait_start)
        for w in crashed:
            self._recover_crashed_worker(w)
            start, stop = self._worker_rows[w]
            for k in range(start, stop):
                infos[k] = {"restarted_worker": w}
        self._steps_done += 1
        rewards = np.array(self._rew_done_block[:, : self.num_agents])
        dones = self._rew_done_block[:, self.num_agents :] > 0.5
        return self._stacked_obs(), rewards, dones, infos

    def _recover_crashed_worker(self, worker_id: int) -> None:
        """Bounded restart: respawn and report a truncating terminal.

        The crashed worker's copies lose their in-flight step: they
        report reward 0, ``done=True`` and the post-restart reset
        observation, so — with the caller's own pre-step observation and
        sent action — training sees a clean truncated episode instead of
        torn data.
        """
        start, stop = self._worker_rows[worker_id]
        self._restart_worker(worker_id)
        self._rew_done_block[start:stop, : self.num_agents] = 0.0
        self._rew_done_block[start:stop, self.num_agents :] = 1.0

    # -- internals ---------------------------------------------------------------

    def _stacked_obs(self) -> List[np.ndarray]:
        """Per-agent (K, obs_dim) copies of the shared observation block."""
        return [
            np.array(self._obs_block[:, o : o + d])
            for o, d in zip(self._obs_offsets, self.obs_dims)
        ]
