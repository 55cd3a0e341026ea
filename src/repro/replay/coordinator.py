"""Multi-learner coordination over the replay service.

:class:`MultiLearnerCoordinator` partitions the N agents across L forked
learner processes (learner ``l`` owns agents ``l, l+L, l+2L, ...``).
Each learner repeatedly: polls peers' latest actor/target-actor
snapshots from the parameter store, pulls one joint mini-batch from the
replay service, runs the trainer's own update round on it
(``trainer._injected_round(batch, owned)`` — the scalar round over the
owned partition, the mini-batch *injected* instead of drawn from the
trainer's local replay), and publishes its owned agents' new snapshots —
free-running, with no barrier against the rollout producer or the other
learners.  Cross-partition coupling rides entirely on the parameter
store: the TD target for agent ``i`` consumes every agent's target
actor, which is exactly the broadcast payload
(:func:`~repro.replay.params.agent_param_arrays`).

At stop, each learner ships its owned agents' full network parameters
and its phase-timer totals back over a pipe; the coordinator merges the
parameters into the parent trainer and the timings into the parent's
telemetry (under a ``learner.`` phase prefix).  Optimizer moments stay
learner-local — documented as the merge boundary.
"""

from __future__ import annotations

import time
from multiprocessing import get_context
from typing import Dict, List

import numpy as np

from ..core.batch import AgentBatch, MiniBatch
from .params import ParameterSubscriber, agent_param_arrays

__all__ = ["MultiLearnerCoordinator", "minibatch_from_rows"]

#: networks a learner ships home at stop (present ones only; MATD3 twins)
_NET_NAMES = (
    "actor",
    "critic",
    "target_actor",
    "target_critic",
    "critic2",
    "target_critic2",
)


def minibatch_from_rows(schema, rows: np.ndarray) -> MiniBatch:
    """Wrap service-pulled packed rows as the trainers' batch container.

    Indices are positional (the service already resolved shard-local
    ring indices); they exist only to satisfy the container contract —
    service mode never routes through priority write-back.
    """
    fields = schema.split_batch(rows)
    return MiniBatch(
        agents=[AgentBatch.from_fields(f) for f in fields],
        indices=np.arange(rows.shape[0], dtype=np.int64),
        weights=None,
        runs=[],
    )


def _agent_state(agent) -> Dict[str, List[np.ndarray]]:
    state = {}
    for name in _NET_NAMES:
        net = getattr(agent, name, None)
        if net is not None:
            state[name] = [p.value.copy() for p in net.parameters()]
    return state


def _apply_agent_state(agent, state: Dict[str, List[np.ndarray]]) -> None:
    for name, values in state.items():
        net = getattr(agent, name)
        for param, value in zip(net.parameters(), values):
            np.copyto(param.value, value)


def _learner_main(
    learner_id: int,
    trainer,
    pull,
    store,
    owned: List[int],
    peers: List[int],
    batch_size: int,
    warmup: int,
    stop_event,
    conn,
    seed: int,
) -> None:
    """Learner loop (forked child): poll params → pull batch → update → publish."""
    try:
        # decorrelate this learner's exploration/smoothing noise stream
        trainer.rng = np.random.default_rng(seed + learner_id)
        subscriber = ParameterSubscriber(
            store, {p: agent_param_arrays(trainer.agents[p]) for p in peers}
        )
        rounds = 0
        busy_seconds = 0.0
        start = time.perf_counter()
        q_loss = p_loss = 0.0
        while not stop_event.is_set():
            if pull.total_size() < warmup:
                pull.refresh_sizes()
                if pull.total_size() < warmup:
                    time.sleep(0.005)
                    continue
            t0 = time.perf_counter()
            subscriber.poll()
            rows = pull.sample_rows(batch_size)
            batch = minibatch_from_rows(trainer.replay.schema, rows)
            losses = trainer._injected_round(batch, owned)
            for p in owned:
                store.publish(p, agent_param_arrays(trainer.agents[p]))
            rounds += 1
            busy_seconds += time.perf_counter() - t0
            q_loss, p_loss = losses["q_loss"], losses["p_loss"]
        wall = max(time.perf_counter() - start, 1e-12)
        staleness = subscriber.staleness or [0]
        conn.send(
            (
                "done",
                {
                    "learner": learner_id,
                    "rounds": rounds,
                    "busy_seconds": busy_seconds,
                    "wall_seconds": wall,
                    "utilization": busy_seconds / wall,
                    "pull_rows": pull.rows_pulled,
                    "pull_wait_seconds": pull.wait_seconds,
                    "staleness_mean": float(np.mean(staleness)),
                    "staleness_max": int(np.max(staleness)),
                    "last_q_loss": q_loss,
                    "last_p_loss": p_loss,
                    "phase_totals": trainer.timer.totals(),
                    "params": {i: _agent_state(trainer.agents[i]) for i in owned},
                },
            )
        )
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass


class MultiLearnerCoordinator:
    """Partitions agents across L learner processes and merges results."""

    def __init__(
        self,
        trainer,
        service,
        store,
        num_learners: int,
        seed: int = 0,
    ) -> None:
        if num_learners < 1:
            raise ValueError(f"num_learners must be >= 1, got {num_learners}")
        if num_learners > trainer.num_agents:
            num_learners = trainer.num_agents
        self.trainer = trainer
        self.service = service
        self.store = store
        self.num_learners = int(num_learners)
        self.batch_size = trainer.config.batch_size
        self.warmup = max(trainer.config.warmup, self.batch_size)
        self.seed = int(seed)
        #: learner l owns agents l, l+L, l+2L, ...
        self.partitions: List[List[int]] = [
            list(range(l, trainer.num_agents, self.num_learners))
            for l in range(self.num_learners)
        ]
        self._ctx = get_context("fork")
        self._stop = self._ctx.Event()
        self._procs: List = []
        self._conns: List = []
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Publish the initial snapshot and fork the learners."""
        if self._started:
            raise RuntimeError("coordinator already started")
        self._started = True
        # version-1 baseline so every subscriber starts from the same nets
        for p in range(self.trainer.num_agents):
            self.store.publish(p, agent_param_arrays(self.trainer.agents[p]))
        for l in range(self.num_learners):
            owned = self.partitions[l]
            peers = [p for p in range(self.trainer.num_agents) if p not in owned]
            pull = self.service.pull_client(l)
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_learner_main,
                args=(
                    l,
                    self.trainer,
                    pull,
                    self.store,
                    owned,
                    peers,
                    self.batch_size,
                    self.warmup,
                    self._stop,
                    child_conn,
                    self.seed,
                ),
                daemon=True,
                name=f"learner-{l}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def stop(self, timeout: float = 60.0) -> Dict:
        """Signal stop, collect every learner's result, merge, report.

        Parameter merge: each owned agent's full networks overwrite the
        parent trainer's copies (per-agent ownership is disjoint, so the
        merge is conflict-free).  Adam moments are not merged — resuming
        serial training after a service run restarts optimizer state,
        exactly like loading a parameter-only checkpoint.
        """
        if not self._started:
            raise RuntimeError("coordinator never started")
        self._stop.set()
        reports: List[Dict] = []
        errors: List[str] = []
        for l, (proc, conn) in enumerate(zip(self._procs, self._conns)):
            payload = None
            if conn.poll(timeout):
                try:
                    status, payload = conn.recv()
                except EOFError:
                    status, payload = "error", f"learner {l} died without a report"
            else:  # pragma: no cover - stuck learner
                status, payload = "error", f"learner {l} did not report in {timeout}s"
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck learner
                proc.terminate()
                proc.join(timeout=2.0)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            if status == "done":
                reports.append(payload)
            else:
                errors.append(str(payload))
        if errors:
            raise RuntimeError("learner failure: " + "; ".join(errors))
        total_rounds = 0
        for report in reports:
            for agent_idx, state in report["params"].items():
                _apply_agent_state(self.trainer.agents[agent_idx], state)
            total_rounds += report["rounds"]
            for phase, seconds in report["phase_totals"].items():
                self.trainer.timer.add(f"learner.{phase}", seconds)
        self.trainer.update_rounds += total_rounds
        wall = max((r["wall_seconds"] for r in reports), default=1e-12)
        busy = sum(r["busy_seconds"] for r in reports)
        return {
            "learners": reports,
            "rounds": total_rounds,
            "rows_pulled": sum(r["pull_rows"] for r in reports),
            "sampled_rows_per_s": sum(r["pull_rows"] for r in reports) / wall,
            "utilization": busy / (wall * max(len(reports), 1)),
            "staleness_mean": float(
                np.mean([r["staleness_mean"] for r in reports] or [0.0])
            ),
            "staleness_max": int(max((r["staleness_max"] for r in reports), default=0)),
        }
