"""The benchmark's workloads and the one production configuration they share.

Imported by the orchestrator (which must not import numpy: it pins the
BLAS thread count in the *child* environment) and by the worker, so the
``repro``/numpy imports live inside the functions that need them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: The fast single-process stack, spelled once.  Applied only for fields
#: ``MARLConfig`` still has (see :func:`production_config`), so a later
#: PR that folds a flag into the default does not break the benchmark.
PRODUCTION_FLAGS: Dict[str, Any] = {
    "fast_path": True,
    "batched_update": True,
    "storage": "timestep_major",
    "backend": "numpy",
    "env_workers": 0,
    "prefetch": False,
    "replay_shards": 1,
    "learners": 1,
    "batch_size": 1024,
    "buffer_capacity": 1_000_000,
}

#: env copies stepped per sweep (an argument of ``make_vector_env``, not
#: a config field)
COPIES = 8

#: synthetic prefill is ingested in chunks of this many rows
PREFILL_CHUNK = 8192


@dataclass(frozen=True)
class Workload:
    """One closed-loop training cell: a single process, a single thread."""

    name: str
    why: str
    algorithm: str
    scenario: str
    agents: int
    sampler: str
    update_every: int
    prefill_rows: int
    warmup_sweeps: int  # one untimed train_steps call; also makes setup_s long enough to repeat
    sweeps_per_window: int
    windows_per_pass: int
    batch_size: int = PRODUCTION_FLAGS["batch_size"]
    buffer_capacity: int = PRODUCTION_FLAGS["buffer_capacity"]

    @property
    def steps_per_window(self) -> int:
        return self.sweeps_per_window * COPIES

    @property
    def probe_key(self) -> Tuple[str, str, str]:
        """The (algorithm, sampler, scenario) triple ``check.reference_match`` probes."""
        return (self.algorithm, self.sampler, self.scenario)


# A window is a whole number of update cadences (lcm(COPIES, update_every)
# env steps) and, for MATD3's delayed policy, an even number of rounds, so
# every window does identical work.  Windows are kept short (0.2-3 s): the
# shared host slows down in bursts of a few seconds, and a median over many
# short windows shrugs a burst off where a median over three long ones moves.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_n3",
            why="Paper geometry at N=3: per-call Python overhead dominates; "
            "env step and update round each take about half the wall.",
            algorithm="maddpg", scenario="cooperative_navigation", agents=3,
            sampler="baseline", update_every=100, prefill_rows=65_536,
            warmup_sweeps=250, sweeps_per_window=50, windows_per_pass=40,
        ),
        Workload(
            name="paper_n12",
            why="Headline N=12 cell: the O(E^2) Python env step is most of the "
            "wall, so this is the rollout-bound workload.",
            algorithm="maddpg", scenario="cooperative_navigation", agents=12,
            sampler="baseline", update_every=100, prefill_rows=32_768,
            warmup_sweeps=25, sweeps_per_window=25, windows_per_pass=6,
        ),
        Workload(
            name="learner_n6",
            why="MATD3 on predator_prey with one update round per sweep: the "
            "learner-bound workload, and the only one on the second algorithm.",
            algorithm="matd3", scenario="predator_prey", agents=6,
            sampler="baseline", update_every=8, prefill_rows=65_536,
            warmup_sweeps=25, sweeps_per_window=6, windows_per_pass=16,
        ),
        Workload(
            name="per_n6",
            why="Information-prioritized replay: sum-tree writes on ingest, tree "
            "descents on every draw and priority write-back after every update.",
            algorithm="maddpg", scenario="cooperative_navigation", agents=6,
            sampler="info_prioritized", update_every=8, prefill_rows=65_536,
            warmup_sweeps=25, sweeps_per_window=6, windows_per_pass=16,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """Scale a workload down so the whole benchmark runs in seconds.

    Keeps the algorithm, scenario, sampler and cadence (so every code
    path is still exercised); shrinks N to at most 6, B to 128, the
    prefill to 4 096 rows in a 16 384-row ring, and a pass to 2 windows
    of 10 sweeps (paper cadence: 25 sweeps, the smallest whole number of
    cadences).
    """
    return dataclasses.replace(
        w,
        agents=min(w.agents, 6),
        batch_size=128,
        buffer_capacity=16_384,
        prefill_rows=4096,
        warmup_sweeps=10,
        sweeps_per_window=25 if w.update_every == 100 else 10,
        windows_per_pass=2,
    )


def expected_rounds(w: Workload, windows: int) -> int:
    """Update rounds the cadence implies for ``windows`` timed windows.

    The replay is prefilled past the warm-up threshold and a window is a
    whole number of cadences, so the trigger fires exactly every
    ``update_every`` stored transitions.
    """
    if w.steps_per_window % w.update_every:
        raise ValueError(
            f"{w.name}: window of {w.steps_per_window} steps is not a whole "
            f"number of update_every={w.update_every} cadences"
        )
    return windows * w.steps_per_window // w.update_every


def production_config(w: Workload):
    """``(MARLConfig, applied)`` for a workload.

    ``applied`` is the subset of the production flags (plus the
    workload's cadence) that ``MARLConfig`` still has a field for; it is
    echoed in the results as ``config_applied``.
    """
    from repro.algos.config import MARLConfig

    wanted = dict(
        PRODUCTION_FLAGS, batch_size=w.batch_size,
        buffer_capacity=w.buffer_capacity, update_every=w.update_every,
    )
    fields = {f.name for f in dataclasses.fields(MARLConfig)}
    applied = {k: v for k, v in wanted.items() if k in fields}
    return dataclasses.replace(MARLConfig(), **applied), applied


def build(w: Workload, config, seed: int):
    """``(vec_env, trainer)`` for a workload under ``config``."""
    from repro.algos.variants import build_trainer
    from repro.envs.factory import make_vector_env

    vec_env = make_vector_env(
        w.scenario, num_agents=w.agents, copies=COPIES, seed=seed,
        workers=getattr(config, "env_workers", 0),
    )
    trainer = build_trainer(
        w.algorithm, w.sampler, vec_env.obs_dims, vec_env.act_dims,
        config=config, seed=seed,
    )
    return vec_env, trainer


def prefill(trainer, rows: int, seed: int) -> None:
    """Fill the replay with synthetic rows drawn from ``seed``.

    Standard-normal observations, one-hot actions, N(0,1) rewards, 4 %
    dones — the shapes ``repro.experiments.fill_replay`` uses, ingested
    through the trainer's own ``experience_batch`` so prioritized trees
    and cadence counters are populated the way real collection would.
    A large filled region matters: the batched engine dedups overlapping
    rows, so a small one understates target-Q cost.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    obs_dims, act_dims = trainer.obs_dims, trainer.act_dims
    done = 0
    while done < rows:
        k = min(PREFILL_CHUNK, rows - done)
        trainer.experience_batch(
            [rng.standard_normal((k, d)) for d in obs_dims],
            [np.eye(a)[rng.integers(a, size=k)] for a in act_dims],
            [rng.standard_normal(k) for _ in obs_dims],
            [rng.standard_normal((k, d)) for d in obs_dims],
            [(rng.random(k) < 0.04).astype(np.float64) for _ in obs_dims],
        )
        done += k
    # One round now, so the cadence counter restarts at zero and every
    # later sweep's rows land in one ingest call, as they do in a run
    # that filled its replay by collecting.
    if trainer.update() is None:
        raise RuntimeError("prefill did not arm the update cadence")
