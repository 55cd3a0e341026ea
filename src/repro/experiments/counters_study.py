"""Hardware-counter study (Figure 4 and the §VI-A cache-miss claims).

Replays sampling-phase address traces through the memory-hierarchy
simulator for each agent count and sampling pattern, combining the
simulated data-side events with the analytic instruction/branch/iTLB
estimates into one counter profile per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..buffers.transition import JointSchema
from ..core.indices import Run, expand_runs
from ..memsim.address_map import AgentMajorAddressMap, TimestepMajorAddressMap
from ..memsim.counters import CounterModel
from ..memsim.hierarchy import HierarchyConfig, MemoryHierarchy
from ..memsim.trace import kv_gather_trace, update_round_trace

__all__ = ["CounterProfile", "simulate_sampling_counters", "env_obs_dims"]


@dataclass(frozen=True)
class CounterProfile:
    """Combined simulated + estimated counters for one configuration."""

    num_agents: int
    pattern: str
    counters: Dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.counters[key]


def env_obs_dims(env_name: str, num_agents: int) -> List[int]:
    """Learning agents' observation dims for a paper environment.

    Computed from the scenario formulas (no world construction needed),
    so counter studies can model 48-agent setups instantly.
    """
    if env_name in ("predator_prey", "simple_tag"):
        from ..envs.scenarios.predator_prey import default_prey_counts

        num_prey, num_landmarks = default_prey_counts(num_agents)
        total = num_agents + num_prey
        # predator obs: vel(2)+pos(2)+landmarks(2L)+others(2(total-1))+prey vels(2*prey)
        dim = 2 + 2 + 2 * num_landmarks + 2 * (total - 1) + 2 * num_prey
        return [dim] * num_agents
    if env_name in ("cooperative_navigation", "simple_spread"):
        return [6 * num_agents] * num_agents
    raise KeyError(f"unknown environment {env_name!r}")


def _round_trace(
    address_map: AgentMajorAddressMap,
    rng: np.random.Generator,
    valid_size: int,
    batch_size: int,
    num_trainers: int,
    runs_spec: Optional[Sequence[int]] = None,
):
    """Per-trainer index arrays for one update round (fresh per trainer)."""
    per_trainer = []
    for _ in range(num_trainers):
        if runs_spec is None:
            per_trainer.append(rng.integers(0, valid_size, size=batch_size))
        else:
            neighbors, refs = runs_spec
            starts = rng.integers(0, valid_size, size=refs)
            runs = [Run(int(s), neighbors) for s in starts]
            per_trainer.append(expand_runs(runs, valid_size))
    return update_round_trace(address_map, per_trainer)


def simulate_sampling_counters(
    obs_dims: Sequence[int],
    act_dims: Sequence[int],
    capacity: int,
    batch_size: int,
    pattern: str = "random",
    neighbors: int = 16,
    refs: int = 64,
    seed: int = 0,
    hierarchy: Optional[HierarchyConfig] = None,
    counter_model: Optional[CounterModel] = None,
) -> CounterProfile:
    """Simulate one update round's sampling phase for a storage pattern.

    Patterns: ``random`` (baseline), ``cache_aware`` (n-neighbor runs),
    ``kv`` (timestep-major packed store).  ``capacity`` is the occupied
    region the indices range over (working-set size).
    """
    if pattern not in ("random", "cache_aware", "kv"):
        raise ValueError(f"unknown pattern {pattern!r}")
    if pattern == "cache_aware" and neighbors * refs != batch_size:
        raise ValueError(
            f"neighbors ({neighbors}) * refs ({refs}) != batch_size ({batch_size})"
        )
    schema = JointSchema.from_dims(list(obs_dims), list(act_dims))
    n = schema.num_agents
    rng = np.random.default_rng(seed)
    sim = MemoryHierarchy(hierarchy)
    if pattern == "kv":
        tmap = TimestepMajorAddressMap(schema, capacity)
        # one O(m) gather serves all trainers; each trainer still draws
        # its own indices in the real loop, so simulate n gathers of m rows
        def kv_round():
            for _ in range(n):
                yield from kv_gather_trace(
                    tmap, rng.integers(0, capacity, size=batch_size)
                )

        counts = sim.run(kv_round())
        rows_per_trainer = batch_size  # one packed row serves all agents
    else:
        amap = AgentMajorAddressMap(schema, capacity)
        runs_spec = (neighbors, refs) if pattern == "cache_aware" else None
        counts = sim.run(
            _round_trace(amap, rng, capacity, batch_size, n, runs_spec)
        )
        rows_per_trainer = n * batch_size
    model = counter_model if counter_model is not None else CounterModel()
    estimate = model.estimate(
        num_trainers=n,
        num_agents=1 if pattern == "kv" else n,
        batch_rows=batch_size,
        memory=counts,
    )
    counters: Dict[str, float] = dict(counts.as_dict())
    counters.update(
        instructions=float(estimate.instructions),
        branches=float(estimate.branches),
        branch_misses=float(estimate.branch_misses),
        itlb_misses=float(estimate.itlb_misses),
        rows_per_trainer=float(rows_per_trainer),
    )
    return CounterProfile(num_agents=n, pattern=pattern, counters=counters)
