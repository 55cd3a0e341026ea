"""Parameter sweeps over the memory-hierarchy model.

Sensitivity studies beyond the paper's fixed platform: how the
optimizations' benefit depends on cache capacity, prefetcher
aggressiveness, and replay working-set size.  These quantify the
paper's implicit claims — e.g. that the cache-aware win comes *from*
the prefetcher, and that cache misses "become particularly relevant in
large-scale multi-agent models" (working-set growth).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..buffers.transition import JointSchema
from ..core.indices import Run, expand_runs
from .address_map import AgentMajorAddressMap
from .cache import CacheConfig
from .hierarchy import HierarchyConfig, MemoryHierarchy
from .prefetcher import PrefetcherConfig
from .trace import trainer_gather_trace

__all__ = [
    "SweepPoint",
    "prefetcher_degree_sweep",
    "cache_capacity_sweep",
    "working_set_sweep",
]

KIB = 1024


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's simulated miss counts."""

    parameter: float
    cache_misses: int
    dtlb_misses: int
    prefetch_hits: int

    def render(self, name: str) -> str:
        return (
            f"{name}={self.parameter:<10g} LLC misses {self.cache_misses:>9,} "
            f"dTLB misses {self.dtlb_misses:>9,} prefetch hits {self.prefetch_hits:>9,}"
        )


def _trace_indices(
    rng: np.random.Generator,
    capacity: int,
    batch: int,
    neighbors: Optional[int],
) -> np.ndarray:
    if neighbors is None:
        return rng.integers(0, capacity, size=batch)
    refs = rng.integers(0, capacity, size=batch // neighbors)
    return expand_runs([Run(int(r), neighbors) for r in refs], capacity)


def _simulate(
    schema: JointSchema,
    capacity: int,
    batch: int,
    neighbors: Optional[int],
    hierarchy: HierarchyConfig,
    seed: int = 0,
):
    rng = np.random.default_rng(seed)
    amap = AgentMajorAddressMap(schema, capacity)
    sim = MemoryHierarchy(hierarchy)
    idx = _trace_indices(rng, capacity, batch, neighbors)
    sim.run(trainer_gather_trace(amap, idx))
    return sim


def prefetcher_degree_sweep(
    obs_dims: Sequence[int],
    act_dims: Sequence[int],
    capacity: int = 50_000,
    batch: int = 1024,
    neighbors: int = 64,
    degrees: Sequence[int] = (1, 2, 4, 8),
) -> List[SweepPoint]:
    """Cache-aware sampling misses vs prefetch degree (0 = disabled)."""
    schema = JointSchema.from_dims(list(obs_dims), list(act_dims))
    out: List[SweepPoint] = []
    for degree in degrees:
        if degree <= 0:
            raise ValueError(f"degrees must be positive, got {degree}")
        config = HierarchyConfig(
            prefetcher=PrefetcherConfig(degree=degree)
        )
        sim = _simulate(schema, capacity, batch, neighbors, config)
        counts = sim.snapshot()
        out.append(
            SweepPoint(
                parameter=float(degree),
                cache_misses=counts.cache_misses,
                dtlb_misses=counts.dtlb_misses,
                prefetch_hits=counts.prefetch_hits,
            )
        )
    return out


def _warm_then_measure(
    schema: JointSchema,
    occupancy: int,
    batch: int,
    neighbors: Optional[int],
    hierarchy: HierarchyConfig,
    seed: int = 1,
):
    """Warm the caches with a sequential pass over the full working set,
    then measure a random batch — isolating *capacity* misses from the
    compulsory misses a cold batch is dominated by."""
    amap = AgentMajorAddressMap(schema, occupancy)
    sim = MemoryHierarchy(hierarchy)
    sim.run(trainer_gather_trace(amap, range(occupancy)))  # warm-up pass
    rng = np.random.default_rng(seed)
    idx = _trace_indices(rng, occupancy, batch, neighbors)
    return sim.run(trainer_gather_trace(amap, idx))


def cache_capacity_sweep(
    obs_dims: Sequence[int],
    act_dims: Sequence[int],
    capacity: int = 20_000,
    batch: int = 1024,
    l3_sizes_mib: Sequence[int] = (2, 8, 32),
    neighbors: Optional[int] = None,
) -> List[SweepPoint]:
    """Warm-cache random-sampling misses vs last-level-cache capacity.

    Once the LLC holds the whole replay working set, random gathers stop
    missing; below that, misses scale with the uncovered fraction.
    """
    schema = JointSchema.from_dims(list(obs_dims), list(act_dims))
    out: List[SweepPoint] = []
    base = HierarchyConfig()
    for mib in l3_sizes_mib:
        if mib <= 0:
            raise ValueError(f"cache sizes must be positive, got {mib}")
        config = replace(base, l3=CacheConfig("L3", mib * 1024 * KIB, 64, 16))
        counts = _warm_then_measure(schema, capacity, batch, neighbors, config)
        out.append(
            SweepPoint(
                parameter=float(mib),
                cache_misses=counts.cache_misses,
                dtlb_misses=counts.dtlb_misses,
                prefetch_hits=counts.prefetch_hits,
            )
        )
    return out


def working_set_sweep(
    obs_dims: Sequence[int],
    act_dims: Sequence[int],
    occupancies: Sequence[int] = (2_000, 8_000, 32_000),
    batch: int = 1024,
    neighbors: Optional[int] = None,
    l3_mib: int = 8,
) -> List[SweepPoint]:
    """Warm-cache random-sampling misses vs replay occupancy.

    The paper's key observation 3: cache misses "are indicative of the
    working set sizes" and "become particularly relevant in large-scale
    multi-agent models".  An 8 MiB LLC (configurable) keeps the
    crossover within tractable trace sizes.
    """
    schema = JointSchema.from_dims(list(obs_dims), list(act_dims))
    config = replace(
        HierarchyConfig(), l3=CacheConfig("L3", l3_mib * 1024 * KIB, 64, 16)
    )
    out: List[SweepPoint] = []
    for occupancy in occupancies:
        if occupancy < batch:
            raise ValueError(
                f"occupancy {occupancy} smaller than the batch {batch}"
            )
        counts = _warm_then_measure(schema, occupancy, batch, neighbors, config)
        out.append(
            SweepPoint(
                parameter=float(occupancy),
                cache_misses=counts.cache_misses,
                dtlb_misses=counts.dtlb_misses,
                prefetch_hits=counts.prefetch_hits,
            )
        )
    return out
