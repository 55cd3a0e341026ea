"""Memory-hierarchy simulator — the reproduction's stand-in for ``perf``.

Trace-driven set-associative caches (L1d/L2/L3), a dTLB, and a stride
prefetcher replay the samplers' actual address streams over models of
the agent-major and timestep-major storage layouts; analytic estimators
supply the instruction/branch/iTLB counters.  Together they regenerate
the paper's Figure 4 growth rates and the §VI-A cache-miss reductions.
"""

from .address_map import AgentMajorAddressMap, Region, TimestepMajorAddressMap
from .cache import CacheConfig, CacheStats, SetAssociativeCache
from .counters import CounterEstimate, CounterModel
from .hierarchy import AccessCounts, HierarchyConfig, MemoryHierarchy
from .prefetcher import PrefetcherConfig, StridePrefetcher
from .report import GrowthTable, growth_rates, reduction_percent
from .sweeps import (
    SweepPoint,
    cache_capacity_sweep,
    prefetcher_degree_sweep,
    working_set_sweep,
)
from .tlb import TLB, TLBConfig, TLBStats
from .trace import (
    buffer_write_trace,
    kv_gather_trace,
    make_agent_major_map,
    trainer_gather_trace,
    update_round_trace,
)

__all__ = [
    "SetAssociativeCache",
    "CacheConfig",
    "CacheStats",
    "TLB",
    "TLBConfig",
    "TLBStats",
    "StridePrefetcher",
    "PrefetcherConfig",
    "MemoryHierarchy",
    "HierarchyConfig",
    "AccessCounts",
    "AgentMajorAddressMap",
    "TimestepMajorAddressMap",
    "Region",
    "CounterModel",
    "CounterEstimate",
    "growth_rates",
    "reduction_percent",
    "GrowthTable",
    "SweepPoint",
    "prefetcher_degree_sweep",
    "cache_capacity_sweep",
    "working_set_sweep",
    "trainer_gather_trace",
    "update_round_trace",
    "kv_gather_trace",
    "buffer_write_trace",
    "make_agent_major_map",
]
