"""Compiled memsim replica: exact counter equality with the reference.

The array-state :class:`CompiledMemoryHierarchy` is pure integer
arithmetic, so its contract against the OrderedDict reference model is
*equality*, not closeness: every counter, on every trace, at every
intermediate ``run()`` boundary.  The tests drive both simulators with
identical traces over geometries small enough to force constant
evictions (the regime where LRU-order bugs surface) plus the default
Table-II geometry, with and without the stride prefetcher.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    CompiledMemoryHierarchy,
    HierarchyConfig,
    MemoryHierarchy,
    make_hierarchy,
)
from repro.memsim.cache import CacheConfig
from repro.memsim.prefetcher import PrefetcherConfig
from repro.memsim.tlb import TLBConfig
from repro.nn.backend import get_backend, kernel_backend
from tests.conftest import ENGINE

#: Kernel set under test: the matrix-selected backend's when it carries
#: one (the numba CI job), python mode otherwise.
KERNELS = get_backend(ENGINE["backend"]).kernels
if KERNELS is None:
    KERNELS = kernel_backend().kernels

#: Tiny geometry: 2-way 32-set L1 etc., so a few thousand addresses
#: exercise hits, misses, evictions, TLB replacement, and stream LRU.
TINY = HierarchyConfig(
    l1=CacheConfig("L1d", 2048, 64, 2),
    l2=CacheConfig("L2", 8192, 64, 4),
    l3=CacheConfig("L3", 32768, 64, 4),
    dtlb=TLBConfig("dTLB", 4, 4096),
    prefetcher=PrefetcherConfig(
        train_threshold=2, degree=3, max_streams=2, stream_shift=12
    ),
)
TINY_NO_PF = HierarchyConfig(
    l1=TINY.l1, l2=TINY.l2, l3=TINY.l3, dtlb=TINY.dtlb, prefetcher=None
)


def _pair(config):
    return MemoryHierarchy(config), CompiledMemoryHierarchy(config, kernels=KERNELS)


def _assert_equal_counts(oracle, compiled, trace):
    ref = oracle.run(int(a) for a in trace)
    got = compiled.run(trace)
    assert ref.as_dict() == got.as_dict()


def _traces(rng, length):
    yield rng.integers(0, 1 << 16, size=length)  # random thrash
    yield np.arange(length, dtype=np.int64) * 64  # pure sequential
    mixed = np.empty(length, dtype=np.int64)  # interleaved streams
    mixed[0::2] = rng.integers(0, 1 << 15, size=len(mixed[0::2]))
    mixed[1::2] = np.arange(len(mixed[1::2]), dtype=np.int64) * 64
    yield mixed


class TestExactEquivalence:
    @pytest.mark.parametrize("config", [TINY, TINY_NO_PF], ids=["pf", "no_pf"])
    def test_counters_equal_on_all_trace_shapes(self, config):
        rng = np.random.default_rng(0)
        for trace in _traces(rng, 3000):
            oracle, compiled = _pair(config)
            _assert_equal_counts(oracle, compiled, trace)

    def test_default_geometry(self):
        rng = np.random.default_rng(1)
        oracle, compiled = _pair(None)
        _assert_equal_counts(oracle, compiled, rng.integers(0, 1 << 24, size=5000))

    @given(seed=st.integers(0, 2**32 - 1), span=st.integers(10, 18))
    @settings(max_examples=15, deadline=None)
    def test_random_traces_property(self, seed, span):
        rng = np.random.default_rng(seed)
        trace = rng.integers(0, 1 << span, size=1500)
        oracle, compiled = _pair(TINY)
        _assert_equal_counts(oracle, compiled, trace)

    def test_state_persists_across_runs(self):
        """Second run() sees the first's cache contents — warm vs cold."""
        rng = np.random.default_rng(2)
        oracle, compiled = _pair(TINY)
        for _ in range(3):
            trace = rng.integers(0, 1 << 14, size=1000)
            _assert_equal_counts(oracle, compiled, trace)
        # cumulative snapshots agree too
        assert oracle.snapshot().as_dict() == compiled.snapshot().as_dict()

    def test_access_matches_run_element_by_element(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 1 << 13, size=200)
        oracle, compiled = _pair(TINY)
        for address in trace:
            oracle.access(int(address))
            compiled.access(int(address))
        assert oracle.snapshot().as_dict() == compiled.snapshot().as_dict()

    def test_reset_restores_cold_state(self):
        rng = np.random.default_rng(4)
        trace = rng.integers(0, 1 << 14, size=1000)
        oracle, compiled = _pair(TINY)
        _assert_equal_counts(oracle, compiled, trace)
        oracle.reset()
        compiled.reset()
        assert compiled.snapshot().as_dict() == oracle.snapshot().as_dict()
        assert compiled.snapshot().accesses == 0
        # post-reset behaviour matches a fresh simulator exactly
        _assert_equal_counts(oracle, compiled, trace)

    def test_trace_accepts_iterables(self):
        oracle, compiled = _pair(TINY)
        ref = oracle.run(range(0, 64 * 100, 64))
        got = compiled.run(range(0, 64 * 100, 64))
        assert ref.as_dict() == got.as_dict()


class TestMakeHierarchy:
    def test_numpy_backend_returns_reference(self):
        sim = make_hierarchy(TINY, backend="numpy")
        assert isinstance(sim, MemoryHierarchy)

    def test_default_is_the_reference(self):
        assert isinstance(make_hierarchy(TINY), MemoryHierarchy)

    def test_kernel_backend_returns_compiled(self):
        sim = make_hierarchy(TINY, backend=kernel_backend())
        assert isinstance(sim, CompiledMemoryHierarchy)

    def test_compiled_factory_matches_reference(self):
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 1 << 14, size=1000)
        ref = make_hierarchy(TINY, backend="numpy").run(int(a) for a in trace)
        got = make_hierarchy(TINY, backend=kernel_backend()).run(trace)
        assert ref.as_dict() == got.as_dict()
