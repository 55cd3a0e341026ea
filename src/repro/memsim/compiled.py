"""Array-state memory hierarchy driven by the compiled backend kernels.

:class:`CompiledMemoryHierarchy` replays the same traces as
:class:`~repro.memsim.hierarchy.MemoryHierarchy` but holds the whole
simulator state in flat integer arrays so a single
:func:`~repro.nn.backend.kernels.hierarchy_run` kernel call replays the
entire trace — one Python call per ``run()`` instead of a dict-juggling
inner loop per address.  Under the numba backend the loop jits to native
code; in python mode the same kernel runs un-jitted, which is how the
equivalence contract is tested on machines without numba.

The model is pure integer arithmetic, so this is an *exact* replica,
not an approximation: every counter equals the OrderedDict reference
model access-for-access (``tests/test_memsim_compiled.py`` asserts
equality, not closeness).  The LRU sets become ``(num_sets, assoc)``
tag/stamp arrays ordered by a global monotone tick — min-stamp is LRU —
which reproduces the reference's move-to-end/popitem semantics.

:func:`make_hierarchy` is the backend-aware factory the sweeps and
experiments construct through: the numpy backend (no kernels) returns
the reference simulator unchanged; a kernel-carrying backend returns
the compiled replica.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from ..nn.backend.kernels import EMPTY_TAG
from .hierarchy import AccessCounts, HierarchyConfig, MemoryHierarchy

__all__ = ["CompiledMemoryHierarchy", "make_hierarchy"]


class CompiledMemoryHierarchy:
    """Trace-driven simulator with kernel-replayable array state.

    API-compatible with :class:`MemoryHierarchy` where the repo consumes
    it: ``access``, ``run``, ``snapshot``, ``reset``, and ``config``.
    """

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        kernels=None,
    ) -> None:
        if kernels is None:
            from ..nn.backend import kernel_backend

            kernels = kernel_backend().kernels
        self.config = config if config is not None else HierarchyConfig()
        self._kernels = kernels
        cfg = self.config

        # per-level geometry (python ints; passed straight to the kernel)
        self._l1_line_shift = cfg.l1.line_bytes.bit_length() - 1
        self._l1_set_mask = cfg.l1.num_sets - 1
        self._l2_line_shift = cfg.l2.line_bytes.bit_length() - 1
        self._l2_set_mask = cfg.l2.num_sets - 1
        self._l3_line_shift = cfg.l3.line_bytes.bit_length() - 1
        self._l3_set_mask = cfg.l3.num_sets - 1
        self._tlb_page_shift = cfg.dtlb.page_bytes.bit_length() - 1

        # per-level state: tag arrays (EMPTY_TAG = empty way; -1 is a
        # real tag when a negative-stride prefetch crosses address 0),
        # LRU stamps, and was-prefetched flags
        self._l1_tags = np.full(
            (cfg.l1.num_sets, cfg.l1.associativity), EMPTY_TAG, np.int64
        )
        self._l1_stamp = np.zeros_like(self._l1_tags)
        self._l1_pref = np.zeros(self._l1_tags.shape, np.uint8)
        self._l2_tags = np.full(
            (cfg.l2.num_sets, cfg.l2.associativity), EMPTY_TAG, np.int64
        )
        self._l2_stamp = np.zeros_like(self._l2_tags)
        self._l2_pref = np.zeros(self._l2_tags.shape, np.uint8)
        self._l3_tags = np.full(
            (cfg.l3.num_sets, cfg.l3.associativity), EMPTY_TAG, np.int64
        )
        self._l3_stamp = np.zeros_like(self._l3_tags)
        self._l3_pref = np.zeros(self._l3_tags.shape, np.uint8)
        self._tlb_pages = np.full(cfg.dtlb.entries, -1, np.int64)
        self._tlb_stamp = np.zeros_like(self._tlb_pages)

        # stride prefetcher streams (arrays exist even when disabled so
        # the kernel signature stays uniform; pf_on gates all use)
        pf = cfg.prefetcher
        streams = pf.max_streams if pf is not None else 1
        self._pf_on = 1 if pf is not None else 0
        self._pf_keys = np.full(streams, -1, np.int64)
        self._pf_kstamp = np.zeros(streams, np.int64)
        self._pf_last = np.zeros(streams, np.int64)
        self._pf_stride = np.zeros(streams, np.int64)
        self._pf_has = np.zeros(streams, np.uint8)
        self._pf_conf = np.zeros(streams, np.int64)
        if pf is not None:
            self._pf_line_shift = pf.line_bytes.bit_length() - 1
            self._pf_stream_shift = pf.stream_shift
            self._pf_threshold = pf.train_threshold
            self._pf_degree = pf.degree
        else:
            self._pf_line_shift = 0
            self._pf_stream_shift = 0
            self._pf_threshold = 1
            self._pf_degree = 1

        # global LRU clock and the counter block (layout documented on
        # the kernel: 0=accesses 1=l1 2=l2 3=l3 4=dtlb misses,
        # 5=prefetches issued, 6=l1 prefetch hits, 7=l1 hits)
        self._tick = np.zeros(1, np.int64)
        self._counters = np.zeros(8, np.int64)

    def _run_array(self, trace: np.ndarray) -> None:
        self._kernels.hierarchy_run(
            trace,
            self._l1_tags,
            self._l1_stamp,
            self._l1_pref,
            self._l1_line_shift,
            self._l1_set_mask,
            self._l2_tags,
            self._l2_stamp,
            self._l2_pref,
            self._l2_line_shift,
            self._l2_set_mask,
            self._l3_tags,
            self._l3_stamp,
            self._l3_pref,
            self._l3_line_shift,
            self._l3_set_mask,
            self._tlb_pages,
            self._tlb_stamp,
            self._tlb_page_shift,
            self._pf_on,
            self._pf_keys,
            self._pf_kstamp,
            self._pf_last,
            self._pf_stride,
            self._pf_has,
            self._pf_conf,
            self._pf_line_shift,
            self._pf_stream_shift,
            self._pf_threshold,
            self._pf_degree,
            self._tick,
            self._counters,
        )

    def access(self, address: int) -> None:
        """One demand load (state carried; prefer ``run`` for batches)."""
        self._run_array(np.array([address], dtype=np.int64))

    def run(self, trace: Iterable[int]) -> AccessCounts:
        """Replay a full address trace; returns the delta counters."""
        if isinstance(trace, np.ndarray):
            arr = np.ascontiguousarray(trace, dtype=np.int64)
        else:
            arr = np.fromiter(trace, dtype=np.int64)
        before = self._counters.copy()
        self._run_array(arr)
        delta = self._counters - before
        return AccessCounts(
            accesses=int(delta[0]),
            l1_misses=int(delta[1]),
            l2_misses=int(delta[2]),
            l3_misses=int(delta[3]),
            dtlb_misses=int(delta[4]),
            prefetches_issued=int(delta[5]),
            prefetch_hits=int(delta[6]),
        )

    def snapshot(self) -> AccessCounts:
        """Cumulative counters since construction/reset."""
        c = self._counters
        return AccessCounts(
            accesses=int(c[0]),
            l1_misses=int(c[1]),
            l2_misses=int(c[2]),
            l3_misses=int(c[3]),
            dtlb_misses=int(c[4]),
            prefetches_issued=int(c[5]),
            prefetch_hits=int(c[6]),
        )

    def reset(self) -> None:
        """Invalidate all state and zero counters."""
        for tags in (self._l1_tags, self._l2_tags, self._l3_tags):
            tags.fill(EMPTY_TAG)
        for arr in (
            self._l1_stamp,
            self._l2_stamp,
            self._l3_stamp,
            self._l1_pref,
            self._l2_pref,
            self._l3_pref,
            self._tlb_stamp,
            self._pf_kstamp,
            self._pf_last,
            self._pf_stride,
            self._pf_has,
            self._pf_conf,
        ):
            arr.fill(0)
        self._tlb_pages.fill(-1)
        self._pf_keys.fill(-1)
        self._tick.fill(0)
        self._counters.fill(0)


def make_hierarchy(
    config: Optional[HierarchyConfig] = None,
    backend=None,
) -> Union[MemoryHierarchy, CompiledMemoryHierarchy]:
    """Backend-aware hierarchy factory.

    ``backend`` is a compute-backend name or instance (``None`` is
    numpy), as :func:`~repro.nn.backend.get_backend` takes it.  The numpy
    backend carries no kernels, so callers get the OrderedDict reference
    simulator — behaviour identical to constructing
    :class:`MemoryHierarchy` directly.  Kernel-carrying backends get the
    compiled replica, whose counters are exactly equal by contract.
    """
    from ..nn.backend import get_backend

    resolved = get_backend(backend)
    if resolved.kernels is None:
        return MemoryHierarchy(config)
    return CompiledMemoryHierarchy(config, kernels=resolved.kernels)
