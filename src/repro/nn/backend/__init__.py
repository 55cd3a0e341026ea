"""Pluggable compute backends for the update round and memsim loop.

The repo keeps one numerical reference — the pure-numpy path that is
bit-exact against the paper-faithful scalar loop — and layers optional
compiled execution on top of it:

* ``numpy`` (default): no kernel dispatch at all; every consumer runs
  its existing reference code path untouched.
* ``numba``: fused ``@njit(cache=True, fastmath=False)`` kernels for
  the stacked update round (forward/backward/TD/losses/Adam/Polyak)
  and the memsim trace loop.  Degrades to numpy with a single warning
  when numba is not installed.
* ``python``: the same kernel source executed un-jitted
  (:func:`kernel_backend`) — how the kernel path is certified and
  benchmark-gated on machines without numba.

Trainers select by ``MARLConfig.backend`` (default ``"numpy"``; the
``REPRO_BACKEND`` environment variable reaches that field through
:func:`repro.configio.resolve_config`).  ``get_backend`` also passes a
ready :class:`ComputeBackend` instance straight through.
"""

from __future__ import annotations

from typing import Union

from .base import ComputeBackend, KernelSet
from .kernels import KERNEL_NAMES
from .numba_backend import kernel_backend, numba_backend, reset_backend_warnings

__all__ = [
    "BACKENDS",
    "ComputeBackend",
    "KernelSet",
    "KERNEL_NAMES",
    "get_backend",
    "kernel_backend",
    "numpy_backend",
    "resolve_backend",
    "reset_backend_warnings",
    "warmup_kernels",
]

#: Names accepted by config/env backend selection.
BACKENDS = ("numpy", "numba", "python")

_NUMPY_BACKEND = ComputeBackend(name="numpy")


def resolve_backend(backend: str) -> str:
    """Validate a backend name (one of :data:`BACKENDS`) and return it."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def numpy_backend() -> ComputeBackend:
    """The reference backend: no kernels, existing numpy paths run."""
    return _NUMPY_BACKEND


def get_backend(
    backend: Union[str, ComputeBackend, None] = None,
) -> ComputeBackend:
    """Resolve and build the selected compute backend.

    Accepts a name (one of :data:`BACKENDS`), ``None`` (numpy), or a
    ready :class:`ComputeBackend` passed through unchanged.  A
    ``numba`` request on a machine without numba returns
    the numpy fallback with provenance recorded (warned once).
    """
    if isinstance(backend, ComputeBackend):
        return backend
    name = resolve_backend("numpy" if backend is None else backend)
    if name == "numba":
        return numba_backend()
    if name == "python":
        return kernel_backend()
    return numpy_backend()


def warmup_kernels(backend: Union[str, ComputeBackend, None] = None) -> bool:
    """Drive one tiny call through every kernel of a backend.

    Under numba the first call per signature pays JIT compilation, so
    benches invoke this before their timed sections to keep compile
    time out of the medians (the shapes here match real use: float64
    C-contiguous stacked tensors, int64 traces).  Returns True when a
    kernel-carrying backend was warmed, False for the numpy reference
    (nothing to compile).  Cheap enough to call unconditionally.
    """
    import numpy as np

    k = get_backend(backend).kernels
    if k is None:
        return False
    x = np.zeros((1, 2, 3))
    w0, b0 = np.zeros((1, 3, 4)), np.zeros((1, 4))
    w1, b1 = np.zeros((1, 4, 4)), np.zeros((1, 4))
    w2, b2 = np.zeros((1, 4, 2)), np.zeros((1, 2))
    k.mlp3_infer(x, w0, b0, w1, b1, w2, b2)
    h0, h1, out = k.mlp3_forward(x, w0, b0, w1, b1, w2, b2)
    g = np.zeros_like(out)
    k.mlp3_backward_params(
        x, h0, h1, g, w1, w2,
        np.zeros_like(w0), np.zeros_like(b0),
        np.zeros_like(w1), np.zeros_like(b1),
        np.zeros_like(w2), np.zeros_like(b2),
    )
    k.mlp3_input_grad(g, w0, w1, w2, h0, h1)
    k.td_target(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2, 1)), 0.95)
    q = np.ascontiguousarray(out[0][:, :1])  # (B, 1): the engine's q-slice shape
    k.mse_loss_grad(q, q)
    k.weighted_mse_loss_grad(q, q, np.ones((2, 1)))
    soft = k.softmax_temp(out, 1.0)
    k.policy_grad(soft, g, out, 1.0, 0.0)
    p = np.zeros(4)
    k.adam_step(p, p.copy(), p.copy(), p.copy(), 0.01, 0.9, 0.999, 1e-8, 1.0, 1.0)
    k.soft_update(np.zeros(4), np.zeros(4), 0.01)
    from ...memsim.cache import CacheConfig
    from ...memsim.compiled import CompiledMemoryHierarchy
    from ...memsim.hierarchy import HierarchyConfig
    from ...memsim.tlb import TLBConfig

    tiny = HierarchyConfig(
        l1=CacheConfig("L1d", 1024, 64, 2),
        l2=CacheConfig("L2", 2048, 64, 2),
        l3=CacheConfig("L3", 4096, 64, 2),
        dtlb=TLBConfig("dTLB", 2, 4096),
    )
    CompiledMemoryHierarchy(tiny, kernels=k).run(np.arange(8, dtype=np.int64) * 64)
    return True
