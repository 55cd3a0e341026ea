"""The numba-jitted backend (with graceful numpy degradation).

``numba_backend()`` tries to import numba and wrap every kernel in
``@njit(cache=True, fastmath=False)`` — ``cache=True`` so repeat
processes reuse the on-disk compilation, ``fastmath=False`` so the
compiled math keeps IEEE semantics and stays inside the documented
tolerances against the numpy oracle.  When numba is missing the
request degrades to the numpy reference backend, warning once per
process and recording the fallback provenance on the returned
:class:`ComputeBackend` (it lands in the telemetry manifest).

``kernel_backend(jitted=False)`` exposes the same kernel table as
plain-Python functions: the numerical semantics of the compiled path,
runnable on machines without numba — this is what the equivalence
tests and the numba-free bench gate exercise.
"""

from __future__ import annotations

import warnings
from typing import Optional

from . import kernels as _kernels
from .base import ComputeBackend, KernelSet
from .kernels import KERNEL_NAMES

__all__ = ["numba_backend", "kernel_backend", "reset_backend_warnings"]

_FALLBACK_WARNED = False
_JITTED_KERNELS: Optional[KernelSet] = None
_PYTHON_KERNELS: Optional[KernelSet] = None


def reset_backend_warnings() -> None:
    """Re-arm the warn-once fallback notice (test helper)."""
    global _FALLBACK_WARNED
    _FALLBACK_WARNED = False


def kernel_backend(jitted: bool = False) -> ComputeBackend:
    """Kernel-dispatch backend in python mode (or jitted when asked).

    Python mode runs the exact compiled-path semantics without numba;
    it is how the kernels are tested and benchmark-gated on numba-free
    machines (``MARLConfig(backend="python")``).
    """
    global _PYTHON_KERNELS
    if jitted:
        return numba_backend()
    if _PYTHON_KERNELS is None:
        table = {name: getattr(_kernels, name) for name in KERNEL_NAMES}
        _PYTHON_KERNELS = KernelSet(table, jitted=False)
    return ComputeBackend(name="python", kernels=_PYTHON_KERNELS, jitted=False)


def numba_backend() -> ComputeBackend:
    """The ``numba`` backend, or the numpy fallback when unavailable."""
    global _FALLBACK_WARNED, _JITTED_KERNELS
    try:
        import numba
    except ImportError as exc:
        reason = f"numba unavailable ({exc.__class__.__name__}: {exc})"
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            warnings.warn(
                f"backend 'numba' requested but {reason}; "
                "falling back to the numpy reference backend",
                RuntimeWarning,
                stacklevel=3,
            )
        return ComputeBackend(
            name="numpy", fallback_from="numba", fallback_reason=reason
        )
    if _JITTED_KERNELS is None:
        jit = numba.njit(cache=True, fastmath=False)
        table = {name: jit(getattr(_kernels, name)) for name in KERNEL_NAMES}
        _JITTED_KERNELS = KernelSet(table, jitted=True)
    return ComputeBackend(
        name="numba",
        kernels=_JITTED_KERNELS,
        jitted=True,
        version=numba.__version__,
    )
