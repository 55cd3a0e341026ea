"""Core abstractions for the numpy neural-network substrate.

The paper's MARL workloads (MADDPG, MATD3) parameterize actors and critics
with two-layer ReLU MLPs.  The reproduction cannot rely on PyTorch or
TensorFlow, so this package provides a small, self-contained reverse-mode
autodiff-free layer library: every :class:`Module` implements an explicit
``forward`` and ``backward`` pass over numpy arrays, and exposes its
:class:`Parameter` objects (value + accumulated gradient) to optimizers.

The design intentionally mirrors the ``torch.nn`` layering so the MARL
algorithms read like their reference implementations, while remaining
simple enough to audit and to property-test (gradients are checked against
finite differences in the test suite).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable tensor: a value array and its accumulated gradient.

    Parameters are always float64 internally; MARL training at the paper's
    scale is numerically gentle, but float64 keeps the finite-difference
    gradient checks in the test suite tight.
    """

    __slots__ = ("value", "grad", "name")

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad.fill(0.0)

    def copy_(self, other: "Parameter") -> None:
        """Copy another parameter's value into this one (hard update)."""
        np.copyto(self.value, other.value)

    def lerp_(self, other: "Parameter", tau: float) -> None:
        """Soft (Polyak) update: ``self <- (1 - tau) * self + tau * other``.

        This is the target-network update rule the paper runs with
        ``tau = 0.01``.
        """
        self.value *= 1.0 - tau
        self.value += tau * other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class for layers and networks.

    Subclasses implement :meth:`forward` (storing whatever intermediates
    :meth:`backward` needs) and :meth:`backward` (consuming the upstream
    gradient and accumulating into parameter ``.grad`` buffers).

    Unlike a tape-based autodiff, the backward pass must be invoked in the
    reverse order of forward passes; :class:`repro.nn.layers.Sequential`
    handles that ordering for composite networks.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration -----------------------------------------------------

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            object.__setattr__(self, name, value)
            self._parameters[name] = value
            value.name = name
        elif isinstance(value, Module):
            object.__setattr__(self, name, value)
            self._modules[name] = value
        else:
            object.__setattr__(self, name, value)

    # -- traversal --------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its submodules, depth-first."""
        out = list(self._parameters.values())
        for sub in self._modules.values():
            out.extend(sub.parameters())
        return out

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, sub in self._modules.items():
            yield from sub.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (paper §III notes this grows with N)."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode -------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for sub in self._modules.values():
            sub.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- state dict ---------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of dotted parameter names to copies of their values."""
        return {name: param.value.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load values produced by :meth:`state_dict` (strict: names and shapes)."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = params[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.value.shape}, got {value.shape}"
                )
            np.copyto(param.value, value)

    def copy_from(self, other: "Module") -> None:
        """Hard-copy all parameter values from a structurally identical module."""
        for mine, theirs in zip(self.parameters(), other.parameters(), strict=True):
            mine.copy_(theirs)

    def soft_update_from(self, other: "Module", tau: float) -> None:
        """Polyak-average all parameters toward ``other`` with coefficient tau."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        for mine, theirs in zip(self.parameters(), other.parameters(), strict=True):
            mine.lerp_(theirs, tau)
