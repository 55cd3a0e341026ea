"""Stacked (multi-network) layers for batching homogeneous agents.

The paper's update-all-trainers stage runs N structurally identical
actor/critic MLPs one agent at a time — N² tiny target-actor GEMMs per
round.  When the agents are homogeneous (equal obs/act widths, the
cooperative workloads), all N copies of a layer can be held as one
``(N, in, out)`` tensor and driven with a single batched ``np.matmul``
per layer.  ``np.matmul`` on stacked 3-D operands is bit-identical to
the per-slice 2-D products (unlike ``np.einsum``), which is what lets
:class:`~repro.algos.batched_update.BatchedUpdateEngine` reproduce the
scalar per-agent loop to float64 tolerance.

Stacking is done by *adoption*: :func:`stack_sequentials` copies the
per-agent parameter values into one stacked array and rebinds each
original :class:`~repro.nn.module.Parameter`'s ``value``/``grad`` to a
view of slice ``i``.  All parameter mutation in the substrate is
in-place (optimizer steps, ``lerp_``, ``np.copyto`` loads), so the
per-agent networks and the stacked networks stay coherent in both
directions — scalar ``act()`` calls, checkpointing, and ``state_dict``
round-trips keep working while the stacked engine trains.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .layers import (
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)
from .module import Module, Parameter
from .init import get_initializer
from .optim import Adam

__all__ = [
    "StackedLinear",
    "stack_sequentials",
    "single_forward",
    "inference_forward",
    "clip_grad_norm_stacked",
    "stack_adam_states",
]

#: activation layers that are elementwise (or last-axis) and therefore
#: operate on stacked ``(S, B, F)`` inputs unchanged
_STACKABLE_ACTIVATIONS = (ReLU, LeakyReLU, Tanh, Sigmoid, Softmax, Identity)


class StackedLinear(Module):
    """S parallel affine layers: ``y[s] = x[s] @ W[s] + b[s]``.

    ``weight`` has shape ``(S, in_features, out_features)`` and the
    forward/backward passes are single batched ``np.matmul`` calls whose
    per-slice results are bit-identical to S independent
    :class:`~repro.nn.layers.Linear` layers.  Inputs must be 3-D
    ``(S, B, in_features)``; broadcast views (``np.broadcast_to`` of one
    shared batch) are accepted and avoid materializing S copies.
    """

    def __init__(
        self,
        num_stacks: int,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init: str = "xavier_uniform",
        bias: bool = True,
    ) -> None:
        super().__init__()
        if num_stacks <= 0:
            raise ValueError(f"num_stacks must be positive, got {num_stacks}")
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Linear dimensions must be positive, got ({in_features}, {out_features})"
            )
        rng = rng if rng is not None else np.random.default_rng()
        initializer = get_initializer(init)
        self.num_stacks = num_stacks
        self.in_features = in_features
        self.out_features = out_features
        # initialize each slice independently, exactly as S Linears would
        self.weight = Parameter(
            np.stack(
                [initializer(rng, (in_features, out_features)) for _ in range(num_stacks)]
            ),
            "weight",
        )
        self.has_bias = bias
        if bias:
            self.bias = Parameter(np.zeros((num_stacks, out_features)), "bias")
        self._x: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls, weight: np.ndarray, bias: Optional[np.ndarray] = None
    ) -> "StackedLinear":
        """Adopt pre-stacked ``(S, in, out)`` weight / ``(S, out)`` bias arrays.

        No copies are made: the caller's arrays become the layer's
        parameter storage (the policy-snapshot path already owns fresh
        copies and wants exactly one allocation per publish).
        """
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 3:
            raise ValueError(f"weight must be (S, in, out), got shape {weight.shape}")
        obj = cls.__new__(cls)
        Module.__init__(obj)
        obj.num_stacks, obj.in_features, obj.out_features = weight.shape
        obj.weight = Parameter(weight, "weight")
        obj.has_bias = bias is not None
        obj._x = None
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (weight.shape[0], weight.shape[2]):
                raise ValueError(
                    f"bias must be {(weight.shape[0], weight.shape[2])}, "
                    f"got {bias.shape}"
                )
            obj.bias = Parameter(bias, "bias")
        return obj

    @classmethod
    def from_layers(cls, layers: Sequence[Linear]) -> "StackedLinear":
        """Stack existing Linear layers, adopting their parameters as views.

        After this call each source layer's ``weight``/``bias`` arrays
        alias slice ``i`` of the stacked parameters: in-place updates on
        either side are visible to both.
        """
        if not layers:
            raise ValueError("from_layers needs at least one Linear")
        first = layers[0]
        for l in layers:
            if not isinstance(l, Linear):
                raise TypeError(f"expected Linear, got {type(l).__name__}")
            if (
                l.in_features != first.in_features
                or l.out_features != first.out_features
                or l.has_bias != first.has_bias
            ):
                raise ValueError(
                    "stacked layers must agree on (in, out, bias); got "
                    f"({l.in_features}, {l.out_features}, {l.has_bias}) vs "
                    f"({first.in_features}, {first.out_features}, {first.has_bias})"
                )
        obj = cls.__new__(cls)
        Module.__init__(obj)
        obj.num_stacks = len(layers)
        obj.in_features = first.in_features
        obj.out_features = first.out_features
        obj.has_bias = first.has_bias
        obj.weight = Parameter(np.stack([l.weight.value for l in layers]), "weight")
        obj._x = None
        if first.has_bias:
            obj.bias = Parameter(np.stack([l.bias.value for l in layers]), "bias")
        for i, l in enumerate(layers):
            l.weight.value = obj.weight.value[i]
            l.weight.grad = obj.weight.grad[i]
            if first.has_bias:
                l.bias.value = obj.bias.value[i]
                l.bias.grad = obj.bias.grad[i]
        return obj

    def forward(self, x: np.ndarray, sl: Optional[slice] = None) -> np.ndarray:
        """Batched affine forward; ``sl`` restricts the pass to a
        contiguous group of stacks (x then carries that group's slices
        on axis 0).  Group passes are bit-identical to the full pass —
        each slice's GEMM is independent — and let callers keep the
        per-group activations cache-resident."""
        w = self.weight.value if sl is None else self.weight.value[sl]
        if x.ndim != 3:
            raise ValueError(
                f"StackedLinear expects (S, B, in) input, got shape {x.shape}"
            )
        if x.shape[0] != w.shape[0] or x.shape[-1] != self.in_features:
            raise ValueError(
                f"StackedLinear expected ({w.shape[0]}, B, {self.in_features}), "
                f"got {x.shape}"
            )
        self._x = x
        out = np.matmul(x, w)
        if self.has_bias:
            b = self.bias.value if sl is None else self.bias.value[sl]
            # in-place: the matmul output is freshly owned, and x + b is
            # bit-identical to x += b
            out += b[:, None, :]
        return out

    def forward_single(self, x: np.ndarray, s: int) -> np.ndarray:
        """B=1 straggler fast path: one slice, one matvec, no stacking.

        Serving a lone request through :meth:`forward` would build an
        ``(S, 1, in)`` broadcast tensor and dispatch the full batched
        GEMM over every slice; a single user only needs slice ``s``.
        ``np.matmul`` promotes the 1-D ``x`` to ``(1, in)``, multiplies,
        and drops the prepended axis again, so the result is
        bit-identical to row 0 of the batched pass for slice ``s``.
        Stateless: does not touch the backward cache (``_x``), so a
        serving thread can straggle through a net the training path is
        simultaneously differentiating.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.in_features:
            raise ValueError(
                f"forward_single expects a ({self.in_features},) row, got {x.shape}"
            )
        out = np.matmul(x, self.weight.value[s])
        if self.has_bias:
            out += self.bias.value[s]
        return out

    def backward(
        self, grad_out: np.ndarray, sl: Optional[slice] = None
    ) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward on StackedLinear")
        self.backward_params(grad_out, sl)
        w = self.weight.value if sl is None else self.weight.value[sl]
        return np.matmul(grad_out, w.transpose(0, 2, 1))

    def backward_input(
        self, grad_out: np.ndarray, sl: Optional[slice] = None
    ) -> np.ndarray:
        """Input gradient only — skips the ``weight.grad``/``bias.grad``
        accumulation for passes whose parameter gradients are discarded
        (the policy step backpropagates *through* the critic but never
        applies the critic gradients it would produce)."""
        w = self.weight.value if sl is None else self.weight.value[sl]
        return np.matmul(grad_out, w.transpose(0, 2, 1))

    def backward_params(
        self, grad_out: np.ndarray, sl: Optional[slice] = None
    ) -> None:
        """Parameter gradients only — skips the input-gradient GEMM.

        For the first layer of a network the input gradient has no
        consumer; at critic widths that GEMM is the single most
        expensive backward operation."""
        if self._x is None:
            raise RuntimeError("backward called before forward on StackedLinear")
        wg = self.weight.grad if sl is None else self.weight.grad[sl]
        wg += np.matmul(self._x.transpose(0, 2, 1), grad_out)
        if self.has_bias:
            bg = self.bias.grad if sl is None else self.bias.grad[sl]
            bg += grad_out.sum(axis=1)


def stack_sequentials(nets: Sequence[Sequential]) -> Sequential:
    """Fuse structurally identical Sequentials into one stacked network.

    Linear layers become :class:`StackedLinear` (parameters adopted as
    views, see :meth:`StackedLinear.from_layers`); elementwise/last-axis
    activations are shared as fresh instances since they already operate
    slice-wise on ``(S, B, F)`` arrays.  Raises for layer types whose
    semantics would change under stacking.
    """
    if not nets:
        raise ValueError("stack_sequentials needs at least one network")
    depth = len(nets[0])
    for net in nets:
        if len(net) != depth:
            raise ValueError("all networks must have the same layer count")
    layers: List[Module] = []
    for idx in range(depth):
        protos = [net[idx] for net in nets]
        first = protos[0]
        if any(type(p) is not type(first) for p in protos):
            raise TypeError(f"layer {idx} differs in type across networks")
        if isinstance(first, Linear):
            layers.append(StackedLinear.from_layers(protos))
        elif isinstance(first, LeakyReLU):
            if any(p.negative_slope != first.negative_slope for p in protos):
                raise ValueError(f"layer {idx}: LeakyReLU slopes differ")
            layers.append(LeakyReLU(first.negative_slope))
        elif isinstance(first, _STACKABLE_ACTIVATIONS):
            layers.append(type(first)())
        else:
            raise TypeError(
                f"cannot stack layer type {type(first).__name__} (layer {idx})"
            )
    return Sequential(*layers)


def _activate(layer: Module, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Stateless activation dispatch shared by the inference forwards;
    ``out=x`` lets ReLU overwrite an input the caller owns."""
    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0, out=out)
    if isinstance(layer, LeakyReLU):
        return np.where(x > 0, x, layer.negative_slope * x)
    if isinstance(layer, Tanh):
        return np.tanh(x)
    if isinstance(layer, Sigmoid):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
    if isinstance(layer, Softmax):
        exp = np.exp(x - x.max(axis=-1, keepdims=True))
        return exp / exp.sum(axis=-1, keepdims=True)
    if isinstance(layer, Identity):
        return x
    raise TypeError(
        f"inference forward cannot traverse layer type {type(layer).__name__}"
    )


def single_forward(net: Sequential, s: int, x: np.ndarray) -> np.ndarray:
    """One row through slice ``s`` of a stacked network (B=1 fast path).

    The serving tier's straggler short-circuit: a flush holding exactly
    one request skips the ``(S, 1, dim)`` batched dispatch and walks the
    stacked net with per-layer matvecs on slice ``s`` only — S× less
    arithmetic and no temporary stacking.  Bit-identical to
    ``net(np.broadcast_to(x, (S, 1, dim)))[s, 0]``: the matvec is the
    same GEMM row the batched pass computes for that slice, and every
    supported activation is elementwise (or last-axis) so it commutes
    with slicing.  Stateless — no backward caches are written.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"single_forward expects a 1-D row, got shape {x.shape}")
    for layer in net:
        if isinstance(layer, StackedLinear):
            x = layer.forward_single(x, s)
        else:
            x = _activate(layer, x)
    return x


def inference_forward(net: Sequential, x: np.ndarray) -> np.ndarray:
    """A stacked ``(S, B, in)`` batch through ``net`` with no backward cache.

    Bit-identical to ``net(x)``, for networks that never run ``backward``
    (target actors / critics, published policy snapshots):
    ``Sequential.forward`` parks every layer's input in ``_x`` until the
    next call — at B = 1024 that pins tens of MB per target network
    between update rounds, and mutates a snapshot other threads are
    reading.  Here nothing outlives the call, and ReLU clamps the matmul
    output it follows in place instead of allocating its own.
    """
    owned = False  # x is a temporary this function allocated
    for layer in net:
        if isinstance(layer, StackedLinear):
            x = np.matmul(x, layer.weight.value)
            if layer.has_bias:
                x += layer.bias.value[:, None, :]
            owned = True
        else:
            x = _activate(layer, x, out=x if owned else None)
    return x


def clip_grad_norm_stacked(
    params: Sequence[Parameter], max_norm: float
) -> np.ndarray:
    """Per-slice global-norm clipping over stacked parameters.

    Mirrors :func:`~repro.nn.optim.clip_grad_norm` independently for
    each slice ``s``: the squared-norm accumulation runs per slice in
    the same parameter order and with the same Python-float additions as
    the scalar helper, so the norms — and the clip decisions — are
    bit-identical to S separate ``clip_grad_norm`` calls.  Returns the
    ``(S,)`` pre-clip norms.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    if not params:
        raise ValueError("clip_grad_norm_stacked needs at least one parameter")
    num_stacks = params[0].value.shape[0]
    totals = [0.0] * num_stacks
    for p in params:
        if p.value.shape[0] != num_stacks:
            raise ValueError("all parameters must share the stack dimension")
        for s in range(num_stacks):
            totals[s] += float(np.sum(p.grad[s] ** 2))
    norms = np.array([float(np.sqrt(t)) for t in totals])
    for s in range(num_stacks):
        norm = norms[s]
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for p in params:
                p.grad[s] *= scale
    return norms


def stack_adam_states(
    optimizers: Sequence[Adam], stacked_params: Sequence[Parameter]
) -> Adam:
    """One Adam over stacked parameters, adopting per-agent moments.

    Adam's update is purely elementwise, so a single step on the
    ``(S, ...)`` parameters is bit-identical to S per-agent steps —
    provided the step counters agree and the moment buffers are shared.
    The per-agent optimizers' ``_m``/``_v`` arrays are stacked and
    rebound to views of the stacked buffers (both sides mutate in
    place, so scalar steps and stacked steps stay coherent); the scalar
    ``t`` counters cannot be aliased and must be re-synced by the
    caller around stacked steps.
    """
    if not optimizers:
        raise ValueError("stack_adam_states needs at least one optimizer")
    base = optimizers[0]
    for opt in optimizers:
        if (
            opt.lr != base.lr
            or opt.beta1 != base.beta1
            or opt.beta2 != base.beta2
            or opt.eps != base.eps
        ):
            raise ValueError("stacked optimizers must share hyper-parameters")
        if opt.t != base.t:
            raise ValueError(
                f"stacked optimizers must share the step counter, got {opt.t} vs {base.t}"
            )
        if len(opt.params) != len(stacked_params):
            raise ValueError(
                f"optimizer has {len(opt.params)} params, stacked group has "
                f"{len(stacked_params)}"
            )
    stacked = Adam(
        stacked_params, lr=base.lr, betas=(base.beta1, base.beta2), eps=base.eps
    )
    stacked.t = base.t
    for j, param in enumerate(stacked_params):
        expected = param.value.shape
        m = np.stack([opt._m[j] for opt in optimizers])
        v = np.stack([opt._v[j] for opt in optimizers])
        if m.shape != expected:
            raise ValueError(
                f"moment shape {m.shape} does not match stacked parameter {expected}"
            )
        stacked._m[j] = m
        stacked._v[j] = v
        for i, opt in enumerate(optimizers):
            opt._m[j] = m[i]
            opt._v[j] = v[i]
    return stacked
