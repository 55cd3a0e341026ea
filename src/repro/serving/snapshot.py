"""Versioned, hot-swappable policy snapshots for the serving tier.

A :class:`PolicySnapshot` is an immutable, self-contained copy of all N
homogeneous agents' actor networks, fused into one stacked network
(:mod:`repro.nn.stacked`) so a whole micro-batch answers with a single
``(N, B, dim)`` forward — the same substrate the batched update engine
trains on.  Snapshots are *copies*: training can keep mutating its live
parameters (every optimizer step is in place) without perturbing
responses already in flight.

:class:`SnapshotStore` holds the current snapshot behind a lock and
swaps it atomically on publish, following the monotone-version
discipline of :class:`repro.replay.params.SharedParameterStore`: every
publish bumps a strictly increasing version, readers grab a reference
(two pointer reads under the lock — never a copy), and in-flight
batches simply keep the snapshot object they started with.  A swap
therefore never blocks or corrupts a flush; it only changes which
snapshot the *next* flush picks up.

``refresh_from`` bridges training to serving: it polls a
``ParameterStore`` / ``SharedParameterStore`` (the async-broadcast
spine of the multi-learner trainer) and republishes whenever any agent
partition advanced, keeping the latest known arrays for partitions that
did not move.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.functional import softmax
from ..nn.layers import Linear, Sequential
from ..nn.stacked import StackedLinear, inference_forward, single_forward

__all__ = ["PolicySnapshot", "SnapshotStore"]


def _actor_param_values(net: Sequential) -> List[np.ndarray]:
    """One actor's parameter arrays in ``parameters()`` order (no copy)."""
    return [p.value for p in net.parameters()]


def _stack_from_arrays(
    template: Sequence, per_agent: Sequence[Sequence[np.ndarray]]
) -> Sequential:
    """Build a stacked net from per-agent flat parameter arrays.

    ``template`` is one agent's layer sequence (types + activation
    hyper-parameters); ``per_agent[i]`` is agent i's parameter arrays in
    ``parameters()`` order.  Linear layers consume (weight, bias) pairs
    and stack them by copy; activations are instantiated fresh exactly
    as :func:`repro.nn.stacked.stack_sequentials` would.
    """
    from ..nn.layers import (
        Identity,
        LeakyReLU,
        ReLU,
        Sigmoid,
        Softmax,
        Tanh,
    )

    stackable = (ReLU, LeakyReLU, Tanh, Sigmoid, Softmax, Identity)
    layers = []
    cursor = 0
    for layer in template:
        if isinstance(layer, Linear):
            weight = np.stack([arrays[cursor] for arrays in per_agent])
            if layer.has_bias:
                bias = np.stack([arrays[cursor + 1] for arrays in per_agent])
                cursor += 2
            else:
                bias = None
                cursor += 1
            layers.append(StackedLinear.from_arrays(weight, bias))
        elif isinstance(layer, LeakyReLU):
            layers.append(LeakyReLU(layer.negative_slope))
        elif isinstance(layer, stackable):
            layers.append(type(layer)())
        else:
            raise TypeError(
                f"cannot snapshot actor layer type {type(layer).__name__}"
            )
    return Sequential(*layers)


class PolicySnapshot:
    """One immutable published policy: stacked actors + version tag.

    ``forward_batch`` answers a whole micro-batch with one stacked
    forward; ``forward_single`` is the B=1 straggler path through
    :func:`repro.nn.stacked.single_forward`.  Both return softmax
    action distributions — the deterministic serving policy (greedy
    action = argmax), matching ``agent.act(obs, explore=False)``
    bit for bit.
    """

    __slots__ = ("version", "num_agents", "obs_dim", "act_dim", "net",
                 "source_versions")

    def __init__(
        self,
        version: int,
        net: Sequential,
        obs_dim: int,
        act_dim: int,
        source_versions: Optional[Tuple[int, ...]] = None,
    ) -> None:
        first = net[0]
        self.version = version
        self.net = net
        self.num_agents = first.num_stacks
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.source_versions = source_versions

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Action distributions for a stacked ``(N, B, obs)`` batch."""
        return softmax(inference_forward(self.net, x))

    def forward_single(self, agent: int, obs: np.ndarray) -> np.ndarray:
        """Action distribution for one agent's lone request (B=1 path)."""
        return softmax(single_forward(self.net, agent, obs))


class SnapshotStore:
    """Atomic-swap store of the current :class:`PolicySnapshot`.

    Monotone-version discipline: ``publish_*`` bumps ``version`` by one
    under the lock and swaps the current-snapshot reference; ``current``
    returns that reference without copying.  Readers racing a publish
    observe either the old or the new snapshot, never a mix — snapshots
    are immutable once constructed.
    """

    def __init__(self, template_actors: Sequence[Sequential]) -> None:
        if not template_actors:
            raise ValueError("SnapshotStore needs at least one template actor")
        first = template_actors[0]
        linears = [l for l in first if isinstance(l, Linear)]
        if not linears:
            raise ValueError("template actors must contain Linear layers")
        self._template = list(first)
        self._num_agents = len(template_actors)
        self._obs_dim = linears[0].in_features
        self._act_dim = linears[-1].out_features
        self._param_shapes = [tuple(p.value.shape) for p in first.parameters()]
        self._lock = threading.Lock()
        self._current: Optional[PolicySnapshot] = None
        self._version = 0
        self.swaps = 0
        # refresh_from state: last applied source version + last known
        # arrays per partition (so a partial advance republishes whole)
        self._applied: Dict[int, int] = {}
        self._latest: Dict[int, List[np.ndarray]] = {}

    # -- introspection ------------------------------------------------------

    @property
    def num_agents(self) -> int:
        return self._num_agents

    @property
    def obs_dim(self) -> int:
        return self._obs_dim

    @property
    def act_dim(self) -> int:
        return self._act_dim

    def version(self) -> int:
        with self._lock:
            return self._version

    def current(self) -> PolicySnapshot:
        """The live snapshot (reference, not copy); raises before first publish."""
        with self._lock:
            snapshot = self._current
        if snapshot is None:
            raise RuntimeError("no policy snapshot published yet")
        return snapshot

    # -- publishing ---------------------------------------------------------

    def _check_arrays(self, per_agent: Sequence[Sequence[np.ndarray]]) -> None:
        if len(per_agent) != self._num_agents:
            raise ValueError(
                f"expected arrays for {self._num_agents} agents, got {len(per_agent)}"
            )
        for i, arrays in enumerate(per_agent):
            got = [tuple(np.asarray(a).shape) for a in arrays]
            if got != self._param_shapes:
                raise ValueError(
                    f"agent {i} parameter shapes {got} do not match the "
                    f"template {self._param_shapes}"
                )

    def _swap(self, net: Sequential, source_versions=None) -> int:
        """Build-and-swap: construct outside the lock, swap inside it."""
        with self._lock:
            self._version += 1
            snapshot = PolicySnapshot(
                self._version,
                net,
                self._obs_dim,
                self._act_dim,
                source_versions=source_versions,
            )
            self._current = snapshot
            self.swaps += 1
            return self._version

    def publish_arrays(
        self,
        per_agent: Sequence[Sequence[np.ndarray]],
        source_versions: Optional[Sequence[int]] = None,
    ) -> int:
        """Publish from per-agent flat parameter arrays (copied here)."""
        self._check_arrays(per_agent)
        net = _stack_from_arrays(self._template, per_agent)
        versions = tuple(source_versions) if source_versions is not None else None
        return self._swap(net, versions)

    def publish_actors(self, actors: Sequence[Sequential]) -> int:
        """Publish from live actor networks (parameters copied)."""
        return self.publish_arrays([_actor_param_values(a) for a in actors])

    # -- training bridge ----------------------------------------------------

    def refresh_from(self, param_store) -> bool:
        """Poll a parameter store; republish if any partition advanced.

        ``param_store`` follows the ``publish/poll`` protocol of
        :mod:`repro.replay.params` with one partition per agent, each
        partition's payload being ``agent_param_arrays`` (actor then
        target-actor parameters — serving keeps only the actor half).
        Returns True when a new snapshot was swapped in.
        """
        if param_store.num_partitions != self._num_agents:
            raise ValueError(
                f"param store has {param_store.num_partitions} partitions, "
                f"serving template has {self._num_agents} agents"
            )
        advanced = False
        versions: List[int] = []
        for partition in range(self._num_agents):
            since = self._applied.get(partition, 0)
            version, data = param_store.poll(partition, since=since)
            if data is not None:
                self._latest[partition] = data[: len(data) // 2]
                self._applied[partition] = version
                advanced = True
            versions.append(self._applied.get(partition, 0))
        if not advanced:
            return False
        if len(self._latest) < self._num_agents:
            # some partition was never published; nothing serveable yet
            return False
        self.publish_arrays(
            [self._latest[i] for i in range(self._num_agents)],
            source_versions=versions,
        )
        return True
