"""Vector-environment construction helpers.

Every vectorized-collection site (``examples/vectorized_collection.py``,
the training loop, the execution-pipeline benches and tests) needs the
same boilerplate: build K per-copy factories with decorrelated seeds,
then wrap them in a vector env.  :func:`make_vector_env` centralizes
that, and is the single switch between one process and many:

* ``workers <= 1`` → the serial engine
  :func:`~repro.envs.batched.serial_vector_env` picks: the array program
  :class:`~repro.envs.batched.BatchedVectorEnv` for scenarios with array
  hooks (the two paper scenarios), the object engine
  :class:`~repro.envs.vector.SyncVectorEnv` — its oracle — for the rest;
* ``workers >= 2`` → :class:`~repro.envs.parallel.ParallelVectorEnv`
  with that many worker processes, each running that same serial engine
  over its slice of the copies.

All three step bit-identical episode streams from the same factories.

Callers pass ``MARLConfig.env_workers`` (the ``REPRO_ENV_WORKERS``
environment variable reaches that field through
:func:`repro.configio.resolve_config`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from .batched import BatchedVectorEnv, serial_vector_env
from .environment import MultiAgentEnv
from .parallel import ParallelVectorEnv
from .registry import make
from .vector import SyncVectorEnv

__all__ = ["make_env_factories", "make_vector_env"]

def make_env_factories(
    env_name: str,
    num_agents: int,
    copies: int,
    seed: Optional[int] = 0,
    **env_kwargs,
) -> List[Callable[[], MultiAgentEnv]]:
    """One zero-argument env factory per copy, seeded ``seed + k``.

    Copy ``k`` gets seed ``seed + k`` (or ``None`` seeds throughout when
    ``seed`` is ``None``), so two vector envs built from the same
    arguments step bit-identical episode streams regardless of which
    engine executes them.
    """
    if copies <= 0:
        raise ValueError(f"copies must be positive, got {copies}")
    return [
        (
            lambda s=(None if seed is None else seed + k): make(
                env_name, num_agents=num_agents, seed=s, **env_kwargs
            )
        )
        for k in range(copies)
    ]


def make_vector_env(
    env_name: str,
    num_agents: int,
    copies: int,
    seed: Optional[int] = 0,
    workers: int = 0,
    max_restarts: int = 0,
    **env_kwargs,
) -> Union[BatchedVectorEnv, SyncVectorEnv, ParallelVectorEnv]:
    """Build a vector env over ``copies`` seeded copies of ``env_name``.

    ``workers`` selects the engine (see module docstring); extra keyword
    arguments pass through to :func:`repro.envs.registry.make` (e.g.
    ``max_episode_len``).
    """
    factories = make_env_factories(env_name, num_agents, copies, seed, **env_kwargs)
    if workers <= 1:
        return serial_vector_env(factories)
    return ParallelVectorEnv(factories, num_workers=workers, max_restarts=max_restarts)
