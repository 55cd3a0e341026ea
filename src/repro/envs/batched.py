"""All K environment copies as one array program.

:class:`BatchedVectorEnv` has :class:`~repro.envs.vector.SyncVectorEnv`'s
API and, per copy and under the same per-copy seeds, its exact output —
every observation, reward and done flag byte for byte — but holds no
per-entity objects on the hot path: positions and velocities live in
``(K, E, 2)`` arrays (entities ordered agents then landmarks, learning
agents first) and one ``step`` advances every copy with a number of
numpy calls that does not grow with K: action forces from the ``(K, N, 5)`` action block,
scripted-prey forces, one pairwise collision pass over the colliding
entities, damped integration with the max-speed clamp, masked auto-reset
from the per-copy ``Generator``s, then rewards and observations from the
scenario's ``*_arrays`` hooks (:class:`~repro.envs.scenario.BaseScenario`).

The object :class:`~repro.envs.core.World` + ``SyncVectorEnv`` stay as
the oracle this engine is tested against and as the engine for every
scenario without the hooks; :func:`serial_vector_env` picks between the
two from what the environment is, not from an option.  The rules that
keep the two bit-identical (which sums must stay sequential, which norm
goes through BLAS) are listed in ``docs/architecture.md`` §5.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .core import sum_sq
from .environment import NUM_MOVEMENT_ACTIONS, MultiAgentEnv
from .prey_policy import FleePolicy
from .scenario import BaseScenario
from .vector import SyncVectorEnv

__all__ = ["BatchedVectorEnv", "serial_vector_env"]

#: per-object callback -> the array hook that must mirror it
_MIRRORS = (
    ("reset_world", "reset_arrays"),
    ("observation", "observe_arrays"),
    ("reward", "reward_arrays"),
)

#: integer action -> the one-hot row whose force mapping is the same
_ONE_HOT = np.eye(NUM_MOVEMENT_ACTIONS)


def _definer(cls: type, name: str) -> type:
    return next(c for c in cls.__mro__ if name in vars(c))


class BatchedVectorEnv:
    """K lock-step copies of a multi-agent environment, stepped as arrays.

    Parameters
    ----------
    factories:
        The zero-argument :class:`MultiAgentEnv` factories
        ``SyncVectorEnv`` takes.  Each is called once: the copy's initial
        world state is read into the arrays and its ``Generator`` adopted
        (so seeding and the ``make_world`` draws are inherited), then the
        object env is dropped.  Every copy must be :meth:`supports`-ed.

    ``p_pos`` / ``p_vel`` are the live ``(K, E, 2)`` state.
    """

    def __init__(self, factories: Sequence[Callable[[], MultiAgentEnv]]) -> None:
        if not factories:
            raise ValueError("BatchedVectorEnv needs at least one environment factory")
        envs = [factory() for factory in factories]
        first = envs[0]
        for env in envs:
            if env.obs_dims != first.obs_dims or env.act_dims != first.act_dims:
                raise ValueError(
                    "all environment copies must share observation/action spaces"
                )
            if not self.supports(env):
                raise ValueError(
                    "BatchedVectorEnv needs a scenario with array hooks and no "
                    "action noise / reward sharing; use SyncVectorEnv"
                )
        self.num_envs = len(envs)
        self.num_agents = first.num_agents
        self.obs_dims = first.obs_dims
        self.act_dims = first.act_dims

        world = first.world
        agents, entities = world.agents, world.entities
        self._scenario = first.scenario
        self._dt = world.dt
        self._damping = world.damping
        self._contact_force = world.contact_force
        self._contact_margin = world.contact_margin
        self._size = np.array([e.size for e in entities])
        self._mass = np.array([a.mass for a in agents])
        self._accel = np.array([5.0 if a.accel is None else a.accel for a in agents])
        self._max_speed = np.array(
            [np.inf if a.max_speed is None else a.max_speed for a in agents]
        )
        # collision pass: the collide x collide block, lower index pushes +
        self._collide = np.flatnonzero([e.collide for e in entities])
        c = len(self._collide)
        self._dist_min = np.add.outer(self._size[self._collide], self._size[self._collide])
        self._upper = np.triu(np.ones((c, c), dtype=bool), 1)[..., None]
        self._not_self = ~np.eye(c, dtype=bool)[..., None]
        # scripted prey flee every adversary
        self._scripted = np.flatnonzero([a.action_callback is not None for a in agents])
        self._threats = np.flatnonzero([a.adversary for a in agents])
        self._flee = agents[self._scripted[0]].action_callback if len(self._scripted) else None

        self.p_pos = np.array([[e.state.p_pos for e in env.world.entities] for env in envs])
        self.p_vel = np.array([[e.state.p_vel for e in env.world.entities] for env in envs])
        self._rngs = [env._rng for env in envs]
        self._max_len = np.array([env.max_episode_len for env in envs])
        self._steps = np.zeros(self.num_envs, dtype=np.int64)

    @staticmethod
    def supports(env: MultiAgentEnv) -> bool:
        """True when the array program mirrors everything ``env`` does.

        The scenario must define the three array hooks at least as deep in
        its class hierarchy as the callbacks they mirror (a subclass that
        overrides ``reward`` alone falls back to the object engine) and
        terminate on the horizon only; the learning agents must lead
        ``world.agents`` with one observation width, every other agent be
        a :class:`FleePolicy` prey, agents move and landmarks not; and
        neither action noise nor reward sharing may be on.
        """
        scenario, world, n = type(env.scenario), env.world, env.num_agents
        return (
            all(
                _definer(scenario, hook) is not BaseScenario
                and issubclass(_definer(scenario, hook), _definer(scenario, callback))
                for callback, hook in _MIRRORS
            )
            and scenario.done is BaseScenario.done
            and not env.shared_reward
            and len(set(env.obs_dims)) == 1
            and env.agents == world.agents[:n]
            and all(isinstance(a.action_callback, FleePolicy) for a in world.agents[n:])
            and all(a.movable and not (a.u_noise or a.c_noise) for a in world.agents)
            and not any(lm.movable for lm in world.landmarks)
        )

    # -- API (mirrors SyncVectorEnv) -------------------------------------------

    def reset(self) -> List[np.ndarray]:
        """Reset every copy; returns per-agent stacked observations.

        Output: list of ``num_agents`` fresh arrays, each ``(num_envs, obs_dim)``.
        """
        for k in range(self.num_envs):
            self._reset_copy(k)
        return self._observations()

    def step(
        self, actions: Sequence[np.ndarray]
    ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, List[dict]]:
        """Step every copy with batched per-agent actions.

        Same contract as :meth:`SyncVectorEnv.step` — ``(num_envs, 5)``
        soft one-hot rows or ``(num_envs,)`` integer indices per agent in,
        post-auto-reset observations, ``(num_envs, num_agents)`` rewards
        and done flags out, all freshly allocated — except that the info
        dicts are empty: the per-agent ``benchmark_data`` diagnostics are
        the oracle episode loop's, no vector-env caller reads them.
        """
        n, a = self.num_agents, len(self._mass)
        pos, vel = self.p_pos, self.p_vel
        force = np.zeros_like(pos)
        force[:, :n] = self._action_forces(actions)
        if self._flee is not None:
            force[:, self._scripted] = self._flee.forces(
                pos[:, self._scripted], pos[:, self._threats], self._accel[self._scripted]
            )
        force[:, self._collide] = self._with_collisions(force[:, self._collide])

        # integrate the agents, op for op as World._integrate_state
        v = vel[:, :a] * (1.0 - self._damping)
        v += (force[:, :a] / self._mass[:, None]) * self._dt
        speed = np.sqrt(sum_sq(v))
        fast = speed > self._max_speed
        if fast.any():
            limit = np.broadcast_to(self._max_speed, fast.shape)[fast]
            v[fast] = v[fast] / speed[fast][:, None] * limit[:, None]
        vel[:, :a] = v
        pos[:, :a] = pos[:, :a] + v * self._dt

        self._steps += 1
        horizon = self._steps >= self._max_len
        rewards = self._scenario.reward_arrays(pos, self._size)
        dones = np.repeat(horizon[:, None], n, axis=1)
        # rewards and flags belong to the terminating step, the
        # observations to the freshly reset episode
        for k in np.flatnonzero(horizon):
            self._reset_copy(k)
        return self._observations(), rewards, dones, [{} for _ in range(self.num_envs)]

    # -- internals ---------------------------------------------------------------

    def _reset_copy(self, k: int) -> None:
        self._scenario.reset_arrays(self._rngs[k], self.p_pos[k])
        self.p_vel[k] = 0.0
        self._steps[k] = 0

    def _observations(self) -> List[np.ndarray]:
        obs = self._scenario.observe_arrays(self.p_pos, self.p_vel)
        # one agent-major copy: N contiguous (K, obs_dim) blocks no later
        # step writes to (callers hold them across the next step)
        return list(np.ascontiguousarray(obs.transpose(1, 0, 2)))

    def _action_forces(self, actions: Sequence[np.ndarray]) -> np.ndarray:
        """``(K, N, 2)`` forces of the learning agents, as ``_set_action``."""
        if len(actions) != self.num_agents:
            raise ValueError(
                f"expected {self.num_agents} per-agent action arrays, got {len(actions)}"
            )
        rows = [np.asarray(a) for a in actions]
        for r in rows:
            if r.shape[0] != self.num_envs:
                raise ValueError(f"each action array must have {self.num_envs} rows")
        for i, r in enumerate(rows):
            if r.ndim == 1 and np.issubdtype(r.dtype, np.integer):
                bad = r[(r < 0) | (r >= NUM_MOVEMENT_ACTIONS)]
                if bad.size:
                    raise ValueError(f"discrete action {int(bad[0])} out of range [0, 5)")
                rows[i] = _ONE_HOT[r]
            else:
                rows[i] = r = r.reshape(self.num_envs, -1)
                if r.shape[1] != NUM_MOVEMENT_ACTIONS:
                    raise ValueError(
                        f"action vector must have {NUM_MOVEMENT_ACTIONS} entries, "
                        f"got {r.shape[1]}"
                    )
        block = np.asarray(np.stack(rows, axis=1), dtype=np.float64)
        u = np.stack([block[..., 1] - block[..., 2], block[..., 3] - block[..., 4]], axis=-1)
        return u * self._accel[: self.num_agents, None]

    def _with_collisions(self, force: np.ndarray) -> np.ndarray:
        """Add the soft-penetration response to the ``(K, C, 2)`` forces of
        the colliding entities, as ``World._apply_environment_forces``."""
        p = self.p_pos[:, self._collide]
        delta = p[:, :, None] - p[:, None]  # (K, C, C, 2): p_i - p_j
        dist = np.sqrt(sum_sq(delta))
        k = self._contact_margin
        penetration = np.logaddexp(0, -(dist - self._dist_min) / k) * k
        apart = dist > 0
        direction = np.where(
            apart[..., None], delta / np.where(apart, dist, 1.0)[..., None], (1.0, 0.0)
        )
        pair = self._contact_force * direction * penetration[..., None]
        # the scalar loop visits each pair once as (lower, upper) and hands
        # the upper entity the negated force
        pair = np.where(self._upper, pair, -pair.transpose(0, 2, 1, 3))
        # ... and adds partners one at a time in ascending index
        for j in range(len(self._collide)):
            force = np.where(self._not_self[:, j], force + pair[:, :, j], force)
        return force


def serial_vector_env(
    factories: Sequence[Callable[[], MultiAgentEnv]],
) -> Union[BatchedVectorEnv, SyncVectorEnv]:
    """The single-process stepping engine over ``factories``.

    The one place the engine is chosen — ``make_vector_env(workers <= 1)``
    and every :class:`~repro.envs.parallel.ParallelVectorEnv` worker (over
    its slice of the copies) call it: the array program whenever a probe
    copy is :meth:`BatchedVectorEnv.supports`-ed, the object engine
    otherwise.  Both produce the same bytes, so the choice is invisible
    to callers.
    """
    if factories and BatchedVectorEnv.supports(factories[0]()):
        return BatchedVectorEnv(factories)
    return SyncVectorEnv(factories)
