"""MADDPG trainer (Lowe et al. 2017) with pluggable sampling strategies.

Implements the paper's baseline workload: centralized critics over the
joint observation-action space, decentralized actors, target networks,
and the two instrumented stages of Figure 1 — *action selection* and
*update all trainers* (mini-batch sampling → target Q calculation →
Q loss / P loss).  Every stage runs under the
:class:`~repro.profiling.timers.PhaseTimer`, so one training run yields
the paper's Figures 2/3/6 breakdowns directly.

The sampling phase is delegated to a :class:`~repro.core.samplers.Sampler`
(uniform baseline, cache-aware, PER, information-prioritized) drawing
from the trainer's replay — making the trainer the single harness on
which all of the paper's optimizations are compared.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..buffers import make_replay
from ..core.batch import MiniBatch
from ..core.importance import BetaSchedule
from ..core.samplers import Sampler, UniformSampler
from ..nn import clip_grad_norm, mse_loss, weighted_mse_loss
from ..profiling.phases import (
    ACTION_SELECTION,
    BUFFER_WRITE,
    LOSS_UPDATE,
    SAMPLING,
    TARGET_Q,
    UPDATE_ALL_TRAINERS,
)
from ..profiling.timers import PhaseTimer
from ..telemetry import NULL_RECORDER
from .agent import ActorCriticAgent
from .batched_update import BatchedUpdateEngine
from .config import MARLConfig

__all__ = ["MADDPGTrainer"]


class MADDPGTrainer:
    """Multi-agent DDPG over discrete (Gumbel-Softmax-relaxed) actions.

    Parameters
    ----------
    obs_dims, act_dims:
        Per-agent observation/action widths (heterogeneous allowed).
    config:
        Hyper-parameters and engine selection; defaults are the paper's.
        ``fast_path`` puts the attached sampler on the vectorized
        sampling engine, ``batched_update`` runs update rounds through
        the stacked-agent
        :class:`~repro.algos.batched_update.BatchedUpdateEngine`
        (requires equal obs/act widths across agents) and ``storage``
        picks the replay storage engine — every engine reproduces the
        scalar agent-major path's reward curves bit-for-bit.
    sampler:
        Mini-batch sampling strategy; default is the uniform baseline
        with the reference per-index gather loop.
    seed:
        Seeds network init, exploration, and sampling.
    """

    #: set by subclasses (MATD3) to enable twin critics etc.
    twin_critics = False
    #: set by subclasses (MATD3) to draw target-policy smoothing noise
    target_policy_smoothing = False

    def __init__(
        self,
        obs_dims: Sequence[int],
        act_dims: Sequence[int],
        config: Optional[MARLConfig] = None,
        sampler: Optional[Sampler] = None,
        seed: Optional[int] = None,
    ) -> None:
        if len(obs_dims) != len(act_dims) or not obs_dims:
            raise ValueError("obs_dims and act_dims must be equal-length and non-empty")
        self.config = config if config is not None else MARLConfig()
        self.sampler = sampler if sampler is not None else UniformSampler()
        if self.config.fast_path:
            self.sampler.set_fast_path(True)
        self.fast_path = bool(getattr(self.sampler, "fast_path", False))
        self.rng = np.random.default_rng(seed)
        self.obs_dims = list(obs_dims)
        self.act_dims = list(act_dims)
        self.num_agents = len(obs_dims)
        self.joint_dim = sum(obs_dims) + sum(act_dims)

        self.replay = make_replay(
            self.config,
            obs_dims=obs_dims,
            act_dims=act_dims,
            prioritized=self.sampler.requires_priorities,
        )
        self.storage = self.replay.storage
        self.agents: List[ActorCriticAgent] = [
            ActorCriticAgent(
                name=f"agent_{i}",
                obs_dim=o,
                act_dim=a,
                joint_dim=self.joint_dim,
                config=self.config,
                rng=self.rng,
                twin_critics=self.twin_critics,
            )
            for i, (o, a) in enumerate(zip(obs_dims, act_dims))
        ]
        self.beta_schedule = BetaSchedule(
            beta0=self.config.per_beta0, total_steps=self.config.per_beta_steps
        )
        self.timer = PhaseTimer()
        self.telemetry = NULL_RECORDER
        if self.replay.arena is not None:
            # attribute joint-row gather vs per-agent split inside the
            # sampling phase breakdowns
            self.replay.arena.attach_timer(self.timer)
        self.steps_since_update = 0
        self.total_env_steps = 0
        self.update_rounds = 0
        # column offsets of each agent's action block inside the critic input
        self._obs_total = sum(obs_dims)
        self._act_offsets: List[int] = []
        offset = self._obs_total
        for a in act_dims:
            self._act_offsets.append(offset)
            offset += a
        # round-scoped cache of per-batch derived values
        self._round_cache: Dict[int, Tuple[MiniBatch, Dict[str, Any]]] = {}
        self.batched_update = self.config.batched_update
        self._engine: Optional[BatchedUpdateEngine] = (
            BatchedUpdateEngine(self) if self.batched_update else None
        )

    # -- stage 1: action selection -------------------------------------------------

    def act(self, obs_list: Sequence[np.ndarray], explore: bool = True) -> List[np.ndarray]:
        """Action selection: every agent's actor maps its observation to
        a (soft one-hot) action — Figure 1's GPU-resident stage."""
        if len(obs_list) != self.num_agents:
            raise ValueError(
                f"expected {self.num_agents} observations, got {len(obs_list)}"
            )
        with self.timer.phase(ACTION_SELECTION):
            return [
                agent.act(obs, rng=self.rng, explore=explore)
                for agent, obs in zip(self.agents, obs_list)
            ]

    # -- experience storage ----------------------------------------------------------

    def experience(
        self,
        obs: Sequence[np.ndarray],
        act: Sequence[np.ndarray],
        rew: Sequence[float],
        next_obs: Sequence[np.ndarray],
        done: Sequence[bool],
    ) -> None:
        """Store one joint transition and advance the update cadence."""
        with self.timer.phase(BUFFER_WRITE):
            self.replay.add(obs, act, rew, next_obs, done)
        self.steps_since_update += 1
        self.total_env_steps += 1

    def experience_batch(
        self,
        obs: Sequence[np.ndarray],
        act: Sequence[np.ndarray],
        rew: Sequence[np.ndarray],
        next_obs: Sequence[np.ndarray],
        done: Sequence[np.ndarray],
    ) -> int:
        """Store K joint transitions in one vectorized write.

        Fields are per-agent stacked arrays — ``obs[a]`` has shape
        ``(K, obs_dim_a)``, ``rew[a]``/``done[a]`` shape ``(K,)`` — in
        stream order; buffer contents and cadence counters end up
        identical to K sequential :meth:`experience` calls without K
        Python-level buffer round-trips.  Returns K.
        """
        with self.timer.phase(BUFFER_WRITE):
            rows = self.replay.ingest((obs, act, rew, next_obs, done))
        self.steps_since_update += rows
        self.total_env_steps += rows
        return rows

    def attach_telemetry(self, recorder) -> None:
        """Stream this trainer's instrumentation as typed telemetry records.

        Every :class:`PhaseTimer` phase becomes a
        :class:`~repro.telemetry.records.SpanEvent` and every externally
        measured duration (``env_step.worker_wait``)
        a :class:`~repro.telemetry.records.CounterSample` in
        ``recorder``'s sink.  Pass ``None`` (or a disabled recorder) to
        detach; the disabled path costs one attribute check per phase.
        """
        self.telemetry = recorder if recorder is not None else NULL_RECORDER
        self.timer.attach_telemetry(recorder)

    def should_update(self) -> bool:
        """Paper cadence: update after every ``update_every`` samples, once
        the buffer can serve a full mini-batch."""
        return (
            self.steps_since_update >= self.config.update_every
            and len(self.replay) >= max(self.config.warmup, self.config.batch_size)
        )

    # -- stage 2: update all trainers ---------------------------------------------------

    def update(self, force: bool = False) -> Optional[Dict[str, float]]:
        """One *update all trainers* round (paper Figure 1, right side).

        Returns per-agent mean losses, or None when the cadence or
        warm-up gate is not met (pass ``force=True`` to bypass cadence,
        not warm-up).
        """
        if not force and not self.should_update():
            return None
        if len(self.replay) < self.config.batch_size:
            return None
        policy_due = self._begin_round()
        with self.timer.phase(UPDATE_ALL_TRAINERS):
            if self._engine is not None:
                losses = self._engine.run_round(policy_due)
            else:
                losses = self._scalar_round(policy_due)
        self.update_rounds += 1
        return losses

    def _begin_round(self) -> bool:
        """Round prologue: reset the cadence counter, step the beta
        schedule, drop last round's batch caches.  Returns whether this
        round updates actors and targets."""
        self.steps_since_update = 0
        policy_due = self._policy_update_due()
        self.sampler.set_beta(self.beta_schedule.step())
        self._round_cache = {}
        return policy_due

    def _injected_round(
        self, batch: MiniBatch, agents: Optional[Sequence[int]] = None
    ) -> Dict[str, float]:
        """The service-mode learner's round: the scalar loop over the
        ``agents`` partition it owns, on one ``batch`` already pulled
        from the replay service (so neither gate of :meth:`update`
        applies and the local replay is not touched)."""
        policy_due = self._begin_round()
        with self.timer.phase(UPDATE_ALL_TRAINERS):
            losses = self._scalar_round(policy_due, batch, agents)
        self.update_rounds += 1
        return losses

    def _scalar_round(
        self,
        policy_due: bool,
        batch: Optional[MiniBatch] = None,
        agents: Optional[Sequence[int]] = None,
    ) -> Dict[str, float]:
        """The paper's characterized per-agent update loop.

        With an injected ``batch`` every agent in ``agents`` trains on
        it (the joint ``[obs‖act]`` critic input and the target actions
        are built once) and the sampling phase and the priority
        write-back — both properties of the local replay — are skipped.
        Cross-partition coupling rides on the parameter store: the TD
        target for agent ``i`` consumes every agent's target actor.
        """
        owned = range(self.num_agents) if agents is None else agents
        injected = batch is not None
        losses: Dict[str, float] = {"q_loss": 0.0, "p_loss": 0.0}
        for i in owned:
            if not injected:
                with self.timer.phase(SAMPLING):
                    batch = self._draw_batch(i)
            with self.timer.phase(TARGET_Q):
                target_q = self._target_q(i, batch)
            with self.timer.phase(LOSS_UPDATE):
                # the joint [obs‖act] matrix is built once per distinct
                # batch and reused by the critic and actor updates
                critic_x = self._critic_input_cached(batch)
                q_loss, td = self._update_critic(i, batch, target_q, critic_x=critic_x)
                p_loss = (
                    self._update_actor(i, batch, critic_x=critic_x)
                    if policy_due
                    else 0.0
                )
            if not injected:
                self.sampler.update_priorities(self.replay, i, batch, td)
            losses["q_loss"] += q_loss
            losses["p_loss"] += p_loss
        if policy_due:
            for i in owned:
                self.agents[i].soft_update_targets()
        losses["q_loss"] /= len(owned)
        losses["p_loss"] /= len(owned)
        return losses

    def _policy_update_due(self) -> bool:
        """Whether this round updates actors and targets (MATD3 delays)."""
        return True

    # -- update internals --------------------------------------------------------------

    def _draw_batch(self, agent_idx: int) -> MiniBatch:
        return self.sampler.sample(
            self.replay, self.rng, self.config.batch_size, agent_idx=agent_idx
        )

    def _round_cache_entry(self, batch: MiniBatch) -> Dict[str, Any]:
        """Per-batch memo for the current round, keyed by object identity.

        Entries hold the batch itself so identity keys cannot be reused
        by the allocator mid-round; the cache is reset at round start.
        """
        key = id(batch)
        entry = self._round_cache.get(key)
        if entry is None or entry[0] is not batch:
            entry = (batch, {})
            self._round_cache[key] = entry
        return entry[1]

    def _critic_input_cached(self, batch: MiniBatch) -> np.ndarray:
        memo = self._round_cache_entry(batch)
        if "critic_x" not in memo:
            memo["critic_x"] = self._critic_input(batch)
        return memo["critic_x"]

    def _target_actions_cached(self, batch: MiniBatch) -> List[np.ndarray]:
        """Round-scoped cache of :meth:`_target_actions`.

        When one injected mini-batch serves every owned agent
        (:meth:`_injected_round`), the N target-actor forwards run once
        per round instead of once per drawing agent.
        """
        memo = self._round_cache_entry(batch)
        if "target_actions" not in memo:
            memo["target_actions"] = self._target_actions(batch)
        return memo["target_actions"]

    def _target_actions(self, batch: MiniBatch) -> List[np.ndarray]:
        """Every agent's target-policy action at the next observation.

        The N x (N-1) cross-agent policy lookups here are the paper's
        target-Q hotspot (§III).  Subclasses inject smoothing noise.
        """
        return [
            agent.target_act(batch.agents[k].next_obs)
            for k, agent in enumerate(self.agents)
        ]

    def _target_q_values(self, agent_idx: int, joint_next: np.ndarray) -> np.ndarray:
        """Target critic evaluation; MATD3 overrides with the twin min."""
        return self.agents[agent_idx].target_critic(joint_next)

    def _target_q(self, agent_idx: int, batch: MiniBatch) -> np.ndarray:
        """y_i = r_i + gamma * (1 - done_i) * Q'_i(S', a'_1 ... a'_N)."""
        next_actions = self._target_actions_cached(batch)
        joint_next = np.concatenate(
            [ab.next_obs for ab in batch.agents] + next_actions, axis=1
        )
        q_next = self._target_q_values(agent_idx, joint_next)
        ab = batch.agents[agent_idx]
        return (
            ab.rew[:, None]
            + self.config.gamma * (1.0 - ab.done[:, None]) * q_next
        )

    def _critic_input(self, batch: MiniBatch) -> np.ndarray:
        return np.concatenate([batch.joint_obs(), batch.joint_act()], axis=1)

    def _critic_loss_and_grad(self, q, target_q, weights):
        if weights is None:
            return mse_loss(q, target_q)
        return weighted_mse_loss(q, target_q, weights[:, None])

    def _update_critic(
        self,
        agent_idx: int,
        batch: MiniBatch,
        target_q: np.ndarray,
        critic_x: Optional[np.ndarray] = None,
    ):
        """Minimize the (importance-weighted) TD error of the critic.

        Returns (loss, per-sample TD errors) — the TD errors feed the
        priority write-back of PER/information-prioritized sampling.
        ``critic_x`` lets the update round pass the pre-built joint
        [obs‖act] matrix instead of re-concatenating it here.
        """
        agent = self.agents[agent_idx]
        x = critic_x if critic_x is not None else self._critic_input(batch)
        q = agent.critic(x)
        loss, grad = self._critic_loss_and_grad(q, target_q, batch.weights)
        agent.critic_optimizer.zero_grad()
        agent.critic.backward(grad)
        if self.config.grad_clip is not None:
            clip_grad_norm(agent.critic.parameters(), self.config.grad_clip)
        agent.critic_optimizer.step()
        td = (q - target_q).ravel()
        return loss, td

    def _update_actor(
        self,
        agent_idx: int,
        batch: MiniBatch,
        critic_x: Optional[np.ndarray] = None,
    ) -> float:
        """Deterministic policy gradient through the centralized critic.

        Agent i's stored action is replaced by its current policy's soft
        action; the critic input gradient is sliced at agent i's action
        columns and pushed back through the softmax relaxation into the
        actor.  The critic's own parameter gradients accumulated on this
        pass are discarded.  ``critic_x`` (when given) is the shared
        joint [obs‖act] matrix; only a copy is patched.
        """
        agent = self.agents[agent_idx]
        batch_size = batch.size
        obs_i = batch.agents[agent_idx].obs
        logits = agent.actor(obs_i)
        # differentiable soft action (Gumbel-Softmax relaxation, tau=1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted / self.config.gumbel_temperature)
        soft_action = exp / exp.sum(axis=1, keepdims=True)

        x = (critic_x if critic_x is not None else self._critic_input(batch)).copy()
        start = self._act_offsets[agent_idx]
        end = start + self.act_dims[agent_idx]
        x[:, start:end] = soft_action

        q = agent.critic(x)
        p_loss = float(-np.mean(q)) + self.config.policy_reg * float(
            np.mean(logits**2)
        )
        # dL/dq = -1/B for the -mean(q) objective
        grad_q = np.full_like(q, -1.0 / batch_size)
        agent.critic.zero_grad()
        grad_x = agent.critic.backward(grad_q)
        grad_soft = grad_x[:, start:end]
        # softmax Jacobian: dL/dlogits from dL/dsoft
        dot = (grad_soft * soft_action).sum(axis=1, keepdims=True)
        grad_logits = soft_action * (grad_soft - dot) / self.config.gumbel_temperature
        # MADDPG's logit-magnitude regularizer
        grad_logits = grad_logits + (
            2.0 * self.config.policy_reg / logits.size
        ) * logits
        agent.actor_optimizer.zero_grad()
        agent.actor.backward(grad_logits)
        if self.config.grad_clip is not None:
            clip_grad_norm(agent.actor.parameters(), self.config.grad_clip)
        agent.actor_optimizer.step()
        agent.critic.zero_grad()  # discard critic grads from the policy pass
        return p_loss

    # -- reporting -----------------------------------------------------------------------

    @property
    def name(self) -> str:
        return "maddpg"

    def num_parameters(self) -> int:
        """Total trainable parameters across all agents (grows with N)."""
        return sum(agent.num_parameters() for agent in self.agents)
