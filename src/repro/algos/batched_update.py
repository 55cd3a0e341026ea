"""Stacked-agent batched update engine (homogeneous-agent fast path).

The paper characterizes *update all trainers* as the dominant stage,
with the target-Q phase inside it scaling as N x (N-1) cross-agent
target-policy forwards per round (§III, Fig. 3).  The scalar per-agent
loop in :class:`~repro.algos.maddpg.MADDPGTrainer` reproduces exactly
that cost profile and remains the default.  This engine is the
optimized alternative: when every agent shares the same observation and
action widths, all N agents' actors and critics are fused into stacked
``(N, in, out)`` tensors (:mod:`repro.nn.stacked`) and one update round
becomes a handful of batched ``np.matmul`` calls —

* the N² per-pair target-actor forwards collapse to N stacked
  ``(N, B, obs)`` forwards — one per drawing agent's mini-batch, each
  covering all N target actors at once;
* the N critic TD regressions run as one stacked forward/backward and
  one stacked Adam step (twin critics for MATD3);
* the N Gumbel-Softmax policy-gradient updates run as one stacked
  critic pass plus one stacked actor pass, honouring MATD3's delayed
  policy schedule.

Numerical equivalence: the engine consumes the trainer's RNG in the
exact order of the scalar loop (sample_i, then MATD3's smoothing-noise
draws for round i) and mirrors every scalar formula slice-for-slice.
``np.matmul`` on stacked operands is bit-identical to the per-slice 2-D
products, Adam and the soft updates are elementwise, and losses/grad
norms are accumulated per slice with the scalar helpers — so losses, TD
errors, and parameter trajectories match the scalar loop to float64
resolution (associativity of the per-parameter norm accumulation is
preserved; remaining divergence is at the ulp level of BLAS reductions,
see docs/architecture.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.batch import MiniBatch
from ..nn import mse_loss, softmax, weighted_mse_loss
from ..nn.stacked import (
    StackedLinear,
    clip_grad_norm_stacked,
    inference_forward,
    stack_adam_states,
    stack_sequentials,
)
from ..profiling.phases import LOSS_UPDATE, SAMPLING, TARGET_Q

__all__ = ["BatchedUpdateEngine"]


class BatchedUpdateEngine:
    """Runs one update-all-trainers round as stacked-tensor operations.

    Construction adopts the trainer's per-agent parameters and Adam
    moments as views into stacked arrays (see
    :func:`~repro.nn.stacked.stack_sequentials`), so scalar-path code —
    ``act()``, checkpointing, ``state_dict`` — observes every stacked
    update with no synchronization beyond the Adam step counters.
    """

    @staticmethod
    def check_homogeneous(obs_dims, act_dims) -> None:
        """Raise ``ValueError`` unless every agent has the same widths."""
        if len(set(obs_dims)) != 1 or len(set(act_dims)) != 1:
            raise ValueError(
                "batched_update requires homogeneous agents (equal obs/act "
                f"widths); got obs_dims={list(obs_dims)}, "
                f"act_dims={list(act_dims)}. Use the scalar per-agent loop "
                "for heterogeneous teams."
            )

    def __init__(self, trainer) -> None:
        self.check_homogeneous(trainer.obs_dims, trainer.act_dims)
        self.trainer = trainer
        self.num_agents = trainer.num_agents
        self.obs_dim = trainer.obs_dims[0]
        self.act_dim = trainer.act_dims[0]
        agents = trainer.agents

        self.actors = stack_sequentials([a.actor for a in agents])
        self.target_actors = stack_sequentials([a.target_actor for a in agents])
        self.critics = stack_sequentials([a.critic for a in agents])
        self.target_critics = stack_sequentials([a.target_critic for a in agents])
        self.twin = bool(trainer.twin_critics)
        self.critics2 = None
        self.target_critics2 = None
        critic_group = list(self.critics.parameters())
        if self.twin:
            self.critics2 = stack_sequentials([a.critic2 for a in agents])
            self.target_critics2 = stack_sequentials(
                [a.target_critic2 for a in agents]
            )
            critic_group = critic_group + list(self.critics2.parameters())
        self._critic_param_group = critic_group
        self._actor_param_group = list(self.actors.parameters())

        self._narrow_probe_cache: Dict[tuple, bool] = {}
        self._agent_actor_opts = [a.actor_optimizer for a in agents]
        self._agent_critic_opts = [a.critic_optimizer for a in agents]
        self.actor_optimizer = stack_adam_states(
            self._agent_actor_opts, self._actor_param_group
        )
        self.critic_optimizer = stack_adam_states(
            self._agent_critic_opts, self._critic_param_group
        )

    # -- step-counter synchronization ---------------------------------------------

    def _sync_t_in(self) -> None:
        """Refresh stacked Adam counters from the per-agent optimizers.

        Moments are shared views, but ``Adam.t`` is a plain int (and is
        overwritten by checkpoint loads), so it is re-read every round.
        """
        for stacked, per_agent in (
            (self.actor_optimizer, self._agent_actor_opts),
            (self.critic_optimizer, self._agent_critic_opts),
        ):
            ts = {opt.t for opt in per_agent}
            if len(ts) != 1:
                raise ValueError(
                    f"per-agent Adam step counters diverged ({sorted(ts)}); "
                    "the stacked engine requires lock-step optimizers"
                )
            stacked.t = ts.pop()

    def _sync_t_out(self) -> None:
        for stacked, per_agent in (
            (self.actor_optimizer, self._agent_actor_opts),
            (self.critic_optimizer, self._agent_critic_opts),
        ):
            for opt in per_agent:
                opt.t = stacked.t

    # -- round driver ----------------------------------------------------------------

    def run_round(self, policy_due: bool) -> Dict[str, float]:
        """One batched update round; returns the scalar loop's loss dict.

        Called by the trainer inside the UPDATE_ALL_TRAINERS phase after
        the cadence/warm-up gates and the beta step.
        """
        trainer = self.trainer
        timer = trainer.timer
        n = self.num_agents
        self._sync_t_in()

        # Interleave sampling with MATD3's smoothing-noise draws so the
        # RNG stream matches the scalar loop ([sample_i][noise_i,k=0..N-1]).
        batches: List[MiniBatch] = []
        noises: List[Optional[np.ndarray]] = []
        for i in range(n):
            with timer.phase(SAMPLING):
                batch = trainer._draw_batch(i)
            with timer.phase(TARGET_Q):
                noises.append(self._draw_target_noise(batch))
            batches.append(batch)

        with timer.phase(TARGET_Q):
            target_q = self._batched_target_q(batches, noises)
        with timer.phase(LOSS_UPDATE):
            critic_x = self._joint_inputs(batches)
            q_losses, tds = self._critic_step(critic_x, target_q, batches)
            if policy_due:
                p_losses = self._actor_step(critic_x, batches)
            else:
                p_losses = [0.0] * n
        for i in range(n):
            trainer.sampler.update_priorities(trainer.replay, i, batches[i], tds[i])
        if policy_due:
            self._soft_update_targets()
        self._sync_t_out()

        losses = {"q_loss": 0.0, "p_loss": 0.0}
        for i in range(n):
            losses["q_loss"] += q_losses[i]
            losses["p_loss"] += p_losses[i]
        losses["q_loss"] /= n
        losses["p_loss"] /= n
        return losses

    # -- target-Q phase -----------------------------------------------------------------

    def _draw_target_noise(self, batch: MiniBatch) -> Optional[np.ndarray]:
        """Target-policy smoothing noise for one drawing agent's round.

        Mirrors the scalar path exactly: one ``rng.normal`` draw per
        target actor in agent order.
        """
        trainer = self.trainer
        noise = trainer.config.target_noise if trainer.target_policy_smoothing else 0.0
        if noise <= 0.0:
            return None
        clip = trainer.config.target_noise_clip
        eps = np.empty((self.num_agents, batch.size, self.act_dim))
        for k in range(self.num_agents):
            eps[k] = np.clip(
                trainer.rng.normal(0.0, noise, size=eps[k].shape), -clip, clip
            )
        return eps

    def _batched_target_q(
        self,
        batches: List[MiniBatch],
        noises: List[Optional[np.ndarray]],
    ) -> np.ndarray:
        """TD targets for every drawing agent: ``(N, B, 1)``.

        The N² scalar ``target_act`` calls become N stacked forwards
        (network axis = acting agent k, batch axis = drawing agent i's
        rows).
        """
        trainer = self.trainer
        n = self.num_agents
        joint_next = np.empty((n, batches[0].size, trainer.joint_dim))
        for i, b in enumerate(batches):
            acts = self._stacked_target_actions(b, noises[i])
            np.concatenate(
                [ab.next_obs for ab in b.agents] + list(acts),
                axis=1,
                out=joint_next[i],
            )

        rew = np.stack([b.agents[i].rew for i, b in enumerate(batches)])
        done = np.stack([b.agents[i].done for i, b in enumerate(batches)])
        # target nets never run backward: no layer keeps its input
        q_next = inference_forward(self.target_critics, joint_next)  # (N, B, 1)
        if self.twin:
            q_next = np.minimum(
                q_next, inference_forward(self.target_critics2, joint_next)
            )
        return (
            rew[:, :, None]
            + trainer.config.gamma * (1.0 - done[:, :, None]) * q_next
        )

    #: agent-group size for the gradient passes: forward/backward run
    #: over groups of this many stacks so the (G, B, width) activations
    #: stay cache-resident (per-slice GEMMs are independent, so grouping
    #: is bit-identical to the monolithic pass)
    _AGENT_GROUP = 3

    def _stacked_target_actions(
        self, batch: MiniBatch, noise: Optional[np.ndarray]
    ) -> np.ndarray:
        """One drawing agent's stacked target actions ``(N_k, B, act)``;
        MATD3's smoothing ``noise`` is added to the logits."""
        x = np.stack([ab.next_obs for ab in batch.agents])
        logits = inference_forward(self.target_actors, x)
        if noise is not None:
            logits = logits + noise
        return softmax(logits)

    # -- loss/update phase ------------------------------------------------------------

    def _joint_inputs(self, batches: List[MiniBatch]) -> np.ndarray:
        """Stacked critic inputs ``(N, B, joint)``."""
        out = np.empty(
            (self.num_agents, batches[0].size, self.trainer.joint_dim)
        )
        for i, b in enumerate(batches):
            blocks = [ab.obs for ab in b.agents] + [ab.act for ab in b.agents]
            np.concatenate(blocks, axis=1, out=out[i])
        return out

    def _agent_groups(self):
        n = self.num_agents
        step = self._AGENT_GROUP
        return [slice(s, min(s + step, n)) for s in range(0, n, step)]

    def _per_slice_loss(self, q, target_q, batches, start: int = 0):
        """Scalar-helper losses/grads per slice (bit-identical
        bookkeeping); ``start`` maps slice 0 of ``q`` onto drawing agent
        ``start`` when operating on an agent group."""
        losses = []
        grad = np.empty_like(q)
        for j in range(q.shape[0]):
            i = start + j
            weights = batches[i].weights
            if weights is None:
                loss, g = mse_loss(q[j], target_q[i])
            else:
                loss, g = weighted_mse_loss(q[j], target_q[i], weights[:, None])
            losses.append(loss)
            grad[j] = g
        return losses, grad

    @staticmethod
    def _forward_group(net, x: np.ndarray, sl: slice) -> np.ndarray:
        """Forward an agent group through a stacked net (bit-identical
        to slicing the full forward; see StackedLinear.forward)."""
        for layer in net.layers:
            if isinstance(layer, StackedLinear):
                x = layer.forward(x, sl)
            else:
                x = layer(x)
        return x

    def _critic_step(self, critic_x, target_q, batches):
        config = self.trainer.config
        n = self.num_agents
        losses: List[float] = [0.0] * n
        tds: List[np.ndarray] = [None] * n  # type: ignore[list-item]
        self.critic_optimizer.zero_grad()
        for sl in self._agent_groups():
            xg = critic_x[sl]
            q = self._forward_group(self.critics, xg, sl)
            group_losses, grad = self._per_slice_loss(
                q, target_q, batches, sl.start
            )
            if self.twin:
                q2 = self._forward_group(self.critics2, xg, sl)
                losses2, grad2 = self._per_slice_loss(
                    q2, target_q, batches, sl.start
                )
                group_losses = [
                    l1 + l2 for l1, l2 in zip(group_losses, losses2)
                ]
            # the twin forward does not touch the first critics' caches,
            # so both backwards run after both forwards
            self._backward_params_only(self.critics, grad, sl)
            if self.twin:
                self._backward_params_only(self.critics2, grad2, sl)
            for j, i in enumerate(range(sl.start, sl.stop)):
                losses[i] = group_losses[j]
                tds[i] = (q[j] - target_q[i]).ravel()
        if config.grad_clip is not None:
            clip_grad_norm_stacked(self._critic_param_group, config.grad_clip)
        self.critic_optimizer.step()
        return losses, tds

    def _actor_step(self, critic_x, batches) -> List[float]:
        trainer = self.trainer
        config = trainer.config
        n = self.num_agents
        batch_size = batches[0].size

        obs = np.stack([batches[i].agents[i].obs for i in range(n)])

        p_losses: List[float] = [0.0] * n
        self.actor_optimizer.zero_grad()
        for sl in self._agent_groups():
            logits = self._forward_group(self.actors, obs[sl], sl)
            shifted = logits - logits.max(axis=2, keepdims=True)
            exp = np.exp(shifted / config.gumbel_temperature)
            soft_action = exp / exp.sum(axis=2, keepdims=True)
            # patch each drawing agent's own action columns; the stacked
            # joint input has no later reader, so patch it in place
            for j, i in enumerate(range(sl.start, sl.stop)):
                start = trainer._act_offsets[i]
                critic_x[i, :, start : start + self.act_dim] = soft_action[j]

            q = self._forward_group(self.critics, critic_x[sl], sl)
            for j, i in enumerate(range(sl.start, sl.stop)):
                p_losses[i] = float(-np.mean(q[j])) + config.policy_reg * float(
                    np.mean(logits[j] ** 2)
                )
            grad_q = np.full_like(q, -1.0 / batch_size)
            grad_soft = self._action_input_grad(grad_q, sl)
            dot = (grad_soft * soft_action).sum(axis=2, keepdims=True)
            grad_logits = (
                soft_action * (grad_soft - dot) / config.gumbel_temperature
            )
            grad_logits = grad_logits + (
                2.0 * config.policy_reg / (batch_size * self.act_dim)
            ) * logits
            self._backward_params_only(self.actors, grad_logits, sl)
        if config.grad_clip is not None:
            clip_grad_norm_stacked(self._actor_param_group, config.grad_clip)
        self.actor_optimizer.step()
        return p_losses

    def _action_input_grad(self, grad_out: np.ndarray, sl: slice) -> np.ndarray:
        """Critic input gradient restricted to each drawing agent's own
        action columns, for one agent group: ``(G, B, act)``.

        Backpropagates through the critics without touching their
        parameter gradients (the scalar ``_update_actor`` accumulates
        critic gradients and zeroes them right after — pure discard).
        The bottom layer's input gradient is only read at each agent's
        action offset; whether the GEMM against just those ``act_dim``
        weight rows is bit-equal to slicing the full-width product is
        BLAS-kernel- and shape-dependent, so it is decided by a one-time
        synthetic probe at the live shapes (:meth:`_narrow_gemm_ok`) and
        the full-width product is the fallback."""
        layers = self.critics.layers
        bottom = layers[0]
        stop = 1 if isinstance(bottom, StackedLinear) else 0
        for idx in range(len(layers) - 1, stop - 1, -1):
            layer = layers[idx]
            if isinstance(layer, StackedLinear):
                grad_out = layer.backward_input(grad_out, sl)
            else:
                grad_out = layer.backward(grad_out)
        offsets = self.trainer._act_offsets[sl.start : sl.stop]
        if stop == 1 and self._narrow_gemm_ok(
            grad_out.shape, bottom.in_features, tuple(offsets)
        ):
            w_act = np.stack(
                [
                    bottom.weight.value[i, off : off + self.act_dim]
                    for i, off in zip(range(sl.start, sl.stop), offsets)
                ]
            )  # (G, act, hidden)
            return np.matmul(grad_out, w_act.transpose(0, 2, 1))
        if stop == 1:
            grad_out = bottom.backward_input(grad_out, sl)
        return np.stack(
            [
                grad_out[j, :, off : off + self.act_dim]
                for j, off in enumerate(offsets)
            ]
        )

    def _narrow_gemm_ok(self, grad_shape, in_features: int, offsets) -> bool:
        """One-time probe: is the narrow bottom GEMM bit-equal to the
        full-width product at these exact shapes?

        BLAS kernel choice — and with it the reduction order — depends
        on the operand shapes/strides but not their values, so a single
        synthetic comparison at the live geometry settles the question.
        (Empirically the narrow product matches at large widths and
        diverges at small ones.)  Falls back to the full-width GEMM
        whenever the probe fails, keeping the engine bit-identical to
        the scalar loop either way."""
        key = (grad_shape, in_features, offsets)
        cached = self._narrow_probe_cache.get(key)
        if cached is not None:
            return cached
        rng = np.random.default_rng(0xB17E)
        g = rng.standard_normal(grad_shape)
        w = rng.standard_normal((grad_shape[0], in_features, grad_shape[2]))
        full = np.matmul(g, w.transpose(0, 2, 1))
        w_act = np.stack(
            [w[j, off : off + self.act_dim] for j, off in enumerate(offsets)]
        )
        narrow = np.matmul(g, w_act.transpose(0, 2, 1))
        ok = all(
            np.array_equal(narrow[j], full[j, :, off : off + self.act_dim])
            for j, off in enumerate(offsets)
        )
        self._narrow_probe_cache[key] = ok
        return ok

    @staticmethod
    def _backward_params_only(net, grad_out: np.ndarray, sl: slice) -> None:
        """Full backward pass minus the first layer's input gradient.

        Identical parameter gradients to ``net.backward``; the input
        gradient of the bottom layer has no consumer, and at critic
        widths that one discarded GEMM is the most expensive backward
        operation of the round."""
        layers = net.layers
        for idx in range(len(layers) - 1, 0, -1):
            layer = layers[idx]
            if isinstance(layer, StackedLinear):
                grad_out = layer.backward(grad_out, sl)
            else:
                grad_out = layer.backward(grad_out)
        bottom = layers[0]
        if isinstance(bottom, StackedLinear):
            bottom.backward_params(grad_out, sl)
        else:
            bottom.backward(grad_out)

    def _soft_update_targets(self) -> None:
        tau = self.trainer.config.tau
        self.target_actors.soft_update_from(self.actors, tau)
        self.target_critics.soft_update_from(self.critics, tau)
        if self.twin:
            self.target_critics2.soft_update_from(self.critics2, tau)
