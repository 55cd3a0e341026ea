"""Stacked-agent batched update engine: equivalence with the scalar loop.

The :class:`~repro.algos.batched_update.BatchedUpdateEngine` must be
observably equivalent to the paper's characterized per-agent loop under
a shared RNG stream: same losses, same TD errors (observed via the
priority write-back), same parameter trajectories, and the same RNG
state afterwards.  The stacked ``np.matmul`` ops are bit-identical to
the per-slice products, so the comparisons below use exact equality
wherever the scalar path's own helpers are mirrored slice-for-slice and
a tight float64 tolerance elsewhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algos import BatchedUpdateEngine, MADDPGTrainer, MATD3Trainer
from repro.algos.variants import build_trainer
from repro.core.samplers import PrioritizedSampler, UniformSampler
from repro.nn import (
    Adam,
    Linear,
    ReLU,
    Sequential,
    StackedLinear,
    clip_grad_norm,
    clip_grad_norm_stacked,
    inference_forward,
    single_forward,
    stack_adam_states,
    stack_sequentials,
)

from tests.conftest import engine_config, fill_multi_agent_replay

OBS, ACT = 6, 3
TOL = dict(rtol=1e-10, atol=1e-12)


def make_trainer(cls, n, prioritized=False, batched=False, seed=11, **cfg):
    config = engine_config(
        batch_size=16,
        buffer_capacity=256,
        update_every=8,
        hidden_units=(16, 16),
        batched_update=batched,
        **cfg,
    )
    sampler = PrioritizedSampler() if prioritized else UniformSampler()
    return cls([OBS] * n, [ACT] * n, config=config, sampler=sampler, seed=seed)


def make_pair(cls, n, prioritized=False, rows=64):
    scalar = make_trainer(cls, n, prioritized, batched=False)
    batched = make_trainer(cls, n, prioritized, batched=True)
    fill_multi_agent_replay(scalar.replay, np.random.default_rng(5), rows)
    fill_multi_agent_replay(batched.replay, np.random.default_rng(5), rows)
    return scalar, batched


def spy_td_errors(trainer, sink):
    """Record every priority write-back's TD errors."""
    original = trainer.sampler.update_priorities

    def recorder(replay, agent_idx, batch, td_errors):
        sink.append(np.array(td_errors))
        return original(replay, agent_idx, batch, td_errors)

    trainer.sampler.update_priorities = recorder


def all_networks(agent):
    nets = [agent.actor, agent.target_actor, agent.critic, agent.target_critic]
    if agent.twin:
        nets += [agent.critic2, agent.target_critic2]
    return nets


class TestEngineEquivalence:
    @pytest.mark.parametrize("cls", [MADDPGTrainer, MATD3Trainer])
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("prioritized", [False, True])
    def test_matches_scalar_loop(self, cls, n, prioritized):
        scalar, batched = make_pair(cls, n, prioritized)
        tds_scalar, tds_batched = [], []
        spy_td_errors(scalar, tds_scalar)
        spy_td_errors(batched, tds_batched)
        for _ in range(5):  # covers both sides of MATD3's policy delay
            ls = scalar.update(force=True)
            lb = batched.update(force=True)
            assert ls is not None and lb is not None
            np.testing.assert_allclose(ls["q_loss"], lb["q_loss"], **TOL)
            np.testing.assert_allclose(ls["p_loss"], lb["p_loss"], **TOL)
        assert len(tds_scalar) == len(tds_batched) == 5 * n
        for td_s, td_b in zip(tds_scalar, tds_batched):
            np.testing.assert_allclose(td_s, td_b, **TOL)
        # identical RNG consumption: sampling + MATD3 smoothing draws
        assert (
            scalar.rng.bit_generator.state == batched.rng.bit_generator.state
        )
        for ag_s, ag_b in zip(scalar.agents, batched.agents):
            for net_s, net_b in zip(all_networks(ag_s), all_networks(ag_b)):
                for name, value in net_s.state_dict().items():
                    np.testing.assert_allclose(
                        value, net_b.state_dict()[name], err_msg=name, **TOL
                    )

    def test_priority_trees_match(self):
        scalar, batched = make_pair(MADDPGTrainer, 3, prioritized=True)
        for _ in range(3):
            scalar.update(force=True)
            batched.update(force=True)
        for i in range(3):
            tree_s = scalar.replay.priority_buffer(i)._sum_tree._tree
            tree_b = batched.replay.priority_buffer(i)._sum_tree._tree
            np.testing.assert_allclose(tree_s, tree_b, **TOL)

    def test_matd3_policy_delay_respected(self):
        _, batched = make_pair(MATD3Trainer, 3)
        losses = [batched.update(force=True) for _ in range(4)]
        # policy_delay=2: the policy updates on rounds where
        # (update_rounds + 1) % 2 == 0, i.e. the 2nd and 4th rounds
        assert losses[0]["p_loss"] == 0.0
        assert losses[1]["p_loss"] != 0.0
        assert losses[2]["p_loss"] == 0.0
        assert losses[3]["p_loss"] != 0.0


class TestEngineWiring:
    def test_heterogeneous_agents_rejected(self):
        config = engine_config(
            batch_size=16, buffer_capacity=64, batched_update=True
        )
        with pytest.raises(ValueError, match="homogeneous"):
            MADDPGTrainer([6, 7, 6], [3, 3, 3], config=config, seed=0)

    def test_config_flag_builds_engine(self):
        trainer = make_trainer(MADDPGTrainer, 3, batched=True)
        assert isinstance(trainer._engine, BatchedUpdateEngine)
        assert trainer.batched_update is True

    def test_default_has_no_engine(self):
        trainer = make_trainer(MADDPGTrainer, 3)
        assert trainer._engine is None
        assert trainer.batched_update is False

    def test_build_trainer_threads_config(self):
        config = engine_config(
            batch_size=16, buffer_capacity=64, batched_update=True
        )
        trainer = build_trainer(
            "matd3", "baseline", [OBS] * 3, [ACT] * 3, config=config, seed=0
        )
        assert isinstance(trainer._engine, BatchedUpdateEngine)

    def test_cli_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["train", "--batched-update"])
        assert args.batched_update is True
        args = parser.parse_args(["profile", "--batched-update"])
        assert args.batched_update is True

    def test_optimizer_views_stay_coherent(self):
        trainer = make_trainer(MADDPGTrainer, 3, batched=True)
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(5), 64)
        trainer.update(force=True)
        engine = trainer._engine
        for i, agent in enumerate(trainer.agents):
            assert np.shares_memory(
                agent.actor_optimizer._m[0], engine.actor_optimizer._m[0]
            )
            assert np.shares_memory(
                agent.actor.parameters()[0].value,
                engine.actors.parameters()[0].value,
            )
            assert agent.actor_optimizer.t == engine.actor_optimizer.t
            assert agent.critic_optimizer.t == engine.critic_optimizer.t

    def test_scalar_act_sees_stacked_updates(self):
        """After engine rounds, the per-agent actors (used by act()) must
        reflect the stacked parameter updates."""
        trainer = make_trainer(MADDPGTrainer, 3, batched=True)
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(5), 64)
        obs = np.random.default_rng(9).normal(size=OBS)
        before = trainer.agents[0].act(obs, explore=False)
        trainer.update(force=True)
        after = trainer.agents[0].act(obs, explore=False)
        assert not np.allclose(before, after)
        engine_logits = trainer._engine.actors(
            np.broadcast_to(obs, (3, 1, OBS))
        )
        scalar_logits = trainer.agents[0].actor(obs[None, :])
        np.testing.assert_array_equal(engine_logits[0], scalar_logits)


def count_calls(trainer, name):
    """Count calls of ``trainer.<name>`` from here on."""
    count = {"n": 0}
    original = getattr(trainer, name)

    def spy(*args, **kwargs):
        count["n"] += 1
        return original(*args, **kwargs)

    setattr(trainer, name, spy)
    return count


class TestScalarRoundCaches:
    """One injected batch serves every owned agent (the service-mode
    learner's round), so its derived values are built once per round."""

    def test_injected_round_never_samples(self):
        trainer = make_trainer(MADDPGTrainer, 3)
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(5), 64)
        batch = trainer._draw_batch(0)
        draws = count_calls(trainer.sampler, "sample")
        write_backs = count_calls(trainer.sampler, "update_priorities")
        trainer._injected_round(batch)
        assert draws["n"] == 0 and write_backs["n"] == 0
        assert trainer.update_rounds == 1

    def test_injected_round_builds_derived_values_once(self):
        trainer = make_trainer(MADDPGTrainer, 3)
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(5), 64)
        batch = trainer._draw_batch(0)
        target_actions = count_calls(trainer, "_target_actions")
        critic_inputs = count_calls(trainer, "_critic_input")
        trainer._injected_round(batch)
        assert target_actions["n"] == 1 and critic_inputs["n"] == 1
        trainer._injected_round(batch)  # cache is round-scoped, not sticky
        assert target_actions["n"] == 2 and critic_inputs["n"] == 2
        trainer._injected_round(batch, agents=[0, 2])  # a learner's partition
        assert target_actions["n"] == 3 and critic_inputs["n"] == 3

    def test_default_path_computes_target_actions_per_agent(self):
        trainer = make_trainer(MADDPGTrainer, 3)
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(5), 64)
        count = count_calls(trainer, "_target_actions")
        trainer.update(force=True)
        assert count["n"] == 3

    def test_critic_input_built_once_per_agent(self):
        trainer = make_trainer(MADDPGTrainer, 3)
        fill_multi_agent_replay(trainer.replay, np.random.default_rng(5), 64)
        count = count_calls(trainer, "_critic_input")
        trainer.update(force=True)
        # once per agent (shared by critic + actor updates), not twice
        assert count["n"] == 3


class TestStackedSubstrate:
    def test_stacked_linear_matches_per_slice(self, rng):
        layers = [Linear(7, 5, rng=rng) for _ in range(4)]
        values = [l.weight.value.copy() for l in layers]
        stacked = StackedLinear.from_layers(layers)
        x = rng.normal(size=(4, 9, 7))
        out = stacked(x)
        grad_out = rng.normal(size=out.shape)
        grad_in = stacked.backward(grad_out)
        for i, layer in enumerate(layers):
            ref = Linear(7, 5, rng=np.random.default_rng(0))
            ref.weight.value[...] = values[i]
            ref.bias.value[...] = 0.0
            np.testing.assert_array_equal(out[i], ref(x[i]))
            ref_grad_in = ref.backward(grad_out[i])
            np.testing.assert_array_equal(grad_in[i], ref_grad_in)
            np.testing.assert_array_equal(stacked.weight.grad[i], ref.weight.grad)
            np.testing.assert_array_equal(stacked.bias.grad[i], ref.bias.grad)

    def test_from_layers_adopts_views(self, rng):
        layers = [Linear(4, 3, rng=rng) for _ in range(2)]
        stacked = StackedLinear.from_layers(layers)
        stacked.weight.value[0, 0, 0] = 42.0
        assert layers[0].weight.value[0, 0] == 42.0
        layers[1].weight.value[1, 1] = -7.0
        assert stacked.weight.value[1, 1, 1] == -7.0

    def test_stack_sequentials_matches_scalar_forward(self, rng):
        nets = [
            Sequential(Linear(5, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
            for _ in range(3)
        ]
        stacked = stack_sequentials(nets)
        x = rng.normal(size=(3, 6, 5))
        out = stacked(x)
        for i, net in enumerate(nets):
            np.testing.assert_array_equal(out[i], net(x[i]))

    def test_stack_sequentials_rejects_mismatched(self, rng):
        nets = [
            Sequential(Linear(5, 8, rng=rng)),
            Sequential(Linear(5, 9, rng=rng)),
        ]
        with pytest.raises(ValueError):
            stack_sequentials(nets)

    def test_clip_grad_norm_stacked_matches_scalar(self, rng):
        nets = [
            Sequential(Linear(5, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
            for _ in range(3)
        ]
        grads = [
            [rng.normal(size=p.value.shape) * 3.0 for p in net.parameters()]
            for net in nets
        ]
        # scalar reference on copies
        expected_norms, expected_grads = [], []
        for net, gs in zip(nets, grads):
            params = net.parameters()
            for p, g in zip(params, gs):
                p.grad[...] = g
            expected_norms.append(clip_grad_norm(params, 0.5))
            expected_grads.append([p.grad.copy() for p in params])
        stacked = stack_sequentials(nets)
        for j, p in enumerate(stacked.parameters()):
            for i in range(3):
                p.grad[i] = grads[i][j]
        norms = clip_grad_norm_stacked(stacked.parameters(), 0.5)
        np.testing.assert_array_equal(norms, expected_norms)
        for j, p in enumerate(stacked.parameters()):
            for i in range(3):
                np.testing.assert_array_equal(p.grad[i], expected_grads[i][j])

    def test_stack_adam_states_step_matches_scalar(self, rng):
        nets = [Sequential(Linear(4, 3, rng=rng)) for _ in range(2)]
        opts = [Adam(net.parameters(), lr=0.01) for net in nets]
        grads = [
            [rng.normal(size=p.value.shape) for p in net.parameters()]
            for net in nets
        ]
        # scalar reference
        ref_values = []
        for net, opt, gs in zip(nets, opts, grads):
            values = [p.value.copy() for p in net.parameters()]
            ref_net = Sequential(Linear(4, 3, rng=np.random.default_rng(0)))
            for p, v in zip(ref_net.parameters(), values):
                p.value[...] = v
            ref_opt = Adam(ref_net.parameters(), lr=0.01)
            for p, g in zip(ref_net.parameters(), gs):
                p.grad[...] = g
            ref_opt.step()
            ref_values.append([p.value.copy() for p in ref_net.parameters()])
        stacked = stack_sequentials(nets)
        stacked_opt = stack_adam_states(opts, stacked.parameters())
        for j, p in enumerate(stacked.parameters()):
            for i in range(2):
                p.grad[i] = grads[i][j]
        stacked_opt.step()
        for j, p in enumerate(stacked.parameters()):
            for i in range(2):
                np.testing.assert_array_equal(p.value[i], ref_values[i][j])
        # per-agent moments alias the stacked buffers
        assert np.shares_memory(opts[0]._m[0], stacked_opt._m[0])

    def test_stack_adam_states_rejects_diverged_counters(self, rng):
        nets = [Sequential(Linear(4, 3, rng=rng)) for _ in range(2)]
        opts = [Adam(net.parameters(), lr=0.01) for net in nets]
        opts[1].t = 5
        stacked = stack_sequentials(nets)
        with pytest.raises(ValueError, match="step counter"):
            stack_adam_states(opts, stacked.parameters())


class TestSingleRowFastPath:
    """B=1 serving fast path: matvec per slice, bit-identical to batching."""

    def test_stacked_linear_forward_single_bitwise(self, rng):
        layers = [Linear(7, 5, rng=rng) for _ in range(4)]
        stacked = StackedLinear.from_layers(layers)
        x = rng.normal(size=7)
        batched = stacked(np.broadcast_to(x, (4, 1, 7)).copy())
        for s in range(4):
            np.testing.assert_array_equal(stacked.forward_single(x, s), batched[s, 0])

    def test_single_forward_through_net_bitwise(self, rng):
        nets = [
            Sequential(Linear(6, 9, rng=rng), ReLU(), Linear(9, 3, rng=rng))
            for _ in range(3)
        ]
        stacked = stack_sequentials(nets)
        x = rng.normal(size=6)
        batched = stacked(np.broadcast_to(x, (3, 1, 6)).copy())
        for s in range(3):
            np.testing.assert_array_equal(single_forward(stacked, s, x), batched[s, 0])

    def test_single_forward_skips_backward_cache(self, rng):
        nets = [Sequential(Linear(4, 3, rng=rng)) for _ in range(2)]
        stacked = stack_sequentials(nets)
        single_forward(stacked, 0, rng.normal(size=4))
        first = stacked[0]
        assert first._x is None  # stateless: training backward unaffected
        with pytest.raises(RuntimeError):
            first.backward(rng.normal(size=(2, 1, 3)))

    @pytest.mark.parametrize("bias", [True, False])
    def test_inference_forward_bitwise_and_cacheless(self, rng, bias):
        nets = [
            Sequential(
                Linear(6, 9, rng=rng, bias=bias),
                ReLU(),
                Linear(9, 9, rng=rng, bias=bias),
                ReLU(),
                Linear(9, 3, rng=rng, bias=bias),
            )
            for _ in range(3)
        ]
        x = rng.normal(size=(3, 5, 6))
        expected = stack_sequentials(nets)(x)
        fresh = stack_sequentials(nets)  # no forward has touched its caches
        kept = x.copy()
        np.testing.assert_array_equal(inference_forward(fresh, x), expected)
        np.testing.assert_array_equal(x, kept)  # in-place ReLU never hits the input
        assert all(layer._x is None for layer in fresh)
        with pytest.raises(RuntimeError):
            fresh[0].backward(rng.normal(size=(3, 5, 9)))

    def test_from_arrays_adopts_without_copy(self, rng):
        weight = rng.normal(size=(3, 4, 2))
        bias = rng.normal(size=(3, 2))
        layer = StackedLinear.from_arrays(weight, bias)
        assert layer.weight.value is weight
        assert layer.bias.value is bias
        ref = StackedLinear.from_arrays(weight.copy(), bias.copy())
        x = rng.normal(size=(3, 5, 4))
        np.testing.assert_array_equal(layer(x), ref(x))

    def test_from_arrays_validates_shapes(self, rng):
        with pytest.raises(ValueError, match=r"\(S, in, out\)"):
            StackedLinear.from_arrays(rng.normal(size=(3, 4)))
        with pytest.raises(ValueError, match="bias"):
            StackedLinear.from_arrays(
                rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 3))
            )

    def test_single_forward_rejects_batched_rows(self, rng):
        nets = [Sequential(Linear(4, 3, rng=rng)) for _ in range(2)]
        stacked = stack_sequentials(nets)
        with pytest.raises(ValueError, match="1-D row"):
            single_forward(stacked, 0, rng.normal(size=(1, 4)))
        with pytest.raises(ValueError, match="expects a"):
            stacked[0].forward_single(rng.normal(size=5), 0)
