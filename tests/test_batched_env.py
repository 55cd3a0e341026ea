"""Array-program vector env vs its oracle, byte for byte.

:class:`BatchedVectorEnv` must reproduce :class:`SyncVectorEnv` — every
observation, reward and done flag, per copy, under the same per-copy
seeds — so everything here compares ``tobytes()`` (the sign of a zero
counts), never ``allclose``.  The forced-state cases write the same
degenerate geometry into both engines before a step, because seeded
rollouts essentially never visit it.
"""

import numpy as np
import pytest

from repro.algos import MARLConfig, build_trainer
from repro.envs import MultiAgentEnv, available_envs, make, register
from repro.envs.batched import BatchedVectorEnv, serial_vector_env
from repro.envs.core import sum_sq
from repro.envs.factory import make_env_factories, make_vector_env
from repro.envs.scenarios.cooperative_navigation import CooperativeNavigationScenario
from repro.envs.scenarios.predator_prey import PredatorPreyScenario
from repro.envs.vector import SyncVectorEnv
from repro.training import train_steps

CN, PP = "cooperative_navigation", "predator_prey"


def both(env, n, k, seed=3, **kwargs):
    factories = make_env_factories(env, n, k, seed=seed, **kwargs)
    return SyncVectorEnv(factories), BatchedVectorEnv(factories)


def soft_actions(rng, n, k):
    x = rng.random((n, k, 5))
    return list(x / x.sum(axis=-1, keepdims=True))


def assert_same_obs(ref_obs, obs):
    assert len(obs) == len(ref_obs)
    for a, (x, y) in enumerate(zip(ref_obs, obs)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), f"obs of agent {a}"


def assert_same_bytes(ref, got):
    ref_obs, ref_rew, ref_done = ref[:3]
    obs, rew, done = got[:3]
    assert_same_obs(ref_obs, obs)
    assert rew.dtype == ref_rew.dtype and rew.tobytes() == ref_rew.tobytes(), "rewards"
    assert done.dtype == np.bool_ and done.tobytes() == ref_done.tobytes(), "dones"


def place(sync, batched, copy, entity, pos=None, vel=None):
    """Write one entity's state into both engines."""
    state = sync.envs[copy].world.entities[entity].state
    if pos is not None:
        state.p_pos = np.array(pos, dtype=np.float64)
        batched.p_pos[copy, entity] = pos
    if vel is not None:
        state.p_vel = np.array(vel, dtype=np.float64)
        batched.p_vel[copy, entity] = vel


def step_both(sync, batched, actions):
    ref, got = sync.step(actions), batched.step(actions)
    assert_same_bytes(ref, got)
    return got


class TestTrajectoryBytes:
    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("n", [3, 6, 12])
    @pytest.mark.parametrize("env", [CN, PP])
    def test_rollout_with_auto_resets(self, env, n, k):
        sync, batched = both(env, n, k)
        assert batched.num_envs == k and batched.num_agents == n
        assert batched.obs_dims == sync.obs_dims and batched.act_dims == sync.act_dims
        rng = np.random.default_rng(n * 10 + k)
        assert_same_obs(sync.reset(), batched.reset())
        resets = 0
        for _ in range(64):  # horizon 25: auto-resets at steps 25 and 50
            _obs, _rew, done, infos = step_both(sync, batched, soft_actions(rng, n, k))
            resets += int(done.all())
            assert infos == [{}] * k
        assert resets == 2

    @pytest.mark.parametrize("env", [CN, PP])
    def test_short_horizon_and_mid_episode_reset(self, env):
        sync, batched = both(env, 3, 4, max_episode_len=2)
        rng = np.random.default_rng(0)
        # stepping before any reset() continues from the make_world draw
        for _ in range(5):
            step_both(sync, batched, soft_actions(rng, 3, 4))
        assert_same_obs(sync.reset(), batched.reset())
        step_both(sync, batched, soft_actions(rng, 3, 4))
        assert_same_obs(sync.reset(), batched.reset())  # mid-episode
        for _ in range(5):
            step_both(sync, batched, soft_actions(rng, 3, 4))

    def test_unseeded_copies_have_the_right_shapes(self):
        batched = BatchedVectorEnv(make_env_factories(PP, 3, 2, seed=None))
        obs = batched.reset()
        assert [o.shape for o in obs] == [(2, 16)] * 3
        obs, rew, done, _ = batched.step(soft_actions(np.random.default_rng(0), 3, 2))
        assert [o.shape for o in obs] == [(2, 16)] * 3
        assert rew.shape == done.shape == (2, 3)
        assert np.isfinite(rew).all()

    @pytest.mark.parametrize("env", [CN, PP])
    def test_integer_actions(self, env):
        sync, batched = both(env, 3, 4)
        rng = np.random.default_rng(1)
        sync.reset(), batched.reset()
        for _ in range(30):
            step_both(sync, batched, list(rng.integers(0, 5, size=(3, 4))))

    def test_returned_arrays_survive_the_next_step(self):
        _sync, batched = both(CN, 3, 4, max_episode_len=3)
        rng = np.random.default_rng(2)
        held = batched.reset()
        for _ in range(7):
            copies = [np.array(o) for o in held]
            obs, rew, done, _ = batched.step(soft_actions(rng, 3, 4))
            for kept, copy in zip(held, copies):
                np.testing.assert_array_equal(kept, copy)
            held = obs
            rew_copy, done_copy = rew.copy(), done.copy()
            batched.step(soft_actions(rng, 3, 4))
            np.testing.assert_array_equal(rew, rew_copy)
            np.testing.assert_array_equal(done, done_copy)


class TestForcedGeometry:
    """Degenerate states a seeded rollout never reaches."""

    @pytest.mark.parametrize("env", [CN, PP])
    def test_coincident_agents_push_apart_along_x(self, env):
        sync, batched = both(env, 3, 2)
        sync.reset(), batched.reset()
        place(sync, batched, 0, 0, pos=(0.25, -0.5))
        place(sync, batched, 0, 1, pos=(0.25, -0.5))  # dist == 0
        place(sync, batched, 1, 2, pos=(0.1, 0.1))
        place(sync, batched, 1, 0, pos=(0.1, 0.1))
        rng = np.random.default_rng(0)
        for _ in range(3):
            step_both(sync, batched, soft_actions(rng, 3, 2))
        assert batched.p_pos[0, 0, 0] > batched.p_pos[0, 1, 0]

    def test_agent_overlapping_two_partners_pays_two_penalties(self):
        sync, batched = both(CN, 3, 2)
        sync.reset(), batched.reset()
        # rewards see the post-step state: agents 1 and 2 fly into agent 0
        place(sync, batched, 1, 0, pos=(0.0, 0.0), vel=(0.0, 0.0))
        place(sync, batched, 1, 1, pos=(0.4, 0.0), vel=(-2.0, 0.0))
        place(sync, batched, 1, 2, pos=(0.0, 0.4), vel=(0.0, -2.0))
        still = [np.tile([1.0, 0, 0, 0, 0], (2, 1))] * 3
        _obs, rew, _done, _ = step_both(sync, batched, still)
        # agent 0 overlaps both, each of them only agent 0: the penalties
        # come off one partner at a time
        assert rew[1, 0] == pytest.approx(rew[1, 1] - 1.0)
        assert rew[1, 1] == rew[1, 2]

    def test_prey_on_top_of_a_predator(self):
        sync, batched = both(PP, 3, 2)
        sync.reset(), batched.reset()
        prey = 3
        place(sync, batched, 0, prey, pos=(0.3, 0.3))
        place(sync, batched, 0, 1, pos=(0.3, 0.3))  # dist_sq < 1e-8
        place(sync, batched, 1, prey, pos=(-0.2, 0.4))
        place(sync, batched, 1, 0, pos=(-0.2 + 1e-5, 0.4))
        rng = np.random.default_rng(0)
        for _ in range(4):
            step_both(sync, batched, soft_actions(rng, 3, 2))

    def test_prey_flying_into_a_predator_is_caught(self):
        sync, batched = both(PP, 3, 2)
        sync.reset(), batched.reset()
        # rewards see the post-step state: the prey ends inside predator 0
        for entity, pos in enumerate([(0.0, 0.0), (0.9, 0.9), (-0.9, 0.9)]):
            place(sync, batched, 0, entity, pos=pos, vel=(0.0, 0.0))
        place(sync, batched, 0, 3, pos=(0.18, 0.0), vel=(-1.5, 0.0))
        still = [np.tile([1.0, 0, 0, 0, 0], (2, 1))] * 3
        _obs, rew, _done, _ = step_both(sync, batched, still)
        assert rew[0, 0] > 9.0 > rew[0, 1] == rew[0, 2]

    @pytest.mark.parametrize("pos", [(1.4, 0.2), (-1.3, 1.7), (0.2, -1.01)])
    def test_prey_outside_the_containment_bound(self, pos):
        sync, batched = both(PP, 3, 2)
        sync.reset(), batched.reset()
        place(sync, batched, 0, 3, pos=pos)
        rng = np.random.default_rng(0)
        for _ in range(4):
            step_both(sync, batched, soft_actions(rng, 3, 2))

    def test_motionless_prey_far_from_everyone(self):
        # flee force below the 1e-8 normalisation threshold
        sync, batched = both(PP, 1, 1, num_prey=1)
        sync.reset(), batched.reset()
        place(sync, batched, 0, 0, pos=(0.0, 3e8))
        place(sync, batched, 0, 1, pos=(0.0, 0.0))
        step_both(sync, batched, soft_actions(np.random.default_rng(0), 1, 1))

    def test_predator_runs_into_the_speed_clamp(self):
        sync, batched = both(PP, 3, 2, max_episode_len=40)
        sync.reset(), batched.reset()
        right = [np.tile([0, 1.0, 0, 0, 0], (2, 1))] * 3
        for _ in range(20):
            step_both(sync, batched, right)
        speed = np.sqrt(sum_sq(batched.p_vel[:, :3]))
        np.testing.assert_allclose(speed.max(), 1.0, rtol=1e-12)  # max_speed


class TestContract:
    def test_value_errors_carry_the_oracles_messages(self):
        sync, batched = both(CN, 3, 4)
        sync.reset(), batched.reset()
        good = soft_actions(np.random.default_rng(0), 3, 4)
        bad_inputs = [
            good[:2],  # wrong agent count
            [a[:3] for a in good],  # wrong row count
            [a[:, :4] for a in good],  # wrong action width
            [np.full(4, 7)] * 3,  # discrete action out of range
        ]
        for bad in bad_inputs:
            with pytest.raises(ValueError) as ref:
                sync.step(bad)
            with pytest.raises(ValueError) as got:
                batched.step(bad)
            assert str(got.value) == str(ref.value)
        with pytest.raises(ValueError, match="at least one environment factory"):
            BatchedVectorEnv([])

    @pytest.mark.parametrize(
        "env,n,scenario",
        [(CN, 12, CooperativeNavigationScenario), (PP, 6, PredatorPreyScenario)],
    )
    def test_step_never_calls_the_per_object_callbacks(self, env, n, scenario, monkeypatch):
        """Count guard in place of a timing assertion: the hot path is
        arrays only, no per-agent-per-copy Python callback."""
        batched = BatchedVectorEnv(make_env_factories(env, n, 8, seed=0))

        def boom(*_args, **_kwargs):
            raise AssertionError("per-object scenario callback on the array path")

        for name in ("observation", "reward", "benchmark_data", "reset_world"):
            monkeypatch.setattr(scenario, name, boom)
        rng = np.random.default_rng(0)
        batched.reset()
        for _ in range(30):  # crosses an auto-reset
            batched.step(soft_actions(rng, n, 8))

    def test_engine_selection_follows_what_the_env_is(self):
        assert isinstance(make_vector_env(CN, 3, 2), BatchedVectorEnv)
        assert isinstance(make_vector_env(PP, 6, 2), BatchedVectorEnv)
        assert isinstance(make_vector_env("keep_away", 3, 2), SyncVectorEnv)
        assert isinstance(make_vector_env("physical_deception", 3, 2), SyncVectorEnv)

        class ReshapedReward(CooperativeNavigationScenario):
            def reward(self, agent, world):  # array hook no longer mirrors it
                return 2.0 * super().reward(agent, world)

        def noisy(num_agents, seed, **_kwargs):
            env = make(CN, num_agents=num_agents, seed=seed)
            env.world.agents[0].u_noise = 0.1
            return env

        custom = {
            "batched_env_test_subclass": lambda num_agents, seed, **_kw: MultiAgentEnv(
                ReshapedReward(num_agents), seed=seed
            ),
            "batched_env_test_shared": lambda num_agents, seed, **_kw: MultiAgentEnv(
                CooperativeNavigationScenario(num_agents), seed=seed, shared_reward=True
            ),
            "batched_env_test_noisy": noisy,
        }
        for name, factory in custom.items():
            if name not in available_envs():
                register(name, factory)
            vec = make_vector_env(name, 3, 2)
            assert isinstance(vec, SyncVectorEnv), name
            with pytest.raises(ValueError, match="use SyncVectorEnv"):
                BatchedVectorEnv(make_env_factories(name, 3, 2))
        # an unscripted prey is a second observation width
        unscripted = [lambda: MultiAgentEnv(PredatorPreyScenario(3), seed=0, script_prey=False)]
        assert isinstance(serial_vector_env(unscripted), SyncVectorEnv)


@pytest.mark.parametrize("algorithm,env", [("maddpg", CN), ("matd3", PP)])
def test_training_ends_with_equal_parameters(algorithm, env):
    """60 sweeps of the real driver: same replay rows, same update rounds,
    same actor and critic parameters on either engine."""
    config = MARLConfig(batch_size=32, buffer_capacity=1024, update_every=16)
    trainers = []
    for engine in (SyncVectorEnv, BatchedVectorEnv):
        vec = engine(make_env_factories(env, 3, 4, seed=5))
        trainer = build_trainer(
            algorithm, "baseline", vec.obs_dims, vec.act_dims, config=config, seed=5
        )
        train_steps(vec, trainer, 60)
        trainers.append(trainer)
    ref, got = trainers
    assert got.update_rounds == ref.update_rounds > 0
    for agent_ref, agent_got in zip(ref.agents, got.agents):
        for net in ("actor", "critic"):
            for p, q in zip(
                getattr(agent_ref, net).parameters(), getattr(agent_got, net).parameters()
            ):
                assert np.array_equal(p.value, q.value)
