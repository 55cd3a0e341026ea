"""Vectorized experience collection (WarpDrive-inspired extension).

The paper's related work (WarpDrive [42]) scales RL throughput by
running many environment copies so network passes batch across them.
This example measures that effect in the reproduction: collect the same
number of transitions with K sequential single-env loops versus one
K-copy vectorized loop, and report the action-selection amortization.

Also demonstrates the task-level metrics collector (predator catches /
landmark coverage).

Usage::

    python examples/vectorized_collection.py [--copies 8] [--steps 100]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import repro
from repro.envs import make, make_vector_env
from repro.training import MetricsCollector, collect_steps, run_episode_with_metrics


def sequential_collect(env_seeds, trainer, steps):
    """Reference: step each env copy one after another."""
    envs = [
        make("cooperative_navigation", num_agents=2, seed=s) for s in env_seeds
    ]
    obs = [env.reset() for env in envs]
    for _ in range(steps):
        for k, env in enumerate(envs):
            actions = trainer.act(obs[k])
            next_obs, rewards, dones, _ = env.step(actions)
            trainer.experience(obs[k], actions, rewards, next_obs, dones)
            obs[k] = env.reset() if all(dones) else next_obs
            trainer.update()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--copies", type=int, default=8)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = repro.MARLConfig(batch_size=64, buffer_capacity=16_384, update_every=50)
    seeds = list(range(args.copies))

    # -- sequential reference -------------------------------------------------
    env0 = make("cooperative_navigation", num_agents=2, seed=0)
    trainer_seq = repro.make_trainer(
        "maddpg", "baseline", env0.obs_dims, env0.act_dims, config=config, seed=args.seed
    )
    start = time.perf_counter()
    sequential_collect(seeds, trainer_seq, args.steps)
    seq_seconds = time.perf_counter() - start
    seq_action = trainer_seq.timer.total("action_selection")

    # -- vectorized collection --------------------------------------------------
    # make_vector_env builds the per-copy seeded factories (seed, seed+1,
    # ...) and picks the engine: the serial one here (workers=0) — for
    # this scenario BatchedVectorEnv, all copies stepped as one array
    # program — or the process-parallel ParallelVectorEnv with
    # --env-workers >= 2 / REPRO_ENV_WORKERS
    vec = make_vector_env(
        "cooperative_navigation", num_agents=2, copies=args.copies, seed=0
    )
    trainer_vec = repro.make_trainer(
        "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=config, seed=args.seed
    )
    start = time.perf_counter()
    stats = collect_steps(vec, trainer_vec, steps=args.steps)
    vec_seconds = time.perf_counter() - start
    vec_action = trainer_vec.timer.total("action_selection")
    if hasattr(vec, "close"):
        vec.close()

    print(f"collected {int(stats['transitions'])} transitions with {args.copies} copies:")
    print(f"  sequential loop: {seq_seconds:.2f}s "
          f"(action selection {seq_action * 1e3:.0f}ms)")
    print(f"  vectorized loop: {vec_seconds:.2f}s "
          f"(action selection {vec_action * 1e3:.0f}ms)")
    print(f"  action-selection amortization: {seq_action / max(vec_action, 1e-9):.1f}x "
          f"(one batched forward per agent instead of {args.copies})")

    # -- task metrics -------------------------------------------------------------
    print("\ntask-level metrics over 5 greedy predator-prey episodes:")
    env = make("predator_prey", num_agents=3, seed=1)
    trainer_pp = repro.make_trainer(
        "maddpg", "baseline", env.obs_dims, env.act_dims, config=config, seed=args.seed
    )
    collector = MetricsCollector()
    for _ in range(5):
        run_episode_with_metrics(env, trainer_pp, collector, explore=True, learn=False)
    summary = collector.summary()
    print(f"  episodes: {int(summary['episodes'])}, "
          f"mean catches/episode: {summary['mean_collisions']:.2f}")


if __name__ == "__main__":
    main()
