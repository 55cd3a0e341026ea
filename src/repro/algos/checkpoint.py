"""Trainer checkpointing: save/resume training runs.

Long MARL runs (the paper's 60k-episode trainings take days) need
durable checkpoints.  A checkpoint captures every agent's four (or six,
for MATD3) networks, both Adam optimizers' moment state, the trainer's
counters and its RNG stream (sampling, exploration, MATD3 smoothing
noise) — everything required for bit-exact resumption of the
*learning* state.  Replay contents are optionally included; at the
paper's 1M-row capacity they dominate the file size, so they default to
excluded (resume then behaves like a fresh buffer warm-up).

Format: a single ``.npz`` archive of flat arrays plus a JSON metadata
blob, readable with plain numpy.
"""

from __future__ import annotations

import json
from typing import Dict

import numpy as np

from ..buffers.prioritized import PrioritizedReplayBuffer
from ..nn.module import Module
from ..nn.optim import Adam
from .maddpg import MADDPGTrainer

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_metadata"]

_FORMAT_VERSION = 1


def _module_arrays(prefix: str, module: Module, out: Dict[str, np.ndarray]) -> None:
    for name, value in module.state_dict().items():
        out[f"{prefix}/{name}"] = value


def _load_module(prefix: str, module: Module, data) -> None:
    state = {}
    for name, _param in module.named_parameters():
        key = f"{prefix}/{name}"
        if key not in data:
            raise KeyError(f"checkpoint missing tensor {key!r}")
        state[name] = data[key]
    module.load_state_dict(state)


def _optimizer_arrays(prefix: str, optimizer: Adam, out: Dict[str, np.ndarray]) -> None:
    out[f"{prefix}/t"] = np.array([optimizer.t], dtype=np.int64)
    for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
        out[f"{prefix}/m{i}"] = m
        out[f"{prefix}/v{i}"] = v


def _load_optimizer(prefix: str, optimizer: Adam, data) -> None:
    optimizer.t = int(data[f"{prefix}/t"][0])
    for i in range(len(optimizer._m)):
        m = data[f"{prefix}/m{i}"]
        v = data[f"{prefix}/v{i}"]
        if m.shape != optimizer._m[i].shape:
            raise ValueError(
                f"optimizer state shape mismatch at {prefix}/m{i}: "
                f"{m.shape} vs {optimizer._m[i].shape}"
            )
        np.copyto(optimizer._m[i], m)
        np.copyto(optimizer._v[i], v)


def checkpoint_metadata(trainer: MADDPGTrainer) -> Dict:
    """JSON-serializable description of a trainer's identity and progress."""
    return {
        "format_version": _FORMAT_VERSION,
        "algorithm": trainer.name,
        "num_agents": trainer.num_agents,
        "obs_dims": list(trainer.obs_dims),
        "act_dims": list(trainer.act_dims),
        "twin_critics": trainer.twin_critics,
        "total_env_steps": trainer.total_env_steps,
        "update_rounds": trainer.update_rounds,
        "steps_since_update": trainer.steps_since_update,
        "beta_step_count": trainer.beta_schedule.step_count,
        # ring-cursor state: after wraparound the next overwrite slot is
        # not derivable from the size, so resumes record it explicitly
        "replay_size": len(trainer.replay),
        "replay_next_idx": trainer.replay.buffers[0].next_index,
        "replay_storage": trainer.replay.storage,
        # the one RNG stream an update trajectory depends on
        "rng_state": trainer.rng.bit_generator.state,
    }


def save_checkpoint(
    trainer: MADDPGTrainer,
    path: str,
    include_replay: bool = False,
) -> None:
    """Write the trainer's learning state to ``path`` (.npz).

    ``include_replay=True`` additionally archives every agent's buffer
    contents (obs/act/rew/next_obs/done up to the valid size).
    """
    arrays: Dict[str, np.ndarray] = {}
    for i, agent in enumerate(trainer.agents):
        _module_arrays(f"agent{i}/actor", agent.actor, arrays)
        _module_arrays(f"agent{i}/target_actor", agent.target_actor, arrays)
        _module_arrays(f"agent{i}/critic", agent.critic, arrays)
        _module_arrays(f"agent{i}/target_critic", agent.target_critic, arrays)
        if agent.twin:
            _module_arrays(f"agent{i}/critic2", agent.critic2, arrays)
            _module_arrays(f"agent{i}/target_critic2", agent.target_critic2, arrays)
        _optimizer_arrays(f"agent{i}/actor_opt", agent.actor_optimizer, arrays)
        _optimizer_arrays(f"agent{i}/critic_opt", agent.critic_optimizer, arrays)
    if include_replay:
        for i, buf in enumerate(trainer.replay.buffers):
            views = buf.storage_views()
            for field, arr in views.items():
                arrays[f"replay{i}/{field}"] = np.asarray(arr)
            if isinstance(buf, PrioritizedReplayBuffer) and len(buf) > 0:
                idx = np.arange(len(buf))
                arrays[f"replay{i}/prio"] = buf._sum_tree.leaf_values(idx)
                arrays[f"replay{i}/max_priority"] = np.array(
                    [buf._max_priority], dtype=np.float64
                )
    arrays["__meta__"] = np.frombuffer(
        json.dumps(checkpoint_metadata(trainer)).encode(), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def load_checkpoint(
    trainer: MADDPGTrainer,
    path: str,
    strict_progress: bool = True,
) -> Dict:
    """Restore a trainer's learning state from ``path``.

    The trainer must be constructed with the same topology (algorithm,
    dims, twin critics); mismatches raise before any state is modified.
    Returns the checkpoint metadata.  ``strict_progress=False`` skips
    restoring the step/round counters and the RNG stream (useful for
    fine-tuning restarts).
    """
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta.get('format_version')}"
            )
        if meta["algorithm"] != trainer.name:
            raise ValueError(
                f"checkpoint is for {meta['algorithm']!r}, trainer is {trainer.name!r}"
            )
        if (
            meta["obs_dims"] != list(trainer.obs_dims)
            or meta["act_dims"] != list(trainer.act_dims)
        ):
            raise ValueError(
                "checkpoint dimensions do not match the trainer: "
                f"{meta['obs_dims']}/{meta['act_dims']} vs "
                f"{trainer.obs_dims}/{trainer.act_dims}"
            )
        for i, agent in enumerate(trainer.agents):
            _load_module(f"agent{i}/actor", agent.actor, data)
            _load_module(f"agent{i}/target_actor", agent.target_actor, data)
            _load_module(f"agent{i}/critic", agent.critic, data)
            _load_module(f"agent{i}/target_critic", agent.target_critic, data)
            if agent.twin:
                _load_module(f"agent{i}/critic2", agent.critic2, data)
                _load_module(f"agent{i}/target_critic2", agent.target_critic2, data)
            _load_optimizer(f"agent{i}/actor_opt", agent.actor_optimizer, data)
            _load_optimizer(f"agent{i}/critic_opt", agent.critic_optimizer, data)
        replay_key = "replay0/obs"
        if replay_key in data:
            _restore_replay(trainer, data, meta)
        if strict_progress:
            trainer.total_env_steps = int(meta["total_env_steps"])
            trainer.update_rounds = int(meta["update_rounds"])
            trainer.steps_since_update = int(meta["steps_since_update"])
            trainer.beta_schedule.step_count = int(meta["beta_step_count"])
            if "rng_state" in meta:  # absent from older checkpoints
                # in place: the agents share this generator object
                trainer.rng.bit_generator.state = meta["rng_state"]
    return meta


def _restore_replay(trainer: MADDPGTrainer, data, meta: Dict) -> None:
    """Refill the trainer's replay from archived buffer contents.

    Rows are written back into their original *slots* (archived views
    are in slot order, not insertion order), so the ring cursor must be
    restored from metadata rather than replayed through ``add`` — after
    wraparound the next overwrite position is not derivable from the
    size.  Slot assignment goes through the front-end arrays, which on
    the timestep-major engine are views into the shared arena, so both
    storage engines round-trip identically.  PER priorities restore from
    the archived sum-tree leaves; checkpoints predating priority
    archiving fall back to re-entering every row at the max priority,
    exactly as the old ``add``-replay restore did.
    """
    replay = trainer.replay
    replay.clear()
    size = int(data["replay0/obs"].shape[0])
    if size > replay.capacity:
        raise ValueError(
            f"checkpoint holds {size} replay rows; trainer capacity is "
            f"{replay.capacity}"
        )
    for i, buf in enumerate(replay.buffers):
        buf._obs[:size] = data[f"replay{i}/obs"]
        buf._act[:size] = data[f"replay{i}/act"]
        buf._rew[:size] = data[f"replay{i}/rew"]
        buf._next_obs[:size] = data[f"replay{i}/next_obs"]
        buf._done[:size] = data[f"replay{i}/done"]
    next_idx = int(meta.get("replay_next_idx", size % replay.capacity))
    replay.restore_cursor(size, next_idx)
    if size == 0:
        return
    idx = np.arange(size)
    for i, buf in enumerate(replay.buffers):
        if not isinstance(buf, PrioritizedReplayBuffer):
            continue
        key = f"replay{i}/prio"
        if key in data:
            leaves = np.asarray(data[key], dtype=np.float64)
            buf._max_priority = float(data[f"replay{i}/max_priority"][0])
        else:
            leaves = np.full(size, buf._max_priority**buf.alpha, dtype=np.float64)
        buf._sum_tree.set_batch(idx, leaves)
        buf._min_tree.set_batch(idx, leaves)
