"""Named trainer variants: every configuration the paper evaluates.

Factory helpers wiring trainers to the sampling strategies so benches
and examples can say ``build_trainer("maddpg", "cache_aware_n64_r16",
env)`` and get exactly the paper's configuration:

* ``baseline`` — uniform random sampling (reference gather loop)
* ``cache_aware_n16_r64`` — randomness-preserving locality (Fig. 8/9/10)
* ``cache_aware_n64_r16`` — locality-maximizing (Fig. 8/9/10)
* ``per`` — PER-MADDPG / PER-MATD3 prioritization baseline (Fig. 11)
* ``info_prioritized`` — the paper's §IV-B1 optimization (Fig. 11)
* ``reuse_w<k>`` / ``accmer_w<k>`` — AccMER-style transition reuse

The §IV-B2 layout reorganization is not a sampler: inside a trainer it
is the replay storage engine (``MARLConfig(storage="timestep_major")``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Type

from ..core.samplers import (
    CacheAwareSampler,
    InformationPrioritizedSampler,
    PrioritizedSampler,
    Sampler,
    UniformSampler,
)
from .config import MARLConfig
from .maddpg import MADDPGTrainer
from .matd3 import MATD3Trainer

__all__ = [
    "ALGORITHMS",
    "VARIANTS",
    "make_sampler",
    "build_trainer",
]

ALGORITHMS: Dict[str, Type[MADDPGTrainer]] = {
    "maddpg": MADDPGTrainer,
    "matd3": MATD3Trainer,
}

#: Variant names accepted by :func:`build_trainer`.
VARIANTS = (
    "baseline",
    "cache_aware_n16_r64",
    "cache_aware_n64_r16",
    "per",
    "info_prioritized",
    "reuse_w4",
    "accmer_w4",
)


def make_sampler(
    variant: str,
    batch_size: int,
    *,
    beta: float = 0.4,
    fast_path: bool = False,
) -> Sampler:
    """Sampler for a variant name.

    Option flags (``beta``, ``fast_path``) are keyword-only, so call
    sites always spell out which engine knob they are turning.

    ``fast_path=True`` builds the variant's sampler on the vectorized
    sampling engine (observably equivalent draws, batched execution);
    the default keeps the paper's characterized scalar loops.

    Samplers are storage-agnostic by design: each draws *indices* (or
    runs) and gathers through the replay facade, which routes to the
    configured engine.  The same sampler object serves both layouts.
    """
    if variant == "baseline":
        return UniformSampler(fast_path=fast_path)
    if variant.startswith("cache_aware_n"):
        body = variant[len("cache_aware_n"):]
        try:
            n_str, r_str = body.split("_r")
            neighbors, refs = int(n_str), int(r_str)
        except ValueError:
            raise ValueError(
                f"bad cache-aware variant {variant!r}; expected "
                "cache_aware_n<neighbors>_r<refs>"
            ) from None
        if neighbors * refs != batch_size:
            raise ValueError(
                f"variant {variant!r}: {neighbors} * {refs} != batch size {batch_size}"
            )
        return CacheAwareSampler(neighbors=neighbors, refs=refs, fast_path=fast_path)
    if variant == "per":
        return PrioritizedSampler(beta=beta, fast_path=fast_path)
    if variant == "info_prioritized":
        return InformationPrioritizedSampler(beta=beta, fast_path=fast_path)
    if variant.startswith("reuse_w") or variant.startswith("accmer_w"):
        # AccMER-style transition reuse (related work [43]): reuse_w<k>
        # wraps the uniform baseline, accmer_w<k> wraps PER
        from ..core.reuse import ReuseWindowSampler

        prefix, base_factory = (
            ("reuse_w", lambda: UniformSampler(fast_path=fast_path))
            if variant.startswith("reuse_w")
            else ("accmer_w", lambda: PrioritizedSampler(beta=beta, fast_path=fast_path))
        )
        try:
            window = int(variant[len(prefix):])
        except ValueError:
            raise ValueError(
                f"bad reuse variant {variant!r}; expected {prefix}<window>"
            ) from None
        return ReuseWindowSampler(base_factory(), window=window)
    if variant.startswith(("layout", "baseline_")):
        # the retired spellings of the engine flags: they trained
        # bit-identically to ``baseline`` on those flags
        raise ValueError(
            f"variant {variant!r} was removed; use --variant baseline --fast-path "
            "[--storage timestep_major] (MARLConfig(fast_path=True, "
            "storage='timestep_major'))"
        )
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def build_trainer(
    algorithm: str,
    variant: str,
    obs_dims: Sequence[int],
    act_dims: Sequence[int],
    config: Optional[MARLConfig] = None,
    *,
    seed: Optional[int] = None,
) -> MADDPGTrainer:
    """Construct an algorithm x variant trainer on explicit dimensions.

    ``config`` is the one selector of every engine (sampling fast path,
    batched update, storage); ``seed`` is keyword-only.
    """
    try:
        trainer_cls = ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        ) from None
    config = config if config is not None else MARLConfig()
    sampler = make_sampler(
        variant,
        config.batch_size,
        beta=config.per_beta0,
        fast_path=config.fast_path,
    )
    return trainer_cls(obs_dims, act_dims, config=config, sampler=sampler, seed=seed)
