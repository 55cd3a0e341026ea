"""MARL algorithms: MADDPG, MATD3, and their optimized variants."""

from .agent import ActorCriticAgent
from .batched_update import BatchedUpdateEngine
from .checkpoint import checkpoint_metadata, load_checkpoint, save_checkpoint
from .config import PAPER_CONFIG, MARLConfig
from .maddpg import MADDPGTrainer
from .matd3 import MATD3Trainer
from .variants import ALGORITHMS, VARIANTS, build_trainer, make_sampler

__all__ = [
    "MARLConfig",
    "PAPER_CONFIG",
    "ActorCriticAgent",
    "BatchedUpdateEngine",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_metadata",
    "MADDPGTrainer",
    "MATD3Trainer",
    "ALGORITHMS",
    "VARIANTS",
    "build_trainer",
    "make_sampler",
]
