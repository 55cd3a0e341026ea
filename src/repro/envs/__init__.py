"""Multi-agent particle environment substrate (MPE reimplementation).

Rebuilds OpenAI's multiagent-particle-envs from scratch: a 2-D physics
world, the paper's two tasks (Predator-Prey / ``simple_tag`` and
Cooperative Navigation / ``simple_spread``), scripted flee-policy prey,
and a Gym-style multi-agent API.  Observation dimensions match the
paper's quoted spaces (PP-3: Box(16)/Box(14); CN-N: Box(6N)).
"""

from .batched import BatchedVectorEnv
from .core import Action, Agent, AgentState, Entity, EntityState, Landmark, World, is_collision
from .environment import NUM_MOVEMENT_ACTIONS, MultiAgentEnv
from .factory import make_env_factories, make_vector_env
from .parallel import ParallelVectorEnv, WorkerCrashError
from .prey_policy import FleePolicy, make_prey_callback
from .registry import available_envs, make, register
from .scenario import BaseScenario
from .scenarios.cooperative_navigation import CooperativeNavigationScenario
from .scenarios.keep_away import KeepAwayScenario
from .scenarios.physical_deception import PhysicalDeceptionScenario
from .scenarios.predator_prey import PredatorPreyScenario, default_prey_counts
from .spaces import Box, Discrete
from .vector import SyncVectorEnv

__all__ = [
    "World",
    "Agent",
    "Landmark",
    "Entity",
    "EntityState",
    "AgentState",
    "Action",
    "is_collision",
    "MultiAgentEnv",
    "NUM_MOVEMENT_ACTIONS",
    "BaseScenario",
    "PredatorPreyScenario",
    "CooperativeNavigationScenario",
    "PhysicalDeceptionScenario",
    "KeepAwayScenario",
    "default_prey_counts",
    "FleePolicy",
    "make_prey_callback",
    "Box",
    "Discrete",
    "make",
    "register",
    "available_envs",
    "SyncVectorEnv",
    "BatchedVectorEnv",
    "ParallelVectorEnv",
    "WorkerCrashError",
    "make_env_factories",
    "make_vector_env",
]
