"""Numpy neural-network substrate for the MARL reproduction.

This package replaces the PyTorch/TensorFlow dependency of the reference
MADDPG/MATD3 implementations with an auditable, seedable, pure-numpy layer
library: modules with explicit forward/backward passes, the paper's
two-layer 64-unit ReLU MLP topology, MSE/weighted-MSE losses, and the
Adam optimizer (lr = 0.01 per the paper's software settings).
"""

from .functional import gumbel_noise, gumbel_softmax, one_hot, softmax
from .init import (
    get_initializer,
    he_normal,
    he_uniform,
    uniform_fan_in,
    xavier_normal,
    xavier_uniform,
)
from .layers import (
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)
from .losses import mse_loss, weighted_mse_loss
from .mlp import PAPER_HIDDEN_UNITS, actor_mlp, critic_mlp, mlp
from .module import Module, Parameter
from .optim import Adam, Optimizer, clip_grad_norm
from .stacked import (
    StackedLinear,
    clip_grad_norm_stacked,
    inference_forward,
    single_forward,
    stack_adam_states,
    stack_sequentials,
)

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "Identity",
    "Sequential",
    "mlp",
    "actor_mlp",
    "critic_mlp",
    "PAPER_HIDDEN_UNITS",
    "mse_loss",
    "weighted_mse_loss",
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "StackedLinear",
    "single_forward",
    "inference_forward",
    "stack_sequentials",
    "clip_grad_norm_stacked",
    "stack_adam_states",
    "one_hot",
    "softmax",
    "gumbel_noise",
    "gumbel_softmax",
    "xavier_uniform",
    "xavier_normal",
    "he_uniform",
    "he_normal",
    "uniform_fan_in",
    "get_initializer",
]
