"""AdamW with decoupled weight decay.

Weight decay multiplies the parameter directly (theta *= 1 - lr*wd) instead
of being folded into the gradient; moments are bias-corrected. Parameters
are any name -> node mapping, updated in its order. The hyperparameters are
checked where they come from: `config.TrainConfig` for training, constants
for the linear probe.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node


@dataclass
class AdamWState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-5
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def for_params(params: Mapping[str, Node], **hyper) -> "AdamWState":
        state = AdamWState(**hyper)
        for name, node in params.items():
            state.m[name] = np.zeros_like(node.value)
            state.v[name] = np.zeros_like(node.value)
        return state


def adamw_step(params: Mapping[str, Node], state: AdamWState) -> None:
    """One update over every parameter of the mapping, in its order. Every
    parameter must hold a gradient: the callers set one before each step."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for name, node in params.items():
        grad = node.grad
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        if state.weight_decay != 0.0:
            node.value *= 1.0 - state.lr * state.weight_decay
        node.value -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
