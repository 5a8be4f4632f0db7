"""Adam parameter updates with bias correction and decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor


@dataclass
class OptimizerState:
    """First/second moments per parameter plus hyperparameters.

    A positive weight_decay applies the decoupled decay (AdamW)
    theta <- theta - lr * wd * theta before the Adam update.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValidationError("learning rate must be positive")


def optimizer_step(
    state: OptimizerState,
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
) -> None:
    """One update over all parameters; mutates params and state in place."""
    state.t += 1
    bias1 = 1.0 - state.beta1 ** state.t
    bias2 = 1.0 - state.beta2 ** state.t
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.values.shape:
            raise ValidationError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{name!r} of shape {param.values.shape}"
            )
        if not np.all(np.isfinite(grad)):
            raise ValidationError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(param.values)
            state.v[name] = np.zeros_like(param.values)
        if state.weight_decay > 0.0:
            param.values -= state.lr * state.weight_decay * param.values
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        param.values -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
