"""Adam parameter updates with bias correction and decoupled weight decay.
Each step consumes the gradients that backward left on the parameters."""

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


def optimizer_step(state: OptimizerState, params: dict[str, Tensor]) -> None:
    """One update over all parameters from their `.grad` (None for a
    parameter the loss never reached, which steps as zeros); mutates params
    and state in place and consumes each gradient, setting `.grad` to None."""
    state.t += 1
    bias1 = 1.0 - state.beta1 ** state.t
    bias2 = 1.0 - state.beta2 ** state.t
    for name, param in params.items():
        grad = np.zeros_like(param.values) if param.grad is None else param.grad
        if grad.shape != param.values.shape:
            raise ValidationError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{name!r} of shape {param.values.shape}"
            )
        if not np.isfinite(grad).all():
            raise ValidationError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(param.values)
            state.v[name] = np.zeros_like(param.values)
        _update(state, param.values, state.m[name], state.v[name], grad, bias1, bias2)
        param.grad = None


def _update(state: OptimizerState, values: np.ndarray, m: np.ndarray, v: np.ndarray,
            grad: np.ndarray, bias1: float, bias2: float) -> None:
    """One parameter's step in place: the textbook expressions' operations
    in their order, through two scratch arrays of its size, freed on return."""
    a, b = np.empty_like(values), np.empty_like(values)
    if state.weight_decay > 0.0:
        values -= np.multiply(values, state.lr * state.weight_decay, out=a)
    m *= state.beta1
    m += np.multiply(grad, 1.0 - state.beta1, out=a)
    v *= state.beta2
    v += np.multiply(np.multiply(grad, 1.0 - state.beta2, out=a), grad, out=a)
    # values -= lr * (m / bias1) / (sqrt(v / bias2) + epsilon)
    np.multiply(np.divide(m, bias1, out=a), state.lr, out=a)
    np.add(np.sqrt(np.divide(v, bias2, out=b), out=b), state.epsilon, out=b)
    values -= np.divide(a, b, out=a)
