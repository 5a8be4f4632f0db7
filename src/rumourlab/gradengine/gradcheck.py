"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, backward


def grad_check(
    fn: Callable[[dict[str, Tensor]], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords_per_param: int = 8,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference
    gradients over a random sample of coordinates.

    `fn` must rebuild its graph from `params` on every call and be
    deterministic. Relative error is |a - n| / max(1e-8, |a| + |n|).
    Analytic gradients are one backward's `.grad`, which forward calls leave alone.
    """
    for param in params.values():
        param.grad = None
    backward(fn(params))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for param in params.values():
        flat = param.values.reshape(-1)
        analytic = np.zeros(flat.size) if param.grad is None else param.grad.reshape(-1)
        size = flat.size
        count = min(max_coords_per_param, size)
        coords = rng.choice(size, size=count, replace=False)
        for coord in coords:
            original = flat[coord]
            flat[coord] = original + eps
            upper = fn(params).item()
            flat[coord] = original - eps
            lower = fn(params).item()
            flat[coord] = original
            numeric = (upper - lower) / (2.0 * eps)
            a = analytic[coord]
            error = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, error)
    return worst
