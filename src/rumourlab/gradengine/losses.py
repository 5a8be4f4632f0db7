"""Loss functions over engine tensors.

Probabilities are clamped to [1e-12, 1 - 1e-12] inside the logs, so the
binary and weighted cross-entropies stay finite for any input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor, _accumulate, _node, mask_mul, mean_all, relu, sum_all

PROB_CLAMP = 1e-12


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.clip(values, PROB_CLAMP, 1.0 - PROB_CLAMP)


def bce_loss(
    predictions: Tensor,
    targets: np.ndarray,
    sample_weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Binary cross-entropy, optionally with per-example weights
    (weighted mean, normalized by the weight total)."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != predictions.shape:
        raise ValidationError(
            f"bce: targets {y.shape} do not match predictions {predictions.shape}"
        )
    w = np.ones_like(y) if sample_weights is None else np.asarray(sample_weights, dtype=np.float64)
    total_w = w.sum()
    p = _clamp(predictions.values)
    value = -(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))).sum() / total_w

    def _back(grad):
        g = -w * (y / p - (1.0 - y) / (1.0 - p)) / total_w
        _accumulate(predictions, float(grad) * g)
    return _node(value, (predictions,), _back)


def weighted_ce_loss(
    probabilities: Tensor,
    targets: np.ndarray,
    class_weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Class-weighted cross-entropy over per-row class probabilities:
    -sum(w_y * ln p[i, y_i]) / sum(w_y). All weights 1 gives the plain
    mean cross-entropy."""
    y = np.asarray(targets, dtype=int)
    if probabilities.values.ndim != 2 or len(y) != probabilities.shape[0]:
        raise ValidationError(
            f"weighted_ce: {len(y)} targets for probabilities {probabilities.shape}"
        )
    n_classes = probabilities.shape[1]
    cw = np.ones(n_classes) if class_weights is None else np.asarray(class_weights, dtype=np.float64)
    w = cw[y]
    total_w = w.sum()
    p = _clamp(probabilities.values)
    picked = p[np.arange(len(y)), y]
    value = -(w * np.log(picked)).sum() / total_w

    def _back(grad):
        g = np.zeros_like(p)
        g[np.arange(len(y)), y] = -w / (picked * total_w)
        _accumulate(probabilities, float(grad) * g)
    return _node(value, (probabilities,), _back)


def hinge_loss(
    scores: Tensor,
    targets: np.ndarray,
    weight_param: Optional[Tensor] = None,
    l2: float = 0.0,
    sample_weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Mean hinge loss max(0, 1 - y * s) for targets in {-1, +1}, plus an
    optional l2 * ||w||^2 penalty on weight_param. Built from engine
    primitives, so the relu subgradient convention carries over."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != scores.shape:
        raise ValidationError(
            f"hinge: targets {y.shape} do not match scores {scores.shape}"
        )
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValidationError("hinge targets must be -1 or +1")
    margins = relu(1.0 - mask_mul(scores, y))
    if sample_weights is None:
        loss = mean_all(margins)
    else:
        w = np.asarray(sample_weights, dtype=np.float64)
        loss = sum_all(mask_mul(margins, w / w.sum()))
    if weight_param is not None and l2 > 0.0:
        loss = loss + l2 * sum_all(weight_param * weight_param)
    return loss
