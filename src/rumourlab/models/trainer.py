"""Mini-batch training loop shared by the LSTM and Bi-GCN models:
seeded shuffling and initialization, early stopping on dev loss with
best-parameter restore. Both entry points take the model's own prepared
data (`model.prepare(threads)`), so a caller prepares each split once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import RunConfig
from ..errors import ValidationError
from ..gradengine import (
    OptimizerState,
    Tensor,
    backward,
    collect_grads,
    optimizer_step,
    zero_grads,
)
from ..ingest import RUMOUR


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    dev_loss: float
    dev_accuracy: float


@dataclass(frozen=True)
class FitResult:
    params: dict[str, Tensor]
    history: tuple[EpochRecord, ...]
    best_epoch: int


def _batch_indices(n: int, batch_size: int,
                   order: Optional[np.ndarray] = None) -> list[np.ndarray]:
    index = np.arange(n) if order is None else order
    return [index[at:at + batch_size] for at in range(0, n, batch_size)]


def _score(model, params: dict[str, Tensor], data, batch_size: int):
    """Eval-mode loss, labels and scores per batch of `data`. The model
    sees constant views of the parameters, so the engine keeps no graph."""
    constants = {name: Tensor(p.values) for name, p in params.items()}
    for index in _batch_indices(len(data), batch_size):
        batch = model.slice(data, index)
        yield batch, model.loss_and_predictions(constants, batch, train=False)


def _evaluate(model, params, data, batch_size: int) -> tuple[float, float]:
    """Weighted-mean loss and accuracy over a dataset, in eval mode."""
    total_loss = 0.0
    correct = 0
    for batch, (loss, labels, _) in _score(model, params, data, batch_size):
        total_loss += loss.item() * len(batch)
        predicted = np.array([1 if label == RUMOUR else 0 for label in labels])
        correct += int((predicted == batch.targets).sum())
    return total_loss / len(data), correct / len(data)


def _snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.values.copy() for name, p in params.items()}


def fit(model, train_data, dev_data, config: RunConfig, seed: int) -> FitResult:
    """Train a gradient model on `model.prepare` output with the optimizer
    and loop settings of `config`, restoring the parameters of the epoch
    with the lowest dev loss. Fully deterministic for a given config and
    seed."""
    if not train_data or not dev_data:
        raise ValidationError("train and dev sets must both be non-empty")
    rng = np.random.default_rng(seed)
    params = model.init_params(rng)
    state = OptimizerState(lr=config.lr, weight_decay=config.weight_decay,
                           epsilon=config.epsilon)
    history: list[EpochRecord] = []
    best_loss = np.inf
    best_params = _snapshot(params)
    best_epoch = 0
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_data))
        for batch_no, index in enumerate(
                _batch_indices(len(train_data), config.batch_size, order), start=1):
            batch = model.slice(train_data, index)
            zero_grads(params.values())
            loss, _, _ = model.loss_and_predictions(params, batch, train=True, rng=rng)
            if not np.isfinite(loss.item()):
                raise ValidationError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {batch_no}"
                )
            backward(loss)
            optimizer_step(state, params, collect_grads(params))
        train_loss, train_acc = _evaluate(model, params, train_data, config.batch_size)
        dev_loss, dev_acc = _evaluate(model, params, dev_data, config.batch_size)
        history.append(EpochRecord(
            epoch=epoch, train_loss=train_loss, train_accuracy=train_acc,
            dev_loss=dev_loss, dev_accuracy=dev_acc,
        ))
        if dev_loss < best_loss:
            best_loss = dev_loss
            best_params = _snapshot(params)
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    for name, param in params.items():
        param.values = best_params[name]
    return FitResult(params=params, history=tuple(history), best_epoch=best_epoch)


def predict_threads(model, params: dict[str, Tensor], data,
                    batch_size: int = 64) -> tuple[list[str], np.ndarray]:
    """Labels and scores for `model.prepare` output under a trained
    gradient model."""
    labels: list[str] = []
    scores: list[float] = []
    for _, (_, batch_labels, batch_scores) in _score(model, params, data, batch_size):
        labels.extend(batch_labels)
        scores.extend(batch_scores)
    return labels, np.array(scores)
