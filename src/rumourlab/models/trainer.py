"""Mini-batch training loop shared by the LSTM and Bi-GCN models:
seeded shuffling and Xavier initialization, early stopping on dev loss with
best-parameter restore. Both entry points take the model's own prepared
data (`model.prepare(threads)`), so a caller prepares each split once.
A parameter's gradient lives from `backward` to the Adam step that
consumes it, so the epoch's evaluation and `fit`'s caller see none.
`GradientModel` gives both models the run operations over this loop.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..config import RunConfig
from ..errors import ValidationError
from ..gradengine import (
    OptimizerState,
    Tensor,
    backward,
    load_checkpoint,
    optimizer_step,
    parameter,
    save_checkpoint,
)
from ..ingest import RUMOUR

# The most values a gradient model's parameters may hold: 2**28 float64
# values take 2 GiB. A larger model is refused before its run directory exists.
MAX_PARAM_VALUES = 2 ** 28


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


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform in +/- sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


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
    with the lowest dev loss. A dev loss that is not finite before any
    epoch had a finite one means the parameters diverged, and raises.
    Fully deterministic for a given config and seed."""
    if not train_data or not dev_data:
        raise ValidationError("train and dev sets must both be non-empty")
    rng = np.random.default_rng(seed)
    params = model.init_params(rng)
    state = OptimizerState(lr=config.lr, weight_decay=config.weight_decay,
                           epsilon=config.epsilon)
    history: list[EpochRecord] = []
    best_loss = np.inf
    best_params = None
    best_epoch = 0
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_data))
        for batch_no, index in enumerate(
                _batch_indices(len(train_data), config.batch_size, order), start=1):
            batch = model.slice(train_data, index)
            loss, _, _ = model.loss_and_predictions(params, batch, train=True, rng=rng)
            if not np.isfinite(loss.item()):
                raise ValidationError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {batch_no}"
                )
            backward(loss)
            optimizer_step(state, params)
        train_loss, train_acc = _evaluate(model, params, train_data, config.batch_size)
        dev_loss, dev_acc = _evaluate(model, params, dev_data, config.batch_size)
        history.append(EpochRecord(
            epoch=epoch, train_loss=train_loss, train_accuracy=train_acc,
            dev_loss=dev_loss, dev_accuracy=dev_acc,
        ))
        if best_params is None and not np.isfinite(dev_loss):
            raise ValidationError(f"training diverged: non-finite dev loss at epoch {epoch}")
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


class GradientModel:
    """The run operations of a model trained by `fit`; the payload is the
    parameter dict, one checkpoint per seed."""

    config: RunConfig
    # The seed drives initialization, shuffling, dropout and DropEdge.
    reads_seed = True

    def init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        """Draw `param_layout` in order: Xavier-uniform where a fill is None, else the fill."""
        return {name: parameter(xavier_uniform(rng, shape) if fill is None
                                else np.full(shape, fill), name)
                for name, (shape, fill) in self.param_layout().items()}

    def check_size(self) -> None:
        """Refuse a layout of more than MAX_PARAM_VALUES values before anything is drawn."""
        layout = self.param_layout()
        sizes = {name: math.prod(shape) for name, (shape, _) in layout.items()}
        if sum(sizes.values()) > MAX_PARAM_VALUES:
            largest = max(sizes, key=sizes.get)
            raise ValidationError(
                f"{sum(sizes.values())} parameter values exceed the bound of 2**28 = "
                f"{MAX_PARAM_VALUES}; the largest is {largest} of shape {layout[largest][0]}")

    def train(self, train_data, dev_data, seed: int):
        """(parameters, history text, summary line) for one seed."""
        result = fit(self, train_data, dev_data, self.config, seed)
        history = ["epoch train_loss train_accuracy dev_loss dev_accuracy"] + [
            " ".join(map(repr, astuple(record))) for record in result.history]
        return result.params, "\n".join(history) + "\n", f"best epoch {result.best_epoch}"

    def predict(self, params: dict[str, Tensor], data) -> tuple[list[str], np.ndarray]:
        return predict_threads(self, params, data)

    def save(self, params: dict[str, Tensor], run_dir: Path, seed: int) -> None:
        save_checkpoint(params, run_dir / f"ckpt_seed{seed}.txt")

    def load(self, run_dir: Path, seed: int) -> dict[str, Tensor]:
        """One seed's parameters, each of the shape `param_layout` gives."""
        shapes = {name: shape for name, (shape, _) in self.param_layout().items()}
        arrays = load_checkpoint(run_dir / f"ckpt_seed{seed}.txt", shapes)
        return {name: Tensor(values) for name, values in arrays.items()}
