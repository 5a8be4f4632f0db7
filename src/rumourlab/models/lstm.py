"""Sequence classifier: embedding, one masked LSTM layer, a relu
perceptron layer, and a sigmoid rumour-probability output.

The layer is one lstm_layer node, which computes every step's input
projection as one product (Appleyard et al., arXiv:1604.01946). Masked
timesteps propagate both the hidden and cell state unchanged, so
appending padding to an example never alters its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import RunConfig
from ..errors import ValidationError
from ..featurize import Vocabulary
from ..gradengine import (
    Tensor,
    bce_loss,
    concat,
    gather_rows,
    lstm_layer,
    mask_mul,
    matmul,
    relu,
    sigmoid,
)
from ..ingest import NONRUMOUR, RUMOUR, Thread
from .data import TokenTable, labels01, lstm_inputs
from .trainer import GradientModel

GATES = ("i", "f", "o", "c")


@dataclass(frozen=True)
class LstmBatch:
    ids: np.ndarray
    mask: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


class LstmModel(GradientModel):
    """Model wiring plus dataset preparation for the shared trainer; the
    sizes and dropout come from the run configuration."""

    def __init__(self, config: RunConfig, vocab: Vocabulary,
                 class_weights: Optional[dict[str, float]] = None):
        self.config = config
        self.vocab = vocab
        self.class_weights = class_weights

    def param_layout(self):
        cfg = self.config
        if self.vocab.size > cfg.vocab_cap:
            raise ValidationError(
                f"vocabulary of {self.vocab.size} ids (terms plus reserved) "
                f"exceeds vocab_cap {cfg.vocab_cap}")
        embed, hidden, perc = cfg.embed_dim, cfg.hidden_dim, cfg.perceptron_dim
        layout = {"embed": ((self.vocab.size, embed), None)}
        for gate in GATES:
            layout[f"w_x{gate}"] = ((embed, hidden), None)
            layout[f"w_h{gate}"] = ((hidden, hidden), None)
            layout[f"b_{gate}"] = ((1, hidden), 1.0 if gate == "f" else 0.0)
        layout.update(w_perc=((hidden, perc), None), b_perc=((1, perc), 0.0),
                      w_out=((perc, 1), None), b_out=((1, 1), 0.0))
        return layout

    def prepare(self, threads: Sequence[Thread], tokens: TokenTable | None = None,
                fit: bool = False) -> LstmBatch:
        """The threads' model input; `fit` changes nothing, as seeds share no fitted state."""
        ids, mask = lstm_inputs(threads, self.vocab, self.config.max_len, tokens)
        return LstmBatch(ids=ids, mask=mask, targets=labels01(threads))

    def slice(self, data: LstmBatch, index: np.ndarray) -> LstmBatch:
        return LstmBatch(ids=data.ids[index], mask=data.mask[index],
                         targets=data.targets[index])

    def forward(self, params: dict[str, Tensor], ids: np.ndarray, mask: np.ndarray,
                train: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
        """Rumour probability per row, shape (batch, 1)."""
        vocab_rows = params["embed"].shape[0]
        if ids.max(initial=0) >= vocab_rows:
            raise ValidationError(
                f"token id {ids.max()} out of range for vocabulary of {vocab_rows}"
            )
        # Steps past every row's prefix leave the state untouched; skip them.
        steps = int(mask.sum(axis=1).max()) if len(ids) else 0
        x = gather_rows(params["embed"], ids[:, :steps].reshape(-1))
        w_x, w_h, bias = (concat([params[f"{name}{gate}"] for gate in GATES], axis=1)
                          for name in ("w_x", "w_h", "b_"))
        hidden = lstm_layer(x, w_x, bias, w_h, mask[:, :steps])
        z = relu(matmul(hidden, params["w_perc"]) + params["b_perc"])
        if train and self.config.dropout > 0.0:
            keep = 1.0 - self.config.dropout
            drop = (rng.random(z.shape) < keep) / keep
            z = mask_mul(z, drop)
        return sigmoid(matmul(z, params["w_out"]) + params["b_out"])

    def loss_and_predictions(self, params, batch: LstmBatch, train: bool,
                             rng: Optional[np.random.Generator] = None):
        probs = self.forward(params, batch.ids, batch.mask, train=train, rng=rng)
        weights = None
        if self.class_weights is not None:
            lookup = np.array([self.class_weights[NONRUMOUR], self.class_weights[RUMOUR]])
            weights = lookup[batch.targets][:, None]
        loss = bce_loss(probs, batch.targets[:, None].astype(float), weights)
        scores = probs.values[:, 0]
        labels = [RUMOUR if s >= 0.5 else NONRUMOUR for s in scores]
        return loss, labels, scores
