"""Two-direction graph-convolution classifier over propagation trees.

Each direction (top-down, bottom-up) runs two convolution layers with
its own weights over the batch's one symmetric propagation operator, so
the directions differ only in their weights. After every layer each
node's output is concatenated with its graph root's output from the same
layer. Per-graph mean pooling of both directions feeds one affine layer
and a row softmax over the (rumour, nonrumour) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import RunConfig
from ..featurize import TfidfModel, row_vectors, tfidf_rows
from ..gradengine import (
    Tensor,
    concat,
    gather_rows,
    mask_mul,
    matmul,
    relu,
    segment_mean,
    softmax_rows,
    spmm,
    weighted_ce_loss,
)
from ..ingest import NONRUMOUR, RUMOUR, Thread
from ..proptree import GraphBatch, PropTree, build_tree, drop_edge, to_graph_batch
from .data import TokenTable, labels01, tweet_docs
from .trainer import GradientModel

DIRECTIONS = ("td", "bu")
CLASS_ORDER = (RUMOUR, NONRUMOUR)


@dataclass(frozen=True)
class TreeData:
    trees: tuple[PropTree, ...]
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.trees)


class BiGcnModel(GradientModel):
    def __init__(self, config: RunConfig, tfidf: TfidfModel,
                 class_weights: Optional[dict[str, float]] = None):
        self.config = config
        self.tfidf = tfidf
        # One input column per TF-IDF content term.
        self.input_dim = tfidf.vocab.content_size
        self.class_weights = class_weights

    def param_layout(self):
        hidden, out = self.config.bigcn_hidden_dim, self.config.bigcn_out_dim
        layout = {}
        for direction in DIRECTIONS:
            layout[f"{direction}_w1"] = ((self.input_dim, hidden), None)
            layout[f"{direction}_w2"] = ((2 * hidden, out), None)
        layout.update(cls_w=((4 * out, 2), None), cls_b=((1, 2), 0.0))
        return layout

    def prepare(self, threads: Sequence[Thread], tokens: TokenTable | None = None,
                fit: bool = False) -> TreeData:
        """The threads' model input; `fit` changes nothing, as seeds share no fitted state."""
        rows = iter(row_vectors(tfidf_rows(self.tfidf, tweet_docs(threads, tokens),
                                           use_raw_counts=self.config.tree_raw_counts)))
        trees = tuple(build_tree(t, [next(rows) for _ in t.tweets()], self.config.keep_reply_links)
                      for t in threads)
        return TreeData(trees=trees, targets=labels01(threads))

    def slice(self, data: TreeData, index: np.ndarray) -> TreeData:
        return TreeData(trees=tuple(data.trees[i] for i in index),
                        targets=data.targets[index])

    def forward(self, params: dict[str, Tensor], batch: GraphBatch,
                train: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
        """Per-graph class probabilities, columns (rumour, nonrumour)."""
        cfg = self.config
        root_of_node = batch.root_index[batch.graph_membership]
        pooled = []
        for direction in DIRECTIONS:
            h1 = relu(spmm(batch.adjacency, spmm(batch.features, params[f"{direction}_w1"])))
            if train and cfg.dropout > 0.0:
                keep = 1.0 - cfg.dropout
                h1 = mask_mul(h1, (rng.random(h1.shape) < keep) / keep)
            h1 = concat([h1, gather_rows(h1, root_of_node)])
            h2 = relu(spmm(batch.adjacency, matmul(h1, params[f"{direction}_w2"])))
            h2 = concat([h2, gather_rows(h2, root_of_node)])
            pooled.append(segment_mean(h2, batch.graph_membership, batch.n_graphs))
        representation = concat(pooled)
        logits = matmul(representation, params["cls_w"]) + params["cls_b"]
        return softmax_rows(logits)

    def loss_and_predictions(self, params, data: TreeData, train: bool,
                             rng: Optional[np.random.Generator] = None):
        batch = to_graph_batch(data.trees, self.input_dim)
        if train and self.config.drop_edge_rate > 0.0:
            batch = drop_edge(batch, self.config.drop_edge_rate,
                              seed=int(rng.integers(2 ** 63)))
        probs = self.forward(params, batch, train=train, rng=rng)
        # Targets are 1 for rumour; probability columns are (rumour, nonrumour).
        column = 1 - data.targets
        weights = None
        if self.class_weights is not None:
            weights = np.array([self.class_weights[c] for c in CLASS_ORDER])
        loss = weighted_ce_loss(probs, column, weights)
        scores = probs.values[:, 0]
        labels = [CLASS_ORDER[i] for i in np.argmax(probs.values, axis=1)]
        return loss, labels, scores
