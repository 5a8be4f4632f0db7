"""Classical learners: logistic regression and a linear SVM trained
through the gradient engine, and a bagged CART random forest.

Gradient-trained kinds consume z-scored features (statistics fitted on
the training matrix and stored with the model); the forest consumes raw
values. SMOTE, when requested, balances the class counts exactly before
fitting, with neighbour distances measured in standardized space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..config import RunConfig
from ..errors import ParseError, ValidationError, split_lines
from ..featurize import (
    HANDCRAFTED_WIDTH,
    Standardizer,
    compute_class_weights,
    smote_oversample,
)
from ..gradengine import (
    OptimizerState,
    Tensor,
    backward,
    bce_loss,
    collect_grads,
    hinge_loss,
    matmul,
    optimizer_step,
    parameter,
    sigmoid,
    sum_all,
    zero_grads,
)
from ..ingest import NONRUMOUR, RUMOUR

CLASSIC_KINDS = ("logreg", "svm", "rf")

# Forest node layout: feature index (-1 for leaves), threshold, child
# offsets, and per-class sample counts in (nonrumour, rumour) order.
LEAF = -1


@dataclass(frozen=True)
class TreeNode:
    feature: int
    threshold: float
    left: int
    right: int
    counts: tuple[float, float]


@dataclass
class ClassicModel:
    kind: str
    weights: Optional[np.ndarray] = None
    bias: float = 0.0
    standardizer: Optional[Standardizer] = None
    forest: list[list[TreeNode]] = field(default_factory=list)
    forest_dim: int = 0

    def __post_init__(self):
        if self.kind not in CLASSIC_KINDS:
            raise ValidationError(f"unknown classic model kind {self.kind!r}")


def _check_training_input(features: np.ndarray, labels: Sequence[str]) -> None:
    if len(features) != len(labels) or len(labels) < 2:
        raise ValidationError("need matching features/labels with at least 2 rows")
    present = set(labels)
    if present != {RUMOUR, NONRUMOUR}:
        raise ValidationError(
            f"training data must contain both classes, found {sorted(present)}"
        )


def smote_balance(
    x_std: np.ndarray, labels: list[str], k: int, seed: int
) -> tuple[np.ndarray, list[str]]:
    """Balance class counts exactly with synthetic minority points
    (neighbour search in the given space). Returns the augmented matrix
    and labels."""
    counts = {c: labels.count(c) for c in (RUMOUR, NONRUMOUR)}
    minority = min(counts, key=counts.get)
    majority = max(counts, key=counts.get)
    n_new = counts[majority] - counts[minority]
    if n_new == 0:
        return x_std, labels
    minority_rows = x_std[[i for i, c in enumerate(labels) if c == minority]]
    if len(minority_rows) < 2:
        raise ValidationError("SMOTE needs at least two minority examples")
    k = min(k, len(minority_rows) - 1)
    synthetic = smote_oversample(minority_rows, k=k, n_new=n_new, seed=seed)
    augmented = np.vstack([x_std] + [s[None, :] for s in synthetic])
    return augmented, labels + [minority] * n_new


def _gradient_fit(
    kind: str,
    x: np.ndarray,
    labels: list[str],
    config: RunConfig,
) -> tuple[np.ndarray, float]:
    """Shared full-batch loop for logreg (BCE) and svm (hinge + L2)."""
    n, dim = x.shape
    w = parameter(np.zeros((dim, 1)), "w")
    b = parameter(np.zeros((1, 1)), "b")
    params = {"w": w, "b": b}
    xt = Tensor(x)
    sample_weights = None
    if config.class_weights:
        per_class = compute_class_weights(labels, classes=(NONRUMOUR, RUMOUR))
        sample_weights = np.array([per_class[c] for c in labels])[:, None]
    y01 = np.array([1.0 if c == RUMOUR else 0.0 for c in labels])[:, None]
    ypm = 2.0 * y01 - 1.0
    if kind == "logreg":
        state = OptimizerState(lr=config.classic_lr)
        iters = config.classic_iters
    else:
        iters = config.svm_iters
    for step in range(iters):
        zero_grads(params.values())
        scores = matmul(xt, w) + b
        if kind == "logreg":
            loss = bce_loss(sigmoid(scores), y01, sample_weights)
            if config.logreg_l2 > 0.0:
                loss = loss + config.logreg_l2 * sum_all(w * w)
        else:
            loss = hinge_loss(
                scores, ypm, weight_param=w, l2=config.svm_l2,
                sample_weights=sample_weights,
            )
        backward(loss)
        grads = collect_grads(params)
        if kind == "logreg":
            optimizer_step(state, params, grads)
        else:
            # Plain subgradient descent for the SVM.
            w.values -= config.classic_lr * grads["w"]
            b.values -= config.classic_lr * grads["b"]
    return w.values[:, 0].copy(), float(b.values[0, 0])


def _gini_best_split(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, features: np.ndarray
) -> Optional[tuple[float, int, float]]:
    """Best (score, feature, threshold) over candidate features, or None.

    Thresholds are midpoints between consecutive distinct values; the
    score is the weighted mean of child Gini impurities.
    """
    best: Optional[tuple[float, int, float]] = None
    total_w = weights.sum()
    for feat in features:
        order = np.argsort(x[:, feat], kind="stable")
        values = x[order, feat]
        w = weights[order]
        w_pos = w * y[order]
        cum_w = np.cumsum(w)
        cum_pos = np.cumsum(w_pos)
        boundary = np.nonzero(values[1:] > values[:-1])[0]
        if len(boundary) == 0:
            continue
        left_w = cum_w[boundary]
        left_pos = cum_pos[boundary]
        right_w = total_w - left_w
        right_pos = cum_pos[-1] - left_pos
        p_left = left_pos / left_w
        p_right = right_pos / right_w
        gini_left = 1.0 - p_left ** 2 - (1.0 - p_left) ** 2
        gini_right = 1.0 - p_right ** 2 - (1.0 - p_right) ** 2
        scores = (left_w * gini_left + right_w * gini_right) / total_w
        at = int(np.argmin(scores))
        score = float(scores[at])
        if best is None or score < best[0] - 1e-12:
            threshold = 0.5 * (values[boundary[at]] + values[boundary[at] + 1])
            best = (score, int(feat), float(threshold))
    return best


def _grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    rng: np.random.Generator,
    max_depth: Optional[int],
    n_candidates: int,
) -> list[TreeNode]:
    nodes: list[TreeNode] = []

    def grow(rows: np.ndarray, depth: int) -> int:
        yr = y[rows]
        wr = weights[rows]
        counts = (float(wr[yr == 0].sum()), float(wr[yr == 1].sum()))
        index = len(nodes)
        nodes.append(TreeNode(LEAF, 0.0, -1, -1, counts))
        if (max_depth is not None and depth >= max_depth) or len(rows) < 2 \
                or counts[0] == 0.0 or counts[1] == 0.0:
            return index
        features = rng.choice(x.shape[1], size=n_candidates, replace=False)
        split = _gini_best_split(x[rows], yr, wr, np.sort(features))
        if split is None:
            return index
        _, feat, threshold = split
        goes_left = x[rows, feat] <= threshold
        left = grow(rows[goes_left], depth + 1)
        right = grow(rows[~goes_left], depth + 1)
        nodes[index] = TreeNode(feat, threshold, left, right, counts)
        return index

    grow(np.arange(len(x)), 0)
    return nodes


def _tree_votes(nodes: list[TreeNode], x: np.ndarray) -> np.ndarray:
    """Per-row class vote (0 or 1) from one tree's leaf majorities."""
    votes = np.zeros(len(x), dtype=int)
    for row in range(len(x)):
        at = 0
        while nodes[at].feature != LEAF:
            node = nodes[at]
            at = node.left if x[row, node.feature] <= node.threshold else node.right
        counts = nodes[at].counts
        votes[row] = 1 if counts[1] > counts[0] else 0
    return votes


def train_classic(
    kind: str,
    features: np.ndarray,
    labels: Sequence[str],
    config: RunConfig,
    seed: int,
) -> ClassicModel:
    """Fit one classical model with the classic settings of `config`;
    deterministic for a given seed. Only the handcrafted block (the first
    HANDCRAFTED_WIDTH columns, absent when `config.features` is tfidf) is
    z-scored: TF-IDF rows are already unit-norm."""
    if kind not in CLASSIC_KINDS:
        raise ValidationError(f"unknown classic model kind {kind!r}")
    x = np.asarray(features, dtype=float)
    labels = list(labels)
    _check_training_input(x, labels)
    scaled = 0 if config.features == "tfidf" else HANDCRAFTED_WIDTH
    standardizer = Standardizer.fit(x, scaled)
    x_std = standardizer.transform(x)
    if config.smote:
        x_std, labels = smote_balance(x_std, labels, config.smote_k, seed)
    if kind in ("logreg", "svm"):
        weights, bias = _gradient_fit(kind, x_std, labels, config)
        return ClassicModel(kind=kind, weights=weights, bias=bias,
                            standardizer=standardizer)
    # Forest: raw feature values; invert any SMOTE rows back to raw scale.
    x_raw = standardizer.inverse(x_std)
    y = np.array([1 if c == RUMOUR else 0 for c in labels])
    sample_weights = np.ones(len(labels))
    if config.class_weights:
        per_class = compute_class_weights(labels, classes=(NONRUMOUR, RUMOUR))
        sample_weights = np.array([per_class[c] for c in labels])
    n_features = x_raw.shape[1]
    if config.rf_feature_subsample == "sqrt":
        n_candidates = max(1, math.isqrt(n_features))
    else:
        n_candidates = n_features
    rng = np.random.default_rng(seed)
    forest = []
    for _ in range(config.rf_trees):
        rows = rng.integers(0, len(x_raw), size=len(x_raw))
        forest.append(_grow_tree(
            x_raw[rows], y[rows], sample_weights[rows], rng,
            config.rf_max_depth, n_candidates,
        ))
    return ClassicModel(kind="rf", forest=forest, forest_dim=n_features)


def predict_classic(model: ClassicModel, features: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Labels and scores. Scores are rumour probabilities for logreg, the
    signed margin for svm (rumour when >= 0), and the rumour vote
    fraction for the forest."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValidationError("feature matrix must be 2-D")
    if model.kind in ("logreg", "svm"):
        if x.shape[1] != len(model.weights):
            raise ValidationError(
                f"expected {len(model.weights)} features, got {x.shape[1]}"
            )
        z = model.standardizer.transform(x) @ model.weights + model.bias
        if model.kind == "logreg":
            scores = sigmoid(Tensor(z)).values
            labels = [RUMOUR if s >= 0.5 else NONRUMOUR for s in scores]
        else:
            scores = z
            labels = [RUMOUR if s >= 0.0 else NONRUMOUR for s in scores]
        return labels, scores
    if x.shape[1] != model.forest_dim:
        raise ValidationError(
            f"expected {model.forest_dim} features, got {x.shape[1]}"
        )
    votes = np.stack([_tree_votes(tree, x) for tree in model.forest])
    scores = votes.mean(axis=0)
    labels = [RUMOUR if s >= 0.5 else NONRUMOUR for s in scores]
    return labels, scores


def forest_to_text(model: ClassicModel) -> str:
    lines = ["# rumourlab-forest v1",
             f"n_trees = {len(model.forest)}",
             f"feature_dim = {model.forest_dim}"]
    for i, tree in enumerate(model.forest):
        lines.append(f"tree {i}")
        for node in tree:
            lines.append(
                f"{node.feature} {repr(node.threshold)} {node.left} {node.right} "
                f"{repr(node.counts[0])} {repr(node.counts[1])}"
            )
    return "\n".join(lines) + "\n"


def forest_from_text(text: str, source: str = "forest") -> ClassicModel:
    """Parse forest_to_text output. A malformed line, a node before the
    first tree, an empty tree, a tree count other than n_trees, a missing
    header value, a negative feature_dim, or a split whose feature or children fall outside the
    forest raises ParseError naming `source` and the line."""
    lines = split_lines(text)
    if not lines or lines[0] != "# rumourlab-forest v1":
        raise ValidationError(f"{source}: not a rumourlab-forest v1 file")
    header: dict[str, tuple[int, int]] = {}  # key -> (value, line number)
    trees: list[tuple[int, list[tuple[int, TreeNode]]]] = []  # with line numbers
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        key, _, value = line.partition(" = ")
        try:
            if key in ("n_trees", "feature_dim"):
                header[key] = (int(value), line_no)
            elif line == f"tree {len(trees)}":
                trees.append((line_no, []))
            elif line and trees:
                feat, thr, left, right, c0, c1 = line.split(" ")
                trees[-1][1].append((line_no, TreeNode(int(feat), float(thr), int(left),
                                                       int(right), (float(c0), float(c1)))))
            elif line:
                raise ValueError(line)
        except ValueError:
            raise ParseError(f"{source} line {line_no}: malformed forest line {line!r}") from None
    if "n_trees" not in header or "feature_dim" not in header:
        raise ParseError(f"{source}: the n_trees or feature_dim line is missing")
    (n_trees, n_line), (feature_dim, dim_line) = header["n_trees"], header["feature_dim"]
    if feature_dim < 0:
        raise ParseError(f"{source} line {dim_line}: feature_dim = {feature_dim} is negative")
    if len(trees) != n_trees or not trees:
        raise ParseError(f"{source} line {n_line}: n_trees = {n_trees}, but the file "
                         f"holds {len(trees)} trees (a forest needs at least one)")
    for tree_line, tree in trees:
        if not tree:
            raise ParseError(f"{source} line {tree_line}: tree has no nodes")
        for index, (line_no, node) in enumerate(tree):
            if node.feature != LEAF and not (0 <= node.feature < feature_dim
                                             and index < node.left < len(tree)
                                             and index < node.right < len(tree)):
                raise ParseError(f"{source} line {line_no}: split feature or child "
                                 "index outside the forest")
    return ClassicModel(kind="rf", forest=[[node for _, node in tree] for _, tree in trees],
                        forest_dim=feature_dim)
