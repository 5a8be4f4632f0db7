"""Built-in verification suites: gradient checks for every primitive and
for the full models, plus quick independent-oracle comparisons."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .config import RunConfig
from .evalrun import compute_report, run_model
from .featurize import fit_tfidf, smote_oversample, transform_tfidf
from .gradengine import (
    SparseMatrix,
    Tensor,
    bce_loss,
    concat,
    gather_rows,
    grad_check,
    hinge_loss,
    lstm_layer,
    mask_mul,
    matmul,
    mean_all,
    parameter,
    relu,
    segment_mean,
    sigmoid,
    softmax_rows,
    spmm,
    sum_all,
    tanh,
    weighted_ce_loss,
)
from .ingest import NONRUMOUR, RUMOUR
from .models.data import tweet_docs
from .proptree import build_tree, drop_edge, to_graph_batch
from .analyze import score_sentiment
from .synthetic import make_planted_threads

GRAD_TOLERANCE = 1e-4


def _primitive_cases(rng):
    """One scalar-valued closure per primitive, over named parameters."""
    a = parameter(rng.normal(size=(3, 4)), "a")
    b = parameter(rng.normal(size=(3, 4)), "b")
    m = parameter(rng.normal(size=(4, 5)), "m")
    bias = parameter(rng.normal(size=(1, 4)), "bias")
    table = parameter(rng.normal(size=(6, 3)), "table")
    ids = np.array([0, 2, 5, 2])
    mask = (rng.random((3, 4)) > 0.3).astype(float)
    segments = np.array([0, 0, 1])
    sparse = SparseMatrix(
        shape=(3, 3),
        rows=np.array([0, 1, 2, 0]), cols=np.array([0, 1, 2, 1]),
        vals=np.array([0.5, 1.0, 0.25, 0.75]),
    )
    # Keep relu inputs away from zero so the kink cannot bite.
    r = parameter(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5, "r")
    targets01 = (rng.random((3, 1)) > 0.5).astype(float)
    targets_idx = rng.integers(0, 4, size=3)
    targets_pm = np.sign(rng.normal(size=(3, 1)))
    targets_pm[targets_pm == 0] = 1.0
    # Constants drawn up front: grad_check re-invokes each closure.
    seg_weight = rng.normal(size=(2, 4))
    emb_weight = rng.normal(size=(4, 3))
    proj = m.values[:, :1].copy()
    ce_weights = np.array([1.0, 2.0, 0.5, 1.5])
    # Four steps, three inputs, two hidden units; rows: full, ending after
    # step 1, empty, gapped.
    seq = {"x": parameter(rng.normal(size=(16, 3)), "x"),
           "w_x": parameter(rng.normal(size=(3, 8)), "w_x"),
           "b": parameter(rng.normal(size=(1, 8)), "b"),
           "w_h": parameter(rng.normal(size=(2, 8)), "w_h")}
    seq_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 1, 1]], dtype=float)
    seq_weight = rng.normal(size=(4, 2))
    cases = {
        "add": ({"a": a, "b": b}, lambda p: sum_all(p["a"] + p["b"])),
        "mul": ({"a": a, "b": b}, lambda p: sum_all(p["a"] * p["b"])),
        "broadcast_add": ({"a": a, "bias": bias}, lambda p: sum_all(p["a"] + p["bias"])),
        "matmul": ({"a": a, "m": m}, lambda p: sum_all(matmul(p["a"], p["m"]))),
        "spmm": ({"a": a}, lambda p: sum_all(spmm(sparse, p["a"]))),
        "relu": ({"r": r}, lambda p: sum_all(relu(p["r"]))),
        "sigmoid": ({"a": a}, lambda p: sum_all(sigmoid(p["a"]))),
        "tanh": ({"a": a}, lambda p: sum_all(tanh(p["a"]))),
        "concat": ({"a": a, "b": b}, lambda p: sum_all(concat([p["a"], p["b"]]) * concat([p["b"], p["a"]]))),
        "softmax": ({"a": a}, lambda p: sum_all(softmax_rows(p["a"]) * b.values)),
        "segment_mean": ({"a": a}, lambda p: sum_all(segment_mean(p["a"], segments, 2) * seg_weight)),
        "embedding": ({"table": table}, lambda p: sum_all(gather_rows(p["table"], ids) * emb_weight)),
        "mask_mul": ({"a": a}, lambda p: sum_all(mask_mul(p["a"], mask))),
        "lstm_layer": (seq, lambda p: sum_all(
            lstm_layer(p["x"], p["w_x"], p["b"], p["w_h"], seq_mask) * seq_weight)),
        "mean": ({"a": a}, lambda p: mean_all(p["a"] * p["a"])),
        "bce": ({"a": a}, lambda p: bce_loss(sigmoid(matmul(p["a"], Tensor(proj))), targets01)),
        "weighted_ce": ({"a": a}, lambda p: weighted_ce_loss(
            softmax_rows(p["a"]), targets_idx, ce_weights)),
        "hinge": ({"a": a}, lambda p: hinge_loss(
            matmul(p["a"], Tensor(proj)), targets_pm, weight_param=p["a"], l2=0.01)),
    }
    return cases


def check_primitive_gradients(seed: int = 7) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, (params, fn) in _primitive_cases(rng).items():
        # The cases are tiny, so every coordinate of every parameter is checked.
        every = max(param.values.size for param in params.values())
        error = grad_check(fn, params, eps=1e-5, max_coords_per_param=every, seed=seed)
        if error >= GRAD_TOLERANCE:
            raise AssertionError(f"primitive {name}: gradient error {error:.2e}")
        worst = max(worst, error)
    return worst


def check_model_gradients(kind: str, seed: int) -> float:
    """Finite-difference check of a full LSTM or Bi-GCN loss on toy threads."""
    threads = make_planted_threads(n_threads=8, rumour_rate=0.5, seed=3, max_replies=2)
    model = run_model(RunConfig(model=kind, class_weights=False, vocab_cap=63, tfidf_top_k=40,
                                embed_dim=5, hidden_dim=6, perceptron_dim=4, max_len=12,
                                bigcn_hidden_dim=5, bigcn_out_dim=4, drop_edge_rate=0.0),
                      threads)
    params = model.init_params(np.random.default_rng(seed))
    data = model.prepare(threads)

    def loss_fn(p):
        loss, _, _ = model.loss_and_predictions(p, data, train=False)
        return loss

    error = grad_check(loss_fn, params, eps=1e-5, max_coords_per_param=4, seed=seed)
    if error >= GRAD_TOLERANCE:
        raise AssertionError(f"{kind} gradient error {error:.2e}")
    return error


def check_tfidf_oracle() -> None:
    docs = [
        "the cat sat on the mat".split(),
        "the dog sat".split(),
        "a cat and a dog".split(),
        "mat on mat".split(),
        "the the the cat".split(),
    ]
    model = fit_tfidf(docs, top_k=50)
    n = len(docs)
    for doc in docs:
        got = dict(transform_tfidf(model, doc).entries)
        counts = Counter(doc)
        raw = {}
        for term, count in counts.items():
            df = sum(1 for d in docs if term in d)
            position = model.vocab.content_index(term)
            raw[position] = count * (math.log((1 + n) / (1 + df)) + 1.0)
        norm = math.sqrt(sum(v * v for v in raw.values()))
        expected = {i: v / norm for i, v in raw.items()}
        if set(got) != set(expected):
            raise AssertionError("tfidf oracle: index sets differ")
        for index, value in expected.items():
            if abs(got[index] - value) > 1e-12:
                raise AssertionError(f"tfidf oracle: entry {index} differs")


def check_metrics_oracle(seed: int = 17) -> None:
    rng = np.random.default_rng(seed)
    labels = (RUMOUR, NONRUMOUR)
    predictions = [labels[i] for i in rng.integers(0, 2, size=1000)]
    truth = [labels[i] for i in rng.integers(0, 2, size=1000)]
    report = compute_report(predictions, truth)
    tp = sum(1 for p, t in zip(predictions, truth) if p == RUMOUR and t == RUMOUR)
    fp = sum(1 for p, t in zip(predictions, truth) if p == RUMOUR and t != RUMOUR)
    fn = sum(1 for p, t in zip(predictions, truth) if p != RUMOUR and t == RUMOUR)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    row = report.rows[RUMOUR]
    if abs(row.precision - precision) > 1e-12 or abs(row.recall - recall) > 1e-12:
        raise AssertionError("metrics oracle: precision/recall differ")
    f1 = 2 * precision * recall / (precision + recall)
    if abs(row.f1 - f1) > 1e-12:
        raise AssertionError("metrics oracle: f1 differs")


def check_smote_convexity(seed: int = 19) -> None:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(12, 4))
    synthetic = smote_oversample(points, k=3, n_new=40, seed=seed)
    for s in synthetic:
        ok = False
        for i in range(len(points)):
            for j in range(len(points)):
                if i == j:
                    continue
                diff = points[j] - points[i]
                live = np.abs(diff) > 1e-12
                if not live.any():
                    continue
                u = (s - points[i])[live] / diff[live]
                if (np.abs(u - u[0]) < 1e-9).all() and -1e-9 <= u[0] <= 1 + 1e-9 \
                        and np.abs((s - points[i])[~live]) .max(initial=0.0) < 1e-9:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            raise AssertionError("smote: point is not a convex combination")


def check_dropedge_stats(seed: int = 23) -> None:
    threads = make_planted_threads(n_threads=40, seed=seed, max_replies=3)
    tfidf = fit_tfidf(tweet_docs(threads), top_k=30)
    trees = [build_tree(t, tfidf) for t in threads]
    batch = to_graph_batch(trees, tfidf.vocab.content_size)
    if len(batch.td_edges) == 0:
        raise AssertionError("dropedge: no edges to test")
    dropped = drop_edge(batch, 0.5, seed=seed)
    if drop_edge(batch, 0.0, seed=seed) is not batch:
        raise AssertionError("dropedge: rate 0 must be the identity")
    retained = len(dropped.td_edges) / len(batch.td_edges)
    if not 0.2 < retained < 0.8:
        raise AssertionError(f"dropedge: retained fraction {retained:.2f} implausible")


def check_sentiment_bounds(seed: int = 29) -> None:
    rng = np.random.default_rng(seed)
    words = ["good", "bad", "not", "very", "terrible", "great", "the", "virus", "!"]
    for _ in range(500):
        n = int(rng.integers(0, 8))
        text = " ".join(rng.choice(words, size=n))
        scores = score_sentiment(text)
        if not -1.0 < scores.compound < 1.0:
            raise AssertionError("sentiment: compound out of bounds")
        if abs(scores.pos + scores.neu + scores.neg - 1.0) > 1e-6:
            raise AssertionError("sentiment: shares do not sum to 1")


def run_selftest(emit=print) -> int:
    suites = [
        ("primitive gradients", check_primitive_gradients),
        ("lstm gradients", lambda: check_model_gradients("lstm", seed=11)),
        ("bigcn gradients", lambda: check_model_gradients("bigcn", seed=13)),
        ("tfidf oracle", check_tfidf_oracle),
        ("metrics oracle", check_metrics_oracle),
        ("smote convexity", check_smote_convexity),
        ("dropedge statistics", check_dropedge_stats),
        ("sentiment bounds", check_sentiment_bounds),
    ]
    failures = 0
    for name, check in suites:
        try:
            check()
            emit(f"ok {name}")
        except AssertionError as exc:
            failures += 1
            emit(f"FAIL {name}: {exc}")
    return failures
