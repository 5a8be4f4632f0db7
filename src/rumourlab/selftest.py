"""Built-in gradient checks: a finite-difference check of every engine
primitive, and of the full LSTM and Bi-GCN losses on toy threads. The
feature, metric and resampling oracles live in tests/test_acceptance.py."""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .evalrun import run_model
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


def run_selftest(emit=print) -> int:
    suites = [
        ("primitive gradients", check_primitive_gradients),
        ("lstm gradients", lambda: check_model_gradients("lstm", seed=11)),
        ("bigcn gradients", lambda: check_model_gradients("bigcn", seed=13)),
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
