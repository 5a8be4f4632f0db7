"""Acceptance suite: every release-gating criterion as one test, each
printing a pass line (visible with ``pytest -s`` or in captured output).

Run with: ``pytest tests/test_acceptance.py -v -s``
"""

import math
import time

import numpy as np
import pytest

from rumourlab.analyze import load_valence_lexicon, score_emotions, score_sentiment
from rumourlab.config import RunConfig
from rumourlab.evalrun import _f1, compute_report, run_experiment
from rumourlab.featurize import build_vocabulary, fit_tfidf, smote_points, transform_tfidf
from rumourlab.gradengine import grad_check, load_checkpoint, save_checkpoint
from rumourlab.ingest import load_tweets, save_tweets, split_dataset
from rumourlab.models import (
    BiGcnModel,
    LstmModel,
    fit,
    predict_classic,
    train_classic,
)
from rumourlab.models.classic import fit_run
from rumourlab.models.data import labels01, thread_docs, tweet_docs, tfidf_matrix
from rumourlab.proptree import (
    drop_edge,
    parse_tree,
    serialize_tree,
    to_graph_batch,
)
from rumourlab.selftest import check_primitive_gradients
from rumourlab.synthetic import make_planted_records, make_planted_threads

GRAD_TOL = 1e-4


def report_pass(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def planted_200():
    return make_planted_threads(n_threads=200, rumour_rate=0.5, seed=42,
                                max_replies=3)


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    worst = check_primitive_gradients(seed=7)

    # Full LSTM graph on a toy batch (<= 30 tokens per example).
    threads = make_planted_threads(n_threads=10, seed=3, max_replies=2)
    vocab = build_vocabulary(thread_docs(threads), cap=80)
    lstm = LstmModel(RunConfig(vocab_cap=100, embed_dim=6, hidden_dim=7,
                               perceptron_dim=5, max_len=30), vocab)
    params = lstm.init_params(np.random.default_rng(1))
    data = lstm.prepare(threads)

    def lstm_loss(p):
        loss, _, _ = lstm.loss_and_predictions(p, data, train=False)
        return loss

    lstm_error = grad_check(lstm_loss, params, eps=1e-5,
                            max_coords_per_param=5, seed=2)
    assert lstm_error < GRAD_TOL

    # Full Bi-GCN graph on a toy batch (<= 20 nodes total).
    small = threads[:6]
    tfidf = fit_tfidf(tweet_docs(small), top_k=40)
    bigcn = BiGcnModel(RunConfig(bigcn_hidden_dim=6, bigcn_out_dim=5,
                                 drop_edge_rate=0.0), tfidf)
    gcn_params = bigcn.init_params(np.random.default_rng(2))
    gcn_data = bigcn.prepare(small)
    assert sum(t.size for t in gcn_data.trees) <= 20

    def bigcn_loss(p):
        loss, _, _ = bigcn.loss_and_predictions(p, gcn_data, train=False)
        return loss

    bigcn_error = grad_check(bigcn_loss, gcn_params, eps=1e-5,
                             max_coords_per_param=5, seed=3)
    assert bigcn_error < GRAD_TOL

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    worst = max(worst, lstm_error, bigcn_error)
    report_pass(1, "gradient correctness",
                f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_tfidf_oracle():
    docs = [
        "the vaccine rollout starts today".split(),
        "the lab reports new cases the".split(),
        "vaccine doses arrive at the lab".split(),
        "officials deny the lab claims claims".split(),
        "new cases fall as vaccine doses rise".split(),
    ]
    model = fit_tfidf(docs, top_k=100)
    n = len(docs)
    checked = 0
    for doc in docs:
        got = dict(transform_tfidf(model, doc).entries)
        raw = {}
        for term in set(doc):
            tf = sum(1 for t in doc if t == term)
            df = sum(1 for d in docs if term in d)
            position = model.vocab.content_index(term)
            raw[position] = tf * (math.log((1 + n) / (1 + df)) + 1.0)
        norm = math.sqrt(sum(v * v for v in raw.values()))
        expected = {i: v / norm for i, v in raw.items()}
        assert set(got) == set(expected)
        for index, value in expected.items():
            assert abs(got[index] - value) <= 1e-12
            checked += 1
    report_pass(2, "tf-idf oracle", f"{checked} entries within 1e-12")


def test_criterion_03_metrics_oracle():
    rng = np.random.default_rng(23)
    labels = ("rumour", "nonrumour")
    predictions = [labels[i] for i in rng.integers(0, 2, size=1000)]
    truth = [labels[i] for i in rng.integers(0, 2, size=1000)]
    report = compute_report(predictions, truth)
    correct = 0
    for cls in labels:
        tp = fp = fn = 0
        for p, t in zip(predictions, truth):
            if p == cls and t == cls:
                tp += 1
            elif p == cls:
                fp += 1
            elif t == cls:
                fn += 1
        row = report.rows[cls]
        assert row.support == tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        assert abs(row.precision - precision) <= 1e-12
        assert abs(row.recall - recall) <= 1e-12
        expected_f1 = (2 * precision * recall / (precision + recall)
                       if precision + recall else 0.0)
        assert abs(row.f1 - expected_f1) <= 1e-12
        correct += tp
    assert abs(report.accuracy - correct / 1000) <= 1e-12
    assert round(_f1(0.79, 0.77), 2) == 0.78
    report_pass(3, "metrics oracle", "1000 pairs exact; f1(0.79,0.77)=0.78")


def test_criterion_04_learning_sanity(planted_200):
    started = time.monotonic()
    threads = planted_200
    split = split_dataset(threads, (0.7, 0.15, 0.15), seed=13)

    # LSTM: training accuracy must reach 0.95 within 30 epochs.
    vocab = build_vocabulary(thread_docs(split.train), cap=2000)
    lstm = LstmModel(
        RunConfig(vocab_cap=2000, embed_dim=16, hidden_dim=24,
                  perceptron_dim=12, max_len=32),
        vocab,
    )
    lstm_result = fit(lstm, lstm.prepare(split.train), lstm.prepare(split.dev),
                      RunConfig(lr=0.05, batch_size=16, max_epochs=30, patience=30),
                      seed=1)
    lstm_best = max(r.train_accuracy for r in lstm_result.history)
    assert lstm_best >= 0.95, f"lstm train accuracy peaked at {lstm_best}"

    # Bi-GCN: same bar.
    tfidf = fit_tfidf(tweet_docs(split.train), top_k=500)
    bigcn = BiGcnModel(
        RunConfig(bigcn_hidden_dim=24, bigcn_out_dim=16, drop_edge_rate=0.2),
        tfidf,
    )
    bigcn_result = fit(bigcn, bigcn.prepare(split.train), bigcn.prepare(split.dev),
                       RunConfig(lr=0.05, batch_size=16, max_epochs=30, patience=30),
                       seed=1)
    bigcn_best = max(r.train_accuracy for r in bigcn_result.history)
    assert bigcn_best >= 0.95, f"bigcn train accuracy peaked at {bigcn_best}"

    # Logistic regression: dev accuracy at least 0.9.
    logreg_tfidf = fit_tfidf(thread_docs(split.train), top_k=5000)
    train_x = tfidf_matrix(logreg_tfidf, split.train)
    dev_x = tfidf_matrix(logreg_tfidf, split.dev)
    train_y = ["rumour" if y else "nonrumour" for y in labels01(split.train)]
    dev_y = ["rumour" if y else "nonrumour" for y in labels01(split.dev)]
    model = train_classic("logreg", train_x, train_y,
                          RunConfig(class_weights=False, features="tfidf",
                                    classic_iters=500, classic_lr=0.1, logreg_l2=1e-3),
                          seed=1)
    dev_labels, _ = predict_classic(model, dev_x)
    logreg_dev = float(np.mean([p == t for p, t in zip(dev_labels, dev_y)]))
    assert logreg_dev >= 0.9, f"logreg dev accuracy {logreg_dev}"

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report_pass(4, "learning sanity",
                f"lstm {lstm_best:.2f}, bigcn {bigcn_best:.2f}, "
                f"logreg dev {logreg_dev:.2f}, {elapsed:.0f}s")


def test_criterion_05_dropedge_statistics():
    threads = make_planted_threads(n_threads=30, seed=9, max_replies=3)
    tfidf = fit_tfidf(tweet_docs(threads), top_k=50)
    trees = []
    template = BiGcnModel(RunConfig(), tfidf).prepare([threads[0]]).trees[0]
    # Stack enough copies to reach exactly 10,000 raw edges.
    from rumourlab.featurize import SparseVector
    from rumourlab.proptree import PropNode, PropTree

    per_tree = 100
    node_features = [SparseVector(())] * (per_tree + 1)
    for g in range(100):
        nodes = tuple(
            PropNode(index=i + 1, parent=None if i == 0 else 1,
                     features=node_features[i])
            for i in range(per_tree + 1)
        )
        trees.append(PropTree(thread_id=f"g{g}", label="rumour", nodes=nodes))
    batch = to_graph_batch(trees, 10)
    assert len(batch.td_edges) == 10_000

    dropped = drop_edge(batch, 0.5, seed=1234)
    deviation = abs(len(dropped.td_edges) - 5000)
    assert deviation <= 150, f"retained count off by {deviation}"

    identity = drop_edge(batch, 0.0, seed=1234)
    assert identity is batch
    assert template.size >= 1
    report_pass(5, "dropedge statistics",
                f"retained {len(dropped.td_edges)} of 10000")


def test_criterion_06_smote_properties():
    rng = np.random.default_rng(31)
    majority = rng.normal(loc=0.0, size=(40, 5))
    minority = rng.normal(loc=3.0, size=(12, 5))
    features = np.vstack([majority, minority])
    labels = ["nonrumour"] * 40 + ["rumour"] * 12
    # The production path: one plan per run, then the seed's draw over the
    # z-scored minority rows, as train_classic makes it.
    fitted = fit_run(features, labels, RunConfig(smote=True, smote_k=5))
    plan = fitted.smote
    balanced_y = labels + [plan.minority] * plan.n_new
    assert balanced_y.count("rumour") == balanced_y.count("nonrumour") == 40

    originals = fitted.standardizer.transform(features[plan.rows])
    synthetic = smote_points(originals, plan.neighbours, plan.n_new, seed=3)
    assert len(synthetic) == plan.n_new
    for point in synthetic:
        found = False
        for i in range(len(originals)):
            for j in range(len(originals)):
                if i == j:
                    continue
                diff = originals[j] - originals[i]
                offset = point - originals[i]
                live = np.abs(diff) > 1e-12
                if not live.any():
                    continue
                u = offset[live] / diff[live]
                if np.all(np.abs(u - u[0]) < 1e-9) and -1e-9 <= u[0] <= 1 + 1e-9 \
                        and np.all(np.abs(offset[~live]) < 1e-9):
                    found = True
                    break
            if found:
                break
        assert found, "synthetic point is not on a segment between minority points"
    report_pass(6, "smote properties",
                f"{len(synthetic)} synthetic points verified")


def test_criterion_07_structural_invariance():
    rng = np.random.default_rng(17)

    # LSTM padding-extension invariance, 100 randomized cases.
    threads = make_planted_threads(n_threads=30, seed=5, max_replies=2)
    vocab = build_vocabulary(thread_docs(threads), cap=300)
    lstm = LstmModel(RunConfig(vocab_cap=400, embed_dim=8, hidden_dim=10,
                               perceptron_dim=6, max_len=20), vocab)
    for case in range(100):
        params = lstm.init_params(np.random.default_rng(case))
        subset = [threads[i] for i in rng.choice(len(threads), size=4, replace=False)]
        data = lstm.prepare(subset)
        base = lstm.forward(params, data.ids, data.mask).values
        extra = int(rng.integers(1, 9))
        ids = np.hstack([data.ids, np.zeros((4, extra), dtype=int)])
        mask = np.hstack([data.mask, np.zeros((4, extra))])
        extended = lstm.forward(params, ids, mask).values
        assert np.abs(extended - base).max() <= 1e-12

    # Bi-GCN non-root permutation invariance, 100 randomized cases.
    tfidf = fit_tfidf(tweet_docs(threads), top_k=120)
    bigcn = BiGcnModel(RunConfig(bigcn_hidden_dim=8, bigcn_out_dim=6,
                                 drop_edge_rate=0.0), tfidf)
    big_threads = [t for t in threads if len(t.replies) >= 2]
    trees = bigcn.prepare(big_threads).trees
    from rumourlab.proptree import PropNode, PropTree

    for case in range(100):
        params = bigcn.init_params(np.random.default_rng(1000 + case))
        batch = to_graph_batch(trees, bigcn.input_dim)
        base = bigcn.forward(params, batch).values
        permuted = []
        for tree in trees:
            nodes = list(tree.nodes)
            order = 1 + rng.permutation(len(nodes) - 1)
            reordered = [nodes[0]] + [nodes[i] for i in order]
            permuted.append(PropTree(
                thread_id=tree.thread_id, label=tree.label,
                nodes=tuple(
                    PropNode(index=i + 1, parent=node.parent, features=node.features)
                    for i, node in enumerate(reordered)
                ),
            ))
        shuffled = bigcn.forward(
            params, to_graph_batch(permuted, bigcn.input_dim)).values
        assert np.abs(shuffled - base).max() <= 1e-9

    report_pass(7, "structural invariance", "100 cases each")


def test_criterion_08_format_round_trips(tmp_path):
    threads = make_planted_threads(n_threads=20, seed=11, max_replies=3)
    tfidf = fit_tfidf(tweet_docs(threads), top_k=80)

    # Tree block round trip.
    for tree in BiGcnModel(RunConfig(), tfidf).prepare(threads).trees:
        parsed = parse_tree(serialize_tree(tree))
        assert parsed.thread_id == tree.thread_id
        assert parsed.label == tree.label
        assert [n.parent for n in parsed.nodes] == [n.parent for n in tree.nodes]
        for a, b in zip(parsed.nodes, tree.nodes):
            assert len(a.features.entries) == len(b.features.entries)
            for (ia, va), (ib, vb) in zip(a.features.entries, b.features.entries):
                assert ia == ib and abs(va - vb) <= 1e-10

    # Checkpoint round trip is exact.
    rng = np.random.default_rng(2)
    params = {"w1": rng.normal(size=(7, 3)), "b": rng.normal(size=(1, 3)) * 1e-9}
    save_checkpoint(params, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    for name in params:
        assert np.array_equal(loaded[name], params[name])

    # Dataset load -> save -> load identity.
    records = make_planted_records(n_threads=15, seed=4)
    save_tweets(records, tmp_path / "data.jsonl")
    once = load_tweets(tmp_path / "data.jsonl")
    save_tweets(once, tmp_path / "again.jsonl")
    assert load_tweets(tmp_path / "again.jsonl") == once == records
    report_pass(8, "format round trips")


def test_criterion_09_sentiment_emotion_contracts():
    lexicon = load_valence_lexicon()
    assert any(abs(v - 1.9) < 1e-12 for v in lexicon.values())
    word_19 = next(w for w, v in lexicon.items() if abs(v - 1.9) < 1e-12)
    single = score_sentiment(word_19, lexicon)
    assert abs(single.compound - 0.440) <= 0.001

    rng = np.random.default_rng(41)
    vocab = list(lexicon)[:120] + ["the", "a", "!", "?", "not", "very", "never"]
    for _ in range(10_000):
        text = " ".join(rng.choice(vocab, size=rng.integers(0, 10)))
        scores = score_sentiment(text, lexicon)
        assert -1.0 < scores.compound < 1.0

    from rumourlab.analyze import load_emotion_lexicon

    emotion_lexicon = load_emotion_lexicon()
    emotion_words = list(emotion_lexicon)[:80]
    matched = 0
    for _ in range(500):
        text = " ".join(rng.choice(emotion_words + ["covid", "city"],
                                   size=rng.integers(1, 8)))
        scores = score_emotions(text)
        total = sum(scores.as_dict().values())
        if scores.label != "none":
            matched += 1
            assert abs(total - 1.0) <= 1e-9
        else:
            assert total == 0.0
    assert matched > 300
    report_pass(9, "sentiment and emotion contracts",
                f"10000 compounds bounded; {matched} matched emotion texts")


def test_criterion_10_determinism(tmp_path):
    records = make_planted_records(n_threads=30, seed=6, max_replies=2)
    save_tweets(records, tmp_path / "data.jsonl")
    config = RunConfig(
        dataset=str(tmp_path / "data.jsonl"), model="lstm",
        out_dir=str(tmp_path / "runs"), seeds=(1, 2),
        lr=0.05, batch_size=8, max_epochs=2, patience=2,
        vocab_cap=300, embed_dim=6, hidden_dim=8, perceptron_dim=5, max_len=16,
    )
    first = run_experiment(config)
    bytes_first = {
        p.name: p.read_bytes()
        for p in sorted(first.run_dir.rglob("*")) if p.is_file()
    }
    second = run_experiment(config)
    bytes_second = {
        p.name: p.read_bytes()
        for p in sorted(second.run_dir.rglob("*")) if p.is_file()
    }
    assert first.run_dir == second.run_dir
    assert bytes_first == bytes_second
    assert any(name.startswith("ckpt_seed") for name in bytes_first)
    assert "report.txt" in bytes_first
    report_pass(10, "determinism",
                f"{len(bytes_first)} files byte-identical across reruns")
