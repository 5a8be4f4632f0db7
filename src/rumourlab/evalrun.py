"""Metrics, reports in the shape of the results table, majority voting,
and the end-to-end experiment runner.

A run directory is named ``<model>-<config digest>`` so identical
configurations collide into identical, reproducible artifacts. Runs
write the canonical config, per-seed checkpoints and histories, the
voted test predictions, a human-readable report, and a flat key-value
metrics file. Nothing written contains a timestamp.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import RunConfig, load_config
from .errors import ValidationError
from .featurize import (
    Standardizer,
    TfidfModel,
    Vocabulary,
    build_vocabulary,
    compute_class_weights,
    fit_tfidf,
    load_terms,
    load_vocabulary,
    save_terms,
    save_vocabulary,
)
from .gradengine import Tensor, load_checkpoint, save_checkpoint
from .ingest import (
    LABELS,
    NONRUMOUR,
    RUMOUR,
    DatasetSplit,
    Thread,
    assemble_threads,
    load_tweets,
    save_split,
    split_dataset,
)
from .models import (
    BiGcnConfig,
    BiGcnModel,
    ClassicModel,
    ClassicOptions,
    LstmConfig,
    LstmModel,
    TrainConfig,
    fit,
    forest_from_text,
    forest_to_text,
    predict_classic,
    predict_threads,
    train_classic,
)
from .models.data import handcrafted_matrix, thread_docs, tweet_docs, tfidf_matrix

REPORT_FORMAT_VERSION = "rumourlab-report v1"
CLASS_SHORT = {RUMOUR: "R", NONRUMOUR: "N"}


@dataclass(frozen=True)
class ClassRow:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Report:
    accuracy: float
    rows: dict[str, ClassRow]
    model: str = ""
    config_digest: str = ""
    seeds: tuple[int, ...] = ()


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_report(
    predictions: Sequence[str],
    truth: Sequence[str],
    model: str = "",
    config_digest: str = "",
    seeds: tuple[int, ...] = (),
) -> Report:
    """Accuracy plus per-class precision/recall/F1 with support counts."""
    if len(predictions) != len(truth):
        raise ValidationError(
            f"{len(predictions)} predictions for {len(truth)} truth labels"
        )
    if len(truth) == 0:
        raise ValidationError("cannot compute a report over zero examples")
    for label in list(predictions) + list(truth):
        if label not in LABELS:
            raise ValidationError(f"unknown label {label!r}")
    correct = sum(1 for p, t in zip(predictions, truth) if p == t)
    rows = {}
    for cls in LABELS:
        tp = sum(1 for p, t in zip(predictions, truth) if p == cls and t == cls)
        fp = sum(1 for p, t in zip(predictions, truth) if p == cls and t != cls)
        fn = sum(1 for p, t in zip(predictions, truth) if p != cls and t == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        rows[cls] = ClassRow(
            precision=precision, recall=recall, f1=_f1(precision, recall),
            support=tp + fn,
        )
    return Report(
        accuracy=correct / len(truth), rows=rows,
        model=model, config_digest=config_digest, seeds=tuple(seeds),
    )


def majority_vote(runs: Sequence[Sequence[str]]) -> list[str]:
    """Per-example label predicted by the most runs; ties go to
    nonrumour."""
    if not runs:
        raise ValidationError("majority_vote needs at least one run")
    length = len(runs[0])
    for run in runs[1:]:
        if len(run) != length:
            raise ValidationError("prediction runs differ in length")
    voted = []
    for position in range(length):
        counts = Counter(run[position] for run in runs)
        rumour_votes = counts.get(RUMOUR, 0)
        nonrumour_votes = counts.get(NONRUMOUR, 0)
        voted.append(RUMOUR if rumour_votes > nonrumour_votes else NONRUMOUR)
    return voted


def report_to_text(report: Report) -> str:
    lines = [
        f"# {REPORT_FORMAT_VERSION}",
        f"model = {report.model}",
        f"config = {report.config_digest}",
        f"seeds = {','.join(str(s) for s in report.seeds)}",
        f"accuracy = {report.accuracy:.4f}",
        "class precision recall f1 support",
    ]
    for cls in LABELS:
        row = report.rows[cls]
        lines.append(
            f"{CLASS_SHORT[cls]} {row.precision:.4f} {row.recall:.4f} "
            f"{row.f1:.4f} {row.support}"
        )
    return "\n".join(lines) + "\n"


def metrics_to_text(report: Report) -> str:
    lines = [f"accuracy = {repr(report.accuracy)}"]
    for cls in LABELS:
        row = report.rows[cls]
        prefix = CLASS_SHORT[cls].lower()
        lines.append(f"{prefix}_precision = {repr(row.precision)}")
        lines.append(f"{prefix}_recall = {repr(row.recall)}")
        lines.append(f"{prefix}_f1 = {repr(row.f1)}")
        lines.append(f"{prefix}_support = {row.support}")
    return "\n".join(lines) + "\n"


def _history_text(history) -> str:
    lines = ["epoch train_loss train_accuracy dev_loss dev_accuracy"]
    for record in history:
        lines.append(
            f"{record.epoch} {repr(record.train_loss)} {repr(record.train_accuracy)} "
            f"{repr(record.dev_loss)} {repr(record.dev_accuracy)}"
        )
    return "\n".join(lines) + "\n"


def _lstm_config(config: RunConfig) -> LstmConfig:
    return LstmConfig(
        vocab_cap=config.vocab_cap, embed_dim=config.embed_dim,
        hidden_dim=config.hidden_dim, perceptron_dim=config.perceptron_dim,
        max_len=config.max_len, dropout=config.dropout,
    )


def _bigcn_config(config: RunConfig, input_dim: int) -> BiGcnConfig:
    return BiGcnConfig(
        input_dim=input_dim, hidden_dim=config.bigcn_hidden_dim,
        out_dim=config.bigcn_out_dim, drop_edge_rate=config.drop_edge_rate,
        dropout=config.dropout, tree_raw_counts=config.tree_raw_counts,
        keep_reply_links=config.keep_reply_links,
    )


def _train_config(config: RunConfig, seed: int) -> TrainConfig:
    return TrainConfig(
        optimizer=config.optimizer, lr=config.lr,
        weight_decay=config.weight_decay, epsilon=config.epsilon,
        batch_size=config.batch_size, max_epochs=config.max_epochs,
        patience=config.patience, class_weights=config.class_weights,
        seed=seed,
    )


def _classic_options(config: RunConfig, seed: int) -> ClassicOptions:
    # The handcrafted block (first 8 columns when present) is the only
    # scale-sensitive part; TF-IDF rows are already unit-norm.
    scale_columns = 0 if config.features == "tfidf" else 8
    return ClassicOptions(
        class_weights=config.class_weights, smote=config.smote,
        smote_k=config.smote_k, seed=seed, rf_trees=config.rf_trees,
        rf_max_depth=config.rf_max_depth,
        rf_feature_subsample=config.rf_feature_subsample,
        logreg_l2=config.logreg_l2, svm_l2=config.svm_l2,
        lr=config.classic_lr, max_iters=config.classic_iters,
        svm_iters=config.svm_iters, scale_columns=scale_columns,
    )


def _classic_features(
    config: RunConfig, tfidf: Optional[TfidfModel], threads: Sequence[Thread]
) -> np.ndarray:
    blocks = []
    if config.features in ("handcrafted", "both"):
        blocks.append(handcrafted_matrix(threads))
    if config.features in ("tfidf", "both"):
        blocks.append(tfidf_matrix(tfidf, threads))
    return np.hstack(blocks)


@dataclass(frozen=True)
class ExperimentResult:
    report: Report
    run_dir: Path
    split: DatasetSplit


def _class_weight_map(config: RunConfig, threads) -> Optional[dict[str, float]]:
    if not config.class_weights:
        return None
    return compute_class_weights([t.label for t in threads], classes=LABELS)


def run_experiment(config: RunConfig, progress=None) -> ExperimentResult:
    """Execute the full pipeline for one configuration.

    Ingest, split, featurize, train once per seed, majority-vote the test
    predictions, and persist everything under the digest-named run
    directory. Raises with the failing stage named.
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    def stage(name: str, fn):
        try:
            return fn()
        except Exception as exc:
            # Prefix the message in place. Exceptions with structured arguments
            # (UnicodeDecodeError, OSError) cannot be rebuilt, so pass unchanged.
            if len(exc.args) <= 1:
                exc.args = (f"[stage: {name}] {exc}",)
            raise

    records = stage("ingest", lambda: load_tweets(config.dataset))
    threads, _ = stage("assemble", lambda: assemble_threads(records))
    labeled = [t for t in threads if t.label is not None]
    split = stage("split", lambda: split_dataset(labeled, config.ratios, config.split_seed))
    run_dir = Path(config.out_dir) / f"{config.model}-{config.digest()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(config.canonical_text(), encoding="utf-8")
    save_split(split, run_dir / "split")
    note(f"run dir {run_dir}: train={len(split.train)} dev={len(split.dev)} "
         f"test={len(split.test)}")
    truth = [t.label for t in split.test]
    seed_predictions: list[list[str]] = []
    seed_scores: list[np.ndarray] = []

    if config.model == "lstm":
        # Reserve three ids (pad/unk/sep) inside the configured cap.
        vocab = stage("featurize", lambda: build_vocabulary(
            thread_docs(split.train), config.vocab_cap - 3))
        save_terms(vocab, run_dir / "vocab.txt")
        model = LstmModel(_lstm_config(config), vocab,
                          _class_weight_map(config, split.train))
        for seed in config.seeds:
            result = stage(f"fit seed {seed}", lambda: fit(
                model, split.train, split.dev, _train_config(config, seed)))
            save_checkpoint(result.params, run_dir / f"ckpt_seed{seed}.txt")
            (run_dir / f"history_seed{seed}.txt").write_text(
                _history_text(result.history), encoding="utf-8")
            labels, scores = predict_threads(model, result.params, split.test)
            seed_predictions.append(labels)
            seed_scores.append(scores)
            note(f"seed {seed}: best epoch {result.best_epoch}")
    elif config.model == "bigcn":
        tfidf = stage("featurize", lambda: fit_tfidf(
            tweet_docs(split.train), config.tfidf_top_k))
        save_vocabulary(tfidf, run_dir / "vocab.txt", run_dir / "idf.txt")
        model = BiGcnModel(_bigcn_config(config, tfidf.vocab.content_size), tfidf,
                           _class_weight_map(config, split.train))
        for seed in config.seeds:
            result = stage(f"fit seed {seed}", lambda: fit(
                model, split.train, split.dev, _train_config(config, seed)))
            save_checkpoint(result.params, run_dir / f"ckpt_seed{seed}.txt")
            (run_dir / f"history_seed{seed}.txt").write_text(
                _history_text(result.history), encoding="utf-8")
            labels, scores = predict_threads(model, result.params, split.test)
            seed_predictions.append(labels)
            seed_scores.append(scores)
            note(f"seed {seed}: best epoch {result.best_epoch}")
    else:
        tfidf = None
        if config.features in ("tfidf", "both"):
            tfidf = stage("featurize", lambda: fit_tfidf(
                thread_docs(split.train), config.tfidf_top_k))
            save_vocabulary(tfidf, run_dir / "vocab.txt", run_dir / "idf.txt")
        train_x = _classic_features(config, tfidf, split.train)
        dev_x = _classic_features(config, tfidf, split.dev)
        test_x = _classic_features(config, tfidf, split.test)
        train_y = [t.label for t in split.train]
        for seed in config.seeds:
            model = stage(f"fit seed {seed}", lambda: train_classic(
                config.model, train_x, train_y, _classic_options(config, seed)))
            _save_classic(model, run_dir, seed)
            dev_labels, _ = predict_classic(model, dev_x)
            dev_accuracy = float(np.mean(
                [p == t.label for p, t in zip(dev_labels, split.dev)]))
            (run_dir / f"history_seed{seed}.txt").write_text(
                f"dev_accuracy = {repr(dev_accuracy)}\n", encoding="utf-8")
            labels, scores = predict_classic(model, test_x)
            seed_predictions.append(labels)
            seed_scores.append(np.asarray(scores, dtype=float))
            note(f"seed {seed}: dev accuracy {dev_accuracy:.3f}")

    voted = majority_vote(seed_predictions)
    report = compute_report(voted, truth, model=config.model,
                            config_digest=config.digest(), seeds=config.seeds)
    (run_dir / "report.txt").write_text(report_to_text(report), encoding="utf-8")
    (run_dir / "metrics.txt").write_text(metrics_to_text(report), encoding="utf-8")
    mean_scores = np.mean(np.stack(seed_scores), axis=0)
    lines = [
        f"{thread.id}\t{label}\t{score:.6g}"
        for thread, label, score in zip(split.test, voted, mean_scores)
    ]
    (run_dir / "predictions.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ExperimentResult(report=report, run_dir=run_dir, split=split)


def _save_classic(model: ClassicModel, run_dir: Path, seed: int) -> None:
    if model.kind == "rf":
        (run_dir / f"forest_seed{seed}.txt").write_text(
            forest_to_text(model), encoding="utf-8")
    else:
        save_checkpoint({
            "w": model.weights, "b": np.array([model.bias]),
            "feature_mean": model.standardizer.mean,
            "feature_std": model.standardizer.std,
        }, run_dir / f"ckpt_seed{seed}.txt")


def _load_classic(kind: str, run_dir: Path, seed: int) -> ClassicModel:
    if kind == "rf":
        return forest_from_text(
            (run_dir / f"forest_seed{seed}.txt").read_text(encoding="utf-8"))
    params = load_checkpoint(run_dir / f"ckpt_seed{seed}.txt")
    return ClassicModel(
        kind=kind, weights=params["w"], bias=float(params["b"][0]),
        standardizer=Standardizer(mean=params["feature_mean"],
                                  std=params["feature_std"]),
    )


class RunPredictor:
    """Reload a finished run directory and predict on new threads by
    majority vote across its seed models (mean score reported)."""

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.config = load_config(self.run_dir / "config.txt")
        kind = self.config.model
        self.tfidf: Optional[TfidfModel] = None
        self.vocab: Optional[Vocabulary] = None
        if kind == "lstm":
            self.vocab = load_terms(self.run_dir / "vocab.txt")
            self.model = LstmModel(_lstm_config(self.config), self.vocab)
        elif kind == "bigcn":
            self.tfidf = load_vocabulary(self.run_dir / "vocab.txt",
                                         self.run_dir / "idf.txt")
            self.model = BiGcnModel(
                _bigcn_config(self.config, self.tfidf.vocab.content_size), self.tfidf)
        else:
            if self.config.features in ("tfidf", "both"):
                self.tfidf = load_vocabulary(self.run_dir / "vocab.txt",
                                             self.run_dir / "idf.txt")
            self.model = None
        self.seed_params: list = []
        for seed in self.config.seeds:
            if kind in ("lstm", "bigcn"):
                arrays = load_checkpoint(self.run_dir / f"ckpt_seed{seed}.txt")
                self.seed_params.append(
                    {name: Tensor(values, requires_grad=True, name=name)
                     for name, values in arrays.items()})
            else:
                self.seed_params.append(_load_classic(kind, self.run_dir, seed))

    def predict(self, threads: Sequence[Thread]) -> tuple[list[str], np.ndarray]:
        kind = self.config.model
        runs: list[list[str]] = []
        scores: list[np.ndarray] = []
        for payload in self.seed_params:
            if kind in ("lstm", "bigcn"):
                labels, run_scores = predict_threads(self.model, payload, threads)
            else:
                features = _classic_features(self.config, self.tfidf, threads)
                labels, run_scores = predict_classic(payload, features)
            runs.append(labels)
            scores.append(np.asarray(run_scores, dtype=float))
        voted = majority_vote(runs)
        return voted, np.mean(np.stack(scores), axis=0)
