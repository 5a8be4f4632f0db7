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
from .errors import ValidationError, read_utf8
from .featurize import (
    Standardizer,
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
    BiGcnModel,
    ClassicModel,
    LstmModel,
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


def _vote(outputs: Sequence[tuple[list[str], np.ndarray]]) -> tuple[list[str], np.ndarray]:
    """Majority label and mean score per example over per-seed (labels, scores)."""
    scores = np.stack([np.asarray(run_scores, dtype=float) for _, run_scores in outputs])
    return majority_vote([labels for labels, _ in outputs]), scores.mean(axis=0)


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


def _fit_features(config: RunConfig, train: Sequence[Thread]):
    """What a run learns from its train split before any model: the LSTM
    vocabulary, TF-IDF over tweets (Bi-GCN) or over threads (classic
    kinds with a TF-IDF block), or None."""
    if config.model == "lstm":
        # Reserve three ids (pad/unk/sep) inside the configured cap.
        return build_vocabulary(thread_docs(train), config.vocab_cap - 3)
    if config.model == "bigcn":
        return fit_tfidf(tweet_docs(train), config.tfidf_top_k)
    if config.features in ("tfidf", "both"):
        return fit_tfidf(thread_docs(train), config.tfidf_top_k)
    return None


def _save_features(config: RunConfig, features, run_dir: Path) -> None:
    if config.model == "lstm":
        save_terms(features, run_dir / "vocab.txt")
    elif features is not None:
        save_vocabulary(features, run_dir / "vocab.txt", run_dir / "idf.txt")


def _load_features(config: RunConfig, run_dir: Path):
    """The inverse of _fit_features, read back from a run directory."""
    if config.model == "lstm":
        return load_terms(run_dir / "vocab.txt")
    if config.model == "bigcn" or config.features in ("tfidf", "both"):
        return load_vocabulary(run_dir / "vocab.txt", run_dir / "idf.txt")
    return None


def _gradient_model(config: RunConfig, features,
                    class_weights: Optional[dict[str, float]] = None):
    """The LSTM or Bi-GCN over the fitted features; None for classic kinds."""
    if config.model == "lstm":
        return LstmModel(config, features, class_weights)
    if config.model == "bigcn":
        return BiGcnModel(config, features, class_weights)
    return None


def _prepare(config: RunConfig, model, features, threads: Sequence[Thread]):
    """Model input for threads: prepared batches for the gradient kinds,
    the handcrafted and/or TF-IDF matrix for the classic kinds."""
    if model is not None:
        return model.prepare(threads)
    blocks = []
    if config.features in ("handcrafted", "both"):
        blocks.append(handcrafted_matrix(threads))
    if config.features in ("tfidf", "both"):
        blocks.append(tfidf_matrix(features, threads))
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

    Ingest, split, featurize and prepare each split once, train once per
    seed, majority-vote the test predictions, and persist everything under
    the digest-named run directory. `config` checked every setting when it
    was built, and features and model are built before the directory is,
    so a bad config writes nothing.
    Raises with the failing stage named.
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
    threads, _ = stage("assemble", lambda: assemble_threads(records, config.dataset))
    labeled = [t for t in threads if t.label is not None]
    split = stage("split", lambda: split_dataset(labeled, config.ratios, config.split_seed))
    features = stage("featurize", lambda: _fit_features(config, split.train))
    model = _gradient_model(config, features, _class_weight_map(config, split.train))
    train, dev, test = stage("featurize", lambda: [
        _prepare(config, model, features, part)
        for part in (split.train, split.dev, split.test)])

    run_dir = Path(config.out_dir) / f"{config.model}-{config.digest()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(config.canonical_text(), encoding="utf-8")
    save_split(split, run_dir / "split")
    _save_features(config, features, run_dir)
    note(f"run dir {run_dir}: train={len(split.train)} dev={len(split.dev)} "
         f"test={len(split.test)}")
    train_y = [t.label for t in split.train]
    outputs = []
    for seed in config.seeds:
        if model is not None:
            result = stage(f"fit seed {seed}", lambda: fit(model, train, dev, config, seed))
            save_checkpoint(result.params, run_dir / f"ckpt_seed{seed}.txt")
            history = _history_text(result.history)
            labels, scores = predict_threads(model, result.params, test)
            summary = f"best epoch {result.best_epoch}"
        else:
            classic = stage(f"fit seed {seed}", lambda: train_classic(
                config.model, train, train_y, config, seed))
            _save_classic(classic, run_dir, seed)
            dev_labels, _ = predict_classic(classic, dev)
            dev_accuracy = float(np.mean(
                [p == t.label for p, t in zip(dev_labels, split.dev)]))
            history = f"dev_accuracy = {repr(dev_accuracy)}\n"
            labels, scores = predict_classic(classic, test)
            summary = f"dev accuracy {dev_accuracy:.3f}"
        (run_dir / f"history_seed{seed}.txt").write_text(history, encoding="utf-8")
        outputs.append((labels, scores))
        note(f"seed {seed}: {summary}")

    voted, mean_scores = _vote(outputs)
    report = compute_report(voted, [t.label for t in split.test], model=config.model,
                            config_digest=config.digest(), seeds=config.seeds)
    (run_dir / "report.txt").write_text(report_to_text(report), encoding="utf-8")
    (run_dir / "metrics.txt").write_text(metrics_to_text(report), encoding="utf-8")
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
        path = run_dir / f"forest_seed{seed}.txt"
        return forest_from_text(read_utf8(path), str(path))
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
        # report.txt is written after every seed's artifacts.
        if not (self.run_dir / "report.txt").is_file():
            raise ValidationError(f"{self.run_dir}: incomplete run (no report.txt)")
        self.features = _load_features(self.config, self.run_dir)
        self.model = _gradient_model(self.config, self.features)
        self.seed_params = [self._load_seed(seed) for seed in self.config.seeds]

    def _load_seed(self, seed: int):
        """One seed's trained payload: parameters for a gradient model, a
        ClassicModel otherwise."""
        if self.model is None:
            return _load_classic(self.config.model, self.run_dir, seed)
        arrays = load_checkpoint(self.run_dir / f"ckpt_seed{seed}.txt")
        return {name: Tensor(values) for name, values in arrays.items()}

    def predict(self, threads: Sequence[Thread]) -> tuple[list[str], np.ndarray]:
        data = _prepare(self.config, self.model, self.features, threads)
        if self.model is None:
            outputs = [predict_classic(payload, data) for payload in self.seed_params]
        else:
            outputs = [predict_threads(self.model, payload, data)
                       for payload in self.seed_params]
        return _vote(outputs)
