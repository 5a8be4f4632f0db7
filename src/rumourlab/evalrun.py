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

from .config import RunConfig, load_run_config
from .errors import ValidationError
from .featurize import (
    build_vocabulary,
    compute_class_weights,
    fit_tfidf,
    load_terms,
    load_vocabulary,
    save_terms,
    save_vocabulary,
)
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
from .models import BiGcnModel, ClassicLearner, LstmModel
from .models.data import TokenTable, thread_docs, token_table, tweet_docs

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


def compute_report(predictions: Sequence[str], truth: Sequence[str],
                   config: Optional[RunConfig] = None) -> Report:
    """Accuracy plus per-class precision/recall/F1 with support counts,
    labeled with the model, digest and seeds of the run `config`, if given."""
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
    label = {} if config is None else dict(model=config.model, config_digest=config.digest(),
                                           seeds=config.seeds)
    return Report(accuracy=correct / len(truth), rows=rows, **label)


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


def _reads_text(config: RunConfig) -> bool:
    """Whether the run's features come from text (a classic kind's need TF-IDF)."""
    return config.model in ("lstm", "bigcn") or config.features != "handcrafted"


def split_threads(labeled: Sequence[Thread], ratios, seed: int, source) -> DatasetSplit:
    """`split_dataset` over the labeled threads of the file `source`, naming it in a refusal."""
    try:
        return split_dataset(labeled, ratios, seed)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def run_model(config: RunConfig, train: Optional[Sequence[Thread]] = None,
              tokens: Optional[TokenTable] = None, run_dir: Optional[Path] = None):
    """The model of the run's kind, with the operations prepare, train,
    predict, save and load (see README), over its features fitted on
    `train` or read from `run_dir`: the LSTM vocabulary, TF-IDF over
    tweets (Bi-GCN) or over threads (classic kinds with a TF-IDF block).
    With class_weights set, the gradient kinds weigh classes by `train`.
    A gradient model larger than its size bound is refused here, undrawn."""
    weights = None
    if config.class_weights and train is not None and config.model in ("lstm", "bigcn"):
        weights = compute_class_weights([t.label for t in train], classes=LABELS)
    if config.model == "lstm":
        # Reserve three ids (pad/unk/sep) inside the configured cap.
        vocab = (load_terms(run_dir / "vocab.txt") if train is None
                 else build_vocabulary(thread_docs(train, tokens), config.vocab_cap - 3))
        model = LstmModel(config, vocab, weights)
    else:
        tfidf = None
        if _reads_text(config):
            docs = tweet_docs if config.model == "bigcn" else thread_docs
            tfidf = (load_vocabulary(run_dir / "vocab.txt", run_dir / "idf.txt")
                     if train is None else fit_tfidf(docs(train, tokens), config.tfidf_top_k))
        if config.model != "bigcn":
            return ClassicLearner(config, tfidf)
        model = BiGcnModel(config, tfidf, weights)
    model.check_size()
    return model


def _save_features(model, run_dir: Path) -> None:
    """The files `run_model` reads the model's features back from."""
    if isinstance(model, LstmModel):
        save_terms(model.vocab, run_dir / "vocab.txt")
    elif model.tfidf is not None:
        save_vocabulary(model.tfidf, run_dir / "vocab.txt", run_dir / "idf.txt")


@dataclass(frozen=True)
class ExperimentResult:
    report: Report
    run_dir: Path
    split: DatasetSplit


def run_experiment(config: RunConfig, progress=None) -> ExperimentResult:
    """Execute the full pipeline for one configuration.

    Ingest, split, featurize and prepare each split once, train once per
    seed (once in all when the model's fit does not read the seed),
    majority-vote the test predictions, and persist everything under the
    digest-named run directory. `config` checked every setting when it
    was built, a train split without both classes or an empty dev or test
    split is refused, and the model and its features are built before the
    directory is, so a bad config or split writes nothing.
    Raises with the failing stage named.
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    def stage(name: str, fn):
        try:
            return fn()
        except MemoryError as exc:
            # numpy's allocation error keeps (shape, dtype) as its arguments.
            raise MemoryError(f"[stage: {name}] out of memory: {exc}") from exc
        except Exception as exc:
            # Prefix the message in place. Exceptions with structured arguments
            # (UnicodeDecodeError, OSError) cannot be rebuilt, so pass unchanged.
            if len(exc.args) <= 1:
                exc.args = (f"[stage: {name}] {exc}",)
            raise

    records = stage("ingest", lambda: load_tweets(config.dataset))
    threads, _ = stage("assemble", lambda: assemble_threads(records, config.dataset))
    labeled = [t for t in threads if t.label is not None]
    split = stage("split", lambda: split_threads(labeled, config.ratios, config.split_seed,
                                                 config.dataset))
    held = {t.label for t in split.train}
    if missing := [label for label in LABELS if label not in held]:
        raise ValidationError(f"[stage: split] no examples of class(es) in the train split: "
                              f"{missing}")
    if empty := [name for name in ("dev", "test") if not getattr(split, name)]:
        raise ValidationError(f"[stage: split] no threads in the split(s) {empty}: ratios "
                              f"{config.ratios} over {len(labeled)} labeled threads")

    def featurize():
        # The fit and the train prepare share a token table over the train split. It
        # is dropped before dev and test (which build their own) to keep peak memory down.
        tokens = token_table(split.train) if _reads_text(config) else None
        model = run_model(config, split.train, tokens)
        train = model.prepare(split.train, tokens, fit=True)
        del tokens
        return model, train, model.prepare(split.dev), model.prepare(split.test)

    model, train, dev, test = stage("featurize", featurize)

    run_dir = Path(config.out_dir) / f"{config.model}-{config.digest()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(config.canonical_text(), encoding="utf-8")
    save_split(split, run_dir / "split")
    _save_features(model, run_dir)
    note(f"run dir {run_dir}: train={len(split.train)} dev={len(split.dev)} "
         f"test={len(split.test)}")
    # A fit that does not read the seed is trained and scored once (at the
    # first seed); every seed still writes its own files and casts its vote.
    outputs, first = [], None
    for seed in config.seeds:
        fresh = first is None or model.reads_seed
        if fresh:
            payload = None  # the previous seed's payload dies before this fit starts
            payload, history, summary = stage(f"fit seed {seed}",
                                              lambda: model.train(train, dev, seed))
            first = seed
        model.save(payload, run_dir, seed)
        (run_dir / f"history_seed{seed}.txt").write_text(history, encoding="utf-8")
        outputs.append(model.predict(payload, test) if fresh else outputs[-1])
        shared = "" if fresh else f" (same fit as seed {first}: this fit does not read the seed)"
        note(f"seed {seed}: {summary}{shared}")

    voted, mean_scores = _vote(outputs)
    report = compute_report(voted, [t.label for t in split.test], config)
    (run_dir / "report.txt").write_text(report_to_text(report), encoding="utf-8")
    (run_dir / "metrics.txt").write_text(metrics_to_text(report), encoding="utf-8")
    lines = [
        f"{thread.id}\t{label}\t{score:.6g}"
        for thread, label, score in zip(split.test, voted, mean_scores)
    ]
    (run_dir / "predictions.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ExperimentResult(report=report, run_dir=run_dir, split=split)


class RunPredictor:
    """Reload a finished run directory and predict on new threads by
    majority vote across its seed models (mean score reported)."""

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.config = load_run_config(self.run_dir / "config.txt")
        # report.txt is written after every seed's artifacts.
        if not (self.run_dir / "report.txt").is_file():
            raise ValidationError(f"{self.run_dir}: incomplete run (no report.txt)")
        self.model = run_model(self.config, run_dir=self.run_dir)
        self.payloads = [self.model.load(self.run_dir, seed) for seed in self.config.seeds]

    def predict(self, threads: Sequence[Thread]) -> tuple[list[str], np.ndarray]:
        data = self.model.prepare(threads)
        return _vote([self.model.predict(payload, data) for payload in self.payloads])
