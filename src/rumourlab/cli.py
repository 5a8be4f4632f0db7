"""Command-line entry point.

Subcommands: ingest, stats, build-trees, train, evaluate, predict,
analyze, selftest. Progress and summaries go to stderr; `predict` writes
its tab-separated label stream to stdout; everything else lands in
files. Exit codes: 0 success, 1 validation/usage error, a path that
cannot be read or written, or memory that cannot be allocated,
2 internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import analyze as analysis
from .config import RunConfig, apply_settings, check_setting, load_config
from .errors import ParseError, ValidationError
from .evalrun import (RunPredictor, compute_report, report_to_text, run_experiment, run_model,
                      split_threads)
from .featurize import save_vocabulary
from .ingest import assemble_threads, load_split, load_tweets, save_split
from .models.data import token_table
from .proptree import write_tree_corpus


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rumourlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate a dataset and report thread assembly")
    ingest.add_argument("--data", required=True)
    ingest.add_argument("--split-out", help="write a split manifest to this directory")
    ingest.add_argument("--ratios", default=",".join(map(str, RunConfig().ratios)))
    ingest.add_argument("--seed", type=int, default=RunConfig().split_seed)

    stats = sub.add_parser("stats", help="corpus summary")
    stats.add_argument("--data", required=True)

    trees = sub.add_parser("build-trees", help="write the tree corpus file")
    trees.add_argument("--data", required=True)
    trees.add_argument("--out", required=True)
    trees.add_argument("--config")

    train = sub.add_parser("train", help="run a training experiment")
    train.add_argument("--config")
    train.add_argument("--data")
    train.add_argument("--model")
    train.add_argument("--out-dir")
    train.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config value")

    evaluate = sub.add_parser("evaluate", help="report on the test split of a run")
    evaluate.add_argument("--run", required=True)
    evaluate.add_argument("--data", help="defaults to the run's dataset")

    predict = sub.add_parser("predict", help="emit thread_id<TAB>label<TAB>score lines")
    predict.add_argument("--run", required=True)
    predict.add_argument("--data", required=True)

    analyze = sub.add_parser("analyze", help="write analysis tables")
    analyze.add_argument("--kind", required=True, choices=tuple(_ANALYSES))
    analyze.add_argument("--data", required=True)
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--run", help="run directory used to predict missing labels")
    analyze.add_argument("--top-n", type=int, default=20)
    analyze.add_argument("--exclude", default="covid,corona virus")

    sub.add_parser("selftest", help="gradient checks")
    return parser


def _train_config_from_args(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    flags = (("--data", "dataset", args.data), ("--model", "model", args.model),
             ("--out-dir", "out_dir", args.out_dir))
    for flag, name, value in flags:
        if value:
            try:
                config = replace(config, **{name: value})
            except ValidationError as exc:
                raise ValidationError(f"{flag} {value!r}: {exc}") from None
    config = apply_settings(args.set, config)
    if not config.dataset:
        raise ValidationError("no dataset configured; pass --data or set dataset =")
    return config


def _load_threads(path):
    """The records of a dataset file, its threads and assembly diagnostics;
    assembly errors name the file."""
    records = load_tweets(path)
    return (records, *assemble_threads(records, path))


def _cmd_ingest(args) -> int:
    records, threads, diagnostics = _load_threads(args.data)
    labeled = [t for t in threads if t.label is not None]
    print(f"records: {len(records)}")
    print(f"threads: {len(threads)} ({len(labeled)} labeled)")
    print(f"orphan replies dropped: {diagnostics.orphan_replies}")
    print(f"unlabeled sources: {diagnostics.unlabeled_sources}")
    if args.split_out:
        try:
            ratios = tuple(map(float, args.ratios.split(",")))
            check_setting("ratios", ratios)
        except ValueError as exc:
            raise ValidationError(f"--ratios {args.ratios!r}: {exc}") from None
        split = split_threads(labeled, ratios, args.seed, args.data)
        save_split(split, args.split_out)
        print(f"split manifest written to {args.split_out}")
    return 0


def _cmd_stats(args) -> int:
    records, threads, _ = _load_threads(args.data)
    labels = {}
    reply_total = 0
    for thread in threads:
        labels[thread.label] = labels.get(thread.label, 0) + 1
        reply_total += len(thread.replies)
    stamps = [r.created_at for r in records]
    print(f"records: {len(records)}")
    print(f"threads: {len(threads)}, replies: {reply_total}")
    for label in sorted(labels, key=str):
        print(f"label {label}: {labels[label]}")
    if stamps:
        print(f"first tweet: {min(stamps).isoformat()}")
        print(f"last tweet: {max(stamps).isoformat()}")
    return 0


def _cmd_build_trees(args) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    _, threads, _ = _load_threads(args.data)
    labeled = [t for t in threads if t.label is not None]
    split = split_threads(labeled, config.ratios, config.split_seed, args.data)
    tokens = token_table(threads)
    # Trees train nothing, so a train split of one class still builds them.
    model = run_model(replace(config, model="bigcn", class_weights=False), split.train, tokens)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_tree_corpus(model.prepare(threads, tokens).trees, out)
    save_vocabulary(model.tfidf, out.with_suffix(".vocab.txt"), out.with_suffix(".idf.txt"))
    _progress(f"wrote {len(threads)} trees to {out}")
    return 0


def _cmd_train(args) -> int:
    config = _train_config_from_args(args)
    result = run_experiment(config, progress=_progress)
    _progress(f"report written to {result.run_dir / 'report.txt'}")
    _progress(report_to_text(result.report).rstrip())
    return 0


def _cmd_evaluate(args) -> int:
    predictor = RunPredictor(args.run)
    data_path = args.data or predictor.config.dataset
    _, threads, _ = _load_threads(data_path)
    labeled = [t for t in threads if t.label is not None]
    split = load_split(Path(args.run) / "split", labeled)
    labels, _ = predictor.predict(split.test)
    report = compute_report(labels, [t.label for t in split.test], predictor.config)
    out = Path(args.run) / "eval_report.txt"
    out.write_text(report_to_text(report), encoding="utf-8")
    _progress(f"evaluation written to {out}")
    _progress(report_to_text(report).rstrip())
    return 0


def _cmd_predict(args) -> int:
    predictor = RunPredictor(args.run)
    _, threads, _ = _load_threads(args.data)
    labels, scores = predictor.predict(threads)
    for thread, label, score in zip(threads, labels, scores):
        sys.stdout.write(f"{thread.id}\t{label}\t{score:.6g}\n")
    return 0


def _labeled_sources(threads, run_dir):
    """Each thread's source with its own label, or, for an unlabeled
    thread, the label the run predicts; in thread order."""
    unlabeled = [t for t in threads if t.label is None]
    if not unlabeled:
        return [(t.source, t.label) for t in threads]
    if run_dir is None:
        raise ValidationError(
            "dataset has unlabeled threads; pass --run to predict labels"
        )
    predicted = iter(RunPredictor(run_dir).predict(unlabeled)[0])
    return [(t.source, t.label if t.label is not None else next(predicted)) for t in threads]


def _monthly_scores_csv(labeled, score) -> str:
    scored = [(record, label, score(record.text)) for record, label in labeled]
    return analysis.timeseries_to_csv(analysis.monthly_average_scores(scored))


# Analysis kind -> CSV builder over the labeled sources and the command's
# arguments. The keys are the --kind choices; each kind writes <kind>.csv.
_ANALYSES = {
    "attributes": lambda labeled, args: analysis.histograms_to_csv(
        analysis.attribute_histograms(labeled)),
    "topics": lambda labeled, args: analysis.terms_to_csv(
        analysis.monthly_top_terms(labeled, args.exclude.split(","), args.top_n)),
    "emotion": lambda labeled, args: _monthly_scores_csv(
        labeled, lambda text: analysis.score_emotions(text).as_dict()),
    "sentiment": lambda labeled, args: _monthly_scores_csv(
        labeled, lambda text: {"compound": analysis.score_sentiment(text).compound}),
}


def _cmd_analyze(args) -> int:
    if args.top_n < 1:
        raise ValidationError(f"--top-n must be at least 1, got {args.top_n}")
    _, threads, _ = _load_threads(args.data)
    labeled = _labeled_sources(threads, args.run)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = _ANALYSES[args.kind](labeled, args)
    path = out_dir / f"{args.kind}.csv"
    path.write_text(table, encoding="utf-8")
    _progress(f"wrote {path}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    failures = run_selftest(print)
    return 0 if failures == 0 else 1


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "build-trees": _cmd_build_trees,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "analyze": _cmd_analyze,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValidationError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
