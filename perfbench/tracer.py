"""Spans around rumourlab's public functions, recorded from outside.

The tracer replaces each traced function in every rumourlab module that
holds it (so ``rumourlab.models.lstm.matmul`` and
``rumourlab.evalrun.load_tweets`` are both covered) and each traced
method on its class. A span is (name, start, end, parent span, run id);
spans stay in memory and are written out when the benchmark ends. Some
spans carry a note hook that adds counts (records, characters, nodes,
bytes) measured where the work happens.

Hooks run after their span closes, so their cost lands in the parent's
self time; that and the wrappers themselves are the tracing overhead,
which the benchmark reports as traced minus untraced train time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Engine primitives; their calls together are gradengine.op_calls.
PRIMITIVES = (
    "add", "mul", "matmul", "spmm", "relu", "sigmoid", "tanh", "concat",
    "softmax_rows", "segment_mean", "gather_rows", "mask_mul", "sum_all",
    "mean_all", "bce_loss", "weighted_ce_loss", "hinge_loss",
)

LAYERS = ("bench", "cli", "evalrun", "ingest", "textproc", "featurize", "data",
          "proptree", "gradengine", "trainer", "lstm", "bigcn", "classic", "analyze")


def _note_records(tracer, index, args, kwargs, result):
    tracer.add("ingest.records", len(result))


def _note_normalize(tracer, index, args, kwargs, result):
    text = args[0]
    tracer.add("textproc.chars_normalized", len(text))
    tracer.distinct.add(hash(text))


def _note_smote(tracer, index, args, kwargs, result):
    points = np.asarray(args[0])
    m, d = points.shape
    tracer.maximum("featurize.smote_pairwise_bytes", m * m * d * 8)


def _note_lstm_inputs(tracer, index, args, kwargs, result):
    # lstm_inputs(threads, vocab, max_len): tokens kept are the mask's ones.
    tracer.add("data.tokens_kept", float(result[1].sum()))


def _note_thread_tokens(tracer, index, args, kwargs, result):
    tracer.thread_token_spans.append((index, len(result)))


def _note_graph_batch(tracer, index, args, kwargs, result):
    trees, input_dim = args[0], args[1]
    nodes = sum(tree.size for tree in trees)
    tracer.add("proptree.batch_nodes", nodes)
    tracer.add("proptree.feature_cells", nodes * input_dim)
    tracer.add("proptree.feature_nnz",
               sum(len(node.features.entries) for tree in trees for node in tree.nodes))


def _note_checkpoint(tracer, index, args, kwargs, result):
    tracer.add("gradengine.checkpoint_bytes", os.path.getsize(args[1]))


def _note_fit(tracer, index, args, kwargs, result):
    tracer.add("trainer.epochs", len(result.history))
    tracer.add("trainer.examples", len(result.history) * len(args[1]))


def _note_loss(tracer, index, args, kwargs, result):
    # loss_and_predictions(self, params, batch, train, rng=None)
    if not kwargs.get("train", args[3] if len(args) > 3 else False):
        tracer.eval_spans.append(index)


def _note_train_classic(tracer, index, args, kwargs, result):
    _, start, end, _, _ = tracer.spans[index]
    tracer.add(f"classic.train_{args[0]}_s", end - start)
    if result.kind == "rf":
        tracer.add("classic.rf_nodes", sum(len(tree) for tree in result.forest))


# (module, function or Class.method, span name, note hook)
TARGETS = (
    [("rumourlab.ingest", "load_tweets", "ingest.load_tweets", _note_records),
     ("rumourlab.ingest", "assemble_threads", "ingest.assemble_threads", None),
     ("rumourlab.textproc", "normalize", "textproc.normalize", _note_normalize),
     ("rumourlab.textproc", "tokenize", "textproc.tokenize", None),
     ("rumourlab.featurize", "build_vocabulary", "featurize.build_vocabulary", None),
     ("rumourlab.featurize", "fit_tfidf", "featurize.fit_tfidf", None),
     ("rumourlab.featurize", "transform_tfidf", "featurize.transform_tfidf", None),
     ("rumourlab.featurize", "smote_oversample", "featurize.smote", _note_smote),
     ("rumourlab.featurize", "load_vocabulary", "featurize.load_vocabulary", None),
     ("rumourlab.models.data", "lstm_inputs", "data.lstm_inputs", _note_lstm_inputs),
     ("rumourlab.models.data", "tfidf_matrix", "data.tfidf_matrix", None),
     ("rumourlab.models.data", "thread_tokens", "data.thread_tokens", _note_thread_tokens),
     ("rumourlab.proptree", "build_tree", "proptree.build_tree", None),
     ("rumourlab.proptree", "to_graph_batch", "proptree.to_graph_batch", _note_graph_batch),
     ("rumourlab.proptree", "drop_edge", "proptree.drop_edge", None)]
    + [("rumourlab.gradengine.tensor", name, f"gradengine.{name}", None)
       for name in PRIMITIVES if not name.endswith("_loss")]
    + [("rumourlab.gradengine.losses", name, f"gradengine.{name}", None)
       for name in PRIMITIVES if name.endswith("_loss")]
    + [("rumourlab.gradengine.tensor", "backward", "gradengine.backward", None),
       ("rumourlab.gradengine.optim", "optimizer_step", "gradengine.optimizer_step", None),
       ("rumourlab.gradengine.checkpoint", "save_checkpoint", "gradengine.save_checkpoint",
        _note_checkpoint),
       ("rumourlab.gradengine.checkpoint", "load_checkpoint", "gradengine.load_checkpoint",
        None),
       ("rumourlab.models.trainer", "fit", "trainer.fit", _note_fit),
       ("rumourlab.models.trainer", "predict_threads", "trainer.predict_threads", None),
       ("rumourlab.models.lstm", "LstmModel.prepare", "lstm.prepare", None),
       ("rumourlab.models.lstm", "LstmModel.forward", "lstm.forward", None),
       ("rumourlab.models.lstm", "LstmModel.loss_and_predictions",
        "lstm.loss_and_predictions", _note_loss),
       ("rumourlab.models.bigcn", "BiGcnModel.prepare", "bigcn.prepare", None),
       ("rumourlab.models.bigcn", "BiGcnModel.forward", "bigcn.forward", None),
       ("rumourlab.models.bigcn", "BiGcnModel.loss_and_predictions",
        "bigcn.loss_and_predictions", _note_loss),
       ("rumourlab.models.classic", "train_classic", "classic.train_classic",
        _note_train_classic),
       ("rumourlab.models.classic", "predict_classic", "classic.predict", None),
       ("rumourlab.models.classic", "forest_from_text", "classic.forest_from_text", None),
       ("rumourlab.evalrun", "run_experiment", "evalrun.run_experiment", None),
       ("rumourlab.evalrun", "RunPredictor.__init__", "evalrun.predictor_init", None),
       ("rumourlab.evalrun", "RunPredictor.predict", "evalrun.predictor_predict", None),
       ("rumourlab.cli", "main", "cli.main", None),
       ("rumourlab.analyze", "attribute_histograms", "analyze.attribute_histograms", None),
       ("rumourlab.analyze", "monthly_top_terms", "analyze.monthly_top_terms", None),
       ("rumourlab.analyze", "score_emotions", "analyze.score_emotions", None),
       ("rumourlab.analyze", "score_sentiment", "analyze.score_sentiment", None),
       ("rumourlab.analyze", "monthly_average_scores", "analyze.monthly_average_scores",
        None)]
)


class Tracer:
    """In-memory span recorder; `run` tags spans with the session id."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.run = 0
        self._patches: list = []
        self._reset_counts()

    def _reset_counts(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: set[int] = set()
        self.eval_spans: list[int] = []
        self.thread_token_spans: list[tuple[int, int]] = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def maximum(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.run)
            if note is not None:
                note(self, index, args, kwargs, return_value)
            return return_value

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent, self.run)

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in sorted(sys.modules)
                   if name == "rumourlab" or name.startswith("rumourlab.")]
        for module_name, attr, span_name, note in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self.wrap(span_name, original, note))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span_name, original, note)
            for holder in modules:
                if holder.__dict__.get(attr) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def session_metrics(self, first_span: int, wall: float) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since first_span, in a
        session that took `wall` seconds by the caller's own clock."""
        spans = self.spans[first_span:]
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(spans, child_time):
            self_time[name.split(".")[0]] += end - start - covered

        def ancestors(index):
            while index >= first_span:
                name, _, _, parent, _ = self.spans[index]
                yield name, index
                index = parent

        eval_in_fit = sum(
            self.spans[i][2] - self.spans[i][1] for i in self.eval_spans
            if any(name == "trainer.fit" for name, _ in ancestors(i)))
        kept = self.counts["data.tokens_kept"]
        produced = sum(n for i, n in self.thread_token_spans
                       if any(name == "data.lstm_inputs" for name, _ in ancestors(i)))
        c = self.counts
        metrics = {
            "ingest.load_tweets_s": total["ingest.load_tweets"],
            "ingest.assemble_threads_s": total["ingest.assemble_threads"],
            "ingest.records": c["ingest.records"],
            "textproc.normalize_calls": calls["textproc.normalize"],
            "textproc.normalize_s": total["textproc.normalize"],
            "textproc.tokenize_s": total["textproc.tokenize"],
            "textproc.chars_normalized": c["textproc.chars_normalized"],
            "textproc.distinct_text_share":
                len(self.distinct) / max(calls["textproc.normalize"], 1),
            "featurize.build_vocabulary_s": total["featurize.build_vocabulary"],
            "featurize.fit_tfidf_s": total["featurize.fit_tfidf"],
            "featurize.transform_tfidf_calls": calls["featurize.transform_tfidf"],
            "featurize.transform_tfidf_s": total["featurize.transform_tfidf"],
            "featurize.smote_s": total["featurize.smote"],
            "featurize.smote_pairwise_bytes": c["featurize.smote_pairwise_bytes"],
            "data.lstm_inputs_s": total["data.lstm_inputs"],
            "data.tfidf_matrix_s": total["data.tfidf_matrix"],
            "data.lstm_token_use_share": kept / produced if produced else 0.0,
            "proptree.build_tree_s": total["proptree.build_tree"],
            "proptree.to_graph_batch_calls": calls["proptree.to_graph_batch"],
            "proptree.to_graph_batch_s": total["proptree.to_graph_batch"],
            "proptree.drop_edge_s": total["proptree.drop_edge"],
            "proptree.batch_nodes": c["proptree.batch_nodes"],
            "proptree.feature_density":
                c["proptree.feature_nnz"] / c["proptree.feature_cells"]
                if c["proptree.feature_cells"] else 0.0,
        }
        for op in ("matmul", "gather_rows", "spmm", "backward"):
            metrics[f"gradengine.{op}_calls"] = calls[f"gradengine.{op}"]
            metrics[f"gradengine.{op}_s"] = total[f"gradengine.{op}"]
        fit_s = total["trainer.fit"]
        metrics.update({
            "gradengine.optimizer_step_s": total["gradengine.optimizer_step"],
            "gradengine.op_calls": sum(calls[f"gradengine.{op}"] for op in PRIMITIVES),
            "gradengine.save_checkpoint_s": total["gradengine.save_checkpoint"],
            "gradengine.load_checkpoint_s": total["gradengine.load_checkpoint"],
            "gradengine.checkpoint_bytes": c["gradengine.checkpoint_bytes"],
            "trainer.fit_s": fit_s,
            "trainer.epochs": c["trainer.epochs"],
            "trainer.train_examples_per_s": c["trainer.examples"] / fit_s if fit_s else 0.0,
            "trainer.eval_share": eval_in_fit / fit_s if fit_s else 0.0,
            "trainer.prepare_calls": calls["lstm.prepare"] + calls["bigcn.prepare"],
            "lstm.forward_s": total["lstm.forward"],
            "lstm.prepare_s": total["lstm.prepare"],
            "bigcn.forward_s": total["bigcn.forward"],
            "bigcn.prepare_s": total["bigcn.prepare"],
            "bigcn.loss_and_predictions_s": total["bigcn.loss_and_predictions"],
            "classic.train_logreg_s": c["classic.train_logreg_s"],
            "classic.train_svm_s": c["classic.train_svm_s"],
            "classic.train_rf_s": c["classic.train_rf_s"],
            "classic.predict_s": total["classic.predict"],
            "classic.rf_nodes": c["classic.rf_nodes"],
            "evalrun.run_experiment_s": total["evalrun.run_experiment"],
            "evalrun.predictor_init_s": total["evalrun.predictor_init"],
            "evalrun.predictor_predict_s": total["evalrun.predictor_predict"],
        })
        for fn in ("attribute_histograms", "monthly_top_terms", "score_emotions",
                   "score_sentiment", "monthly_average_scores"):
            metrics[f"analyze.{fn}_s"] = total[f"analyze.{fn}"]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        # The self times should add up to the session's wall time by the
        # caller's clock; spans that miss part of the session show here.
        metrics["trace.wall_s"] = wall
        metrics["trace.self_share"] = sum(self_time.values()) / wall
        # The share of the session spent inside traced rumourlab functions,
        # rather than in the benchmark's own code around them.
        metrics["trace.covered_share"] = \
            sum(t for layer, t in self_time.items() if layer != "bench") / wall
        metrics["trace.spans"] = len(spans)
        self._reset_counts()
        return metrics

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, run, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\trun\tname\tstart\tend\n")
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(f"{index}\t{parent}\t{run}\t{name}\t{start!r}\t{end!r}\n")
