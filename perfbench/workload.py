"""One workload in one process: closed-loop sessions until time is up.

run.py starts this child once per run, in the workload's work
directory, which holds ``labeled.jsonl`` and ``unlabeled.jsonl``. A
session drives the program through its public entry points:

- train: ``evalrun.run_experiment`` for each of the workload's configs;
- load: ``evalrun.RunPredictor`` on each finished run directory;
- predict: ``RunPredictor.predict`` over the unlabeled corpus;
- analyze: ``cli.main(["analyze", ...])`` for each of the four kinds,
  in the workload's number of rounds; each call loads, assembles,
  builds the table and writes the CSV.

Each is one operation; an exception fails it (and a failed load fails
its predict) and is recorded by type, message and raising frame, and the
session goes on. Outputs are checked after the timed part: report.txt
parses, predictions carry one valid label per thread, a reloaded run
reproduces the test accuracy in metrics.txt, and every session yields
byte-identical run directories and CSVs. With --trace 1 the sessions
alternate untraced and traced, so one run gives both the per-layer
numbers and the tracing overhead, and the layer self times of a traced
session must add up to its wall time within 1%. Operation times are
kept both as measured and corrected for the host's speed (see
hostspeed.py). The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from rumourlab import cli, evalrun
from rumourlab.config import parse_config_text
from rumourlab.ingest import LABELS, assemble_threads, load_tweets

from hostspeed import HostSpeed
from tracer import Tracer
from workloads import WORKLOADS

ANALYSIS_HEADERS = {
    "attributes": "attribute,class,bin_low,bin_high,count",
    "topics": "month,class,rank,term,freq",
    "emotion": "month,class,dimension,mean,n",
    "sentiment": "month,class,dimension,mean,n",
}
REPORT_HEADER = "# rumourlab-report v1"


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"(raised in {Path(frame.filename).name}:{frame.lineno} {frame.name})")


def report_problems(run_dir: Path, model: str, seeds, n_test: int) -> list[str]:
    """What is wrong with report.txt, if anything."""
    lines = (run_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    expected_keys = {"model": model, "seeds": ",".join(str(s) for s in seeds)}
    problems = []
    if len(lines) != 8 or lines[0] != REPORT_HEADER:
        return [f"{run_dir.name}/report.txt: expected the 8-line v1 layout"]
    fields = dict(line.split(" = ", 1) for line in lines[1:5])
    for key, value in expected_keys.items():
        if fields.get(key) != value:
            problems.append(f"{run_dir.name}/report.txt: {key} is {fields.get(key)!r}")
    if not 0.0 <= float(fields["accuracy"]) <= 1.0:
        problems.append(f"{run_dir.name}/report.txt: accuracy out of range")
    support = 0
    for row in lines[6:]:
        name, *numbers = row.split(" ")
        if name not in ("R", "N") or len(numbers) != 4 \
                or not all(0.0 <= float(v) <= 1.0 for v in numbers[:3]):
            problems.append(f"{run_dir.name}/report.txt: bad class row {row!r}")
            continue
        support += int(numbers[3])
    if support != n_test:
        problems.append(f"{run_dir.name}/report.txt: support {support} != {n_test} test threads")
    return problems


def metrics_accuracy(run_dir: Path) -> float:
    for line in (run_dir / "metrics.txt").read_text(encoding="utf-8").splitlines():
        key, value = line.split(" = ")
        if key == "accuracy":
            return float(value)
    raise ValueError(f"{run_dir}/metrics.txt has no accuracy")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs one workload's sessions; keeps the operation counts, failures,
    check results and digests across them."""

    def __init__(self, workload_name: str, tracer: Tracer | None):
        workload = WORKLOADS[workload_name]
        self.analysis_rounds = workload.analysis_rounds
        self.configs = [
            parse_config_text(text + "dataset = labeled.jsonl\nout_dir = runs\n")
            for text in workload.configs
        ]
        self.unlabeled, _ = assemble_threads(load_tweets("unlabeled.jsonl"))
        labeled, _ = assemble_threads(load_tweets("labeled.jsonl"))
        self.n_sources = sum(1 for t in labeled if t.label is not None)
        self.tracer = tracer
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.accuracy: dict[str, float] = {}
        self.vocab_terms: dict[str, int] = {}

    def fail(self, op: str, subject: str, reason: str) -> None:
        key = f"{op} {subject}: {reason}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def expect_digest(self, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.problems.append(f"{key}: digest changed between sessions")

    def run(self, index: int, traced: bool) -> dict:
        shutil.rmtree("runs", ignore_errors=True)
        shutil.rmtree("analysis", ignore_errors=True)
        record = {"traced": traced, "loaded": 0, "predicted": 0, "rounds": [],
                  "windows": {op: [] for op in ("train", "load", "predict")}}
        finished = []
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.run = index
            first_span = len(tracer.spans)
            tracer.install()
        start = time.perf_counter()
        with tracer.span("bench.session") if tracer else contextlib.nullcontext():
            for config in self.configs:
                finished.append(self._model_ops(config, record))
            for _ in range(self.analysis_rounds):
                started = time.perf_counter()
                analyzed = sum(self._analyze(kind) for kind in ANALYSIS_HEADERS)
                record["rounds"].append((started, time.perf_counter(), analyzed))
        record["session"] = (start, time.perf_counter())
        if tracer is not None:
            tracer.uninstall()
            layers = tracer.session_metrics(first_span, record["session"][1] - start)
            if abs(layers["trace.self_share"] - 1.0) > 0.01:
                self.problems.append(f"traced session: layer self times add up to "
                                     f"{layers['trace.self_share']:.4f} of its wall time")
            record["layers"] = layers
        for config, result, predictor, labels in finished:
            self._check(config, result, predictor, labels)
        for kind in ANALYSIS_HEADERS:
            path = Path("analysis") / f"{kind}.csv"
            if path.exists():
                self.expect_digest(f"analysis/{kind}.csv",
                                   hashlib.sha256(path.read_bytes()).hexdigest())
        return record

    def _model_ops(self, config, record):
        subject, windows = config.model, record["windows"]
        self.attempted += 3
        started = time.perf_counter()
        try:
            result = evalrun.run_experiment(config)
        except Exception as exc:
            self.fail("train", subject, describe(exc))
            self.fail("load", subject, "its train failed")
            self.fail("predict", subject, "its train failed")
            return config, None, None, None
        windows["train"].append((started, time.perf_counter()))
        started = time.perf_counter()
        try:
            predictor = evalrun.RunPredictor(result.run_dir)
        except Exception as exc:
            self.fail("load", subject, describe(exc))
            self.fail("predict", subject, "its load failed")
            return config, result, None, None
        windows["load"].append((started, time.perf_counter()))
        record["loaded"] += 1
        started = time.perf_counter()
        try:
            labels, scores = predictor.predict(self.unlabeled)
        except Exception as exc:
            self.fail("predict", subject, describe(exc))
            return config, result, predictor, None
        windows["predict"].append((started, time.perf_counter()))
        record["predicted"] += len(self.unlabeled)
        if len(scores) != len(labels) or not all(math.isfinite(s) for s in scores):
            self.problems.append(f"predict {subject}: scores do not match labels")
        return config, result, predictor, labels

    def _analyze(self, kind: str) -> int:
        """One analysis kind; returns the source tweets it covered."""
        self.attempted += 1
        argv = ["analyze", "--kind", kind, "--data", "labeled.jsonl", "--out", "analysis"]
        messages = io.StringIO()
        with contextlib.redirect_stderr(messages):
            code = cli.main(argv)
        if code != 0:
            self.fail("analyze", kind, f"exit {code}: {messages.getvalue().strip()}")
            return 0
        lines = (Path("analysis") / f"{kind}.csv").read_text(encoding="utf-8").splitlines()
        if len(lines) < 2 or lines[0] != ANALYSIS_HEADERS[kind]:
            self.problems.append(f"analyze {kind}: unexpected CSV layout")
        return self.n_sources

    def _check(self, config, result, predictor, labels) -> None:
        if result is None:
            return
        run_dir = result.run_dir
        self.problems.extend(
            report_problems(run_dir, config.model, config.seeds, len(result.split.test)))
        self.expect_digest(run_dir.name, tree_digest(run_dir))
        self.accuracy[run_dir.name] = metrics_accuracy(run_dir)
        vocab = run_dir / "vocab.txt"
        if vocab.exists():
            lines = vocab.read_text(encoding="utf-8").splitlines()
            self.vocab_terms[run_dir.name] = len(lines) - 3  # three reserved ids
        if labels is not None and (len(labels) != len(self.unlabeled)
                                   or any(label not in LABELS for label in labels)):
            self.problems.append(f"predict {config.model}: not one valid label per thread")
        if predictor is not None:
            test = result.split.test
            reloaded, _ = predictor.predict(test)
            accuracy = sum(p == t.label for p, t in zip(reloaded, test)) / len(test)
            if accuracy != self.accuracy[run_dir.name]:
                self.problems.append(
                    f"{run_dir.name}: reloaded test accuracy {accuracy!r} differs from "
                    f"metrics.txt {self.accuracy[run_dir.name]!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    runner = Runner(args.workload, tracer)
    records = []
    with HostSpeed() as host:
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(runner.run(len(records), traced))
            if len(records) == 1:
                # Later sessions only add allocator fragmentation, whose
                # amount depends on how many sessions fit in the run.
                first_peak_mb = peak_rss_mb()
            if args.trace and len(records) < 2:
                continue
            typical = statistics.median(end - start for start, end in
                                        (r["session"] for r in records))
            if time.perf_counter() + typical > deadline:
                break
    for record in records:
        for op, windows in record.pop("windows").items():
            record[f"{op}_wall_s"] = sum(end - start for start, end in windows)
            record[f"{op}_s"] = sum(host.corrected(start, end) for start, end in windows)
        record["rounds"] = [(host.corrected(start, end), end - start, analyzed)
                            for start, end, analyzed in record["rounds"]]
        record["slowdown"] = host.slowdown(*record.pop("session"))
    if tracer is not None:
        tracer.write("trace.tsv")
    result = {
        "sessions": records,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "problems": sorted(set(runner.problems)),
        "digests": runner.digests,
        "accuracy": runner.accuracy,
        "vocab_terms": runner.vocab_terms,
        "n_sources": runner.n_sources,
        "n_unlabeled": len(runner.unlabeled),
        "host": host.summary(),
        "peak_rss_mb": first_peak_mb,
        "child_peak_rss_mb": peak_rss_mb(),
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
