"""rumourlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a rumourlab checkout; it uses the program in
``src/`` and exits with code 2, printing no result, when that is
missing. It generates the workload's corpus from the seed under
``.perfbench-work/``, times fresh processes from start to ready (import
of the CLI and every layer, plus the bundled stopword, emoji and lexicon
tables), then starts one child process that runs the workload's
closed-loop sessions for S seconds (see workload.py and workloads.py).

It prints every end-to-end metric by name and unit, the failed
operations by cause, the run-directory digests (equal digests across
runs of the same code and seed are the determinism contract) and the
environment, and as its last line one JSON object with the metrics
BENCHMARK.json lists: the end-to-end ones, or with --trace 1 the
per-layer ones. End-to-end metrics come from untraced sessions only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 11
TIME_LIMIT_S = 170.0
BLAS_THREADS = 1
PROBE = (
    "import rumourlab.cli\n"
    "from rumourlab import analyze, textproc\n"
    "textproc.stopword_list(); textproc.emoji_aliases()\n"
    "analyze.load_emotion_lexicon(); analyze.load_valence_lexicon()\n"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def _setup_seconds(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Start-to-ready times of fresh processes, host-speed corrected and
    raw; one untimed warm-up first so that compiling bytecode in a new
    checkout is not counted. The probes inherit this process's CPU, where
    the host speed sampler runs."""
    from hostspeed import HostSpeed

    windows = []
    with HostSpeed() as host:
        for attempt in range(SETUP_RUNS + 1):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", PROBE], env=env, check=True, cwd=ROOT)
            if attempt:
                windows.append((started, time.perf_counter()))
    return ([host.corrected(start, end) for start, end in windows],
            [end - start for start, end in windows])


def _environment(setup_peak_mb: float, child_peak_mb: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "setup_peak_rss_mb": setup_peak_mb,
        "workload_peak_rss_mb": child_peak_mb,
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(result: dict, setup: list[float], raw: bool = False) -> dict:
    """The eight end-to-end metrics, from host-speed-corrected operation
    times (or from the raw ones); None where no operation of that kind
    succeeded. Analysis throughput is the median over analysis rounds."""
    plain = [s for s in result["sessions"] if not s["traced"]]
    suffix = "_wall_s" if raw else "_s"
    rounds = [r for s in plain for r in s["rounds"] if r[2]]
    accuracy = list(result["accuracy"].values())
    failed = sum(result["failures"].values())
    return {
        "setup_s": _median(setup),
        "train_s": _median(s["train" + suffix] for s in plain),
        "load_run_s": _median(s["load" + suffix] for s in plain if s["loaded"]),
        "predict_threads_per_s":
            _median(s["predicted"] / s["predict" + suffix] for s in plain if s["predicted"]),
        "analyze_tweets_per_s":
            _median(analyzed / (wall if raw else corrected)
                    for corrected, wall, analyzed in rounds),
        "peak_rss_mb": result["peak_rss_mb"],  # after the first session
        "test_accuracy": sum(accuracy) / len(accuracy) if accuracy else None,
        "failed_share": failed / result["attempted"],
    }


def per_layer(result: dict) -> dict:
    """Medians over traced sessions, plus the tracing overhead."""
    traced = [s for s in result["sessions"] if s["traced"]]
    plain = [s for s in result["sessions"] if not s["traced"]]
    metrics = {name: _median(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    untraced_train = _median(s["train_s"] for s in plain)
    overhead = _median(s["train_s"] for s in traced) - untraced_train
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / untraced_train if untraced_train else 0.0
    return metrics


UNITS = {"setup_s": "s", "train_s": "s", "load_run_s": "s",
         "predict_threads_per_s": "threads/s", "analyze_tweets_per_s": "tweets/s",
         "peak_rss_mb": "MB", "test_accuracy": "share", "failed_share": "share"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "rumourlab" / "__init__.py").is_file():
        print(f"error: no rumourlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from corpus import generate
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = generate(WORKLOADS[args.workload].shape, args.seed,
                      work / "labeled.jsonl", work / "unlabeled.jsonl")
    env = _child_env()
    # One CPU for this process and every child, as for the host speed sampler.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup, setup_raw = _setup_seconds(env)
    setup_peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result_path = work / "result.json"
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", str(result_path)],
        cwd=work, env=env, stdout=sys.stderr)
    try:
        code = child.wait(timeout=max(TIME_LIMIT_S - (time.perf_counter() - started), 1.0))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("error: workload child exceeded the time limit", file=sys.stderr)
        return 1
    if code != 0:
        print(f"error: workload child exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    e2e = end_to_end(result, setup)
    sessions = result["sessions"]
    failed = sum(result["failures"].values())
    print(f"workload {args.workload} seed {args.seed}: {len(sessions)} sessions "
          f"({sum(not s['traced'] for s in sessions)} untraced), corpus {json.dumps(corpus)}")
    raw = end_to_end(result, setup_raw, raw=True)
    for name, value in e2e.items():
        shown = "n/a (no operation of this kind succeeded)" if value is None \
            else f"{value:.6g} {UNITS[name]}"
        if value is not None and raw[name] != value:
            shown += f" (uncorrected {raw[name]:.6g})"
        print(f"  {name:<24} {shown}")
    slowdowns = [s["slowdown"] for s in sessions]
    print(f"  host slowdown per session: {' '.join(f'{x:.2f}' for x in slowdowns)}; "
          f"reference loop {json.dumps({k: round(v, 4) for k, v in result['host'].items()})}")
    print(f"  operations: {result['attempted']} attempted, {failed} failed")
    for cause, count in sorted(result["failures"].items()):
        print(f"  failed x{count}: {cause}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for name, terms in sorted(result["vocab_terms"].items()):
        print(f"  vocabulary {name}: {terms} terms")
    for name, digest in sorted(result["digests"].items()):
        print(f"  sha256 {name} {digest}")
    print(f"  environment {json.dumps(_environment(setup_peak_mb, result['child_peak_rss_mb']))}")
    if args.trace:
        values = per_layer(result)
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None:
            print(f"error: metric {metric['name']} was not measured", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
