"""Host speed sampling, to take a shared machine's slow phases out of
the timings.

On a shared 2-vCPU Xeon host (2.1 GHz) the same pure-Python loop takes
20 ms or 34 ms depending on the moment, in phases from under a second
to tens of seconds, often longer than a whole benchmark run, so no
median over one run's sessions removes them. A sampler process, on the
same CPU as the workload (it inherits the affinity), wakes every 20 ms
and times a fixed reference computation. The reference mixes what the
workloads do, in two parts of about equal time: interpreter arithmetic
and dict work, and parsing a JSON tweet and counting its tokens. Over
one 120 s run of each workload, this mix left less session-to-session
spread in corrected train times than the first part alone on every
workload; the second part alone did better on some workloads and worse
on others. The sampler runs the reference twice and times only
the second pass, so the caches the workload left behind do not count,
and being a process of its own it never waits for the workload's
interpreter lock. The reference reads no large table: a part that made
random reads from an 8 MB table, timed the same way, came out 4-5%
slower while the workload made random reads from a 64 MB array than
while it ran pure Python, so it would have hidden part of any change to
the program's memory traffic. hostspeed_check.py measures that effect
for the reference in use.

An operation's time is divided by the mean slowdown of the samples
taken while it ran, relative to NOMINAL_S: the result is the time the
operation takes when the host runs the reference at nominal speed. The
scale is fixed by NOMINAL_S, so compare corrected times only with
corrected times; the benchmark prints the raw wall times alongside.

    python3 perfbench/hostspeed.py

runs the sampler by itself: it prints "ready", samples until its
standard input closes, then prints the samples as JSON.
"""

from __future__ import annotations

import json
import re
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.02
# Host phases rarely turn over faster than this; shorter operations are
# corrected by the samples around them, 25 at least.
MIN_WINDOW_S = 0.5
_WORDS = "the quick brown fox jumps over a lazy dog while HTTPURL and @USER reply".split() * 8
_TWEET = json.dumps({
    "id": "t000123r4", "parent_id": "t000123", "created_at": "2020-03-01T10:00:00Z",
    "text": "@user123 The Quick brown fox #jumps over https://t.co/abc a lazy dog!!",
    "followers": 123, "verified": False})
_TOKEN = re.compile(r"[#@]?\w+")
# The sampler's 5th-percentile reference time on that host (Python 3.11).
NOMINAL_S = 0.077e-3


def _reference() -> None:
    counts: dict[str, int] = {}
    for word in _WORDS:
        key = word.lower()
        counts[key] = counts.get(key, 0) + 1
    x = 0
    for i in range(400):
        x += i * i % 7
    for _ in range(5):
        for token in _TOKEN.findall(json.loads(_TWEET)["text"].lower()):
            counts[token] = counts.get(token, 0) + 1


def _sample_until_eof() -> None:
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        _reference()
        start = time.perf_counter()
        _reference()
        samples.append((start, time.perf_counter() - start))
    json.dump(samples, sys.stdout)


class HostSpeed:
    """Context manager that runs the sampler process while open."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def __enter__(self) -> "HostSpeed":
        self._sampler = subprocess.Popen([sys.executable, "-I", __file__],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)
        if self._sampler.stdout.readline() != "ready\n":
            self._sampler.kill()
            self._sampler.wait()
            raise RuntimeError("host speed sampler did not start")
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._sampler.communicate()
        if self._sampler.returncode != 0:
            raise RuntimeError(f"host speed sampler exited with {self._sampler.returncode}")
        for start, duration in json.loads(out):
            self.starts.append(start)
            self.durations.append(duration)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown over [start, end], widened to at least
        MIN_WINDOW_S around its middle: the samples taken inside it,
        slowest quarter dropped, over NOMINAL_S. Over one 120 s run per
        workload, this left less session-to-session spread in corrected
        times, averaged over the workloads, than dropping a tenth (though
        more on classic-smote), and far less than the plain mean."""
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        window = sorted(d for s, d in zip(self.starts, self.durations)
                        if start - pad <= s <= end + pad)
        kept = window[:len(window) - len(window) // 4]
        return statistics.fmean(kept) / NOMINAL_S

    def summary(self) -> dict[str, float]:
        ordered = sorted(self.durations)
        return {"samples": len(ordered), "min_ms": 1e3 * ordered[0],
                "p05_ms": 1e3 * ordered[int(0.05 * (len(ordered) - 1))],
                "median_ms": 1e3 * statistics.median(ordered)}

    def corrected(self, start: float, end: float) -> float:
        return (end - start) / self.slowdown(start, end)


if __name__ == "__main__":
    _sample_until_eof()
