"""Check that the host speed correction does not depend on what the
measured code does.

    python3 perfbench/hostspeed_check.py [ROUNDS]

On one CPU, with the sampler of hostspeed.py running, it alternates
three operations of 0.25 s each: pure-Python dict and integer work (C),
streaming adds over a 64 MB array (M) and random gathers from it (G).
For each round it divides the mean reference time sampled during M and
during G by the one sampled during the C before them, and prints the
medians and quartiles of these ratios. A ratio of 1 means a
memory-heavy operation is corrected exactly like a compute-bound one; a
ratio above 1 would shrink the corrected time of code that moves more
memory, and hide part of a gain that cuts memory traffic. The host's
own speed drifts between the operations of a round, so repeat the
check: a median that stays on one side of 1 is the effect, one that
changes side is noise.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

from hostspeed import HostSpeed

OP_S = 0.25
_BIG = np.ones(8 << 20)
_PICKS = np.random.default_rng(0).integers(0, len(_BIG), size=1 << 20)


def _compute() -> None:
    counts: dict[int, int] = {}
    started = time.perf_counter()
    while time.perf_counter() - started < OP_S:
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + i * i % 7


def _stream() -> None:
    started = time.perf_counter()
    while time.perf_counter() - started < OP_S:
        np.add(_BIG, 1.0, out=_BIG)


def _gather() -> None:
    started = time.perf_counter()
    while time.perf_counter() - started < OP_S:
        _BIG[_PICKS].sum()


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops = {"C": _compute, "M": _stream, "G": _gather}
    windows: dict[str, list[tuple[float, float]]] = {name: [] for name in ops}
    with HostSpeed() as host:
        for _ in range(rounds):
            for name, op in ops.items():
                started = time.perf_counter()
                op()
                windows[name].append((started, time.perf_counter()))

    def reference_s(start: float, end: float) -> float:
        return statistics.fmean(d for s, d in zip(host.starts, host.durations)
                                if start <= s <= end)

    for name in ("M", "G"):
        ratios = [reference_s(*op) / reference_s(*compute)
                  for op, compute in zip(windows[name], windows["C"])]
        low, median, high = statistics.quantiles(ratios, n=4)
        print(f"reference time during {name} over during C: median {median:.4f}, "
              f"quartiles {low:.4f} {high:.4f}, {rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
