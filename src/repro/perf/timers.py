"""Wall-clock timing primitives for the benchmark harness.

This is the one module outside ``sim/`` that may read the host clock:
benchmarks measure *host* throughput, which is exactly the quantity the
simulated clock abstracts away.  Every read is suppressed for the
NYX020 determinism lint, and nothing here may ever feed a fuzzing
decision — timer output flows only into ``BENCH_*.json`` reports.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple


def wall_now() -> float:
    """Current wall-clock reading in seconds (monotonic)."""
    return time.perf_counter()  # nyx: allow[NYX020]


def bench_loop(fn: Callable[[int], object], *, min_seconds: float,
               min_iterations: int = 3,
               max_iterations: int = 1 << 22) -> Tuple[int, float]:
    """Call ``fn(iteration)`` until ``min_seconds`` of wall time accrue.

    Returns ``(iterations, elapsed_seconds)``.  The loop always runs at
    least ``min_iterations`` times so even a slow operation yields a
    usable rate, and is capped so a degenerate free operation cannot
    spin forever.
    """
    iterations = 0
    start = wall_now()
    while True:
        fn(iterations)
        iterations += 1
        elapsed = wall_now() - start
        if iterations >= max_iterations:
            return iterations, elapsed
        if iterations >= min_iterations and elapsed >= min_seconds:
            return iterations, elapsed


def rate_entry(name: str, iterations: int, elapsed: float,
               **extra) -> Dict[str, object]:
    """One benchmark row: iterations, wall seconds and derived rate."""
    entry: Dict[str, object] = {
        "name": name,
        "iterations": iterations,
        "wall_seconds": round(elapsed, 6),
        "per_sec": round(iterations / elapsed, 3) if elapsed > 0 else 0.0,
    }
    for key in sorted(extra):
        entry[key] = extra[key]
    return entry
