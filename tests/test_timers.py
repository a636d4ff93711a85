"""Wall-clock timing primitive tests (``repro.perf.timers``).

These primitives feed every BENCH_*.json number, so the contract is
pinned: a monotone clock, a bench loop that honours its iteration
floor and cap, and exact rate math.
"""

from repro.perf.timers import bench_loop, rate_entry, wall_now


class TestWallNow:
    def test_monotonic(self):
        readings = [wall_now() for _ in range(100)]
        assert all(b >= a for a, b in zip(readings, readings[1:]))


class TestBenchLoop:
    def test_runs_at_least_min_iterations(self):
        calls = []
        iterations, elapsed = bench_loop(calls.append, min_seconds=0.0)
        assert iterations == len(calls) == 3
        assert elapsed >= 0.0

    def test_iteration_cap_stops_free_operations(self):
        iterations, _ = bench_loop(lambda i: None, min_seconds=1e9,
                                   max_iterations=50)
        assert iterations == 50

    def test_passes_the_iteration_index(self):
        seen = []
        bench_loop(seen.append, min_seconds=0.0)
        assert seen == [0, 1, 2]


class TestRateEntry:
    def test_rate_math_and_extras(self):
        entry = rate_entry("restore", 2000, 0.5, pages_dirtied=7)
        assert entry["per_sec"] == 4000.0
        assert entry["pages_dirtied"] == 7

    def test_zero_elapsed_yields_zero_rate(self):
        assert rate_entry("x", 10, 0.0)["per_sec"] == 0.0
