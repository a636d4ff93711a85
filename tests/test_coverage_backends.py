"""Differential tests for the pluggable coverage backends and
prefix-trace elision.

The contract under test: backend choice (``settrace`` vs
``sys.monitoring``) and prefix-trace elision are pure host-side
performance knobs — edge maps, hit-count buckets, IJON slots and the
campaign ``stats_checksum`` must come out byte-identical however the
trace was collected.  The monitoring half runs only on CPython 3.12+
(PEP 669); everything else runs everywhere.
"""

import sys

import pytest

from repro.coverage.backends import (BACKEND_CHOICES, BackendUnavailable,
                                     default_backend_name, make_tracer,
                                     resolve_backend_name)
from repro.coverage.tracer import EdgeTracer
from repro.emu.interceptor import Interceptor
from repro.emu.surface import AttackSurface
from repro.fuzz.campaign import build_campaign, build_parallel_campaign
from repro.fuzz.executor import NyxExecutor
from repro.fuzz.input import FuzzInput, packets_input
from repro.fuzz.stats import CampaignStats
from repro.guestos.kernel import Kernel
from repro.perf.macro import stats_checksum
from repro.spec.bytecode import Op
from repro.targets.lightftp import PROFILE as LIGHTFTP
from repro.vm.machine import Machine

from tests.helpers import EchoServer

HAS_MONITORING = hasattr(sys, "monitoring")

needs_monitoring = pytest.mark.skipif(
    not HAS_MONITORING, reason="sys.monitoring needs CPython 3.12+")


def traced_echo(backend="settrace", trace_elision=True):
    """Echo rig whose guest code is actually traced (the default
    fragments only match target modules, not tests.helpers)."""
    machine = Machine(memory_bytes=16 * 1024 * 1024)
    kernel = Kernel(machine)
    interceptor = Interceptor(kernel, AttackSurface.tcp_server(7))
    kernel.spawn(EchoServer(7))
    kernel.run()
    kernel.flush_to_memory(full=True)
    machine.capture_root()
    tracer = make_tracer(backend, traced_fragments=("helpers",))
    executor = NyxExecutor(machine, kernel, interceptor, tracer,
                           trace_elision=trace_elision)
    return machine, kernel, interceptor, executor


# ----------------------------------------------------------------------
# backend registry / selection
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_choices(self):
        assert BACKEND_CHOICES == ("auto", "settrace", "monitoring")

    def test_default_matches_interpreter(self):
        expected = "monitoring" if HAS_MONITORING else "settrace"
        assert default_backend_name() == expected
        assert resolve_backend_name("auto") == expected
        assert resolve_backend_name() == expected

    def test_explicit_settrace_resolves(self):
        assert resolve_backend_name("settrace") == "settrace"

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendUnavailable):
            resolve_backend_name("qemu")

    @pytest.mark.skipif(HAS_MONITORING,
                        reason="monitoring IS available here")
    def test_monitoring_unavailable_raises(self):
        with pytest.raises(BackendUnavailable) as err:
            resolve_backend_name("monitoring")
        assert "3.12" in str(err.value)

    @pytest.mark.skipif(HAS_MONITORING,
                        reason="monitoring IS available here")
    def test_parallel_campaign_fails_fast_on_bad_backend(self):
        # The eager check fires before the golden VM boots (workers
        # only build their tracers lazily inside run()).
        with pytest.raises(BackendUnavailable):
            build_parallel_campaign(LIGHTFTP, workers=2,
                                    coverage_backend="monitoring")

    def test_make_tracer_settrace(self):
        tracer = make_tracer("settrace")
        assert isinstance(tracer, EdgeTracer)
        assert tracer.backend_name == "settrace"

    def test_make_tracer_kwargs_pass_through(self):
        tracer = make_tracer("settrace", fold_memo_limit=7,
                             traced_fragments=("x",))
        assert tracer.fold_memo_limit == 7
        assert tracer.traced_fragments == ("x",)

    @needs_monitoring
    def test_make_tracer_monitoring(self):
        from repro.coverage.monitoring import MonitoringTracer, deactivate
        tracer = make_tracer("monitoring")
        try:
            assert isinstance(tracer, MonitoringTracer)
            assert tracer.backend_name == "monitoring"
        finally:
            deactivate()


# ----------------------------------------------------------------------
# fold-memo LRU bound
# ----------------------------------------------------------------------


def _branchy(n):
    total = 0
    for i in range(n):
        if i % 2:
            total += i
        else:
            total -= i
    return total


class TestFoldMemoBound:
    def test_cache_stays_bounded_and_counts_evictions(self):
        tracer = EdgeTracer(traced_fragments=("test_coverage_backends",),
                            fold_memo_limit=4)
        for n in range(10):
            tracer.begin()
            tracer.run(_branchy, n)
            tracer.take_trace()
        assert len(tracer._fold_cache) <= 4
        assert tracer.fold_evictions > 0

    def test_refold_after_eviction_is_identical(self):
        # An evicted stream re-folds to the same trace a fresh,
        # unbounded tracer computes: the memo is a cache, not state.
        small = EdgeTracer(traced_fragments=("test_coverage_backends",),
                           fold_memo_limit=2)
        first = {}
        for n in (3, 4, 5, 6):
            small.begin()
            small.run(_branchy, n)
            trace = dict(small.take_trace())
            if n == 3:
                first = trace
        small.begin()
        small.run(_branchy, 3)  # 3 was evicted by now
        refolded = dict(small.take_trace())
        assert refolded == first

        fresh = EdgeTracer(traced_fragments=("test_coverage_backends",))
        fresh.begin()
        fresh.run(_branchy, 3)
        assert dict(fresh.take_trace()) == first

    def test_campaign_stamps_eviction_counter(self):
        handles = build_campaign(LIGHTFTP, policy="balanced", seed=2,
                                 time_budget=1e9, max_execs=80,
                                 coverage_backend="settrace")
        handles.executor.tracer.fold_memo_limit = 2
        stats = handles.fuzzer.run_campaign()
        assert stats.fold_memo_evictions > 0
        assert stats.coverage_backend == "settrace"


# ----------------------------------------------------------------------
# host counters stay out of the sim-pure stats dict
# ----------------------------------------------------------------------


class TestHostCounterPurity:
    HOST_KEYS = ("coverage_backend", "prefix_elisions", "prefix_elided_ops",
                 "elision_invalidations", "fold_memo_evictions",
                 "checkpoints_written", "checkpoint_epochs_pruned",
                 "checkpoint_verifications", "checkpoint_divergences",
                 "chain_pushes", "chain_commits", "chain_restores",
                 "chain_deepest")

    def test_as_dict_excludes_host_counters(self):
        stats = CampaignStats()
        stats.coverage_backend = "settrace"
        stats.prefix_elisions = 9
        as_dict = stats.as_dict()
        for key in self.HOST_KEYS:
            assert key not in as_dict
        counters = stats.host_counters()
        assert set(counters) == set(self.HOST_KEYS)
        assert counters["prefix_elisions"] == 9

    def test_merge_sums_host_counters(self):
        a, b = CampaignStats(), CampaignStats()
        a.prefix_elisions, b.prefix_elisions = 2, 3
        a.fold_memo_evictions, b.fold_memo_evictions = 1, 4
        b.coverage_backend = "settrace"
        merged = CampaignStats.merge([a, b])
        assert merged.prefix_elisions == 5
        assert merged.fold_memo_evictions == 5
        assert merged.coverage_backend == "settrace"

    def test_checksum_blind_to_host_counters(self):
        stats = CampaignStats()
        before = stats_checksum(stats)
        stats.prefix_elisions = 1000
        stats.fold_memo_evictions = 50
        stats.coverage_backend = "monitoring"
        assert stats_checksum(stats) == before


# ----------------------------------------------------------------------
# prefix-trace elision: elided == fully traced
# ----------------------------------------------------------------------


class TestPrefixElision:
    def test_from_root_elision_matches_full_trace(self):
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"alpha", b"beta", b"gamma", b"delta"])
        parent = executor.run_full(base)
        assert parent.recording is not None
        assert parent.recording.packed  # the echo server IS traced
        assert executor.remember_trace(1, parent)

        child = base.copy()
        child.with_payload(3, b"MUTATED")  # ops 0..2 still shared
        elided = executor.run_full(child, parent_key=1)
        assert executor.prefix_elisions == 1
        assert executor.prefix_elided_ops > 0

        executor.trace_elision = False
        reference = executor.run_full(child)
        assert elided.trace == reference.trace
        assert elided.trace  # and it is not trivially empty

    def test_whole_run_elision_reproduces_parent_trace(self):
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"one", b"two", b"three"])
        parent = executor.run_full(base)
        executor.remember_trace(1, parent)
        rerun = executor.run_full(base, parent_key=1)
        assert executor.prefix_elisions == 1
        assert rerun.trace == parent.trace

    def test_suffix_elision_matches_full_trace(self):
        # Marker-op snapshots leave the recording unclamped (the marker
        # charges every run of these ops identically), so suffix runs
        # elide their unmutated sub-prefix against the capture run.
        machine, kernel, interceptor, executor = traced_echo()
        ops = [Op("connection"), Op("packet", (0,), (b"aa",)),
               Op("packet", (0,), (b"bb",)), Op("snapshot"),
               Op("packet", (0,), (b"cc",)), Op("packet", (0,), (b"dd",))]
        base = FuzzInput(ops)
        executor.run_full(base)
        child = base.copy()
        child.with_payload(5, b"XX")  # op 4 (cc) still shared
        elided = executor.run_suffix(child)
        assert executor.prefix_elisions >= 1
        executor.trace_elision = False
        reference = executor.run_suffix(child)
        assert elided.trace == reference.trace
        assert elided.trace

    def test_policy_snapshot_clamps_elision(self):
        # A policy-chosen snapshot charges the sim clock mid-run; a
        # child eliding against the capture recording must stop at the
        # snapshot op, never elide the whole run.
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"p1", b"p2", b"p3"])
        parent = executor.run_full(base, snapshot_after_packets=[1])
        assert parent.recording.charge_points
        executor.remember_trace(1, parent)
        executor.finish_snapshot_cycle()
        rerun = executor.run_full(base, parent_key=1)
        # Elided ops never exceed the first charge point.
        assert (executor.prefix_elided_ops
                <= parent.recording.charge_points[0])
        executor.trace_elision = False
        executor.finish_snapshot_cycle()
        reference = executor.run_full(base)
        assert rerun.trace == reference.trace

    def test_elision_disarmed_while_injector_armed(self):
        from repro.faults import FaultInjector, FaultPlan
        machine, kernel, interceptor, executor = traced_echo()
        base = packets_input([b"x", b"y", b"z"])
        parent = executor.run_full(base)
        executor.remember_trace(1, parent)
        injector = FaultInjector(FaultPlan(seed=0, rate=0.0))
        interceptor.injector = injector
        machine.snapshots.injector = injector
        rerun = executor.run_full(base, parent_key=1)
        assert executor.prefix_elisions == 0
        assert rerun.trace == parent.trace  # rate 0: nothing injected

    def test_recording_cache_is_lru_bounded(self):
        machine, kernel, interceptor, executor = traced_echo()
        executor.recording_cache_limit = 2
        for key, payload in enumerate([b"a", b"b", b"c"]):
            result = executor.run_full(packets_input([payload, b"t"]))
            executor.remember_trace(key, result)
        assert len(executor._recordings) == 2
        assert 0 not in executor._recordings  # oldest evicted
        # A child keyed to the evicted parent just runs fully traced.
        before = executor.prefix_elisions
        executor.run_full(packets_input([b"a", b"t"]), parent_key=0)
        assert executor.prefix_elisions == before

    def test_remember_trace_replace_false_keeps_existing(self):
        machine, kernel, interceptor, executor = traced_echo()
        first = executor.run_full(packets_input([b"a", b"b"]))
        second = executor.run_full(packets_input([b"a", b"b"]))
        assert executor.remember_trace(1, first)
        assert not executor.remember_trace(1, second, replace=False)
        assert executor._recordings[1] is first.recording


class TimerEchoServer(EchoServer):
    """Echo server with a background timer whose handler is traced
    (it lives in this module, unlike the echo logic)."""

    name = "timer-echo"
    timer_period = 5.0

    def __init__(self, port: int = 7) -> None:
        super().__init__(port)
        self.ticks = 0

    def on_timer(self, api) -> None:
        self.ticks += 1


class TestTimerElision:
    def test_pending_timer_disarms_elision(self):
        # Timer deadlines are absolute sim times restored with the
        # snapshot: a parent recorded before the deadline and a child
        # replayed after it see different guest behaviour, so the
        # child must trace live.
        machine = Machine(memory_bytes=16 * 1024 * 1024)
        kernel = Kernel(machine)
        interceptor = Interceptor(kernel, AttackSurface.tcp_server(7))
        kernel.spawn(TimerEchoServer(7))
        kernel.run()
        kernel.flush_to_memory(full=True)
        machine.capture_root()
        tracer = EdgeTracer(traced_fragments=("helpers",
                                              "test_coverage_backends"))
        executor = NyxExecutor(machine, kernel, interceptor, tracer)
        base = packets_input([b"one", b"two", b"three"])
        parent = executor.run_full(base)
        assert executor.remember_trace(1, parent)

        machine.clock.charge(2 * TimerEchoServer.timer_period)
        child = executor.run_full(base, parent_key=1)
        executor.trace_elision = False
        reference = executor.run_full(base)
        assert reference.trace != parent.trace  # the timer fired
        assert child.trace == reference.trace
        assert executor.prefix_elisions == 0


# ----------------------------------------------------------------------
# stale-fold invalidation (regression: heal must drop recordings)
# ----------------------------------------------------------------------


class TestElisionInvalidation:
    @staticmethod
    def _rig_with_recording():
        machine, kernel, interceptor, executor = traced_echo()
        ops = [Op("connection"), Op("packet", (0,), (b"pre",)),
               Op("snapshot"), Op("packet", (0,), (b"post",))]
        base = FuzzInput(ops)
        parent = executor.run_full(base)
        executor.remember_trace(1, parent)
        child = base.copy()
        child.with_payload(3, b"CHILD")
        return machine, executor, base, child

    @staticmethod
    def _tamper(rec):
        # Stand-in for any event that makes a cached fold stale: the
        # recorded site stream no longer describes what the prefix
        # would cover.
        assert rec.packed
        rec.packed = bytes(len(rec.packed))

    @staticmethod
    def _ground_truth(executor, base, child):
        # From-root reference trace of the child with elision off.
        # Marker runs park the machine on the incremental snapshot, so
        # return to the root first — and again after — to keep every
        # from-root run in this test starting from identical state.
        executor.finish_snapshot_cycle()
        executor.trace_elision = False
        trace = executor.run_full(child).trace
        executor.trace_elision = True
        executor.finish_snapshot_cycle()
        # Re-establish the incremental snapshot the heal path needs.
        executor.run_full(base)
        return trace

    def test_heal_invalidates_recordings(self):
        machine, executor, base, child = self._rig_with_recording()
        ground_truth = self._ground_truth(executor, base, child)

        self._tamper(executor._recordings[1])
        machine.snapshots.discard_incremental()  # force the heal path
        executor.run_suffix(base)
        assert executor.elision_invalidations >= 1
        assert not executor._recordings
        assert executor._chain_nodes[-1].capture_rec is None

        # With the recordings dropped, the child runs fully traced and
        # the tampered fold can do no harm.
        executor.finish_snapshot_cycle()
        healed = executor.run_full(child, parent_key=1)
        assert healed.trace == ground_truth

    def test_missing_invalidation_would_corrupt_traces(self):
        # Inject the bug: neuter the invalidation hook and show the
        # differential assertion above really would catch its absence —
        # the stale fold is served and the trace comes out wrong.
        machine, executor, base, child = self._rig_with_recording()
        ground_truth = self._ground_truth(executor, base, child)

        executor.invalidate_trace_recordings = lambda: None  # the bug
        self._tamper(executor._recordings[1])
        machine.snapshots.discard_incremental()
        executor.run_suffix(base)
        assert 1 in executor._recordings  # stale recording survived

        executor.finish_snapshot_cycle()
        bugged = executor.run_full(child, parent_key=1)
        assert executor.prefix_elisions >= 1
        assert bugged.trace != ground_truth


# ----------------------------------------------------------------------
# settrace <-> monitoring differential suite (CPython 3.12+)
# ----------------------------------------------------------------------


def _shape_loop_branch(n):
    total = 0
    for i in range(n):
        if i % 3 == 0:
            total += i
        elif i % 3 == 1:
            total -= i
    return total


def _shape_one_line_while(n):
    while n > 0: n -= 1  # noqa: E701 - one-line while is the point
    return n


def _shape_comprehensions(n):
    squares = [i * i for i in range(n)]
    odds = {i for i in squares if i % 2}
    return sum(squares) + len(odds)


def _shape_generator(n):
    def gen():
        for i in range(n):
            yield i * 2
    return sum(gen())


def _shape_exceptions(n):
    total = 0
    for i in range(n):
        try:
            if i % 2:
                raise ValueError(i)
            total += 1
        except ValueError:
            total += 2
    return total


def _shape_recursion(n):
    if n <= 1:
        return 1
    return n * _shape_recursion(n - 1)


def _shape_nested_calls(n):
    def inner(x):
        return x + 1
    total = 0
    for i in range(n):
        total = inner(total)
    return total


_SHAPES = [
    (_shape_loop_branch, 7),
    (_shape_one_line_while, 5),
    (_shape_comprehensions, 6),
    (_shape_generator, 5),
    (_shape_exceptions, 6),
    (_shape_recursion, 6),
    (_shape_nested_calls, 4),
]


@needs_monitoring
class TestBackendDifferential:
    def _trace_with(self, backend, fn, arg):
        from repro.coverage import monitoring
        tracer = make_tracer(backend,
                             traced_fragments=("test_coverage_backends",))
        try:
            tracer.begin()
            tracer.run(fn, arg)
            trace = dict(tracer.take_trace())
            return trace, bytes(tracer.last_packed)
        finally:
            monitoring.deactivate()

    @pytest.mark.parametrize("fn,arg", _SHAPES,
                             ids=[fn.__name__ for fn, _ in _SHAPES])
    def test_shapes_trace_identically(self, fn, arg):
        settrace_trace, settrace_stream = self._trace_with(
            "settrace", fn, arg)
        monitoring_trace, monitoring_stream = self._trace_with(
            "monitoring", fn, arg)
        assert settrace_trace  # shapes must actually produce coverage
        # Byte-identical site streams, not just equal fold results.
        assert monitoring_stream == settrace_stream
        assert monitoring_trace == settrace_trace

    def test_ijon_slots_identical(self):
        from repro.coverage import monitoring
        traces = {}
        for backend in ("settrace", "monitoring"):
            tracer = make_tracer(backend)
            try:
                tracer.begin()
                tracer.ijon_set(3)
                tracer.ijon_set(3)
                tracer.ijon_set(9)
                traces[backend] = dict(tracer.take_trace())
            finally:
                monitoring.deactivate()
        assert traces["settrace"] == traces["monitoring"]

    def test_campaign_checksums_identical(self):
        from repro.coverage import monitoring
        checksums = {}
        for backend in ("settrace", "monitoring"):
            try:
                handles = build_campaign(LIGHTFTP, policy="balanced",
                                         seed=3, time_budget=1e9,
                                         max_execs=80,
                                         coverage_backend=backend)
                stats = handles.fuzzer.run_campaign()
                checksums[backend] = (stats_checksum(stats),
                                      stats.final_edges)
                assert stats.coverage_backend == backend
            finally:
                monitoring.deactivate()
        assert checksums["settrace"] == checksums["monitoring"]
