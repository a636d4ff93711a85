"""The settrace backend's syscall window and split prefix fold.

While a program runs traced, :class:`EdgeTracer` hands it a window view
of its :class:`KernelApi` whose syscalls run with the trace hook
removed (before CPython 3.12; see ``SYSCALL_WINDOW``).  The contract under test: the hook is back after every way a
syscall can end, the site stream is byte-identical to tracing with the
plain api (:class:`tests.helpers.PlainApiTracer`) on every zoo target,
and a trace function installed before the tracer survives it.  The
split fold of an elided run (live stream seeded with the prefix's last
site, memoised prefix fold merged in) must equal folding the
concatenation.
"""

import os
import subprocess
import sys
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.fuzz.campaign as campaign_module
from repro.coverage.bitmap import MAP_SIZE
from repro.coverage.tracer import SYSCALL_WINDOW, EdgeTracer, TracerCore
from repro.fuzz.campaign import build_campaign
from repro.fuzz.stats import stats_checksum
from repro.guestos.errors import CrashKind, Errno, GuestCrash, GuestError
from repro.guestos.kernel import Kernel, KernelApi
from repro.guestos.process import Program
from repro.guestos.sockets import SockDomain, SockType
from repro.targets import PROFILES

from tests.helpers import PlainApiTracer, boot_echo, make_machine

needs_window = pytest.mark.skipif(
    not SYSCALL_WINDOW,
    reason="settrace keeps syscalls in the trace window on CPython 3.12+")

#: ``(label, hook is the tracer's global)`` pairs recorded by the
#: probe programs below, right after the event under test.
_PROBES = []


def _probe(api, label):
    _PROBES.append((label, sys.gettrace() is api.k.coverage._global))


class EagainProbe(Program):
    def on_start(self, api):
        fd = api.socket(SockDomain.INET, SockType.STREAM)
        api.bind(fd, 21)
        api.listen(fd)
        try:
            api.accept(fd)
        except GuestError as err:
            assert err.errno is Errno.EAGAIN
        _probe(api, "eagain")


def _crash_after_syscall(api):
    api.time()
    raise GuestCrash(CrashKind.SEGV, "window-test")


class CrashProbe(Program):
    def on_start(self, api):
        try:
            api.k.coverage.run(_crash_after_syscall, api.k.api_for(api.getpid()))
        except GuestCrash:
            pass
        _probe(api, "crash")
        api.time()
        _probe(api, "after crash")


class ForkedChild(Program):
    def on_start(self, api):
        api.time()
        _probe(api, "child")


class ForkProbe(Program):
    def on_start(self, api):
        api.fork_child(ForkedChild())
        _probe(api, "fork")


class IjonProbe(Program):
    def on_start(self, api):
        api.ijon_set(3)
        _probe(api, "ijon")
        api.ijon_set(5)


def _nested(api):
    api.time()
    _probe(api, "nested inner")


class NestedProbe(Program):
    def on_start(self, api):
        api.k.coverage.run(_nested, api.k.api_for(api.getpid()))
        _probe(api, "nested outer")


_SCENARIOS = {
    "eagain": (EagainProbe, ["eagain"]),
    "crash": (CrashProbe, ["crash", "after crash"]),
    "fork": (ForkProbe, ["fork", "child"]),
    "ijon": (IjonProbe, ["ijon"]),
    "nested": (NestedProbe, ["nested inner", "nested outer"]),
}


def _run_scenario(tracer_cls, program_cls):
    kernel = Kernel(make_machine())
    tracer = tracer_cls(traced_fragments=("test_trace_window",))
    kernel.coverage = tracer
    del _PROBES[:]
    tracer.begin()
    outer = sys.gettrace()
    kernel.spawn(program_cls())
    kernel.run(max_rounds=4)
    assert sys.gettrace() is outer
    trace = tracer.take_trace()
    return list(trace.items()), tracer.last_packed, list(_PROBES)


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_hook_restored_and_stream_unchanged(name):
    program_cls, labels = _SCENARIOS[name]
    trace, packed, probes = _run_scenario(EdgeTracer, program_cls)
    assert probes == [(label, True) for label in labels]
    plain_trace, plain_packed, plain_probes = _run_scenario(
        PlainApiTracer, program_cls)
    assert plain_probes == probes
    assert packed  # the probe programs themselves are traced
    assert packed == plain_packed
    assert trace == plain_trace


@needs_window
def test_syscall_bodies_run_unhooked(monkeypatch):
    """Syscalls dispatch through the class attribute at call time (a
    wrapper installed after import sees the call) and run unhooked."""
    seen = []
    original = KernelApi.time

    def spy(self):
        seen.append(sys.gettrace())
        return original(self)

    monkeypatch.setattr(KernelApi, "time", spy)
    _run_scenario(EdgeTracer, ForkProbe)
    assert seen == [None]
    del seen[:]
    _run_scenario(PlainApiTracer, ForkProbe)
    assert len(seen) == 1 and seen[0] is not None


def test_window_passes_plain_attributes_through():
    kernel = Kernel(make_machine())
    api = kernel.api_for(1)
    window = EdgeTracer()._window(api)
    assert window.pid == api.pid and window.k is kernel


def test_run_restores_outer_trace_function():
    """A debugger or coverage.py watching the fuzzer keeps its hook."""
    def dummy(frame, event, arg):
        return None

    machine, kernel = boot_echo()
    tracer = EdgeTracer()
    program = kernel.processes[min(kernel.processes)].program
    previous = sys.gettrace()
    sys.settrace(dummy)
    try:
        tracer.run(program.poll, kernel.api_for(min(kernel.processes)))
        assert sys.gettrace() is dummy
    finally:
        sys.settrace(previous)


@needs_window
def test_suspended_run_hands_out_the_plain_api():
    seen = []
    kernel = Kernel(make_machine())
    api = kernel.api_for(1)
    tracer = EdgeTracer()
    tracer.begin()
    tracer.elide_suspend()
    tracer.run(seen.append, api)
    tracer.elide_resume(b"")
    tracer.run(seen.append, api)
    assert seen[0] is api
    assert type(seen[1]) is not KernelApi


# ----------------------------------------------------------------------
# zoo-wide differential: window view vs plain api
# ----------------------------------------------------------------------

EXECS = 300


def _zoo_campaign(monkeypatch, profile, tracer_cls):
    packs = []

    def make_tracer(backend="auto", **kwargs):
        tracer = tracer_cls(**kwargs)
        take = tracer.take_trace

        def take_and_record():
            trace = take()
            packs.append(tracer.last_packed)
            return trace

        tracer.take_trace = take_and_record
        return tracer

    monkeypatch.setattr(campaign_module, "make_tracer", make_tracer)
    handles = build_campaign(profile, policy="balanced", seed=3,
                             time_budget=1e9, max_execs=EXECS,
                             max_chain_depth=1)
    stats = handles.fuzzer.run_campaign()
    return stats_checksum(stats), packs


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_window_is_invisible_on_every_target(monkeypatch, name):
    profile = PROFILES[name]
    checksum, packs = _zoo_campaign(monkeypatch, profile, EdgeTracer)
    plain_checksum, plain_packs = _zoo_campaign(monkeypatch, profile,
                                                PlainApiTracer)
    assert checksum == plain_checksum
    assert len(packs) == len(plain_packs) > 0
    assert packs == plain_packs


# ----------------------------------------------------------------------
# split fold == fold of the concatenation
# ----------------------------------------------------------------------

_sites = st.lists(st.integers(0, 2 ** 32 - 1), max_size=160)
_slots = st.lists(st.integers(0, 40), max_size=4)


# Hypothesis favours small site values, for which the join edge often
# cannot tell a seeded fold from an unseeded one; the explicit examples
# pin a distinguishing join, over a long and a short stream.
_SPREAD = [7919 * i + 1237 for i in range(150)]


@settings(max_examples=150, deadline=None)
@example(sites=_SPREAD, cut=40, prefix_slots=[1], live_slots=[2],
         map_size=MAP_SIZE, warm=False)
@example(sites=_SPREAD[:30], cut=10, prefix_slots=[], live_slots=[],
         map_size=MAP_SIZE, warm=True)
@given(sites=_sites, cut=st.integers(0, 160), prefix_slots=_slots,
       live_slots=_slots, map_size=st.sampled_from([64, MAP_SIZE]),
       warm=st.booleans())
def test_split_fold_equals_concatenated_fold(sites, cut, prefix_slots,
                                             live_slots, map_size, warm):
    cut = min(cut, len(sites))
    whole = TracerCore(map_size=map_size)
    whole.begin()
    whole._stream.extend(sites)
    for slot in prefix_slots + live_slots:
        whole.ijon_set(slot)
    expected = list(whole.take_trace().items())

    prefix_packed = array("Q", sites[:cut]).tobytes()
    split = TracerCore(map_size=map_size)
    if warm:
        # The memo already holds the prefix's own fold.
        split.begin()
        split._stream.extend(sites[:cut])
        split.take_trace()
    seed_tracer = TracerCore(map_size=map_size)
    seed_tracer.begin()
    for slot in prefix_slots:
        seed_tracer.ijon_set(slot)
    split.begin()
    split.elide_suspend()
    split.ijon_set(99)  # suspended: the prefix recording covers it
    split.elide_resume(prefix_packed, seed_tracer.ijon_snapshot())
    split._stream.extend(sites[cut:])
    for slot in live_slots:
        split.ijon_set(slot)
    assert list(split.take_trace().items()) == expected
    assert split.last_packed == whole.last_packed
    assert list(split.take_trace().items()) == expected  # memo hit path


# ----------------------------------------------------------------------
# fold == naive per-site loop, over the whole site range
# ----------------------------------------------------------------------

def _naive_fold(sites, size):
    """AFL's edge formula, one site at a time, first occurrence first."""
    trace = {}
    prev = 0
    for site in sites:
        edge = (site ^ (prev >> 1)) % size
        trace[edge] = trace.get(edge, 0) + 1
        prev = site
    return list(trace.items())


@settings(max_examples=200, deadline=None)
@example(sites=[2 ** 64 - 1, 2 ** 63, 1 << 17, 0x1FFFF], cut=1,
         map_size=MAP_SIZE, warm=False)
@given(sites=st.lists(st.integers(0, 2 ** 64 - 1), max_size=300),
       cut=st.integers(0, 300), map_size=st.sampled_from([64, MAP_SIZE]),
       warm=st.booleans())
def test_fold_equals_naive_loop(sites, cut, map_size, warm):
    cut = min(cut, len(sites))
    core = TracerCore(map_size=map_size)
    if warm:
        # The memo already holds the prefix's own fold.
        core.begin()
        core._stream.extend(sites[:cut])
        core.take_trace()
    core.begin()
    core.elide_suspend()
    core.elide_resume(array("Q", sites[:cut]).tobytes())
    core._stream.extend(sites[cut:])
    assert list(core.take_trace().items()) == _naive_fold(sites, map_size)


def test_campaign_never_imports_numpy():
    # The fold is stdlib only; numpy would cost every campaign ~12 MB.
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__)))
    code = ("import sys\n"
            "import repro.cli\n"
            "rc = repro.cli.main(['fuzz', 'lighttpd', '--execs', '50',"
            " '--seed', '1'])\n"
            "print('numpy loaded:', 'numpy' in sys.modules)\n"
            "sys.exit(rc)\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "50 execs" in done.stdout
    assert done.stdout.rstrip().endswith("numpy loaded: False")
