"""Edge tracers for guest target code: shared core + settrace backend.

This is the reproduction's stand-in for AFL compile-time
instrumentation (§4.5): instead of instrumenting basic blocks at
compile time, we trace line events of the target's *actual Python
code* and fold ``(previous site, current site)`` transitions into a
sparse AFL-style trace, using AFL's ``cur ^ (prev >> 1)`` edge formula.

Only code whose filename matches the configured path fragments is
traced, so the kernel, fuzzer and harness never pollute coverage —
the analogue of only instrumenting the target binary.  The settrace
backend goes one step further and runs syscall bodies outside the
trace window altogether: programs get a window view of their
:class:`~repro.guestos.kernel.KernelApi` whose syscalls remove the
hook on entry and put it back on exit (:class:`_SyscallWindow`), the
way Nyx-Net's guest kernel and agent run uninstrumented (before
CPython 3.12; see :data:`SYSCALL_WINDOW`).

The module is split into a backend-independent :class:`TracerCore`
(site stream, fold memo, IJON slots, prefix-fold seeding) and the
``sys.settrace`` backend :class:`EdgeTracer`.  A ``sys.monitoring``
backend for py3.12+ lives in :mod:`repro.coverage.monitoring`; both
are registered through :mod:`repro.coverage.backends` and must
produce byte-identical site streams for the same execution — the
differential suite in ``tests/test_coverage_backends.py`` pins this.

The tracer sits on the hottest host path there is — every line of
every target function of every execution — so the work is split into
a record phase and a fold phase, producing bit-identical traces to the
straightforward implementation:

* event callbacks append one precomputed *site* integer per event to a
  flat stream — no edge arithmetic inside the callback;
* :meth:`TracerCore.take_trace` folds the site stream into the sparse
  edge trace once per execution, memoized on the packed stream under an
  LRU cap.  The fold is stdlib only: the live stream becomes one
  big-integer shift and xor whose halfwords are the edges
  (:func:`_count_edges`), counted into the trace by C code;
* the executor's prefix-trace elision suspends collection across an
  op prefix that a previous recording already proved deterministic and
  seeds :meth:`take_trace` with the recorded prefix stream instead
  (:meth:`elide_suspend` / :meth:`elide_resume`), yielding the same
  bytes without re-paying the per-line callbacks; a memo miss then
  folds only the live stream into the prefix's memoised fold.
"""

from __future__ import annotations

import sys
from array import array as _array
from collections import OrderedDict
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

from repro.coverage.bitmap import MAP_SIZE
from repro.guestos.kernel import KernelApi

try:  # C-level "count into a dict" helper used by Counter itself.
    from collections import _count_elements
except ImportError:  # pragma: no cover - CPython always has it
    def _count_elements(mapping: Dict[int, int], iterable) -> None:
        get = mapping.get
        for item in iterable:
            mapping[item] = get(item, 0) + 1

#: Path fragments identifying "instrumented" code.  The Mario *engine*
#: is deliberately absent: like IJON's original experiment, game
#: progress feedback comes from the IJON state annotation, not from
#: line coverage of the physics loop (and tracing 2,000 frames of
#: physics per execution would dominate host time).
DEFAULT_TRACED_FRAGMENTS = ("/repro/targets/", "/repro/mario/target")

#: Bitmap region where IJON state annotations land (distinct from the
#: hash range used by code edges only probabilistically, like IJON).
IJON_BASE = 0xF000

#: Whether :class:`EdgeTracer` runs syscalls outside the trace window.
#: Before CPython 3.12 an installed ``sys.settrace`` hook runs every
#: frame in the interpreter's slow tracing mode, so unhooking syscall
#: bodies pays for itself many times over.  From 3.12 on settrace sits
#: on ``sys.monitoring``, untraced frames run at full speed anyway, and
#: every hook toggle makes the interpreter re-instrument each code
#: object it runs next — a zoo campaign ran ~1.8x slower windowed.
SYSCALL_WINDOW = sys.version_info < (3, 12)

#: Fold-memo LRU cap.  Mutated inputs mostly retrace known paths, so a
#: campaign's distinct streams stay far below this; the cap exists so
#: week-long campaigns with pathological path churn cannot grow the
#: memo without bound (evictions are counted into ``CampaignStats``).
FOLD_MEMO_LIMIT = 8192

#: Map size whose edges :func:`_count_edges` reads as halfwords.
_HALFWORD_MAP = 1 << 16

#: :func:`_count_edges` views packed sites and big-integer bytes in
#: native order, so it needs a little-endian host.
_LANE_FOLD = sys.byteorder == "little"


def _stable_site(text: str) -> int:
    """FNV-1a site hash, stable across processes.

    Built-in ``hash`` of strings is randomized per process and ``id()``
    is a memory address: deriving edge indices from either makes two
    same-seed campaign runs disagree on their coverage maps (the
    determinism self-lint's NYX02x family exists to keep exactly this
    class of leak out of the fuzzer).
    """
    value = 0x811C9DC5
    for byte in text.encode():
        value = ((value ^ byte) * 0x01000193) & 0xFFFFFFFF
    return value


def _count_edges(trace: Dict[int, int], packed: bytes,  # nyx: hot
                 first: int) -> None:
    """Count the 16-bit edges of sites ``first..`` of ``packed`` into
    ``trace``, in stream order, chained from site ``first - 1`` (or 0).

    An edge ``(site ^ (prev >> 1)) % 2**16`` reads only bits 0-16 of
    either site, so the low 32-bit word of each site is enough.  Those
    words, with the previous site's in front, become one little-endian
    integer ``w``; lane ``i`` of ``(w >> 32) ^ (w >> 1)`` is then
    ``site_i ^ (prev_i >> 1)`` up to its top bit, and its low halfword
    is the edge.  A handful of big-integer operations replace a
    per-site loop, and ``_count_elements`` counts the halfwords in C.
    """
    if first:
        tail = memoryview(packed)[8 * first - 8:]
    else:
        tail = memoryview(bytes(8) + packed)
    n = len(tail) // 8 - 1
    words = int.from_bytes(tail.cast("I")[::2], "little")
    lanes = ((words >> 32) ^ (words >> 1)).to_bytes(4 * n + 4, "little")
    _count_elements(trace, memoryview(lanes).cast("H")[:2 * n:2])


class TracerCore:
    """Backend-independent tracer state and the stream-fold pipeline.

    Backends only differ in *how* site integers reach
    :attr:`_stream`; everything downstream of the stream — folding,
    memoization, IJON slots, prefix seeding — is shared, which is what
    makes backend traces byte-comparable.
    """

    #: Overridden by each backend; surfaced in reports and stats.
    backend_name = "abstract"

    def __init__(self, traced_fragments: Tuple[str, ...] = DEFAULT_TRACED_FRAGMENTS,
                 map_size: int = MAP_SIZE,
                 fold_memo_limit: int = FOLD_MEMO_LIMIT) -> None:
        self.traced_fragments = tuple(traced_fragments)
        self.map_size = map_size
        self.fold_memo_limit = fold_memo_limit
        #: Sparse trace of the last folded execution (edge -> count);
        #: refreshed by :meth:`take_trace`.
        self.trace: Dict[int, int] = {}
        #: Flat stream of site values in execution order.  Persistent
        #: list (cleared in place) so the callbacks can capture its
        #: bound ``append`` once.
        self._stream: List[int] = []
        #: IJON state hits land directly on edges (they bypass the
        #: prev-site chain), so they live outside the site stream.
        self._ijon: Dict[int, int] = {}
        #: Fold memo: packed site stream (+ seed tag) -> folded edge
        #: trace, LRU-bounded.  Keying on the exact packed stream keeps
        #: the memo collision-proof (bytes equality compares it all).
        self._fold_cache: "OrderedDict[bytes, Dict[int, int]]" = OrderedDict()
        #: Entries evicted from the fold memo (stamped into
        #: ``CampaignStats.fold_memo_evictions``).
        self.fold_evictions = 0
        #: Packed full-stream bytes of the last :meth:`take_trace`
        #: (prefix + live suffix) — the executor's trace recordings
        #: reuse it instead of re-packing.
        self.last_packed: bytes = b""
        #: Elision state: while suspended, :meth:`run` executes without
        #: hooks and :meth:`ijon_set` is a no-op (the recorded prefix
        #: already contains those hits).
        self._suspended = False
        self._prefix_packed: bytes = b""

    # -- per-test lifecycle --------------------------------------------------

    def begin(self) -> None:
        """Reset the trace for a new test case."""
        del self._stream[:]
        self._ijon.clear()
        self.trace = {}
        self._prefix_packed = b""
        self._suspended = False

    def take_trace(self) -> Dict[int, int]:  # nyx: hot
        """Fold the site stream into the sparse edge trace.

        Returns a fresh dict each call; the stream itself is only
        cleared by :meth:`begin`, so repeated calls agree.  When a
        prefix fold was seeded via :meth:`elide_resume`, the trace is
        that of the joined stream — byte-identical to having traced the
        whole run — but a memo miss folds only the live stream (see
        :meth:`_fold_packed`).
        """
        # Bytes key: one C-level pack + hash instead of building and
        # hashing a 300-element tuple per execution.
        packed = _array("Q", self._stream).tobytes()
        prefix = self._prefix_packed
        if prefix:
            # The joined stream is byte-equal to a fully-traced run's,
            # so elided and traced runs share fold-memo entries.
            packed = prefix + packed
        trace = dict(self._fold_packed(packed, prefix))
        self.last_packed = packed
        if self._ijon:
            get = trace.get
            for edge, count in self._ijon.items():
                trace[edge] = get(edge, 0) + count
        self.trace = trace
        return trace

    def _fold_packed(self, packed: bytes, prefix: bytes = b"") -> Dict[int, int]:
        """Memoized fold of a packed site stream.

        ``prefix`` is a leading part of ``packed`` whose fold is
        memoised on its own.  On a miss, only the rest of ``packed`` is
        folded — seeded with the prefix's last site, so the edge chain
        runs through the join — and counted into a copy of the prefix
        fold.  Returns a shared dict; callers copy before mutating.
        """
        if not packed:
            return {}
        cache = self._fold_cache
        cached = cache.get(packed)
        if cached is not None:
            cache.move_to_end(packed)
            return cached
        if prefix and len(prefix) < len(packed):
            trace = dict(self._fold_packed(prefix))
            first = len(prefix) // 8
        else:
            trace, first = {}, 0
        size = self.map_size
        if size == _HALFWORD_MAP and _LANE_FOLD:
            _count_edges(trace, packed, first)
        else:
            sites = _array("Q", packed)
            prev = sites[first - 1] if first else 0
            trace_get = trace.get
            for site in sites[first:]:
                edge = (site ^ (prev >> 1)) % size
                prev = site
                trace[edge] = trace_get(edge, 0) + 1
        if len(cache) >= self.fold_memo_limit:
            cache.popitem(last=False)
            self.fold_evictions += 1
        cache[packed] = trace
        return trace

    def ijon_set(self, slot: int) -> None:
        """IJON-style state feedback: mark a state slot as reached.

        Mirrors IJON-SET/IJON-MAX: the annotated state value selects a
        bitmap entry, so novel states look like novel edges to the
        fuzzer's novelty check.
        """
        if self._suspended:
            return
        edge = (IJON_BASE + slot) % self.map_size
        ijon = self._ijon
        ijon[edge] = ijon.get(edge, 0) + 1

    def ijon_snapshot(self) -> Optional[Dict[int, int]]:
        """Copy of the IJON slot counts so far (None when empty)."""
        return dict(self._ijon) if self._ijon else None

    # -- prefix-trace elision (driven by the executor) -----------------------

    def stream_pos(self) -> int:
        """Number of sites recorded so far in the live stream."""
        return len(self._stream)

    @property
    def prefix_site_count(self) -> int:
        """Sites covered by the seeded prefix, so boundary marks stay
        in full-stream coordinates after an elided resume."""
        return len(self._prefix_packed) // 8

    def elide_suspend(self) -> None:
        """Stop collecting: a recorded deterministic prefix is being
        replayed, so its events would only repeat known bytes."""
        self._suspended = True

    def elide_resume(self, prefix_packed: bytes,
                     ijon_seed: Optional[Dict[int, int]] = None) -> None:
        """Resume collection, seeding the recorded prefix.

        ``prefix_packed`` is the packed site stream the suspended
        window *would* have produced; ``ijon_seed`` the IJON counts it
        would have accumulated.  :meth:`take_trace` then returns the
        same bytes a fully-traced run yields.
        """
        self._suspended = False
        self._prefix_packed = prefix_packed
        if ijon_seed:
            ijon = self._ijon
            get = ijon.get
            for edge, count in ijon_seed.items():
                ijon[edge] = get(edge, 0) + count

    @property
    def suspended(self) -> bool:
        return self._suspended

    # -- backend hooks -------------------------------------------------------

    def run(self, fn: Callable, *args) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class EdgeTracer(TracerCore):
    """``sys.settrace`` backend: works on every supported CPython.

    * the **global** callback is a closure over pre-bound locals whose
      per-code decision is one dict probe; untraced code (the kernel,
      the fuzzer, libraries) costs exactly that probe per call;
    * each traced code object gets its own **specialized local
      callback** that appends one precomputed site per line event.
    """

    backend_name = "settrace"

    def __init__(self, traced_fragments: Tuple[str, ...] = DEFAULT_TRACED_FRAGMENTS,
                 map_size: int = MAP_SIZE,
                 fold_memo_limit: int = FOLD_MEMO_LIMIT) -> None:
        super().__init__(traced_fragments, map_size, fold_memo_limit)
        #: Per-code-object cache: id(code) -> stable site base for
        #: traced code, None for untraced.  (id() is only the cache
        #: key — sites themselves come from :func:`_stable_site`.)
        self._code_cache: Dict[int, Optional[int]] = {}
        #: id(code) -> (base, specialized local callback) for traced
        #: code, None for untraced.
        self._entry_cache: Dict[int, Optional[Tuple[int, Callable]]] = {}
        self._global = self._build_global()
        self._depth = 0
        #: Trace function installed before the outermost :meth:`run`.
        self._outer: Optional[Callable] = None

    # -- execution wrapper --------------------------------------------------

    def run(self, fn: Callable, *args) -> None:  # nyx: hot
        """Run ``fn(*args)`` with tracing enabled.

        A guest program (``fn(api)`` with a :class:`KernelApi`) gets
        the syscall window view of its api, so syscall bodies run with
        the hook removed.  Re-entrant: nested calls keep the existing
        trace hook.  While suspended (prefix elision), runs plain.  On
        leaving the outermost call, whatever trace function was
        installed before (a debugger, coverage.py) is put back.
        """
        if self._suspended:
            fn(*args)
            return
        if SYSCALL_WINDOW and len(args) == 1 and type(args[0]) is KernelApi:
            # Built before the hook goes in: its frames stay untraced.
            args = (self._window(args[0]),)
        if self._depth == 0:
            self._outer = sys.gettrace()
            sys.settrace(self._global)
        self._depth += 1
        try:
            fn(*args)
        finally:
            self._depth -= 1
            if self._depth == 0:
                sys.settrace(self._outer)

    def _window(self, api: KernelApi) -> object:  # nyx: hot
        """The view of ``api`` a program sees while hooks are live."""
        return _SyscallWindow(api, self._global)

    # -- trace hooks -----------------------------------------------------------

    def _build_global(self) -> Callable:  # nyx: hot
        """The ``sys.settrace`` global callback, specialized once.

        Invoked for every 'call' event in the trace window — including
        every untraced kernel/library call made by target code — so the
        miss path is a single dict hit returning None.
        """
        entry_cache = self._entry_cache
        make_entry = self._make_entry
        append = self._stream.append

        def global_trace(frame, event, arg):
            code = frame.f_code
            try:
                entry = entry_cache[id(code)]
            except KeyError:
                entry = make_entry(code)
            if entry is None:
                return None
            # The call edge: the code's base site enters the stream.
            append(entry[0])
            return entry[1]

        return global_trace

    def _make_entry(self, code) -> Optional[Tuple[int, Callable]]:
        """Build (and cache) the specialized local callback for ``code``."""
        filename = code.co_filename
        if not any(fragment in filename
                   for fragment in self.traced_fragments):
            self._entry_cache[id(code)] = None
            self._code_cache[id(code)] = None
            return None
        base = _stable_site("%s:%s:%d" % (filename, code.co_name,
                                          code.co_firstlineno))
        self._code_cache[id(code)] = base
        base33 = base * 33
        append = self._stream.append

        def local_trace(frame, event, arg):
            if event == "line":
                append((base33 + frame.f_lineno) & 0xFFFFFFFF)
            return local_trace

        entry = (base, local_trace)
        self._entry_cache[id(code)] = entry
        return entry

    def _code_site(self, code) -> Optional[int]:
        """Stable site base for a code object (None = not traced)."""
        try:
            return self._code_cache[id(code)]
        except KeyError:
            entry = self._make_entry(code)
            return None if entry is None else entry[0]


class _SyscallWindow:  # nyx: hot
    """Window view of a :class:`KernelApi`: syscalls run untraced.

    Target code calls into the kernel constantly, and with the hook
    installed every kernel, interceptor and clock frame below those
    calls fires a trace callback and runs in the interpreter's slow
    tracing mode, only for :meth:`EdgeTracer._make_entry` to reject
    it.  Each public syscall on the view removes the hook on entry and
    puts the tracer's global hook back on exit, raise or return.  No
    syscall calls back into target code, so the target's own events —
    and the site stream — are unchanged.

    Syscalls dispatch through ``KernelApi``'s class attributes at call
    time, so wrappers installed on the class after import (the
    profiler, benchmark spans) see every call.  Anything else (plain
    attributes, the ``proc`` property) resolves on the api itself.
    """

    __slots__ = ("_api", "_hook")

    def __init__(self, api: KernelApi, hook: Callable) -> None:
        self._api = api
        self._hook = hook

    def __getattr__(self, name: str):
        return getattr(self._api, name)


def _untraced_syscall(name: str) -> Callable:  # nyx: hot
    """Window method for ``KernelApi.<name>``: the body runs unhooked."""
    settrace = sys.settrace

    def syscall(self, *args, **kwargs):
        settrace(None)
        try:
            return getattr(KernelApi, name)(self._api, *args, **kwargs)
        finally:
            settrace(self._hook)

    syscall.__name__ = name
    syscall.__qualname__ = "_SyscallWindow." + name
    return syscall


for _name, _value in list(vars(KernelApi).items()):
    if not _name.startswith("_") and isinstance(_value, FunctionType):
        setattr(_SyscallWindow, _name, _untraced_syscall(_name))
del _name, _value
