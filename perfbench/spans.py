"""Outside-in span tracing of the fuzzer's layers.

The benchmark never edits ``src/``: it wraps the public functions at
each layer boundary from here, on the *classes*, before any campaign is
built.  Installing on the class matters: ``Kernel.__init__`` registers
its bound ``self.reload_from_memory`` as a restore callback, so a
wrapper installed after construction would never see a reload.

Every wrapped call records one span ``(group, parent, start, end)`` in
an in-memory list while the recorder is switched on (the measured
campaign loop only; set-up runs untraced).  Self time is a span's
duration minus the durations of its direct children; since the
campaign runs in one thread, children nest inside their parent and
never overlap, so the self times of all spans inside the root span sum
to the root's duration.  The clock is read only through
:func:`repro.perf.timers.wall_now`.

Counts come from public return values and public counters, gathered by
small observers that run after a span's end timestamp.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Dict, List, Optional, Tuple

from repro.perf.timers import wall_now

#: Name of the root span the benchmark opens around the campaign loop;
#: its self time is the loop time no wrapped layer claimed.
ROOT = "other"

#: Relative tolerance within which the self times of all spans must sum
#: to the traced wall time measured around the root span.
CLOSURE_TOLERANCE = 0.01

Span = Tuple[int, int, float, float]


class SpanRecorder:
    """In-memory span store plus the per-group counters observers feed."""

    def __init__(self) -> None:
        self.groups: List[str] = [ROOT]
        self._group_ids: Dict[str, int] = {ROOT: 0}
        #: Finished spans; a slot holds None while its call is open.
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = [-1]
        self.on = False
        self.counters: Dict[str, float] = {}

    def group_id(self, name: str) -> int:
        gid = self._group_ids.get(name)
        if gid is None:
            gid = self._group_ids[name] = len(self.groups)
            self.groups.append(name)
        return gid

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, group: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Span-recording wrapper of ``fn``.

        ``before(args)`` runs ahead of the start timestamp and
        ``after(args, result)`` after the end timestamp, so observers
        never land in the span they observe.
        """
        gid = self.group_id(group)
        spans = self.spans
        stack = self._stack
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = wall_now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = wall_now()
                stack.pop()
                spans[idx] = (gid, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- the measured window --------------------------------------------

    def run_root(self, fn: Callable):
        """Run ``fn()`` inside the root span; returns (result, wall).

        ``wall`` is read independently of the span clock reads, so the
        closure check compares attribution against an outside figure.
        """
        wall_start = wall_now()
        self.on = True
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = wall_now()
        try:
            result = fn()
        finally:
            end = wall_now()
            self._stack.pop()
            self.spans[idx] = (0, -1, start, end)
            self.on = False
        return result, wall_now() - wall_start

    def attribute(self) -> Dict[str, Dict[str, float]]:
        """Per-group ``{"calls", "self_s"}`` over every recorded span.

        Raises ``ValueError`` when a span is still open or a child span
        leaves its parent's interval — either would make the self times
        meaningless.
        """
        spans = self.spans
        self_s = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span is None:
                raise ValueError("span %d never closed" % i)
            _gid, parent, start, end = span
            self_s[i] += end - start
            if parent >= 0:
                p_start, p_end = spans[parent][2], spans[parent][3]
                if start < p_start or end > p_end:
                    raise ValueError("span %d (%s) escapes its parent"
                                     % (i, self.groups[span[0]]))
                self_s[parent] -= end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.groups}
        for span, own in zip(spans, self_s):
            row = out[self.groups[span[0]]]
            row["calls"] += 1
            row["self_s"] += own
        return out

    def reset(self) -> None:
        """Drop recorded spans and counters (between campaigns)."""
        del self.spans[:]
        self.counters.clear()


# ----------------------------------------------------------------------
# the layer map: which public functions belong to which span group
# ----------------------------------------------------------------------

def _public_methods(cls) -> List[str]:
    return sorted(name for name, value in vars(cls).items()
                  if not name.startswith("_") and inspect.isfunction(value))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary on its class (once per process)."""
    from repro.coverage.bitmap import CoverageMap
    from repro.coverage.tracer import TracerCore
    from repro.emu.interceptor import Interceptor
    from repro.fuzz import policies
    from repro.fuzz.executor import NyxExecutor
    from repro.fuzz.journal import DurableParallelCampaign, Journal
    from repro.fuzz.mutators import MutationEngine
    from repro.fuzz.parallel import ParallelCampaign
    from repro.fuzz.queue import Corpus
    from repro.guestos.kernel import Kernel
    from repro.vm.snapshot import SnapshotManager

    count = recorder.count

    def exec_result(args, result) -> None:
        count("executor.execs")
        count("executor.ops", result.ops_executed)
        if result.suffix_run:
            count("executor.suffix_runs")

    def pages_restored(args, result) -> None:
        count("snapshot.pages_restored", result)

    def chain_hop(args) -> None:
        # restore_to_depth(depth) doubles as the end-of-run reset to the
        # current base; only a call that moves the base is a hop.
        manager, depth = args[0], args[1]
        if depth != manager.base_depth:
            count("snapshot.chain_hops")

    def novelty(args, result) -> None:
        if result:
            count("bitmap.novel")

    def broadcast(args, result) -> None:
        count("parallel.broadcast", result)

    def checkpoint_bytes(args, result) -> None:
        # save_checkpoint returns the epoch; the store names its file.
        durable = args[0]
        count("journal.checkpoint.bytes",
              durable.checkpoints._path(result).stat().st_size)

    plan = [
        (MutationEngine, ["mutate"], "mutators.mutate", {}),
        (NyxExecutor, ["run_full", "run_suffix"], "executor.run",
         {"after": exec_result}),
        (NyxExecutor, ["finish_snapshot_cycle", "remember_trace",
                       "invalidate_trace_recordings"], "executor.cycle", {}),
        (Kernel, ["run"], "kernel.run", {}),
        (Kernel, ["flush_to_memory"], "kernel.flush", {}),
        (Kernel, ["reload_from_memory"], "kernel.reload", {}),
        (SnapshotManager, ["restore_root", "restore_incremental"],
         "snapshot.restore", {"after": pages_restored}),
        (SnapshotManager, ["restore_to_depth"], "snapshot.restore",
         {"before": chain_hop, "after": pages_restored}),
        (SnapshotManager, ["create_incremental", "push_overlay",
                           "commit_overlay"], "snapshot.create", {}),
        (SnapshotManager, ["discard_incremental", "discard_deepest"],
         "snapshot.discard", {}),
        (Interceptor, _public_methods(Interceptor), "interceptor", {}),
        (TracerCore, ["take_trace"], "tracer.fold", {}),
        (CoverageMap, ["has_new_bits"], "bitmap.novelty",
         {"after": novelty}),
        (Corpus, ["add", "next_entry", "splice_donor", "export_entries",
                  "import_foreign", "remove_by_checksum"], "queue", {}),
        # The one private method wrapped: a sync round has no public
        # entry point of its own.
        (ParallelCampaign, ["_sync_corpora"], "parallel.sync",
         {"after": broadcast}),
        (Journal, ["append"], "journal.append", {}),
        (DurableParallelCampaign, ["save_checkpoint"], "journal.checkpoint",
         {"after": checkpoint_bytes}),
        (DurableParallelCampaign, ["after_slice"], "journal.progress", {}),
    ]
    policy_methods = ["choose", "feedback", "choose_chain", "pick_arm",
                      "arm_feedback"]
    for cls in vars(policies).values():
        if inspect.isclass(cls) and issubclass(cls, policies.SnapshotPolicy):
            own = [m for m in policy_methods if m in vars(cls)]
            plan.append((cls, own, "policies", {}))
    for cls, methods, group, hooks in plan:
        for name in methods:
            setattr(cls, name, recorder.wrap(vars(cls)[name], group, **hooks))
