"""Test-case execution inside the VM.

The executor interprets input bytecode op by op, driving the
interceptor (connections, packets, EOF), the guest scheduler and the
snapshot machinery:

* ``run_full`` executes an input from the top, optionally capturing a
  chain of snapshot nodes after chosen packets (the policy's picks, or
  explicit ``snapshot`` marker ops in the input); the first node is the
  paper's incremental snapshot, each later one an overlay on top;
* ``run_suffix`` re-executes only the ops after a node's snapshot
  point against that node — the §3.4 fast path;
* after every execution the VM is reset to the node it descends from
  (or the root), with the reset cost charged to the simulated clock.

**Prefix-trace elision.**  Execution here is deterministic: replaying
the same ops from the same snapshot boundary produces the same site
stream, byte for byte.  The executor exploits that to stop paying the
tracer for work a previous execution already recorded:

* every traced run records per-op *boundary marks* into its packed
  site stream (a :class:`TraceRecording`); from-root runs record in
  root coordinates, suffix runs relative to their chain node;
* when a run shares ops with a from-root recording past its start
  boundary, that stretch replays with the tracer suspended and
  :meth:`~repro.coverage.tracer.TracerCore.take_trace` is seeded with
  the recorded fold instead — the combined trace is byte-identical to
  a fully-traced run (pinned by the differential and property suites).
  From-root children elide against their parent entry's recording;
  suffix runs elide against the node's capture-run recording held in
  :class:`_SuffixState`, which lives and dies with the node;
* the fuzzer registers recordings for corpus entries via
  :meth:`NyxExecutor.remember_trace`; an entry found by a suffix run
  gets a from-root recording by stitching the capture run's prefix
  onto the suffix stream at that point (and only then);
* a recording stays valid as long as a replay could only diverge from
  it through sim time, which inside a run only the watchdog and guest
  timers read.  So a replay never elides past the first boundary after
  its start where the recording's run charged a policy-chosen capture
  (*charge points*), never through the op where an incomplete
  recording stopped (a watchdog cut is mid-op), and not at all while a
  guest timer is pending — timer deadlines are absolute sim times;
* recordings are invalidated wholesale whenever snapshot state is in
  doubt — a corrupted restore (heal/rebuild) or degradation to
  root-only — and elision disarms entirely while a fault injector is
  active (injected faults make replays non-deterministic).

Targets with non-network vocabularies (e.g. Super Mario's button
frames) register extra op handlers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.coverage.tracer import TracerCore
from repro.emu.interceptor import Interceptor
from repro.fuzz.input import FuzzInput
from repro.guestos.errors import CrashReport, GuestError
from repro.guestos.kernel import Kernel
from repro.vm.machine import Machine
from repro.vm.snapshot import SnapshotCorruption

#: Handler signature: (executor, op, resolved connection id) -> None.
OpHandler = Callable[["NyxExecutor", object, Optional[int]], None]

#: Corpus-entry recordings kept per executor (LRU), keyed by entry id;
#: all in root coordinates (suffix-run recordings are stitched first).
RECORDING_CACHE_LIMIT = 128


@dataclass
class TraceRecording:
    """Replayable trace of one execution from a snapshot boundary.

    ``origin`` is the op index the run started at: 0 for a from-root
    run, a chain node's resume index for a suffix run.  ``marks[i]`` is
    the run's site-stream position just before op ``origin + i``
    executed; one final mark is appended where the op loop exited.
    ``packed`` is the run's full packed stream (including the post-loop
    drain), ``ijon_marks`` the cumulative IJON counts at each boundary
    (None where empty).  A suffix run's recording also holds ``base``,
    the node's from-root capture recording, which
    :meth:`NyxExecutor.remember_trace` stitches it onto.  All fields
    are treated as immutable once ``packed`` is set.
    """

    ops: Tuple
    origin: int = 0
    base: Optional["TraceRecording"] = None
    marks: List[int] = field(default_factory=list)
    ijon_marks: List[Optional[Dict[int, int]]] = field(default_factory=list)
    packed: Optional[bytes] = None
    final_ijon: Optional[Dict[int, int]] = None
    #: True when the recorded run executed every op without crash,
    #: timeout or max-ops clamping — required for whole-run reuse.
    complete: bool = False
    #: Ascending op boundaries where a *policy-chosen* capture charged
    #: the sim clock mid-run.  A replay starting at boundary ``b``
    #: elides at most up to the first charge point after ``b``.
    #: Marker-op snapshots need no entry — they fire identically in
    #: every run of the same ops.
    charge_points: List[int] = field(default_factory=list)


@dataclass
class ExecResult:
    """Outcome of one test-case execution."""

    trace: Dict[int, int] = field(default_factory=dict)
    crash: Optional[CrashReport] = None
    exec_time: float = 0.0
    ops_executed: int = 0
    packets_sent: int = 0
    #: Packets the target actually read (recv'd) during the run —
    #: inputs that kill or stall the target stop consuming early.
    packets_consumed: int = 0
    #: True when the run only replayed a suffix from the incremental
    #: snapshot.
    suffix_run: bool = False
    #: True when the watchdog stopped the run: the target exceeded its
    #: per-exec simulated-time budget (the paper's timeout class).
    timed_out: bool = False
    #: Boundary-marked trace of this run (None for untraced runs and
    #: for suffix runs with no capture recording to stitch onto); the
    #: fuzzer hands it to :meth:`NyxExecutor.remember_trace` when the
    #: input joins the corpus.
    recording: Optional[TraceRecording] = None


@dataclass
class _SuffixState:
    """One chain node: host-side interceptor state at its snapshot
    point."""

    resume_index: int
    conns: Dict
    sid_to_conn: Dict
    values_produced: int
    #: The input whose prefix produced the snapshot, and the op index
    #: the snapshot was taken at — enough to rebuild the chain from
    #: the root if a restore finds it corrupted.
    base_input: Optional[FuzzInput] = None
    snapshot_op_index: Optional[int] = None
    #: The capture run's from-root trace recording: what suffix runs
    #: elide their unmutated head against and stitch their own
    #: recordings onto.  Lives and dies with this state, so placement
    #: moves and rebuilds can never serve a stale fold (None after an
    #: untraced rebuild replay or a capture inside a suffix run:
    #: elision simply stays off until the next capture).
    capture_rec: Optional[TraceRecording] = None


class NyxExecutor:
    """Executes inputs against one target VM."""

    def __init__(self, machine: Machine, kernel: Kernel,
                 interceptor: Interceptor, tracer: Optional[TracerCore] = None,
                 max_ops: int = 512,
                 exec_timeout: Optional[float] = None,
                 max_snapshot_rebuilds: int = 3,
                 trace_elision: bool = True,
                 max_chain_depth: int = 1) -> None:
        self.machine = machine
        self.kernel = kernel
        self.interceptor = interceptor
        self.tracer = tracer
        self.max_ops = max_ops
        #: Deepest chain this executor will stack (1 = the paper's
        #: single incremental snapshot; markers and multi-point
        #: placements only stack overlays when this allows it).
        self.max_chain_depth = max_chain_depth
        #: Watchdog budget: simulated seconds one execution may burn
        #: before it is stopped and classified as a timeout.  ``None``
        #: disables the watchdog (trusted targets).
        self.exec_timeout = exec_timeout
        #: Consecutive corrupted-restore rebuilds tolerated before the
        #: executor degrades to root-only execution.
        self.max_snapshot_rebuilds = max_snapshot_rebuilds
        #: Master switch for prefix-trace elision (tests compare
        #: elided vs fully-traced executions through this).
        self.trace_elision = trace_elision
        self.execs = 0
        #: Snapshot chains rebuilt from the root after a restore found
        #: them corrupted (self-healing).
        self.snapshot_rebuilds = 0
        #: Bottom of the degradation ladder: snapshot chains kept
        #: failing validation, so every run now starts from the root.
        self.degraded_root_only = False
        #: Host-side elision counters (stamped into CampaignStats).
        #: Outside stats_checksum by design; resume recounts from 0.
        self.prefix_elisions = 0  # nyx: state[ephemeral]
        self.prefix_elided_ops = 0  # nyx: state[ephemeral]
        self.elision_invalidations = 0  # nyx: state[ephemeral]
        self._rebuild_failures = 0
        #: Chain nodes, shallow to deep; node ``i`` is chain depth
        #: ``i + 1``.
        self._chain_nodes: List[_SuffixState] = []
        self._recordings: "OrderedDict[int, TraceRecording]" = OrderedDict()
        self.recording_cache_limit = RECORDING_CACHE_LIMIT
        self._rec_in_progress: Optional[TraceRecording] = None
        self.op_handlers: Dict[str, OpHandler] = {
            "connection": _handle_connection,
            "packet": _handle_packet,
            "shutdown": _handle_shutdown,
        }
        if tracer is not None:
            kernel.coverage = tracer

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run_full(self, input_: FuzzInput,  # nyx: hot
                 parent_key: Optional[int] = None,
                 snapshot_after_packets: Optional[List[int]] = None
                 ) -> ExecResult:
        """Execute the whole input from the active snapshot (root).

        ``snapshot_after_packets`` lists 0-based positions into the
        input's packet list (at most ``max_chain_depth`` are used): a
        chain node is captured right after each of those packets is
        consumed — the first is the incremental snapshot, each later
        one an overlay on top — and subsequent ``run_suffix`` calls
        replay only the remainder.

        ``parent_key`` names a recording registered through
        :meth:`remember_trace`; any op prefix the input shares with it
        replays with the tracer elided.
        """
        self._chain_nodes = []
        self.machine.snapshots.discard_incremental()
        snapshot_ops: List[int] = []
        if snapshot_after_packets:
            packets = input_.packet_indices()
            snapshot_ops = sorted({packets[pos]
                                   for pos in snapshot_after_packets
                                   if 0 <= pos < len(packets)})
            del snapshot_ops[self.max_chain_depth:]
        parent_rec = None
        if parent_key is not None:
            parent_rec = self._recordings.get(parent_key)
            if parent_rec is not None:
                self._recordings.move_to_end(parent_key)
        return self._run(input_, start=0, snapshot_ops=snapshot_ops,
                         parent_rec=parent_rec, record=True)

    def run_suffix(self, input_: FuzzInput,  # nyx: hot
                   depth: Optional[int] = None) -> ExecResult:
        """Execute only the ops after a chain node's snapshot point.

        ``depth`` picks the chain node to resume from (1 = the
        incremental snapshot; default: the deepest node).  The executor
        then upgrades to the *deepest* node at or above ``depth`` whose
        op prefix the input still matches — resuming closer to the
        mutation site executes strictly fewer ops for the same result.
        Switching nodes between runs costs one chain restore; staying
        on the previous node costs nothing extra.

        Self-healing: if the last reset found a snapshot layer
        corrupted (each validates its CoW pages by checksum), the
        prefix is replayed from the root to rebuild the whole chain.
        After ``max_snapshot_rebuilds`` consecutive failures the
        executor degrades to root-only execution instead of thrashing.
        """
        nodes = self._chain_nodes
        if not nodes:
            raise RuntimeError("no incremental snapshot to fuzz from")
        if not self.degraded_root_only:
            self._heal_chain(nodes[-1])
            nodes = self._chain_nodes
        if self.degraded_root_only or not nodes:
            # Bottom of the ladder: run the whole input from the root.
            return self._run(input_, start=0)
        if depth is None or depth > len(nodes):
            depth = len(nodes)
        elif depth < 1:
            depth = 1
        depth = self._deepest_matching(input_, depth)
        state = nodes[depth - 1]
        snapshots = self.machine.snapshots
        if snapshots.chain_depth > 1 and snapshots.base_depth != depth:
            # Hop to the requested node; the next end-of-run reset then
            # returns here for free (it restores the current base).
            try:
                self.machine.restore_to_depth(depth)
            except SnapshotCorruption:
                # A layer failed validation mid-hop: the manager tore
                # the whole chain down.  Fall back to the trustworthy
                # root and re-enter the heal/rebuild/degrade ladder,
                # exactly like a corrupted end-of-run reset.
                self.machine.snapshot_corruptions += 1
                self.machine.restore_root()
                return self.run_suffix(input_, depth=depth)
        # Rebind the interceptor's host-side view of the guest sockets
        # exactly as it was at the snapshot point.  Suffix runs skip
        # reset_for_test (the snapshot point is mid-test), so stale
        # surface sockets from the previous suffix run are pruned here.
        self.interceptor._conns = {
            conn_id: conn.copy() for conn_id, conn in state.conns.items()}
        self.interceptor._sid_to_conn = dict(state.sid_to_conn)
        self.interceptor.reset_stale_surface()
        result = self._run(input_, start=state.resume_index,
                           values_preassigned=state.values_produced,
                           parent_rec=state.capture_rec, record=True)
        result.suffix_run = True
        return result

    def _deepest_matching(self, input_: FuzzInput, depth: int) -> int:
        """Deepest chain depth >= ``depth`` whose captured op prefix the
        input still matches (mutations past a node's snapshot point
        leave its prefix valid)."""
        nodes = self._chain_nodes
        ops = input_.ops
        n_ops = len(ops)
        for i in range(len(nodes) - 1, depth - 1, -1):
            node = nodes[i]
            base = node.base_input
            resume = node.resume_index
            if base is None or n_ops < resume:
                continue
            base_ops = base.ops
            match = True
            for k in range(resume):
                a = ops[k]
                b = base_ops[k]
                if a is not b and a != b:
                    match = False
                    break
            if match:
                return i + 1
        return depth

    # ------------------------------------------------------------------
    # trace recordings (prefix elision)
    # ------------------------------------------------------------------

    def remember_trace(self, key: int, result: ExecResult,
                       replace: bool = True) -> bool:
        """Register a run's recording for future prefix elision.

        The fuzzer calls this when an input joins the corpus, keyed by
        its entry id; children mutated from that entry then pass the
        key to :meth:`run_full`.  A suffix run's node-relative
        recording is stitched into a from-root one here, so only novel
        runs pay for it.  LRU-bounded.  ``replace=False`` keeps an
        existing recording (e.g. an unclamped discovery-run recording
        beats a charge-clamped capture-run one).
        """
        rec = result.recording
        if rec is None or rec.packed is None:
            return False
        recordings = self._recordings
        if not replace and key in recordings:
            recordings.move_to_end(key)
            return False
        origin = rec.origin
        if origin:
            # Replaying ops[:origin] from the root reaches the node
            # exactly as the capture run did, so the from-root stream
            # is the capture's prefix followed by this run's stream.
            base = rec.base
            if (base is None or base.packed is None
                    or len(base.marks) <= origin
                    or base.ops[:origin] != rec.ops[:origin]):
                return False
            shift = base.marks[origin]
            marks = base.marks[:origin]
            marks.extend([mark + shift for mark in rec.marks])
            tail = rec.ijon_marks + [rec.final_ijon]
            ijon_base = base.ijon_marks[origin]
            if ijon_base:
                summed = []
                for at in tail:
                    total = dict(ijon_base)
                    for edge, count in (at or {}).items():
                        total[edge] = total.get(edge, 0) + count
                    summed.append(total)
                tail = summed
            rec = TraceRecording(
                ops=rec.ops, marks=marks,
                ijon_marks=base.ijon_marks[:origin] + tail[:-1],
                packed=base.packed[:shift * 8] + rec.packed,
                final_ijon=tail[-1], complete=rec.complete,
                # The capture at ``origin`` charged before this run
                # began; only charges inside the prefix stay mid-run.
                charge_points=[point for point in base.charge_points
                               if point < origin] + rec.charge_points)
        recordings[key] = rec
        recordings.move_to_end(key)
        while len(recordings) > self.recording_cache_limit:
            recordings.popitem(last=False)
        return True

    def invalidate_trace_recordings(self) -> None:
        """Drop every cached fold: snapshot state is in doubt.

        Called on the heal/rebuild/degrade paths — a corrupted restore
        means *something* misbehaved, and a cheap full invalidation
        beats reasoning about which recordings could have been
        affected.
        """
        self._recordings.clear()
        for node in self._chain_nodes:
            node.capture_rec = None
        self.elision_invalidations += 1

    # ------------------------------------------------------------------
    # durability (checkpoint/resume)
    # ------------------------------------------------------------------

    def durable_state(self) -> dict:
        """Resumable executor state (see :mod:`repro.fuzz.journal`).

        Only the counters that shape future behaviour travel: the exec
        count, the degradation ladder (rebuild failures decide when the
        executor falls back to root-only execution) and the snapshot
        manager's sim-charge cursors.  The trace-recording cache and
        suffix state are host-side caches, empty at every step boundary
        or rebuilt on demand, and never cross a checkpoint.
        """
        return {"execs": self.execs,
                "snapshot_rebuilds": self.snapshot_rebuilds,
                "degraded_root_only": self.degraded_root_only,
                "rebuild_failures": self._rebuild_failures,
                "snapshots": self.machine.snapshots.snapshot_state()}

    def restore_durable_state(self, state: dict) -> None:
        """Adopt a checkpointed executor state (inverse of
        :meth:`durable_state`)."""
        self.execs = int(state["execs"])
        self.snapshot_rebuilds = int(state["snapshot_rebuilds"])
        self.degraded_root_only = bool(state["degraded_root_only"])
        self._rebuild_failures = int(state["rebuild_failures"])
        self.machine.snapshots.restore_state(state["snapshots"])
        self._chain_nodes = []
        self._recordings.clear()
        self._rec_in_progress = None

    def _elision_blocked(self) -> bool:
        """Elision disarms while fault injection is active (injected
        faults fire on deterministic schedules of their *own*) and while
        any live guest process has a pending timer (deadlines are
        absolute sim times, so a replay at a later time may fire a
        timer its recording never saw): either way a replayed prefix
        may diverge from its recording."""
        if not self.trace_elision or self.tracer is None:
            return True
        if getattr(self.interceptor, "injector", None) is not None:
            return True
        if getattr(self.machine.snapshots, "injector", None) is not None:
            return True
        for proc in self.kernel.processes.values():
            if proc.alive and proc.timer_deadline is not None:
                return True
        return False

    def _plan_elision(self, ops, start: int, end: int,
                      rec: TraceRecording) -> Optional[Tuple[int, bool]]:
        """How far the input's ops match the recording.

        ``rec`` is a from-root recording and ``start`` a boundary it
        passed.  Returns ``(resume_index, whole_run)``: the ops
        ``ops[start:resume_index]`` are byte-covered by the recording.
        ``whole_run`` means the entire execution (including the
        post-loop drain) is covered, so the tracer never resumes.
        """
        if rec.packed is None:
            return None
        rec_ops = rec.ops
        # The final mark of an incomplete run may sit mid-op (the
        # watchdog cuts kernel.run short): never elide through that op.
        known = len(rec.marks) - (1 if rec.complete else 2)
        limit = min(end, len(rec_ops), known)
        clamped = False
        for point in rec.charge_points:
            if point > start:
                limit = min(limit, point)
                clamped = True
                break
        k = start
        while k < limit:
            a = ops[k]
            b = rec_ops[k]
            if a is not b and a != b:
                break
            k += 1
        if k <= start:
            return None
        whole = (k == end == len(ops) and len(ops) == len(rec_ops)
                 and rec.complete and not clamped)
        return k, whole

    def _elide_resume(self, rec: TraceRecording, start: int,
                      until: Optional[int],
                      into: Optional[TraceRecording] = None) -> None:
        """Seed the tracer with the recorded fold for ``[start, until)``
        (``until=None``: through the end of the recorded stream) and
        give ``into``, the recording in progress, the window's boundary
        marks in the coordinates of a run that started at ``start``."""
        marks = rec.marks
        lo = marks[start]
        if until is None:
            prefix = rec.packed[lo * 8:]
            ijon_at = rec.final_ijon
            elided = len(rec.ops) - start
            stop = len(marks)
        else:
            prefix = rec.packed[lo * 8:marks[until] * 8]
            ijon_at = rec.ijon_marks[until]
            elided = until - start
            stop = until
        ijon_base = rec.ijon_marks[start]
        ijon_seed = ijon_at
        if ijon_at and ijon_base:
            ijon_seed = {edge: count - ijon_base.get(edge, 0)
                         for edge, count in ijon_at.items()
                         if count - ijon_base.get(edge, 0) > 0}
        self.tracer.elide_resume(prefix, ijon_seed)
        self.prefix_elisions += 1
        self.prefix_elided_ops += elided
        if into is not None:
            into.marks.extend([mark - lo for mark in marks[start:stop]])
            window = rec.ijon_marks[start:stop]
            if ijon_base:
                # Cumulative counts never shrink within a run, so every
                # boundary in the window holds at least the base's.
                window = [{edge: count - ijon_base.get(edge, 0)
                           for edge, count in at.items()
                           if count - ijon_base.get(edge, 0) > 0} or None
                          for at in window]
            into.ijon_marks.extend(window)

    def _heal_chain(self, state: _SuffixState) -> None:
        """Ensure a valid snapshot chain exists, rebuilding from the
        root as often as the rebuild budget allows.

        ``state`` is the deepest chain node; the replay re-creates
        every node's snapshot point (corruption tears down the whole
        chain, so rebuilds always start from nothing).
        """
        snapshots = self.machine.snapshots
        invalidated = False
        while not snapshots.incremental_active:
            if not invalidated:
                invalidated = True
                self.invalidate_trace_recordings()
            self._rebuild_failures += 1
            if (self._rebuild_failures > self.max_snapshot_rebuilds
                    or state.base_input is None):
                self.degraded_root_only = True
                return
            self.snapshot_rebuilds += 1
            points = [node.resume_index - 1 for node in self._chain_nodes
                      if node.resume_index > 0]
            if not points and state.snapshot_op_index is not None:
                points = [state.snapshot_op_index]
            self._chain_nodes = []
            # Replay exactly the prefix that produced the chain; the
            # trailing reset restores the fresh deepest snapshot
            # (or corrupts it again, in which case we loop).  The
            # replay's trace is discarded, so it runs untraced.
            self._run(state.base_input, start=0, snapshot_ops=points,
                      stop_index=state.resume_index, traced=False)
            if self._chain_nodes:
                state = self._chain_nodes[-1]
        self._rebuild_failures = 0

    # ------------------------------------------------------------------
    # core interpreter
    # ------------------------------------------------------------------

    def _run(self, input_: FuzzInput, start: int,  # nyx: hot
             snapshot_ops: Sequence[int] = (),
             values_preassigned: int = 0,
             stop_index: Optional[int] = None,
             parent_rec: Optional[TraceRecording] = None,
             record: bool = False,
             traced: bool = True) -> ExecResult:
        machine = self.machine
        kernel = self.kernel
        result = ExecResult()
        # Ascending op indices to capture a chain node after; the first
        # one charges the sim clock mid-run as a fresh depth-1 snapshot.
        later_points = list(snapshot_ops)
        snapshot_op_index = later_points.pop(0) if later_points else None
        t0 = machine.clock.now
        deadline = None
        if self.exec_timeout is not None:
            # Watchdog: the budget binds the guest scheduler too, so a
            # stalled target stops mid-kernel.run instead of spinning
            # its rounds out.
            deadline = t0 + self.exec_timeout
            kernel.watchdog = lambda: machine.clock.now >= deadline
        packets_before = self.interceptor.stats_packets
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.begin()
        elif self.tracer is not None:
            # Untraced replay (snapshot rebuild): the trace is
            # discarded, so never pay collection.  begin() un-suspends.
            self.tracer.begin()
            self.tracer.elide_suspend()
        ops = input_.ops
        end = min(len(ops), start + self.max_ops)
        if stop_index is not None:
            end = min(end, stop_index)
        # Prefix-trace elision: execute the recorded prefix with the
        # tracer suspended, then seed its fold back in at the resume
        # boundary.  Execution itself (state, sim clock, crashes) is
        # unaffected — only collection is skipped.
        elide_until: Optional[int] = None
        elide_whole = False
        suspended = False
        blocked = True
        if (tracer is not None and parent_rec is not None
                and stop_index is None):
            blocked = self._elision_blocked()
        if not blocked:
            # A policy-chosen snapshot charges the sim clock mid-run
            # (the recording's run had no such charge), so behavior
            # past the snapshot point may lawfully diverge: elide at
            # most up to and including the snapshot op, never the
            # whole run.
            plan_end = end
            if snapshot_op_index is not None:
                plan_end = min(plan_end, snapshot_op_index + 1)
            plan = self._plan_elision(ops, start, plan_end, parent_rec)
            if plan is not None:
                elide_until, elide_whole = plan
                if snapshot_op_index is not None:
                    elide_whole = False
                tracer.elide_suspend()
                suspended = True
        rec: Optional[TraceRecording] = None
        if record and tracer is not None and stop_index is None:
            if start == 0:
                rec = TraceRecording(ops=tuple(ops))
            elif not blocked:
                # Suffix run: record relative to the node, stitchable
                # onto the capture run's recording if the input turns
                # out novel.
                rec = TraceRecording(ops=tuple(ops), origin=start,
                                     base=parent_rec)
        self._rec_in_progress = rec
        if start == 0:
            self.interceptor.reset_for_test()
        took_first_point = False
        values = values_preassigned
        spec_nodes = self.op_handlers
        reached = start
        for index in range(start, end):
            if suspended and not elide_whole and index == elide_until:
                self._elide_resume(parent_rec, start, index, rec)
                suspended = False
            if rec is not None and not suspended:
                rec.marks.append(tracer.stream_pos()
                                 + tracer.prefix_site_count)
                rec.ijon_marks.append(tracer.ijon_snapshot())
            op = ops[index]
            if op.is_snapshot_marker():
                snapshots = machine.snapshots
                stack = (self.max_chain_depth > 1
                         and snapshots.incremental_active
                         and bool(self._chain_nodes)
                         and snapshots.base_depth == snapshots.chain_depth)
                if stack and snapshots.chain_depth >= self.max_chain_depth:
                    # Chain-enabled marker past the depth cap: fold the
                    # deepest layer first so the chain stays bounded.
                    snapshots.commit_overlay()
                    self._chain_nodes.pop(-2)
                self._capture_node(input_, index + 1, values, stack)
                reached = index + 1
                continue
            handler = spec_nodes.get(op.node)
            if handler is not None:
                conn = op.refs[0] if op.refs else None
                # Per-op fault isolation is the contract: one bad op
                # must not abort the rest of the test case, so the
                # handler genuinely needs its own except scope.
                try:  # nyx: allow[NYX074]
                    handler(self, op, conn)
                except (GuestError, KeyError, ValueError):
                    # Ill-formed mutation (bad conn ref, closed conn):
                    # the op is a no-op, like a packet to a dead socket.
                    pass
            values += _outputs_of(op)
            result.ops_executed += 1
            if op.node == "packet":
                result.packets_sent += 1
            kernel.run()
            reached = index + 1
            if kernel.crash_reports:
                break
            if deadline is not None and machine.clock.now >= deadline:
                result.timed_out = True
                break
            if snapshot_op_index is not None and index == snapshot_op_index:
                # Later placement points stack overlays on the node
                # below them.
                self._capture_node(input_, index + 1, values,
                                   took_first_point)
                took_first_point = True
                if rec is not None:
                    rec.charge_points.append(index + 1)
                snapshot_op_index = (later_points.pop(0) if later_points
                                     else None)
        if suspended and not elide_whole:
            # The loop broke (crash/timeout) before the planned resume
            # boundary: seed what was covered and trace the drain live.
            self._elide_resume(parent_rec, start, reached, rec)
            suspended = False
        if rec is not None and not suspended:
            # Final boundary: where the op loop exited (a whole-run
            # elision copies it with the rest of the recording's marks).
            rec.marks.append(tracer.stream_pos()
                             + tracer.prefix_site_count)
            rec.ijon_marks.append(tracer.ijon_snapshot())
        if not result.timed_out:
            # Let the target finish pending work (responses, cleanup).
            kernel.run()
        kernel.watchdog = None
        if kernel.crash_reports:
            result.crash = kernel.crash_reports[0]
            kernel.crash_reports.clear()
        if suspended:
            # Whole-run elision: the recording covers the drain too.
            self._elide_resume(parent_rec, start, None, rec)
            suspended = False
        if tracer is not None:
            result.trace = tracer.take_trace()
            if rec is not None:
                rec.packed = tracer.last_packed
                rec.final_ijon = tracer.ijon_snapshot()
                rec.complete = (reached == end == len(ops)
                                and result.crash is None
                                and not result.timed_out)
                result.recording = rec
        self._rec_in_progress = None
        result.exec_time = machine.clock.now - t0
        result.packets_consumed = (self.interceptor.stats_packets
                                   - packets_before)
        self.execs += 1
        # Reset for the next test: the state churn of this execution is
        # what the reset pays for.  (A timed-out or fault-ridden run is
        # wiped away exactly like any other — that is the whole point
        # of snapshot fuzzing.)
        kernel.flush_to_memory()
        machine.reset_for_next_test()
        return result

    def _capture_node(self, input_: FuzzInput, resume_index: int,
                      values: int, stack: bool) -> None:
        """Capture a chain node at the current position: stacked on the
        deepest node when ``stack``, else as a fresh depth-1 snapshot
        replacing any live chain."""
        self.kernel.flush_to_memory()
        snapshots = self.machine.snapshots
        rec = self._rec_in_progress
        if rec is not None and rec.origin:
            # Captured inside a suffix run: no from-root recording.
            rec = None
        if not stack:
            self._chain_nodes = []
            if snapshots.incremental_active:
                snapshots.discard_incremental()
        self.machine.push_overlay()
        self._chain_nodes.append(_SuffixState(
            resume_index=resume_index,
            conns={conn_id: conn.copy() for conn_id, conn
                   in self.interceptor._conns.items()},
            sid_to_conn=dict(self.interceptor._sid_to_conn),
            values_produced=values,
            base_input=input_.copy(),
            snapshot_op_index=resume_index - 1,
            capture_rec=rec,
        ))

    @property
    def chain_node_count(self) -> int:
        """Live chain nodes available to resume from."""
        return len(self._chain_nodes)

    def chain_resume_index(self, depth: int) -> Optional[int]:
        """Op index suffix runs from node ``depth`` resume at."""
        if 1 <= depth <= len(self._chain_nodes):
            return self._chain_nodes[depth - 1].resume_index
        return None

    def discard_chain(self) -> None:
        """Drop every chain node and the snapshot chain behind them."""
        self._chain_nodes = []
        self.machine.snapshots.discard_incremental()

    def finish_snapshot_cycle(self) -> None:  # nyx: hot
        """Discard the snapshot chain and return to the root
        ("as soon as Nyx-Net wants to schedule another input, the
        incremental snapshot is discarded", §3.4)."""
        self.discard_chain()
        self.kernel.flush_to_memory()
        self.machine.restore_root()


def _outputs_of(op) -> int:
    """Connections produced by an op (default spec: connection=1)."""
    return 1 if op.node == "connection" else 0


# ----------------------------------------------------------------------
# default op handlers (the generic network spec)
# ----------------------------------------------------------------------


def _handle_connection(executor: NyxExecutor, op, conn: Optional[int]) -> None:
    # The new connection's id is the index of the value it produces,
    # which equals the number of connections opened so far this test.
    conn_id = len(executor.interceptor._conns)
    executor.interceptor.open_connection(conn_id)


def _handle_packet(executor: NyxExecutor, op, conn: Optional[int]) -> None:
    payload = op.args[0] if op.args else b""
    executor.interceptor.queue_packet(conn or 0, bytes(payload))


def _handle_shutdown(executor: NyxExecutor, op, conn: Optional[int]) -> None:
    executor.interceptor.close_connection(conn or 0)
