"""One benchmark campaign ("shard") of a workload: set-up, the measured
loop, and the public outcome the correctness checks compare."""

from __future__ import annotations

import json
import pathlib
import shutil
from dataclasses import dataclass
from typing import Callable, Optional

from repro.fuzz.journal import DurableParallelCampaign

from workloads import Workload

#: The parallel workload's corpus-sync period in simulated seconds.  The
#: 5.0 s default would almost never fire: a whole shard lasts well under
#: one simulated second.
PAR_SYNC_INTERVAL = 0.01

#: Journal checkpoint cadence of the parallel workload, in execs (the
#: durable driver's default).
PAR_CHECKPOINT_EVERY = 1000


class _TickingDurable(DurableParallelCampaign):
    """The durable driver, calling ``tick()`` after every worker slice."""

    def tick(self) -> None:
        pass

    def after_slice(self, campaign, worker) -> None:
        super().after_slice(campaign, worker)
        self.tick()


@dataclass
class ShardResult:
    """What one finished campaign reports, for the correctness checks."""

    seed: int
    requested: int
    executed: int
    loop_execs: int
    failed: int
    stats_checksum: str
    final_edges: int
    crashes_found: int
    sim_execs_per_s: float
    final_checksum: Optional[str] = None


class Campaign:
    """One assembled shard: ``setup()`` ends at the first mutated exec,
    ``loop()`` is the measured campaign loop, ``result()`` reads back
    the public outcome."""

    def __init__(self, workload: Workload, seed: int,
                 workdir: pathlib.Path,
                 sanitize_every: Optional[int] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.sanitize_every = sanitize_every
        self.handles = None
        self.parallel = None
        self.durable = None
        self.stats = None
        self.sim_rate = 0.0
        self.setup_execs = 0

    # -- the three phases -------------------------------------------------

    def setup(self) -> None:
        from repro.targets import PROFILES
        w = self.workload
        profile = PROFILES[w.target]
        seeds = None
        if w.deep_seed:
            from repro.perf.macro import deep_session_input
            seeds = [deep_session_input()]
        if w.workers == 1:
            from repro.fuzz.campaign import build_campaign
            self.handles = build_campaign(
                profile, policy=w.policy, seed=self.seed, time_budget=1e9,
                max_execs=w.execs, max_chain_depth=w.depth,
                sanitize_every=self.sanitize_every, seeds=seeds)
            self.handles.fuzzer.begin_campaign()
        else:
            from repro.fuzz.campaign import build_parallel_campaign
            from repro.fuzz.journal import campaign_manifest
            self.parallel = build_parallel_campaign(
                profile, workers=w.workers, policy=w.policy, seed=self.seed,
                time_budget=1e9, max_total_execs=w.execs,
                sync_interval=PAR_SYNC_INTERVAL, seeds=seeds)
            manifest = campaign_manifest(
                "parallel", w.target, policy=w.policy, seed=self.seed,
                time_budget=1e9, max_execs=w.execs,
                checkpoint_every=PAR_CHECKPOINT_EVERY, workers=w.workers,
                sync_interval=PAR_SYNC_INTERVAL)
            self.durable = _TickingDurable(
                self.parallel, self.workdir,
                checkpoint_every=PAR_CHECKPOINT_EVERY, manifest=manifest)
            self.parallel.start()
        self.setup_execs = self.execs()

    def loop(self, tick: Callable[[], None] = lambda: None) -> None:
        """Run the campaign to its cap, calling ``tick()`` between
        scheduling steps (parallel: between worker slices)."""
        if self.handles is not None:
            fuzzer = self.handles.fuzzer
            while fuzzer.step():
                tick()
            self.stats = fuzzer.finish_campaign()
        else:
            self.durable.tick = tick
            aggregate = self.durable.run()
            self.stats = aggregate.merged
            self.sim_rate = aggregate.execs_per_second()

    def result(self) -> ShardResult:
        from repro.perf.macro import stats_checksum
        stats = self.stats
        executed = stats.execs
        requested = self.workload.execs
        final_checksum = None
        if self.durable is not None:
            sim_rate = self.sim_rate
            final = json.loads((self.workdir / "final.json").read_text())
            final_checksum = final["stats_checksum"]
        else:
            sim_rate = stats.execs_per_second()
        # A failed exec: watchdog timeout, snapshot rebuild, worker step
        # failure, or a requested exec that never ran.  (The parallel
        # driver stops at the first slice boundary past its cap, so it
        # may run a few execs more than requested — never fewer.)
        failed = (stats.timeouts + stats.snapshot_rebuilds
                  + stats.worker_failures + max(0, requested - executed))
        return ShardResult(
            seed=self.seed, requested=requested, executed=executed,
            loop_execs=executed - self.setup_execs, failed=failed,
            stats_checksum=stats_checksum(stats),
            final_edges=stats.final_edges,
            crashes_found=stats.crashes_found,
            sim_execs_per_s=sim_rate, final_checksum=final_checksum)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- public views the traced run reads ------------------------------

    def execs(self) -> int:
        if self.handles is not None:
            return self.handles.fuzzer.stats.execs
        return self.parallel.total_execs()

    def machines(self) -> list:
        if self.handles is not None:
            return [self.handles.machine]
        return [w.machine for w in self.parallel.workers]

    def interceptors(self) -> list:
        if self.handles is not None:
            return [self.handles.interceptor]
        return [w.interceptor for w in self.parallel.workers]

    def executors(self) -> list:
        if self.handles is not None:
            return [self.handles.executor]
        return [w.executor for w in self.parallel.workers]

    def corpus_size(self) -> int:
        if self.handles is not None:
            return len(self.handles.fuzzer.corpus)
        return sum(len(w.fuzzer.corpus) for w in self.parallel.workers)


