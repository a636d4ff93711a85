"""One benchmark repeat, run in its own process.

    python3 perfbench/child.py --workload NAME --mode MODE --seeds A,B,...

``--mode timed`` runs every listed shard untraced and reports its
set-up and loop wall times; ``traced`` installs the span wrappers first
and reports per-layer attribution; ``sanitize`` runs the first shard
with the NYX05x reset sanitizer armed.  The last stdout line is one
JSON object.  A fresh process per repeat keeps the peak resident set
the workload's own.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import pickle
import resource
import sys
from dataclasses import asdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.perf.timers import wall_now  # noqa: E402

import workloads  # noqa: E402
from shards import Campaign  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_DIR = pathlib.Path(__file__).resolve().parent / ".run"

#: The sanitizer pass digests the object graph this often (in execs).
SANITIZE_EVERY = 100

#: Host-speed calibration.  The host this benchmark was tuned on is a
#: shared VM whose speed drifts by tens of percent within a second, so
#: the timed loop pauses at the first step boundary after every
#: SEGMENT_S of wall time and times one fixed pure-Python calibration
#: sample (dict traffic and a pickle round trip: the fuzzer's own mix).
#: A segment's host-speed factor is the mean of the samples on either
#: side over the reference; normalised time is raw time over that
#: factor, so a host where the sample takes the reference time reads
#: unchanged.  Pauses are excluded from every timed figure.
SEGMENT_S = 0.1
REFERENCE_CALIBRATION_S = 0.004
_CALIBRATION_BLOB = pickle.dumps({"ops": list(range(64)),
                                  "payload": b"x" * 256, "name": "probe"})


def _calibration_sample() -> float:
    start = wall_now()
    table: dict = {}
    get = table.get
    for i in range(20000):
        key = i % 997
        table[key] = get(key, 0) + i
        if i % 50 == 0:
            pickle.loads(_CALIBRATION_BLOB)
    return wall_now() - start


class PacedClock:
    """Times a loop in host-speed-calibrated segments."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.normalized_s = 0.0
        self._last_sample = _calibration_sample()
        self._start = wall_now()

    def _close_segment(self, now: float) -> None:
        elapsed = now - self._start
        sample = _calibration_sample()
        factor = (self._last_sample + sample) / (2 * REFERENCE_CALIBRATION_S)
        self._last_sample = sample
        self.raw_s += elapsed
        self.normalized_s += elapsed / factor

    def tick(self) -> None:
        now = wall_now()
        if now - self._start >= SEGMENT_S:
            self._close_segment(now)
            self._start = wall_now()

    def stop(self) -> None:
        self._close_segment(wall_now())


def _workdir(workload: str, seed: int) -> pathlib.Path:
    return RUN_DIR / ("%s-%d-%d" % (workload, os.getpid(), seed))


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_shard(name: str, seed: int) -> dict:
    campaign = Campaign(WORKLOADS[name], seed, _workdir(name, seed))
    try:
        setup = PacedClock()
        campaign.setup()
        setup.stop()
        loop = PacedClock()
        campaign.loop(loop.tick)
        loop.stop()
        row = asdict(campaign.result())
    finally:
        campaign.close()
    row["setup_s"] = setup.raw_s
    row["setup_norm_s"] = setup.normalized_s
    row["loop_s"] = loop.raw_s
    row["loop_norm_s"] = loop.normalized_s
    return row


def run_timed(name: str, seeds) -> dict:
    shards = []
    for seed in seeds:
        # The previous campaign is unreachable by now; collect its
        # cycles so that campaigns never share the peak resident set.
        gc.collect()
        shards.append(_timed_shard(name, seed))
    return {"shards": shards, "peak_rss_mb": _peak_rss_mb()}


def _public_counters(campaign: Campaign) -> dict:
    """Cumulative public counters summed over the campaign's VMs."""
    out = {"pages_dirtied": 0, "remirrors": 0, "packets": 0,
           "elisions": 0, "rebuilds": 0, "fold_evictions": 0}
    for machine in campaign.machines():
        stats = machine.stats()
        out["pages_dirtied"] += stats["pages_ever_dirtied"]
        out["remirrors"] += stats["remirrors"]
    for interceptor in campaign.interceptors():
        out["packets"] += interceptor.stats_packets
    for executor in campaign.executors():
        out["elisions"] += executor.prefix_elisions
        out["rebuilds"] += executor.snapshot_rebuilds
        if executor.tracer is not None:
            out["fold_evictions"] += executor.tracer.fold_evictions
    return out


def run_traced(name: str, seeds) -> dict:
    import spans
    recorder = spans.SpanRecorder()
    # Before any campaign exists: see the module docstring of spans.
    spans.install(recorder)
    groups: dict = {}
    counters: dict = {}
    wall = 0.0
    loop_execs = 0
    queue_size = 0
    closure = []
    shards = []
    for seed in seeds:
        gc.collect()
        recorder.reset()
        campaign = Campaign(WORKLOADS[name], seed, _workdir(name, seed))
        try:
            campaign.setup()
            before = _public_counters(campaign)
            # The traced loop runs unpaced (a pause would land inside the
            # root span), so it is one segment: host speed is sampled
            # only right before and right after it.
            clock = PacedClock()
            _, shard_wall = recorder.run_root(campaign.loop)
            clock.stop()
            after = _public_counters(campaign)
            row = asdict(campaign.result())
            row["loop_s"] = shard_wall
            row["loop_norm_s"] = shard_wall * clock.normalized_s / clock.raw_s
            queue_size += campaign.corpus_size()
        finally:
            campaign.close()
        shards.append(row)
        attributed = recorder.attribute()
        total_self = sum(g["self_s"] for g in attributed.values())
        closure.append(abs(total_self - shard_wall) / shard_wall)
        for group, values in attributed.items():
            acc = groups.setdefault(group, {"calls": 0, "self_s": 0.0})
            acc["calls"] += values["calls"]
            acc["self_s"] += values["self_s"]
        for key, value in recorder.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key in before:
            counters["public." + key] = (counters.get("public." + key, 0)
                                         + after[key] - before[key])
        wall += shard_wall
        loop_execs += row["loop_execs"]
    return {"shards": shards, "groups": groups, "counters": counters,
            "wall_s": wall, "loop_execs": loop_execs,
            "queue_size": queue_size, "closure_error": max(closure)}


def run_sanitize(name: str, seeds) -> dict:
    seed = seeds[0]
    campaign = Campaign(WORKLOADS[name], seed, _workdir(name, seed),
                        sanitize_every=SANITIZE_EVERY)
    try:
        campaign.setup()
        campaign.loop()
        stats = campaign.stats
        findings = campaign.handles.fuzzer.sanitizer_findings
    finally:
        campaign.close()
    return {"seed": seed, "checks": stats.sanitizer_checks,
            "leaks": stats.sanitizer_leaks,
            "findings": sorted({d.code for d in findings})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "sanitize"))
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--execs", type=int, default=None,
                        help="override execs per campaign (smoke test)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.execs is not None:
        workloads.override_execs(args.workload, args.execs)
    mode = {"timed": run_timed, "traced": run_traced,
            "sanitize": run_sanitize}[args.mode]
    payload = mode(args.workload, seeds)
    try:
        RUN_DIR.rmdir()
    except OSError:
        pass  # another repeat's directory, or never created
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
