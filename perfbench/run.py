"""Campaign benchmark: end-to-end throughput, set-up time and memory,
plus outside-in per-layer attribution.

    python3 perfbench/run.py --workload http_root --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run first makes one untimed pass with the NYX05x
reset sanitizer armed (single-instance workloads), then repeats the
workload's campaigns untraced, each repeat in a fresh process, until
``--seconds`` are spent (at least two repeats).  It reports
``execs_per_s``, ``setup_s`` and ``peak_rss_mb`` as medians over the
repeats; failed execs over attempted execs go in the result's
``failed`` and ``attempted`` fields.

With ``--trace 1`` it alternates an untraced repeat with a traced one
(span wrappers installed from :mod:`spans`) and reports the per-layer
metrics listed in BENCHMARK.json, the tracing overhead and the closure
of layer self times against the traced wall.

Both modes check the outputs: every repeat of a campaign, traced or
not, must agree exactly on its stats checksum, final edges, crashes
and simulated exec rate; every requested exec must run; the durable
workload's ``final.json`` must carry the in-memory checksum.  Any
failure exits 1.  ``--workload all`` runs every workload in turn.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS, shard_seeds  # noqa: E402

#: Wall-clock cap on one invocation: children still running past it are
#: killed and the run fails rather than overrun a 180 s per-run budget.
DEADLINE_S = 170.0

#: Shard fields every repeat of a campaign must reproduce exactly.
CHECKED_FIELDS = ("stats_checksum", "final_edges", "crashes_found",
                  "sim_execs_per_s")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def _child(workload: str, mode: str, seeds: List[int], execs, clock,
           deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--mode", mode, "--seeds", ",".join(map(str, seeds))]
    if execs is not None:
        cmd += ["--execs", str(execs)]
    budget = deadline - clock()
    if budget <= 0:
        raise BenchError("out of time before the %s repeat" % mode)
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError("%s repeat of %s exceeded the time limit"
                         % (mode, workload))
    if proc.returncode != 0:
        raise BenchError("%s repeat of %s failed (exit %d):\n%s"
                         % (mode, workload, proc.returncode,
                            proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rate(payload: dict, normalize: bool = True) -> float:
    """Loop execs per second over one repeat's campaigns; normalized
    rates divide each campaign's loop time by its host-speed factor."""
    shards = payload["shards"]
    key = "loop_norm_s" if normalize else "loop_s"
    return sum(s["loop_execs"] for s in shards) / sum(s[key] for s in shards)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat (see BENCHMARK.json)."""
    g = traced["groups"]
    c = traced["counters"]
    execs = traced["loop_execs"]
    runs = c.get("executor.execs", 0)

    def calls(group):
        return g[group]["calls"]

    def self_s(*groups):
        return sum(g[group]["self_s"] for group in groups)

    return {
        "mutators.mutate.calls": calls("mutators.mutate"),
        "mutators.mutate.self_s": self_s("mutators.mutate"),
        "executor.run.calls": calls("executor.run"),
        "executor.self_s": self_s("executor.run", "executor.cycle"),
        "executor.ops_per_exec": _ratio(c.get("executor.ops", 0), runs),
        "executor.suffix_ratio": _ratio(c.get("executor.suffix_runs", 0),
                                        runs),
        "executor.elided_ratio": _ratio(c["public.elisions"], runs),
        "executor.rebuilds": c["public.rebuilds"],
        "kernel.run.calls": calls("kernel.run"),
        "kernel.run.self_s": self_s("kernel.run"),
        "kernel.flush.calls": calls("kernel.flush"),
        "kernel.flush.self_s": self_s("kernel.flush"),
        "kernel.reload.calls": calls("kernel.reload"),
        "kernel.reload.self_s": self_s("kernel.reload"),
        "snapshot.restore.calls": calls("snapshot.restore"),
        "snapshot.restore.self_s": self_s("snapshot.restore"),
        "snapshot.pages_per_restore": _ratio(
            c.get("snapshot.pages_restored", 0), calls("snapshot.restore")),
        "snapshot.create.calls": calls("snapshot.create"),
        "snapshot.create.self_s": self_s("snapshot.create"),
        "snapshot.discard.self_s": self_s("snapshot.discard"),
        "snapshot.chain_hops": c.get("snapshot.chain_hops", 0),
        "snapshot.remirrors": c["public.remirrors"],
        "memory.pages_dirtied_per_exec": _ratio(c["public.pages_dirtied"],
                                                execs),
        "interceptor.calls": calls("interceptor"),
        "interceptor.self_s": self_s("interceptor"),
        "interceptor.packets_per_exec": _ratio(c["public.packets"], execs),
        "tracer.fold.calls": calls("tracer.fold"),
        "tracer.fold.self_s": self_s("tracer.fold"),
        "tracer.fold_evictions": c["public.fold_evictions"],
        "bitmap.novelty.self_s": self_s("bitmap.novelty"),
        "bitmap.novel_ratio": _ratio(c.get("bitmap.novel", 0),
                                     calls("bitmap.novelty")),
        "queue.self_s": self_s("queue"),
        "queue.size": _ratio(traced["queue_size"], len(traced["shards"])),
        "policies.self_s": self_s("policies"),
        "parallel.sync.calls": calls("parallel.sync"),
        "parallel.sync.self_s": self_s("parallel.sync"),
        "parallel.broadcast": c.get("parallel.broadcast", 0),
        "journal.append.calls": calls("journal.append"),
        "journal.append.self_s": self_s("journal.append"),
        "journal.checkpoint.calls": calls("journal.checkpoint"),
        "journal.checkpoint.self_s": self_s("journal.checkpoint"),
        "journal.checkpoint.bytes": c.get("journal.checkpoint.bytes", 0),
        "journal.progress.self_s": self_s("journal.progress"),
        "other.self_s": self_s("other"),
        "trace.wall_s": traced["wall_s"],
        "trace.closure_error": traced["closure_error"],
    }


def check_outputs(workload: str, payloads: List[dict]) -> List[str]:
    """Correctness checks over every repeat of one invocation."""
    w = WORKLOADS[workload]
    problems = []
    first: Dict[int, dict] = {}
    for payload in payloads:
        for shard in payload["shards"]:
            seed = shard["seed"]
            ref = first.setdefault(seed, shard)
            for field in CHECKED_FIELDS:
                if shard[field] != ref[field]:
                    problems.append("campaign seed %d: %s differs between "
                                    "repeats (%r vs %r)" % (
                                        seed, field, ref[field],
                                        shard[field]))
            ran, asked = shard["executed"], shard["requested"]
            if ran < asked or (w.workers == 1 and ran != asked):
                problems.append("campaign seed %d ran %d of %d requested "
                                "execs" % (seed, ran, asked))
            final = shard["final_checksum"]
            if w.workers > 1 and final != shard["stats_checksum"]:
                problems.append("campaign seed %d: final.json checksum %s "
                                "!= in-memory %s" % (
                                    seed, final, shard["stats_checksum"]))
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 execs=None) -> dict:
    from repro.perf.timers import wall_now
    from spans import CLOSURE_TOLERANCE
    w = WORKLOADS[workload]
    seeds = shard_seeds(w, seed)
    deadline = wall_now() + DEADLINE_S
    problems: List[str] = []
    print("workload=%s seed=%d campaign_seeds=%s execs_per_campaign=%d"
          % (workload, seed, ",".join(map(str, seeds)),
             execs if execs is not None else w.execs))

    if not trace and w.workers == 1:
        san = _child(workload, "sanitize", seeds, execs, wall_now, deadline)
        print("reset sanitizer: campaign seed %d, %d checks, %d leaks %s"
              % (san["seed"], san["checks"], san["leaks"], san["findings"]))
        if san["checks"] < 1 or san["leaks"]:
            problems.append("reset sanitizer: %d checks, %d leaks %s"
                            % (san["checks"], san["leaks"], san["findings"]))

    # A round is one untraced repeat, plus one traced repeat under
    # --trace 1.  Rounds continue while the next one still fits in
    # --seconds (at least two repeats in all).
    timed: List[dict] = []
    traced: List[dict] = []
    min_rounds = 1 if trace else 2
    start = wall_now()
    while True:
        timed.append(_child(workload, "timed", seeds, execs, wall_now,
                            deadline))
        if trace:
            traced.append(_child(workload, "traced", seeds, execs, wall_now,
                                 deadline))
        spent = wall_now() - start
        if (len(timed) >= min_rounds
                and spent + spent / len(timed) > seconds):
            break

    problems += check_outputs(workload, timed + traced)
    shards = [s for p in timed + traced for s in p["shards"]]
    attempted = sum(max(s["requested"], s["executed"]) for s in shards)
    failed = sum(s["failed"] for s in shards)
    digest = hashlib.sha1(",".join(
        s["stats_checksum"] for s in timed[0]["shards"]).encode()).hexdigest()
    print("checksum=%s (sha1 over the campaigns' stats checksums: %s)"
          % (digest[:12], " ".join(s["stats_checksum"][:8]
                                    for s in timed[0]["shards"])))

    untraced_rate = statistics.median(_rate(p) for p in timed)
    if trace:
        rows = [layer_metrics(p) for p in traced]
        metrics = {name: statistics.median(row[name] for row in rows)
                   for name in rows[0]}
        metrics["trace.overhead_ratio"] = _ratio(
            untraced_rate, statistics.median(_rate(p) for p in traced))
        worst = max(row["trace.closure_error"] for row in rows)
        if worst > CLOSURE_TOLERANCE:
            problems.append("layer self times miss the traced wall by %.2f%% "
                            "(tolerance %.2f%%)" % (100 * worst,
                                                    100 * CLOSURE_TOLERANCE))
    else:
        metrics = {
            "execs_per_s": untraced_rate,
            "setup_s": statistics.median(s["setup_norm_s"] for p in timed
                                         for s in p["shards"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in timed),
        }
    raw_rate = statistics.median(_rate(p, normalize=False) for p in timed)
    print("repeats: %d untraced, %d traced; raw wall %.1f execs/s "
          "(host-speed factor %.3f); failed_ratio %d/%d execs"
          % (len(timed), len(traced), raw_rate,
             raw_rate and untraced_rate / raw_rate, failed, attempted))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--execs", type=int, default=None,
                        help="override execs per campaign (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = _units()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.execs)
        except BenchError as err:
            print("perfbench: %s" % err, file=sys.stderr)
            return 2
        result["metrics"] = {
            key: {"value": value, "unit": units[key]}
            for key, value in result["metrics"].items()}
        for key, entry in result["metrics"].items():
            print("  %-34s %14.6g %s" % (key, entry["value"], entry["unit"]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = name + "." if len(names) > 1 else ""
        for key, entry in result["metrics"].items():
            combined["metrics"][prefix + key] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
