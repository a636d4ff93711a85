"""The benchmark's four campaign workloads.

Each workload is a set of seeded campaigns ("shards").  One benchmark
run with ``--seed n`` runs shards with campaign seeds ``n * 100 + i``:
a single campaign's wall throughput depends strongly on its seed (which
packet the policy snapshots after decides how long every suffix exec
is), so one run averages over several campaigns instead of trusting
one trajectory.

Every campaign is a closed loop: one fuzzer in one process and one
thread starts an exec only after the previous one completed.  The
parallel workload's two workers interleave inside that same thread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target: str
    policy: str
    #: Snapshot chain depth (1 = the paper's single incremental one).
    depth: int
    #: Campaigns per run, and execs per campaign (seed imports count).
    shards: int
    execs: int
    deep_seed: bool = False
    workers: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "http_root",
        "lighttpd, aggressive, depth 1, profile seeds of <=4 packets: "
        "every exec runs from the root, so per-exec fixed costs "
        "(mutate, root reset, kernel pickle round trip, fold) dominate",
        "lighttpd", "aggressive", 1, shards=10, execs=1500),
    Workload(
        "ftp_deep_d1",
        "lightftp, 22-packet session seed, balanced, depth 1: the "
        "paper's single incremental snapshot; long suffixes make guest "
        "execution dominate and the chain layer idles",
        "lightftp", "balanced", 1, shards=12, execs=500, deep_seed=True),
    Workload(
        "ftp_deep_d4",
        "same seed with bandit placement at chain depth 4: pushes, hops "
        "between and commits overlays; chain or bandit changes show "
        "here against ftp_deep_d1",
        "lightftp", "bandit", 4, shards=16, execs=500, deep_seed=True),
    Workload(
        "http_durable_par",
        "http_root mix on 2 workers over one shared root, journaled "
        "with fsync and periodic checkpoints: the only workload where "
        "fuzz.parallel and fuzz.journal work",
        "lighttpd", "aggressive", 1, shards=5, execs=3000, workers=2),
)}


def shard_seeds(workload: Workload, seed: int) -> List[int]:
    return [seed * 100 + i for i in range(workload.shards)]


def override_execs(name: str, execs: int) -> None:
    """Shrink a workload's campaigns (the smoke test's tiny runs)."""
    WORKLOADS[name] = dataclasses.replace(WORKLOADS[name], execs=execs)
