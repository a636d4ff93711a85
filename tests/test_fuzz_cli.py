"""One ``repro fuzz`` path: plain and durable, single and fleet runs.

Every run builds its campaign from one manifest, runs it through the
campaign protocol, prints one report and saves through one
``save_campaign`` — so the durable layer may add files (journal,
checkpoints, ``final.json``) but never changes what the campaign is.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.fuzz.parallel import ParallelCampaign

#: Lines only one of the two paths prints: its header, the plain
#: run's save line, the durable run's durability/completion lines.
_PATH_LINES = ("fuzzing ", "durable campaign ", "saved ", "durability: ",
               "campaign complete;")


def _tree(directory):
    """``{relative path: bytes}`` of a directory's files."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _stats_checksum(out, workers):
    """sha1 of the canonical JSON of ``stats.json`` (a fleet's merged
    view) — ``stats_checksum`` as ``final.json`` records it."""
    stats = json.loads((out / "stats.json").read_text())
    if workers > 1:
        stats = stats["merged"]
    payload = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


class TestOnePath:
    @pytest.mark.parametrize("durable", [False, True],
                             ids=["plain", "durable"])
    def test_fleet_honours_no_asan(self, monkeypatch, tmp_path, durable):
        seen = []
        original = ParallelCampaign.__init__

        def spy(self, profile, config, seeds=None):
            seen.append(config.asan)
            original(self, profile, config, seeds=seeds)

        monkeypatch.setattr(ParallelCampaign, "__init__", spy)
        argv = ["fuzz", "lighttpd", "--workers", "2", "--no-asan",
                "--execs", "40", "--time", "5"]
        if durable:
            argv += ["--checkpoint-every", "20", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert seen == [False]

    @pytest.mark.parametrize("workers", [1, 2], ids=["single", "fleet"])
    def test_plain_and_durable_runs_agree(self, capsys, tmp_path, workers):
        argv = ["fuzz", "lighttpd", "--seed", "3", "--execs", "600",
                "--workers", str(workers)]
        plain, durable = tmp_path / "plain", tmp_path / "durable"
        assert main(argv + ["--out", str(plain)]) == 0
        plain_out = capsys.readouterr().out
        assert main(argv + ["--checkpoint-every", "200",
                            "--out", str(durable)]) == 0
        durable_out = capsys.readouterr().out

        final = json.loads((durable / "final.json").read_text())
        assert _stats_checksum(plain, workers) == final["stats_checksum"]
        assert _stats_checksum(durable, workers) == final["stats_checksum"]

        def report(stdout):
            return [line for line in stdout.splitlines()
                    if not line.startswith(_PATH_LINES)]
        assert report(plain_out) == report(durable_out)
        assert report(plain_out)  # the summary at least

        for sub in ("queue", "crashes"):
            assert _tree(plain / sub) == _tree(durable / sub)
        assert _tree(plain / "queue")
