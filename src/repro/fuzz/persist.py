"""Corpus and crash persistence.

Campaigns can save their queue and unique crashes to a directory (one
flat-bytecode file per input, like Nyx's share-folder layout) and
resume later campaigns from it.  Useful for long-running work and for
shipping reproducers.

Layout::

    <dir>/queue/id_000000.nyx       flat bytecode (spec-checked on load)
    <dir>/crashes/<dedup-key>.nyx   the first input triggering each bug
    <dir>/crashes/<dedup-key>.fastest.nyx  fastest reproducer (if distinct)
    <dir>/crashes/<dedup-key>.txt   human-readable crash report
    <dir>/stats.json                the campaign's stats (see save_campaign)

All files are written atomically (temp file + ``os.replace``) so a
campaign killed mid-save never leaves a half-written corpus behind;
:func:`load_corpus` skips anything unreadable with a warning instead
of refusing to resume.
"""

from __future__ import annotations

import json
import os
import pathlib
import warnings
from typing import List, Optional

from repro.fuzz.crash import first_crashes
from repro.fuzz.input import FuzzInput
from repro.spec.bytecode import SpecError, deserialize, serialize
from repro.spec.nodes import Spec, default_network_spec


def _fsync_dir(directory: pathlib.Path) -> None:
    """Flush a directory entry to disk; best-effort on platforms that
    refuse to open directories (the rename is still atomic there)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(path: pathlib.Path, data: bytes) -> None:
    """Write-temp-then-rename, durably.

    Readers never observe a partial file (rename is atomic), and the
    data survives power loss, not just process death: the temp file is
    fsync'd before the rename and the parent directory entry after it.
    The temp name carries the writer's pid so two processes persisting
    the same path never clobber each other's in-flight temp file.
    """
    tmp = path.with_name("%s.tmp.%d" % (path.name, os.getpid()))
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _crash_report_text(record) -> str:
    text = ("bug:      %s\nkind:     %s\ndetail:   %s\nfound_at: %.3f "
            "(simulated seconds)\ncount:    %d\n"
            % (record.report.bug_id, record.report.kind.value,
               record.report.detail, record.found_at, record.count))
    if record.fastest_exec_time is not None:
        text += "fastest:  %.6f (simulated seconds)\n" % record.fastest_exec_time
    return text


def _write_crash_record(crash_dir: pathlib.Path, key: str, record,
                        spec: Spec) -> int:
    """Write one unique bug's reproducers and report; returns files."""
    safe = key.replace(":", "_").replace("/", "_")
    written = 0
    first_blob = None
    if record.input is not None:
        try:
            first_blob = serialize(spec, record.input.ops)
            _atomic_write_bytes(crash_dir / (safe + ".nyx"), first_blob)
            written += 1
        except SpecError:
            pass
    if record.fastest_input is not None:
        try:
            fastest_blob = serialize(spec, record.fastest_input.ops)
            if fastest_blob != first_blob:
                _atomic_write_bytes(crash_dir / (safe + ".fastest.nyx"),
                                    fastest_blob)
                written += 1
        except SpecError:
            pass
    _atomic_write_text(crash_dir / (safe + ".txt"),
                       _crash_report_text(record))
    return written + 1


def save_campaign(campaign, directory: str,
                  spec: Optional[Spec] = None) -> int:
    """Persist a campaign's corpus, crashes and stats; returns files
    written.

    ``campaign`` speaks the campaign protocol: a lone
    :class:`~repro.fuzz.fuzzer.NyxNetFuzzer` is a campaign of one, a
    :class:`~repro.fuzz.parallel.ParallelCampaign` a fleet.  The
    fuzzers' corpora merge into one queue numbered from ``id_000000``
    (dedup by serialized bytecode — fleet peers share imported
    entries, which would otherwise be written N times), ``crashes/``
    keeps each bug's earliest discovery
    (:func:`~repro.fuzz.crash.first_crashes`), and ``stats.json`` holds
    ``campaign.result().as_dict()``: a single campaign's
    :class:`~repro.fuzz.stats.CampaignStats` view — the one
    ``stats_checksum`` hashes, so its keys are ``final_edges``,
    ``crashes_found``/``crash_times``, ``end_time`` and ``queue_size``
    where older files had ``edges``, ``crashes``, ``sim_seconds`` and
    ``queue`` — or a fleet's :class:`~repro.fuzz.stats.AggregateStats`
    (``merged`` plus per-worker ``workers``) with its shared-root
    ``footprint``.  The layout stays loadable by :func:`load_corpus`.
    """
    spec = spec or default_network_spec()
    root = pathlib.Path(directory)
    queue_dir = root / "queue"
    crash_dir = root / "crashes"
    queue_dir.mkdir(parents=True, exist_ok=True)
    crash_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    seen_blobs = set()
    for fuzzer in campaign.fuzzers:
        for entry in fuzzer.corpus.entries:
            try:
                blob = serialize(spec, entry.input.ops)
            except SpecError:
                continue  # inputs from foreign specs are skipped
            if blob in seen_blobs:
                continue
            # Number before recording the blob so the queue starts at
            # id_000000.
            index = len(seen_blobs)
            seen_blobs.add(blob)
            _atomic_write_bytes(queue_dir / ("id_%06d.nyx" % index), blob)
            written += 1
    for key, record in first_crashes(campaign).items():
        written += _write_crash_record(crash_dir, key, record, spec)
    payload = campaign.result().as_dict()
    if campaign.durable_kind == "parallel":
        payload["footprint"] = campaign.unique_page_footprint()
    _atomic_write_text(root / "stats.json",
                       json.dumps(payload, indent=2, sort_keys=True))
    return written + 1


def load_corpus(directory: str, spec: Optional[Spec] = None,
                limit: Optional[int] = None,
                repair: bool = True) -> List[FuzzInput]:
    """Load persisted queue entries as seed inputs.

    Entries that decode but fail affine validation (a foreign tool's
    corpus, damage introduced before the atomic-write era) are run
    through the static analyzer's fix-its — ill-typed ops dropped,
    dead ops eliminated, snapshot markers normalized — and loaded with
    origin ``"repaired"`` instead of being refused (``repair=False``
    restores the old skip behaviour).  Structurally corrupt or
    unreadable files are still skipped with a warning: a damaged
    corpus directory degrades to a smaller seed set, never a refused
    resume.
    """
    spec = spec or default_network_spec()
    queue_dir = pathlib.Path(directory) / "queue"
    seeds: List[FuzzInput] = []
    if not queue_dir.is_dir():
        return seeds
    for path in sorted(queue_dir.glob("*.nyx")):
        try:
            blob = path.read_bytes()
        except OSError as err:
            warnings.warn("skipping unreadable corpus entry %s in %s: %s"
                          % (path.name, directory, err))
            continue
        try:
            ops = deserialize(spec, blob)
            seeds.append(FuzzInput(ops, origin="persisted"))
        except (SpecError, ValueError) as err:
            repaired = None
            if repair:
                from repro.analysis.fixes import repair_blob
                repaired = repair_blob(spec, blob)
            if repaired is None:
                warnings.warn("skipping unreadable corpus entry %s in %s: %s"
                              % (path.name, directory, err))
                continue  # corrupt or foreign file: skip, never crash
            warnings.warn("repaired damaged corpus entry %s in %s (%s)"
                          % (path.name, directory, err))
            seeds.append(FuzzInput(repaired, origin="repaired"))
        if limit is not None and len(seeds) >= limit:
            break
    return seeds
