"""Crash collection and deduplication.

The evaluation counts *unique bugs* per target (Table 1), so crashes
are deduplicated by their planted-bug identity plus crash kind —
the analogue of the paper's manual triage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.fuzz.input import FuzzInput
from repro.guestos.errors import CrashReport


@dataclass
class CrashRecord:
    """First occurrence of one unique bug."""

    report: CrashReport
    input: Optional[FuzzInput]
    found_at: float
    count: int = 1
    #: The *fastest* reproducing input seen so far (by exec time) —
    #: usually the better reproducer to ship than the first one found.
    fastest_input: Optional[FuzzInput] = None
    fastest_exec_time: Optional[float] = None


class CrashDatabase:
    """Unique-bug store for a campaign."""

    def __init__(self) -> None:
        self.records: Dict[str, CrashRecord] = {}

    def add(self, report: CrashReport, input_: Optional[FuzzInput],
            now: float, exec_time: Optional[float] = None) -> bool:
        """Record a crash; returns True if it is a new unique bug.

        ``exec_time`` (when the caller knows it) tracks the fastest
        reproducing input per unique bug across repeat occurrences.
        """
        key = report.dedup_key
        existing = self.records.get(key)
        if existing is not None:
            existing.count += 1
            self._maybe_faster(existing, input_, exec_time)
            return False
        record = CrashRecord(report, input_, now)
        self._maybe_faster(record, input_, exec_time)
        self.records[key] = record
        return True

    @staticmethod
    def _maybe_faster(record: CrashRecord, input_: Optional[FuzzInput],
                      exec_time: Optional[float]) -> None:
        if input_ is None or exec_time is None:
            return
        if (record.fastest_exec_time is None
                or exec_time < record.fastest_exec_time):
            record.fastest_exec_time = exec_time
            record.fastest_input = input_.copy()

    # -- durability (checkpoint/resume) ----------------------------------

    def snapshot_state(self) -> dict:
        """Picklable crash-DB state (see :mod:`repro.fuzz.journal`).

        The whole record map is checkpointed — ``count`` and the
        fastest-reproducer fields appear in the persisted crash
        reports, so a resumed campaign must carry them forward exactly.
        """
        return {"records": self.records}

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed crash DB."""
        self.records = dict(state["records"])

    @property
    def unique_bugs(self) -> List[str]:
        return sorted(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, key: str) -> bool:
        return key in self.records


def first_crashes(campaign) -> Dict[str, CrashRecord]:
    """Each unique bug's earliest record across a campaign's fuzzers.

    ``campaign`` speaks the campaign protocol: a lone fuzzer yields its
    own records, a fleet the earliest discovery of each bug over its
    workers (ties go to the lower worker).  Sorted by dedup key — the
    order reports, ``crashes/`` and ``final.json`` list them in.
    """
    first: Dict[str, CrashRecord] = {}
    for fuzzer in campaign.fuzzers:
        for key, record in fuzzer.crashes.records.items():
            kept = first.get(key)
            if kept is None or record.found_at < kept.found_at:
                first[key] = record
    return dict(sorted(first.items()))
