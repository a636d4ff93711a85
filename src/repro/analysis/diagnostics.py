"""The diagnostics engine: rule codes, severities, reports.

Every analyzer in :mod:`repro.analysis` emits :class:`Diagnostic`
records carrying a stable ``NYX0xx`` rule code, a severity, a source
location (a file, a line for source lints, an op index for corpus
lints) and — when the finding is mechanically repairable — a
``fixable`` flag.  A :class:`Report` aggregates diagnostics across
analyzers, renders them for humans, serializes them to JSON for CI,
and decides the process exit code (non-zero iff an *unfixed* error
remains).

Rule families::

    NYX00x  spec lint        (repro.analysis.speclint)
    NYX01x  op-sequence lint (repro.analysis.oplint)
    NYX02x  determinism self-lint (repro.analysis.selflint)
    NYX03x  corpus audit     (repro.analysis.corpus)
    NYX04x  reset-safety lint (repro.analysis.resetlint)
    NYX05x  runtime reset sanitizer (repro.analysis.sanitizer)
    NYX06x  durability lint (repro.analysis.durlint) and runtime
            checkpoint verifier (repro.analysis.statediff)
    NYX07x  hot-path lint (repro.analysis.hotlint) and sim-cost
            profiler (repro.perf.profiler)

:data:`FAMILIES` records each family's reserved code range;
:func:`validate_registry` is the self-test that keeps new rule codes
from colliding across families.

The source lints share one inline-annotation grammar, parsed here so
every pass agrees on it byte-for-byte:

* ``# nyx: allow[NYX043, reset]`` — suppress rule codes, family
  tokens (``reset``/``state``/``hot``) or family aliases
  (``NYX06x``/``NYX07x``) on the finding line (or the ``def``/
  ``class`` line for a whole scope, where a lint supports it);
* ``# nyx: state[memory]`` / ``# nyx: state[ephemeral]`` — state
  classification markers (resetlint / durlint);
* ``# nyx: hot`` — hot-path root annotation (hotlint).
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set


class Severity(Enum):
    """How bad a finding is; ERROR gates CI."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: code -> (one-line title, default severity).  Titles double as the
#: rule catalog in docs/analysis.md; codes are stable across releases.
RULES: Dict[str, tuple] = {
    # -- spec lint ---------------------------------------------------------
    "NYX001": ("edge type is borrowed/consumed but no node produces it",
               Severity.ERROR),
    "NYX002": ("edge type is produced but never borrowed or consumed "
               "(values of it are dead by construction)", Severity.WARNING),
    "NYX003": ("node type can never appear in a well-typed sequence "
               "(operand edge types are transitively unproducible)",
               Severity.ERROR),
    "NYX004": ("node id or name collides (duplicate id, reserved snapshot "
               "id 0xFFFF, or the reserved name 'snapshot')", Severity.ERROR),
    "NYX005": ("data fields have no mutator coverage (no byte-vector "
               "field for havoc to target)", Severity.INFO),
    # -- op-sequence / corpus dataflow lint --------------------------------
    "NYX010": ("dead output: value is produced but never borrowed or "
               "consumed", Severity.WARNING),
    "NYX011": ("unobservable tail op: effect-free producer after the "
               "last attack-surface write", Severity.WARNING),
    "NYX012": ("snapshot marker misplaced or redundant", Severity.WARNING),
    "NYX013": ("affine/type violation (bad ref, wrong edge type, "
               "double consume, bad arity)", Severity.ERROR),
    "NYX014": ("input writes nothing to the attack surface (burns an "
               "execution for no coverage)", Severity.WARNING),
    # -- determinism self-lint ---------------------------------------------
    "NYX020": ("wall-clock access outside sim/ (time.time & friends "
               "break deterministic interleaving)", Severity.ERROR),
    "NYX021": ("host randomness outside sim/ (use "
               "repro.sim.rng.DeterministicRandom)", Severity.ERROR),
    "NYX022": ("OS entropy outside sim/ (os.urandom/uuid/secrets break "
               "bit-identical reruns)", Severity.ERROR),
    "NYX023": ("iteration over an unordered set (order varies across "
               "processes; sort first)", Severity.ERROR),
    "NYX024": ("module failed to parse; determinism cannot be audited",
               Severity.ERROR),
    # -- corpus audit ------------------------------------------------------
    "NYX030": ("corpus entry is structurally corrupt (bad magic, "
               "truncated header or body)", Severity.ERROR),
    "NYX031": ("corpus entry was built for a different spec (foreign "
               "checksum; cannot audit or repair)", Severity.WARNING),
    # -- reset-safety lint --------------------------------------------------
    "NYX040": ("mutable state with no reset path: attribute is mutated "
               "after __init__ but its class has no reset/restore method "
               "and no snapshot coverage", Severity.ERROR),
    "NYX041": ("module-global mutable container in a guest-visible module "
               "(caches survive every snapshot reset)", Severity.ERROR),
    "NYX042": ("class-level mutable container (shared across instances; "
               "survives every snapshot reset)", Severity.ERROR),
    "NYX043": ("reset method skips an attribute: state mutated per-exec "
               "is never restored by the class's reset path",
               Severity.ERROR),
    "NYX044": ("snapshot restore hook keeps mutable state: attribute "
               "survives on_root_restore/on_incremental_restore",
               Severity.WARNING),
    "NYX045": ("module failed to parse; reset safety cannot be audited",
               Severity.ERROR),
    # -- runtime reset sanitizer -------------------------------------------
    "NYX050": ("reset leak: attribute path diverged from the "
               "post-root-snapshot digest after a restore", Severity.ERROR),
    "NYX051": ("reset leak: attribute path appeared or disappeared "
               "after a restore", Severity.ERROR),
    "NYX052": ("sanitizer digest truncated at the depth cap; part of the "
               "object graph is unaudited", Severity.INFO),
    # -- durability lint / checkpoint verifier ------------------------------
    "NYX060": ("mutable attribute never captured: state mutated after "
               "__init__ does not travel through snapshot_state",
               Severity.ERROR),
    "NYX061": ("snapshot/restore asymmetry: key captured but never "
               "restored, or restored but never captured", Severity.ERROR),
    "NYX062": ("capture set changed without a STATE_FORMAT bump (stale "
               "tests/golden/state_inventory.json)", Severity.ERROR),
    "NYX063": ("non-deterministically-serializable leaf: set/dict-order "
               "or object identity reaches the pickled state",
               Severity.ERROR),
    "NYX064": ("journal frame kind appended without a matching "
               "resume/salvage handler registration", Severity.ERROR),
    "NYX065": ("checkpoint fixpoint violation: snapshot -> restore -> "
               "re-snapshot changed the structural digest", Severity.ERROR),
    "NYX066": ("checkpoint divergence: a fresh process restoring the "
               "checkpoint and re-stepping did not reproduce the parent's "
               "state", Severity.ERROR),
    # -- hot-path lint / sim-cost profiler -----------------------------------
    "NYX070": ("per-iteration allocation in a hot loop (constant "
               "bytes/str/container rebuilt every pass)", Severity.ERROR),
    "NYX071": ("per-draw RNG byte building in a hot loop where the "
               "batched some_bytes API exists", Severity.ERROR),
    "NYX072": ("repeated attribute load in a hot loop body; bind a "
               "local alias before the loop", Severity.WARNING),
    "NYX073": ("redundant full-buffer copy on a hot path (whole-slice "
               "copy or pickle round-trip)", Severity.WARNING),
    "NYX074": ("try/except or generator indirection inside the "
               "innermost hot loop", Severity.WARNING),
    "NYX075": ("unresolvable call edge or misplaced '# nyx: hot' "
               "annotation", Severity.ERROR),
    "NYX076": ("hot-site budget drift vs the committed profile baseline "
               "(tests/golden/profile_baseline.json)", Severity.ERROR),
    "NYX077": ("profile/static disagreement: top-decile sim-cost site "
               "carries no '# nyx: hot' root coverage", Severity.ERROR),
}

#: family prefix -> (inclusive numeric code range, owning module).  A
#: new rule family claims its decade here; :func:`validate_registry`
#: rejects duplicate codes, codes outside their family's range, and
#: overlapping family ranges.
FAMILIES: Dict[str, tuple] = {
    "spec lint": ((0, 9), "repro.analysis.speclint"),
    "op-sequence lint": ((10, 19), "repro.analysis.oplint"),
    "determinism self-lint": ((20, 29), "repro.analysis.selflint"),
    "corpus audit": ((30, 39), "repro.analysis.corpus"),
    "reset-safety lint": ((40, 49), "repro.analysis.resetlint"),
    "runtime reset sanitizer": ((50, 59), "repro.analysis.sanitizer"),
    "durability lint": ((60, 69), "repro.analysis.durlint"),
    "hot-path lint": ((70, 79), "repro.analysis.hotlint"),
}


# ---------------------------------------------------------------------------
# shared inline-annotation grammar
# ---------------------------------------------------------------------------

#: ``# nyx: allow[...]`` with a comma list of rule codes, family tokens
#: and family aliases.  One regex for every lint: a suppression that
#: selflint parses but resetlint would not is a bug class this module
#: exists to prevent.
ALLOW_RE = re.compile(r"nyx:\s*allow\[([A-Za-z0-9,\s]+)\]")

#: marker name -> recognizer for the non-suppression annotations.
MARKER_RES: Dict[str, "re.Pattern[str]"] = {
    "hot": re.compile(r"nyx:\s*hot\b"),
    "state[memory]": re.compile(r"nyx:\s*state\[memory\]"),
    "state[ephemeral]": re.compile(r"nyx:\s*state\[ephemeral\]"),
}


def allow_tokens(lines: Sequence[str], lineno: int) -> Set[str]:
    """Tokens of a ``# nyx: allow[...]`` comment on line ``lineno``.

    ``lines`` is the module's splitlines() output; an out-of-range or
    unannotated line yields the empty set.
    """
    if not 1 <= lineno <= len(lines):
        return set()
    match = ALLOW_RE.search(lines[lineno - 1])
    if not match:
        return set()
    return {tok.strip() for tok in match.group(1).split(",") if tok.strip()}


def suppressed(lines: Sequence[str], code: str, *linenos: int,
               family: Iterable[str] = ()) -> bool:
    """Does a ``# nyx: allow[...]`` on any of ``linenos`` (the finding
    line, and the ``def``/``class`` lines where a lint honours them)
    name ``code`` or one of the ``family`` tokens?"""
    accepted = {code, *family}
    return any(accepted & allow_tokens(lines, lineno) for lineno in linenos)


def has_marker(lines: Sequence[str], lineno: int, marker: str) -> bool:
    """Is the ``# nyx: <marker>`` annotation present on ``lineno``?"""
    if not 1 <= lineno <= len(lines):
        return False
    return bool(MARKER_RES[marker].search(lines[lineno - 1]))


def validate_registry(rules: Optional[Dict[str, tuple]] = None,
                      families: Optional[Dict[str, tuple]] = None) -> None:
    """Self-test of the rule registry; raises ``ValueError`` on drift.

    Checks (defaulting to the live :data:`RULES`/:data:`FAMILIES`):

    * every code is well-formed (``NYX`` + 3 digits) and unique;
    * every code falls inside exactly one family's reserved range;
    * no two family ranges overlap.

    Runs as part of the analyze CLI and as a tier-1 test, so a rule
    family landed in two PRs cannot silently claim the same decade.
    """
    rules = RULES if rules is None else rules
    families = FAMILIES if families is None else families
    ranges = sorted((rng, name) for name, (rng, _mod) in families.items())
    for (lo, hi), name in ranges:
        if lo > hi:
            raise ValueError("family %r has inverted range %r"
                             % (name, (lo, hi)))
    for ((_lo1, hi1), name1), ((lo2, _hi2), name2) in zip(ranges, ranges[1:]):
        if lo2 <= hi1:
            raise ValueError("family ranges overlap: %r and %r"
                             % (name1, name2))
    seen: Dict[int, str] = {}
    for code in rules:
        if (len(code) != 6 or not code.startswith("NYX")
                or not code[3:].isdigit()):
            raise ValueError("malformed rule code %r" % code)
        number = int(code[3:])
        if number in seen:
            raise ValueError("duplicate rule code %r" % code)
        seen[number] = code
        if not any(lo <= number <= hi for (lo, hi), _name in ranges):
            raise ValueError("rule code %r belongs to no registered "
                             "family range" % code)


@dataclass
class Diagnostic:
    """One finding."""

    code: str
    message: str
    severity: Optional[Severity] = None
    #: Source location: a path for source/corpus findings, a synthetic
    #: "spec:<name>" for spec findings.
    file: Optional[str] = None
    line: Optional[int] = None
    #: Position in an op sequence, for corpus/oplint findings.
    op_index: Optional[int] = None
    #: True when apply_fixes() can repair this finding mechanically.
    fixable: bool = False
    #: Set by the fixer once the repair has been applied and verified.
    fixed: bool = False

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError("unknown rule code %r" % self.code)
        if self.severity is None:
            self.severity = RULES[self.code][1]

    def location(self) -> str:
        parts = []
        if self.file:
            parts.append("%s:%d" % (self.file, self.line) if self.line
                         else self.file)
        if self.op_index is not None:
            parts.append("op %d" % self.op_index)
        return " ".join(parts)

    def format(self) -> str:
        loc = self.location()
        tail = ""
        if self.fixed:
            tail = " [fixed]"
        elif self.fixable:
            tail = " [fixable]"
        return "%s %-7s %s%s%s" % (self.code, self.severity.value,
                                   (loc + ": ") if loc else "",
                                   self.message, tail)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "title": RULES[self.code][0],
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "op_index": self.op_index,
            "fixable": self.fixable,
            "fixed": self.fixed,
        }


@dataclass
class Report:
    """All findings of one ``repro analyze`` run."""

    tool: str = "repro-analyze"
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Free-form audit metadata (files scanned, entries repaired, ...).
    meta: Dict[str, Any] = field(default_factory=dict)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def count(self, severity: Severity, include_fixed: bool = True) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity
                   and (include_fixed or not d.fixed))

    @property
    def unfixed_errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR and not d.fixed]

    def exit_code(self) -> int:
        """Non-zero iff an error-severity finding was not repaired."""
        return 1 if self.unfixed_errors else 0

    # -- rendering ---------------------------------------------------------

    def format_text(self) -> str:
        lines = [d.format() for d in self.diagnostics]
        lines.append(
            "%d error(s), %d warning(s), %d info (%d finding(s) fixed)"
            % (self.count(Severity.ERROR), self.count(Severity.WARNING),
               self.count(Severity.INFO),
               sum(1 for d in self.diagnostics if d.fixed)))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "tool": self.tool,
            "findings": [d.as_dict() for d in self.diagnostics],
            "summary": {
                "errors": self.count(Severity.ERROR),
                "warnings": self.count(Severity.WARNING),
                "info": self.count(Severity.INFO),
                "fixed": sum(1 for d in self.diagnostics if d.fixed),
                "exit_code": self.exit_code(),
            },
            "meta": dict(sorted(self.meta.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write_json(self, path: str) -> None:
        target = pathlib.Path(path)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(self.to_json() + "\n", encoding="utf-8")
        tmp.replace(target)
