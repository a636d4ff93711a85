"""Durability lint (NYX06x): state-capture completeness analysis.

Every class on the checkpoint path exposes a ``snapshot_state``/
``restore_state`` pair (the executor's ``durable_state``/
``restore_durable_state``) whose pickled output is what crosses process
death.  One new mutable attribute that never travels silently breaks
bit-identical resume, the drift StateAFL-style state inference
(PAPERS.md) shows is fatal and SnapFuzz avoids by making capture a
*checked* invariant.  This pass is the static half of that check (the
runtime half is :mod:`repro.analysis.statediff`).  It runs over every
module of a :class:`~repro.analysis.source.SourceIndex`, layered on the
index's per-class mutable-state records:

* **NYX060** — an attribute mutated after ``__init__`` is neither read
  by the snapshot method nor re-initialised by the restore method;
* **NYX061** — a key is captured but never restored, or the reverse;
* **NYX062** — the capture set changed against the committed
  ``tests/golden/state_inventory.json`` without a ``STATE_FORMAT`` bump;
* **NYX063** — a ``set`` (or ``id()``) reaches the pickled state, so two
  snapshots of equal state can differ byte-wise;
* **NYX064** — a journal frame kind is appended without a matching
  entry in the ``FRAME_KINDS`` resume/salvage registry.

``# nyx: state[ephemeral]`` on an attribute's defining line marks
host-side state that is rebuilt, re-armed or recounted on resume by
design (caches, perf counters, the sanitizer hook).  ``# nyx:
allow[NYX060]`` (one rule) or ``allow[state]``/``allow[NYX06x]`` (the
family) suppresses, on the finding line or the ``class`` line.  Every
suppression should carry a justification comment.
"""

from __future__ import annotations

import ast
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, has_marker, suppressed
from repro.analysis.resetlint import _default_expr
from repro.analysis.source import (Binding, ClassRecord, SourceIndex,
                                   SourceModule, as_index, direct_self_attr,
                                   module_of_text)

#: snapshot-method name -> its restore counterpart.
STATE_PAIRS: Dict[str, str] = {
    "snapshot_state": "restore_state",
    "durable_state": "restore_durable_state",
}
#: Family token accepted by ``# nyx: allow[...]``; ``NYX06x`` is the
#: spelled-out family alias.
FAMILY_TOKEN = "state"
FAMILY_ALIAS = "NYX06x"
FAMILY = (FAMILY_TOKEN, FAMILY_ALIAS)
#: Default golden inventory location, relative to the repo root (two
#: levels above an analyzed ``src/<package>`` tree).
GOLDEN_INVENTORY = pathlib.Path("tests") / "golden" / "state_inventory.json"


# ---------------------------------------------------------------------------
# per-class capture scan (layered on the index's class records)
# ---------------------------------------------------------------------------

def _int_constant(bindings: List[Binding], name: str) -> Optional[int]:
    """The last plain ``name = <int>`` among ``bindings``."""
    value = None
    for binding in bindings:
        if (binding.name == name and not binding.annotated
                and isinstance(binding.value, ast.Constant)
                and isinstance(binding.value.value, int)):
            value = binding.value.value
    return value


def _self_reads(node: ast.AST, self_name: str) -> Set[str]:
    """Every ``self.X`` attribute mentioned anywhere under ``node``."""
    reads: Set[str] = set()
    for inner in ast.walk(node):
        direct = direct_self_attr(inner, self_name)
        if direct is not None:
            reads.add(direct)
    return reads


def _str_keys(expr: ast.AST, names: Optional[Set[str]]):
    """``(line, key)`` for ``name["key"]`` subscripts and
    ``name.get("key")`` calls under ``expr``; ``names=None`` accepts
    any receiver name."""
    for node in ast.walk(expr):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and (names is None or node.value.id in names)):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                yield node.lineno, sl.value
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"
              and isinstance(node.func.value, ast.Name)
              and (names is None or node.func.value.id in names)
              and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)):
            yield node.lineno, node.args[0].value


def _nondet_line(expr: ast.AST) -> Optional[int]:
    """Line of the first non-deterministically-serializable construct
    under ``expr`` (set literals/comps, ``set()``/``frozenset()``,
    ``id()``), or ``None``.  A top-level ``sorted(...)`` normalizes its
    argument, so the whole expression is clean."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id == "sorted":
            return None
    for node in ast.walk(expr):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return node.lineno
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name in ("set", "frozenset", "id"):
                return node.lineno
    return None


@dataclass
class _DurClass:
    """Capture-completeness view of one class with a state pair."""

    record: ClassRecord
    #: snapshot-method name -> method node (only pairs present).
    snapshots: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    restores: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: ``self.X`` attrs any snapshot method reads.
    snapshot_reads: Set[str] = field(default_factory=set)
    #: attrs any restore method writes or mutates in place.
    restore_handled: Set[str] = field(default_factory=set)
    #: key -> (line, value expr) from the snapshot dict literal(s);
    #: ``None`` when no snapshot method returns a direct dict literal.
    captured: Optional[Dict[str, Tuple[int, ast.AST]]] = None
    #: keys read off the restore method's state parameter.
    restored_keys: Dict[str, int] = field(default_factory=dict)
    #: keys read off *any* name inside restore (nested sub-dicts).
    consumed_keys: Set[str] = field(default_factory=set)
    #: class-body ``STATE_FORMAT = <int>`` value.
    state_format: Optional[int] = None

    def pair_names(self) -> str:
        names = sorted(set(self.snapshots) | {STATE_PAIRS[s] for s in
                                              self.snapshots})
        return "/".join(names) if names else "restore"


def _dur_class(record: ClassRecord) -> Optional[_DurClass]:
    dur = _DurClass(record=record,
                    state_format=_int_constant(record.bindings,
                                              "STATE_FORMAT"))
    restore_names = {v: k for k, v in STATE_PAIRS.items()}
    for method in record.methods:
        stmt = method.node
        if not isinstance(stmt, ast.FunctionDef) or not method.receiver:
            continue
        if stmt.name in STATE_PAIRS:
            dur.snapshots[stmt.name] = stmt
            dur.snapshot_reads |= _self_reads(stmt, method.receiver)
            for inner in ast.walk(stmt):
                if (isinstance(inner, ast.Return)
                        and isinstance(inner.value, ast.Dict)):
                    if dur.captured is None:
                        dur.captured = {}
                    for key, value in zip(inner.value.keys,
                                          inner.value.values):
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)):
                            dur.captured.setdefault(
                                key.value, (key.lineno, value))
        elif stmt.name in restore_names:
            dur.restores[stmt.name] = stmt
            scan = method.scan
            dur.restore_handled |= {name for _l, name, _v in scan.writes}
            dur.restore_handled |= {name for _l, name in scan.mutations}
            args = stmt.args.posonlyargs + stmt.args.args
            state_param = {args[1].arg} if len(args) > 1 else set()
            for line, key in _str_keys(stmt, state_param):
                dur.restored_keys.setdefault(key, line)
            dur.consumed_keys |= {k for _l, k in _str_keys(stmt, None)}
    if not dur.snapshots and not dur.restores:
        return None
    return dur


# ---------------------------------------------------------------------------
# per-class diagnostics
# ---------------------------------------------------------------------------

def _class_diags(dur: _DurClass, module: SourceModule) -> List[Diagnostic]:
    record = dur.record
    filename, lines = module.filename, module.lines
    diags: List[Diagnostic] = []
    if suppressed(lines, "NYX060", record.line, family=FAMILY):
        pass
    elif dur.snapshots:
        # NYX060: mutated attribute that neither travels through the
        # snapshot nor is re-initialised by the restore.
        for name in sorted(record.attrs):
            attr = record.attrs[name]
            if not attr.mutations:
                continue
            if name in dur.snapshot_reads or name in dur.restore_handled:
                continue
            anchor = attr.anchor_line or record.line
            if has_marker(lines, anchor, "state[ephemeral]"):
                continue
            if suppressed(lines, "NYX060", anchor, record.line, family=FAMILY):
                continue
            mut_line, mut_method = attr.mutations[0]
            diags.append(Diagnostic(
                "NYX060",
                "%s.%s is mutated (%s() line %d) but %s never captures "
                "or restores it; resumed campaigns silently diverge"
                % (record.name, name, mut_method, mut_line,
                   dur.pair_names()),
                file=filename, line=anchor, fixable=True))
    # NYX061: capture/restore key asymmetry.
    if dur.captured is not None:
        if not dur.restores:
            for key in sorted(dur.captured):
                line = dur.captured[key][0]
                if suppressed(lines, "NYX061", line, record.line,
                              family=FAMILY):
                    continue
                diags.append(Diagnostic(
                    "NYX061",
                    "%s captures key %r but the class has no restore "
                    "method" % (record.name, key),
                    file=filename, line=line))
        else:
            for key in sorted(dur.captured):
                if key in dur.consumed_keys:
                    continue
                line = dur.captured[key][0]
                if suppressed(lines, "NYX061", line, record.line,
                              family=FAMILY):
                    continue
                diags.append(Diagnostic(
                    "NYX061",
                    "%s.%s captures key %r but %s never reads it"
                    % (record.name, "/".join(sorted(dur.snapshots)), key,
                       "/".join(sorted(dur.restores)) + "()"),
                    file=filename, line=line))
    for key in sorted(dur.restored_keys):
        if dur.captured is not None and key in dur.captured:
            continue
        if dur.captured is None and dur.snapshots:
            continue  # opaque snapshot body: nothing to compare against
        line = dur.restored_keys[key]
        if suppressed(lines, "NYX061", line, record.line, family=FAMILY):
            continue
        what = ("%s() never captures it"
                % "/".join(sorted(dur.snapshots)) if dur.snapshots
                else "the class has no snapshot method")
        diags.append(Diagnostic(
            "NYX061",
            "%s.%s reads key %r but %s"
            % (record.name, "/".join(sorted(dur.restores)), key, what),
            file=filename, line=line))
    # NYX063: non-deterministic serialization leaves.
    if dur.captured is not None:
        for key in sorted(dur.captured):
            line, value = dur.captured[key]
            bad_line = _nondet_line(value)
            if bad_line is None:
                direct = None
                for stmt in dur.snapshots.values():
                    args = stmt.args.posonlyargs + stmt.args.args
                    direct = direct_self_attr(value, args[0].arg)
                    if direct is not None:
                        break
                if direct is not None:
                    attr = record.attrs.get(direct)
                    if (attr is not None and attr.init_value is not None
                            and _nondet_line(attr.init_value) is not None):
                        bad_line = value.lineno
            if bad_line is None:
                continue
            if suppressed(lines, "NYX063", bad_line, record.line,
                          family=FAMILY):
                continue
            diags.append(Diagnostic(
                "NYX063",
                "%s snapshot key %r serializes a set (iteration order "
                "varies across processes); capture sorted(...) instead"
                % (record.name, key),
                file=filename, line=bad_line, fixable=True))
    return diags


# ---------------------------------------------------------------------------
# journal frame-kind registry audit (NYX064)
# ---------------------------------------------------------------------------

def _journal_appends(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, kind)`` of every ``<journal>.append("kind", body, ...)``
    call: an append with >= 2 args, a string-constant first arg and a
    receiver chain naming a journal."""
    appends: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and len(node.args) >= 2
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        chain: List[str] = []
        receiver = node.func.value
        while isinstance(receiver, ast.Attribute):
            chain.append(receiver.attr)
            receiver = receiver.value
        if isinstance(receiver, ast.Name):
            chain.append(receiver.id)
        if any("journal" in part.lower() for part in chain):
            appends.append((node.lineno, node.args[0].value))
    return appends


def _frame_kind_registry(bindings: List[Binding]) -> Optional[Set[str]]:
    """Keys of a module-level ``FRAME_KINDS = {...}`` dict literal
    (plain or annotated assignment)."""
    for binding in bindings:
        if (binding.name == "FRAME_KINDS"
                and isinstance(binding.value, ast.Dict)):
            return {k.value for k in binding.value.keys
                    if isinstance(k, ast.Constant)
                    and isinstance(k.value, str)}
    return None


# ---------------------------------------------------------------------------
# module / tree entry points
# ---------------------------------------------------------------------------

def _module_diags(module: SourceModule,
                  handled: Optional[Set[str]]) -> List[Diagnostic]:
    if module.tree is None:
        return [module.parse_failure(
            "NYX045", "; durability cannot be audited")]
    diags: List[Diagnostic] = []
    for dur in filter(None, map(_dur_class, module.classes)):
        diags.extend(_class_diags(dur, module))
    # NYX064: journal frame kinds without a FRAME_KINDS registration.
    for line, kind in _journal_appends(module.tree):
        if handled is not None and kind in handled:
            continue
        if suppressed(module.lines, "NYX064", line, family=FAMILY):
            continue
        detail = ("is not registered in FRAME_KINDS" if handled is not None
                  else "has no FRAME_KINDS registry to declare its "
                       "resume/salvage handling")
        diags.append(Diagnostic(
            "NYX064",
            "journal frame kind %r %s; resume would drop or choke on it"
            % (kind, detail), file=module.filename, line=line))
    return diags


def analyze_durability_source(filename: str, text: str,
                              handled_kinds: Optional[Set[str]] = None
                              ) -> List[Diagnostic]:
    """Durability lint of one module's source.

    ``handled_kinds`` is the cross-module union of ``FRAME_KINDS``
    registries; without one, the module's own registry (if any) is
    used, and appends with no registry in sight are all flagged.
    """
    module = module_of_text(filename, text)
    if handled_kinds is None:
        handled_kinds = _frame_kind_registry(module.bindings)
    diags = _module_diags(module, handled_kinds)
    diags.sort(key=lambda d: (d.line or 0, d.code))
    return diags


def state_inventory(root) -> Dict[str, Dict[str, object]]:
    """Capture-set inventory of every stateful class under ``root``.

    ``{Class: {"module": relpath, "keys": sorted snapshot keys,
    "state_format": int | None}}`` — the structure committed to
    ``tests/golden/state_inventory.json`` and diffed by NYX062.
    """
    inventory: Dict[str, Dict[str, object]] = {}
    for module in as_index(root).modules:
        if module.tree is None:
            continue
        for dur in filter(None, map(_dur_class, module.classes)):
            if dur.captured is None:
                continue
            fmt = dur.state_format
            if fmt is None:
                fmt = _int_constant(module.bindings, "STATE_FORMAT")
            inventory[dur.record.name] = {
                "module": module.rel.as_posix(),
                "keys": sorted(dur.captured),
                "state_format": fmt,
            }
    return inventory


def _load_golden(root: pathlib.Path,
                 golden: Optional[str]) -> Tuple[Optional[dict],
                                                 Optional[str]]:
    """The golden inventory and its path: ``golden`` when given, else
    the one that belongs to the analyzed tree, never one found through
    the working directory (a fixture tree has no golden)."""
    if golden is not None:
        path = pathlib.Path(golden)
    else:
        path = root.resolve().parent.parent / GOLDEN_INVENTORY
        try:
            path = path.relative_to(pathlib.Path.cwd())
        except ValueError:
            pass
    if not path.is_file():
        return None, None
    return json.loads(path.read_text(encoding="utf-8")), str(path)


def _golden_diags(index: SourceIndex, golden_path: Optional[str],
                  golden: dict) -> List[Diagnostic]:
    current = state_inventory(index)
    diags: List[Diagnostic] = []
    for name in sorted(set(current) | set(golden)):
        if name not in golden:
            diags.append(Diagnostic(
                "NYX062",
                "new stateful class %s (%s) is missing from the state "
                "inventory golden; regenerate %s"
                % (name, current[name]["module"], golden_path),
                file=str(current[name]["module"]), fixable=True))
            continue
        if name not in current:
            diags.append(Diagnostic(
                "NYX062",
                "class %s is in the state inventory golden but no longer "
                "in the tree; regenerate %s" % (name, golden_path),
                file=golden_path, fixable=True))
            continue
        want = golden[name]
        have = current[name]
        if list(want.get("keys", [])) == list(have["keys"]):
            continue
        added = sorted(set(have["keys"]) - set(want.get("keys", [])))
        removed = sorted(set(want.get("keys", [])) - set(have["keys"]))
        delta = "; ".join(
            part for part in
            ("adds %s" % ", ".join(map(repr, added)) if added else "",
             "drops %s" % ", ".join(map(repr, removed)) if removed else "")
            if part)
        if have["state_format"] == want.get("state_format"):
            diags.append(Diagnostic(
                "NYX062",
                "%s capture set changed (%s) without a STATE_FORMAT bump "
                "(still %r): old checkpoints would restore into the new "
                "layout" % (name, delta, have["state_format"]),
                file=str(have["module"])))
        else:
            diags.append(Diagnostic(
                "NYX062",
                "%s capture set changed (%s) and STATE_FORMAT was bumped "
                "(%r -> %r); regenerate the stale golden %s"
                % (name, delta, want.get("state_format"),
                   have["state_format"], golden_path),
                file=str(have["module"]), fixable=True))
    return diags


def analyze_durability_tree(root,
                            golden: Optional[str] = None
                            ) -> List[Diagnostic]:
    """Durability lint of every module under ``root`` plus the NYX062
    golden-inventory diff (skipped when no golden exists yet)."""
    index = as_index(root)
    handled: Optional[Set[str]] = None
    for module in index.modules:
        kinds = _frame_kind_registry(module.bindings)
        if kinds is not None:
            handled = (handled or set()) | kinds
    diags = [diag for module in index.modules
             for diag in _module_diags(module, handled)]
    golden_data, golden_path = _load_golden(index.root, golden)
    if golden_data is not None:
        diags.extend(_golden_diags(index, golden_path, golden_data))
    diags.sort(key=lambda d: (d.file or "", d.line or 0, d.code))
    return diags


# ---------------------------------------------------------------------------
# fix-it stubs
# ---------------------------------------------------------------------------

def durability_fixit_stubs(root) -> Dict[str, str]:
    """Capture/restore stubs for every NYX060 finding, keyed
    ``<path>::<Class>``.  Defaults referencing ``__init__`` arguments
    need hand-editing; attributes that are resume-ephemeral by design
    should get ``# nyx: state[ephemeral]`` instead."""
    stubs: Dict[str, str] = {}
    for module in as_index(root).modules:
        if module.tree is None:
            continue
        for dur in filter(None, map(_dur_class, module.classes)):
            missing = [d for d in _class_diags(dur, module)
                       if d.code == "NYX060"]
            if not missing or not dur.snapshots:
                continue
            record = dur.record
            anchors = {d.line for d in missing}
            attrs = [record.attrs[n] for n in sorted(record.attrs)
                     if (record.attrs[n].anchor_line or record.line)
                     in anchors and record.attrs[n].mutations]
            if not attrs:
                continue
            snap = sorted(dur.snapshots)[0]
            restore = STATE_PAIRS[snap]
            lines = ["    # add to %s.%s() dict:" % (record.name, snap)]
            lines += ['        "%s": self.%s,' % (a.name, a.name)
                      for a in attrs]
            lines += ["    # add to %s.%s():" % (record.name, restore)]
            lines += ['        self.%s = state["%s"]  # default: %s'
                      % (a.name, a.name, _default_expr(a)) for a in attrs]
            stubs["%s::%s" % (module.filename, record.name)] = (
                "\n".join(lines) + "\n")
    return stubs
