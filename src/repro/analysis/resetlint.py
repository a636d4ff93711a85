"""Reset-safety lint (NYX04x): static audit of the snapshot machinery.

Nyx's execution model rests on one invariant (PAPER §3): *every* piece
of guest-visible and emulator-side mutable state is rolled back by the
root/incremental snapshot reset, so consecutive executions are
independent.  Guest state is covered by construction — it lives in
:class:`~repro.vm.memory.GuestMemory` pages or device ``fields()`` and
is restored wholesale.  Host-side Python objects (the kernel wrapper,
the interceptor, the fault injector) are *not*: any attribute they
mutate per-exec must be re-initialised by a reset method on the
executor's reset path, or coverage feedback silently corrupts the way
SnapFuzz/StateAFL describe.

This pass reads the per-class mutable-state records that a
:class:`~repro.analysis.source.SourceIndex` builds for ``vm/``,
``guestos/``, ``emu/`` and ``faults/``, classifying each attribute as
*covered* or *leaking*:

* **covered** — the attribute is (re)assigned in a reset-family method
  (name starts with ``reset``/``restore``/``reload``, or is the device
  protocol's ``load_fields``), or the class is marked
  ``# nyx: state[memory]`` (instances are serialized into guest memory
  by ``Kernel.flush_to_memory`` and rebuilt by ``reload_from_memory``,
  so the snapshot itself restores them);
* **leaking** — mutated after ``__init__`` with no reset path: NYX040
  (class has no reset method at all), NYX043 (the reset method exists
  but skips the attribute), NYX044 (class hooks snapshot restores via
  ``on_root_restore``/``on_incremental_restore`` yet keeps state).
  Module-global mutable containers (NYX041) and class-level mutable
  containers (NYX042) leak by construction.

Deliberate cross-reset state — cumulative fuzzer-facing counters,
one-way latches, the snapshot bookkeeping itself — is suppressed
inline with ``# nyx: allow[reset]`` (whole family) or
``# nyx: allow[NYX043]`` (one rule), on the attribute's defining line
or on the ``class`` line for a whole class.  Every suppression should
carry a justification comment.

The lint sees only ``self.attr`` accesses inside the owning class;
state mutated exclusively through another object's reference is
invisible here — the runtime sanitizer (:mod:`.sanitizer`, NYX05x) is
the backstop for that.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import (Diagnostic, allow_tokens, has_marker,
                                        suppressed)
from repro.analysis.source import (MUTATING_METHODS, AttrRecord, ClassRecord,
                                   SourceModule, as_index, is_mutable_value,
                                   module_of_text)

#: Packages (relative to the scanned root) that hold snapshot-covered
#: machinery and its host-side drivers.
SCAN_DIRS = ("vm", "guestos", "emu", "faults")

#: Family token accepted by ``# nyx: allow[...]`` alongside rule codes.
FAMILY_TOKEN = "reset"
FAMILY = (FAMILY_TOKEN,)


def _is_dunder(name: str) -> bool:
    """Module-protocol names (``__all__`` & co) are not caches."""
    return name.startswith("__") and name.endswith("__")


def _global_mutations(tree: ast.Module, tracked: Set[str]
                      ) -> List[Tuple[int, str]]:
    """``(line, name)`` mutation events on the module-level names
    ``tracked``, outside the function scopes that shadow them."""
    found: List[Tuple[int, str]] = []

    def visit(node: ast.AST, shadowed: Set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shadowed = shadowed | _locally_bound(node)
        found.extend(_name_mutations(node, tracked - shadowed))
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    for stmt in tree.body:
        visit(stmt, set())
    return sorted(found)


def _locally_bound(node) -> Set[str]:
    """Names a function scope binds (params, assignments, loop
    targets) and therefore hides from the module scope — unless
    declared ``global``."""
    bound: Set[str] = set()
    arg_nodes = (node.args.posonlyargs + node.args.args
                 + node.args.kwonlyargs)
    bound.update(a.arg for a in arg_nodes)
    if node.args.vararg:
        bound.add(node.args.vararg.arg)
    if node.args.kwarg:
        bound.add(node.args.kwarg.arg)
    declared_global: Set[str] = set()

    def binding_names(target: ast.AST):
        # Only genuine *bindings* shadow the module scope.  A
        # ``cache[k] = v`` / ``cache.field = v`` target mutates the
        # module-level container, it does not rebind the name.
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, ast.Starred):
            yield from binding_names(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from binding_names(elt)

    for inner in ast.walk(node):
        if isinstance(inner, ast.Global):
            declared_global.update(inner.names)
        elif isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (inner.targets if isinstance(inner, ast.Assign)
                       else [inner.target])
            for target in targets:
                bound.update(binding_names(target))
        elif isinstance(inner, ast.For):
            bound.update(binding_names(inner.target))
    return bound - declared_global


def _name_mutations(node: ast.AST, names: Set[str]):
    """Mutation events (``x[k]=``, ``x.append()``, ``x += ...``) on
    bare names in ``names``, for this one node (no recursion)."""
    def base_name(expr: ast.AST) -> Optional[str]:
        while isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    if not names:
        return
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                name = base_name(target)
                if name in names:
                    yield target.lineno, name
    elif isinstance(node, ast.AugAssign):
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            name = base_name(node.target)
            if name in names:
                yield node.target.lineno, name
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            name = base_name(func.value)
            if name in names:
                yield node.lineno, name


def _class_diags(record: ClassRecord,
                 module: SourceModule) -> List[Diagnostic]:
    filename, lines = module.filename, module.lines
    diags: List[Diagnostic] = []
    for line, name in record.class_containers:
        if suppressed(lines, "NYX042", line, record.line, family=FAMILY):
            continue
        diags.append(Diagnostic(
            "NYX042",
            "%s.%s is a class-level mutable container: shared across "
            "instances and untouched by any snapshot reset"
            % (record.name, name), file=filename, line=line))
    if (suppressed(lines, FAMILY_TOKEN, record.line)
            or has_marker(lines, record.line, "state[memory]")):
        return diags
    for attr in record.leaking_attrs():
        mut_line, mut_method = attr.mutations[0]
        where = "%s() line %d" % (mut_method, mut_line)
        if record.reset_methods:
            code = "NYX043"
            message = ("%s.%s is mutated per-exec (%s) but %s() never "
                       "resets it; state leaks across snapshot resets"
                       % (record.name, attr.name, where,
                          "/".join(sorted(set(record.reset_methods)))))
            fixable = True
        elif record.restore_hooks:
            code = "NYX044"
            message = ("%s.%s is mutated (%s) and survives %s; hook "
                       "classes must restore or justify their state"
                       % (record.name, attr.name, where,
                          "/".join(sorted(set(record.restore_hooks)))))
            fixable = False
        else:
            code = "NYX040"
            message = ("%s.%s is mutated (%s) but the class has no "
                       "reset/restore method and no snapshot coverage"
                       % (record.name, attr.name, where))
            fixable = True
        anchor = attr.anchor_line or record.line
        if suppressed(lines, code, anchor, record.line, family=FAMILY):
            continue
        diags.append(Diagnostic(code, message, file=filename, line=anchor,
                                fixable=fixable))
    return diags


def _module_diags(module: SourceModule) -> List[Diagnostic]:
    if module.tree is None:
        return [module.parse_failure("NYX045")]
    lines = module.lines
    # name -> definition line of module-level mutable containers.
    globals_ = {b.name: b.line for b in module.bindings
                if not _is_dunder(b.name) and b.value is not None
                and is_mutable_value(b.value)}
    mutations = (_global_mutations(module.tree, set(globals_))
                 if globals_ else [])
    mutated_globals = {name for _line, name in mutations}
    diags: List[Diagnostic] = []
    for name in sorted(globals_):
        line = globals_[name]
        if name.isupper() and name not in mutated_globals:
            continue  # unmutated ALL_CAPS container: a constant
        if suppressed(lines, "NYX041", line, family=FAMILY):
            continue
        detail = ("mutated at line %d"
                  % min(l for l, n in mutations if n == name)
                  if name in mutated_globals else "a module-global cache")
        diags.append(Diagnostic(
            "NYX041",
            "module-global mutable container %r (%s) survives every "
            "snapshot reset" % (name, detail), file=module.filename,
            line=line))
    for record in module.classes:
        diags.extend(_class_diags(record, module))
    diags.sort(key=lambda d: (d.line or 0, d.code))
    return diags


def analyze_reset_source(filename: str, text: str) -> List[Diagnostic]:
    """Reset-safety lint of one module's source."""
    return _module_diags(module_of_text(filename, text))


def analyze_reset_tree(root) -> List[Diagnostic]:
    """Lint ``vm/``, ``guestos/``, ``emu/`` and ``faults/`` under
    ``root`` (or, for fixture trees without those packages, every
    ``.py`` file under ``root``)."""
    return [diag for module in as_index(root).within(SCAN_DIRS)
            for diag in _module_diags(module)]


# ---------------------------------------------------------------------------
# fix-it stubs
# ---------------------------------------------------------------------------

def _default_expr(attr: AttrRecord) -> str:
    if attr.init_value is None:
        return "...  # TODO: no __init__ default recorded"
    try:
        return ast.unparse(attr.init_value)
    except Exception:  # pragma: no cover - exotic nodes
        return "...  # TODO: unprintable default"


def _module_stubs(module: SourceModule) -> Dict[str, str]:
    if module.tree is None:
        return {}
    stubs: Dict[str, str] = {}
    for record in module.classes:
        diags = _class_diags(record, module)
        leaking = {d.line for d in diags
                   if d.code in ("NYX040", "NYX043", "NYX044")}
        attrs = [a for a in record.leaking_attrs()
                 if (a.anchor_line or record.line) in leaking]
        if not attrs:
            continue
        body = ["        self.%s = %s" % (a.name, _default_expr(a))
                for a in attrs]
        if record.reset_methods:
            header = ["    # add to %s.%s():"
                      % (record.name, record.reset_methods[0])]
        else:
            header = ["    def reset_for_test(self) -> None:",
                      '        """Re-initialise per-exec state '
                      '(generated stub)."""']
        stubs[record.name] = "\n".join(header + body) + "\n"
    return stubs


def fixit_stubs(filename: str, text: str) -> Dict[str, str]:
    """Reset-assignment stubs for every leaking class, keyed by class.

    For a class that already has a reset method the stub lists the
    assignments to add to it; otherwise it is a complete
    ``reset_for_test`` method re-applying the ``__init__`` defaults.
    Defaults referencing ``__init__`` arguments need hand-editing.
    """
    return _module_stubs(module_of_text(filename, text))


def tree_fixit_stubs(root) -> Dict[str, str]:
    """Fix-it stubs for every leaking class under ``root``, keyed
    ``<path>::<Class>``."""
    stubs: Dict[str, str] = {}
    for module in as_index(root).within(SCAN_DIRS):
        for cls, stub in sorted(_module_stubs(module).items()):
            stubs["%s::%s" % (module.filename, cls)] = stub
    return stubs


# ---------------------------------------------------------------------------
# shared registry for the runtime sanitizer
# ---------------------------------------------------------------------------

def allowed_reset_attrs(root) -> Set[Tuple[str, str]]:
    """``(class, attr)`` pairs suppressed with ``# nyx: allow[...]``.

    The runtime sanitizer skips exactly these when digesting the
    object graph, so static suppressions and runtime expectations stay
    one registry.  A class-line allow yields ``(Class, "*")``.
    """
    allowed: Set[Tuple[str, str]] = set()
    for module in as_index(root).within(SCAN_DIRS):
        for record in module.classes:
            if allow_tokens(module.lines, record.line):
                allowed.add((record.name, "*"))
            for attr in record.attrs.values():
                anchor = attr.anchor_line
                if anchor and allow_tokens(module.lines, anchor):
                    allowed.add((record.name, attr.name))
    return allowed
