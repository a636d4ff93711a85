"""One source index shared by every source lint.

The determinism (NYX02x), reset-safety (NYX04x), durability (NYX06x)
and hot-path (NYX07x) lints are rule functions over a
:class:`SourceIndex`: it lists a tree once, and reads, parses,
tokenizes (for ``# nyx: hot`` comments) and class-scans each module at
most once, on the first family that asks.  Each family picks
its files with a scope filter (:meth:`SourceIndex.within`,
:meth:`SourceIndex.outside`, or every module).
"""

from __future__ import annotations

import ast
import io
import os
import pathlib
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import MARKER_RES, Diagnostic

#: Method-name prefixes that put an assignment on the reset path.
RESET_PREFIXES = ("reset", "restore", "reload")
#: Exact method names that are also reset-family (device protocol).
RESET_NAMES = {"load_fields"}
#: Snapshot-restore hook names (NYX044).
RESTORE_HOOKS = {"on_root_restore", "on_incremental_restore"}
#: Container method calls that mutate the receiver in place.
MUTATING_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popleft", "popitem", "remove",
    "setdefault", "sort", "update",
}
#: Constructor names whose result is a mutable container.
MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "bytearray", "deque",
                        "defaultdict", "OrderedDict", "Counter"}

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_reset_family(name: str) -> bool:
    return name in RESET_NAMES or name.lstrip("_").startswith(RESET_PREFIXES)


def _is_staticmethod(node) -> bool:
    """A ``@staticmethod``'s first parameter is not ``self``; scanning
    it would misattribute parameter mutations to the class."""
    return any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
               for dec in node.decorator_list)


def is_mutable_value(expr: ast.AST) -> bool:
    """Does this expression build a mutable container?"""
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in MUTABLE_CONSTRUCTORS
    return False


def direct_self_attr(expr: ast.AST, self_name: str) -> Optional[str]:
    """``X`` of a plain ``self.X``, else ``None``."""
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self_name):
        return expr.attr
    return None


def _self_attr_base(expr: ast.AST, self_name: str) -> Optional[str]:
    """Container attribute of a subscript-only ``self.X[...]...``
    chain, else ``None``.

    ``self.conns[k]`` and ``self.grid[i][j]`` root at ``conns`` /
    ``grid`` — mutating the subscript mutates the container bound to
    ``self``.  ``self.kernel.field`` does **not** root at ``kernel``:
    that mutates the *other* object, which carries its own class audit
    (attribute hops cross an ownership boundary, subscripts don't).
    """
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    direct = direct_self_attr(node, self_name)
    return direct if node is not expr else None


class Binding(NamedTuple):
    """A body's ``name = value`` (``value`` is ``None`` for ``name: T``)."""

    line: int
    name: str
    value: Optional[ast.AST]
    annotated: bool


def _bindings(body: Sequence[ast.stmt]) -> List[Binding]:
    found: List[Binding] = []
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            found.extend(Binding(stmt.lineno, target.id, stmt.value, False)
                         for target in stmt.targets
                         if isinstance(target, ast.Name))
        elif (isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)):
            found.append(Binding(stmt.lineno, stmt.target.id, stmt.value,
                                 True))
    return found


# ---------------------------------------------------------------------------
# per-class mutable-state records
# ---------------------------------------------------------------------------

@dataclass
class AttrRecord:
    """One instance attribute of one class."""

    name: str
    #: Line of the ``__init__`` / class-body definition (0 = dynamic).
    defined_line: int = 0
    #: The ``__init__`` default, for fix-it stub generation.
    init_value: Optional[ast.AST] = None
    #: ``(line, method)`` of every write/mutation outside init+reset.
    mutations: List[Tuple[int, str]] = field(default_factory=list)
    #: Assigned or mutated inside a reset-family method.
    reset: bool = False

    @property
    def anchor_line(self) -> int:
        if self.defined_line:
            return self.defined_line
        return self.mutations[0][0] if self.mutations else 0


@dataclass
class MethodRecord:
    """One ``def`` of a class body."""

    node: ast.AST
    #: First positional parameter ('' when there is none).
    receiver: str
    is_static: bool
    #: Its ``receiver.X`` writes and mutations (``None`` without one).
    scan: Optional["MethodScan"] = None


@dataclass
class ClassRecord:
    """Mutable-state registry for one class."""

    name: str
    line: int
    node: ast.ClassDef
    reset_methods: List[str] = field(default_factory=list)
    restore_hooks: List[str] = field(default_factory=list)
    attrs: Dict[str, AttrRecord] = field(default_factory=dict)
    #: ``(line, name)`` of class-level mutable container assignments.
    class_containers: List[Tuple[int, str]] = field(default_factory=list)
    #: Every method, in body order.
    methods: List[MethodRecord] = field(default_factory=list)
    bindings: List[Binding] = field(default_factory=list)

    def attr(self, name: str) -> AttrRecord:
        if name not in self.attrs:
            self.attrs[name] = AttrRecord(name)
        return self.attrs[name]

    def leaking_attrs(self) -> List[AttrRecord]:
        return [self.attrs[n] for n in sorted(self.attrs)
                if self.attrs[n].mutations and not self.attrs[n].reset]


class MethodScan(ast.NodeVisitor):
    """Collect self-attribute writes and in-place mutations."""

    def __init__(self, self_name: str) -> None:
        self.self_name = self_name
        #: ``(line, attr, value)`` direct rebinding: ``self.x = ...``
        self.writes: List[Tuple[int, str, ast.AST]] = []
        #: ``(line, attr)`` in-place change: ``self.x[k] = / .append()``
        self.mutations: List[Tuple[int, str]] = []

    def _target(self, target: ast.AST, value: ast.AST) -> None:
        direct = direct_self_attr(target, self.self_name)
        if direct is not None:
            self.writes.append((target.lineno, direct, value))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target(elt, value)
            return
        base = _self_attr_base(target, self.self_name)
        if base is not None:
            self.mutations.append((target.lineno, base))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._target(node.target, node.value)
        self.generic_visit(node)

    def _mutated(self, expr: ast.AST) -> Optional[str]:
        direct = direct_self_attr(expr, self.self_name)
        if direct is not None:
            return direct
        return _self_attr_base(expr, self.self_name)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        base = self._mutated(node.target)
        if base is not None:
            self.mutations.append((node.target.lineno, base))
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            base = self._mutated(target)
            if base is not None:
                self.mutations.append((target.lineno, base))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            base = self._mutated(func.value)
            if base is not None:
                self.mutations.append((node.lineno, base))
        self.generic_visit(node)


def scan_class(node: ast.ClassDef) -> ClassRecord:
    record = ClassRecord(node.name, node.lineno, node,
                         bindings=_bindings(node.body))
    record.class_containers = [
        (b.line, b.name) for b in record.bindings
        if not b.annotated and is_mutable_value(b.value)]
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            # Annotated class-body fields are dataclass field specs:
            # per-instance defaults, not shared containers.  They still
            # define the attribute for coverage accounting.
            attr = record.attr(stmt.target.id)
            if not attr.defined_line:
                attr.defined_line = stmt.lineno
                attr.init_value = stmt.value
        elif isinstance(stmt, FUNCTION_DEFS):
            args = stmt.args.posonlyargs + stmt.args.args
            method = MethodRecord(stmt, args[0].arg if args else "",
                                  _is_staticmethod(stmt))
            record.methods.append(method)
            if not args:
                continue
            scan = method.scan = MethodScan(method.receiver)
            for inner in stmt.body:
                scan.visit(inner)
            if method.is_static:
                continue  # staticmethod: no instance state access
            if stmt.name in RESTORE_HOOKS:
                record.restore_hooks.append(stmt.name)
            if stmt.name == "__init__":
                for line, name, value in scan.writes:
                    attr = record.attr(name)
                    if not attr.defined_line:
                        attr.defined_line = line
                        attr.init_value = value
            elif _is_reset_family(stmt.name):
                record.reset_methods.append(stmt.name)
                for line, name, value in scan.writes:
                    attr = record.attr(name)
                    attr.reset = True
                    if not attr.defined_line:
                        attr.defined_line = line
                for line, name in scan.mutations:
                    record.attr(name).reset = True
            else:
                for line, name, _value in scan.writes:
                    record.attr(name).mutations.append((line, stmt.name))
                for line, name in scan.mutations:
                    record.attr(name).mutations.append((line, stmt.name))
    for attr in record.attrs.values():
        attr.mutations.sort()
    return record


# ---------------------------------------------------------------------------
# modules and the tree
# ---------------------------------------------------------------------------

class SourceModule:
    """One module of an index."""

    def __init__(self, filename: str, rel: pathlib.PurePath, name: str,
                 text: Optional[str] = None) -> None:
        self.filename = filename
        self.rel = rel  # relative to the index root
        self.name = name  # dotted: repro.vm.memory
        if text is not None:
            self.text = text
        #: Why :attr:`tree` is ``None`` (set once it has been asked for).
        self.error: Optional[SyntaxError] = None

    @cached_property
    def text(self) -> str:
        return pathlib.Path(self.filename).read_text(encoding="utf-8")

    @cached_property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    @cached_property
    def tree(self) -> Optional[ast.Module]:
        """The parsed module, or ``None`` with :attr:`error` set."""
        try:
            return ast.parse(self.text, filename=self.filename)
        except SyntaxError as err:
            self.error = err
            return None

    def parse_failure(self, code: str, consequence: str = "") -> Diagnostic:
        """A family's one finding for a module whose :attr:`tree` is
        ``None``."""
        return Diagnostic(code, "unparseable module: %s%s"
                          % (self.error, consequence),
                          file=self.filename, line=self.error.lineno or 0)

    @cached_property
    def classes(self) -> List[ClassRecord]:
        """Top-level classes, in body order."""
        body = self.tree.body if self.tree else []
        return [scan_class(node) for node in body
                if isinstance(node, ast.ClassDef)]

    @cached_property
    def bindings(self) -> List[Binding]:
        """Top-level bindings, in body order."""
        return _bindings(self.tree.body if self.tree else [])

    @cached_property
    def hot_lines(self) -> Set[int]:
        """Lines whose actual comment (not a string literal) carries
        the hot marker."""
        lines: Set[int] = set()
        hot_re = MARKER_RES["hot"]
        try:
            for tok in tokenize.generate_tokens(
                    io.StringIO(self.text).readline):
                if (tok.type == tokenize.COMMENT
                        and hot_re.search(tok.string)):
                    lines.add(tok.start[0])
        except (tokenize.TokenError, IndentationError, SyntaxError):
            pass  # the AST parse reports the breakage
        return lines


def module_of_text(filename: str, text: str,
                   name: str = "module") -> SourceModule:
    """A one-module index: source held in memory."""
    return SourceModule(filename,
                        pathlib.PurePath(os.path.basename(filename)), name,
                        text)


def _module_name(rel: pathlib.PurePath, root: pathlib.Path) -> str:
    """Dotted module name rooted at ``root``'s basename
    (``src/repro`` + ``vm/memory.py`` -> ``repro.vm.memory``)."""
    parts = [os.path.basename(os.path.abspath(root))] + list(rel.parts)
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class SourceIndex:
    """Every ``.py`` module under ``root`` (``__pycache__`` aside), in
    sorted path order."""

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.modules = [
            SourceModule(str(path), path.relative_to(self.root),
                         _module_name(path.relative_to(self.root),
                                      self.root))
            for path in sorted(self.root.rglob("*.py"))
            if "__pycache__" not in path.parts]

    def within(self, packages: Sequence[str]) -> List[SourceModule]:
        """Modules under the top-level ``packages`` (in that order), or
        every module when the root holds none of them."""
        present = [p for p in packages if (self.root / p).is_dir()]
        if not present:
            return list(self.modules)
        return [m for p in present for m in self.modules
                if m.rel.parts[0] == p]

    def outside(self, dirs: Set[str]) -> List[SourceModule]:
        """Modules with none of ``dirs`` among their parent directories."""
        return [m for m in self.modules
                if not dirs.intersection(m.rel.parts[:-1])]


def as_index(root) -> SourceIndex:
    """``root`` itself when it is already an index, else a new index of
    the tree at ``root``."""
    return root if isinstance(root, SourceIndex) else SourceIndex(root)
