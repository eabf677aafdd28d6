"""The single-parse program model every lint rule runs on.

Each file is read and ``ast.parse``d exactly once into a
:class:`ModuleInfo` — parent links, ``# simlint: disable=`` allowlists,
subsystem scoping, imports, string constants, functions and call sites,
all from one walk of the tree.  :class:`ProgramModel` holds those
records and adds the cross-module views the whole-program rules share:

* a **module table** — every file by dotted module name, so a name
  imported in one module (relative imports resolved) can be followed
  into the module that defines it;
* a **call-site index** — every call, keyed by the callee's simple
  name;
* **name-level reachability** — which top-level functions, classes and
  methods a set of roots reaches through the names each scope mentions
  (:meth:`ProgramModel.reachable`, shared by DL104 and DL105);
* **one string model** — :meth:`ProgramModel.resolve_string` renders
  a string expression as its text and its runtime parts, reading
  module-level string constants (imported ones too), so a name spelled
  ``PREFIX + suffix`` or ``f"{SITE}:{seed}"`` reads the same to DL101
  and DL102.
"""

from __future__ import annotations

import ast
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

__all__ = [
    "CallSite",
    "Definition",
    "Finding",
    "ModuleInfo",
    "ProgramModel",
    "StringVal",
    "iter_python_files",
    "module_name",
    "named_assignments",
]

#: Directory names never descended into when walking a tree.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

_DISABLE_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")
_DISABLE_FILE_RE = re.compile(
    r"^\s*#\s*simlint:\s*disable-file=([A-Za-z0-9_,\s]+)")

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True, order=True)
class Finding:
    """One structured lint finding."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


@dataclass(frozen=True)
class StringVal:
    """What static analysis knows about a string expression.

    *text* is the value with each runtime part (an f-string field or a
    concatenated name no constant resolves) replaced by one
    :attr:`HOLE`; *dynamic* holds those parts' expressions, in order.
    """

    HOLE = "\x00"

    text: str
    dynamic: tuple[ast.AST, ...] = ()

    @property
    def prefix(self) -> str:
        """The literal text before the first runtime part."""
        return self.text.partition(self.HOLE)[0]

    @property
    def exact(self) -> bool:
        """Whether the whole value is known."""
        return not self.dynamic

    def __add__(self, other: StringVal) -> StringVal:
        return StringVal(self.text + other.text,
                         self.dynamic + other.dynamic)

    def render(self) -> str:
        return self.text.replace(self.HOLE, "{…}")


@dataclass(frozen=True)
class Definition:
    """One function, method or class definition."""

    module: str
    qualname: str          # "ClassName.method" or "function"
    name: str              # the simple name
    node: ast.AST = field(compare=False, hash=False, repr=False)
    #: the class a method is defined in; None for anything else
    parent: Definition | None = field(default=None, compare=False,
                                      hash=False, repr=False)
    #: every name the definition mentions (a loaded name or an
    #: attribute); filled for top-level definitions and methods only
    uses: set[str] = field(default_factory=set, compare=False,
                           hash=False, repr=False)


@dataclass(frozen=True)
class CallSite:
    """One call expression, indexed by the callee's simple name."""

    module: str
    callee: str            # last component: "foo" for a.b.foo(...)
    dotted: str | None     # full dotted chain when statically renderable
    node: ast.Call = field(compare=False, hash=False, repr=False)
    #: innermost enclosing function, or None at module level
    enclosing: Definition | None = None


def _parse_codes(raw: str) -> set[str]:
    return {c.strip().upper() for c in raw.split(",") if c.strip()}


def named_assignments(nodes: Iterable[ast.AST],
                      ) -> Iterator[tuple[str, ast.AST]]:
    """``(name, value)`` for every plain ``NAME = value`` in *nodes*."""
    for node in nodes:
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            yield node.targets[0].id, node.value


def iter_python_files(paths: Iterable) -> Iterator[str]:
    """Expand files and directories into a sorted stream of ``.py``
    paths (deterministic walk order, skip caches)."""
    for path in paths:
        path = str(path)
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in _SKIP_DIRS)
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        yield os.path.join(dirpath, fn)
        else:
            yield path


class ModuleInfo:
    """Everything a rule needs about one parsed source file.

    Attributes:
        name: dotted module name (``"repro.mm.buddy"``).
        path: the display path findings are reported under.
        tree: parsed AST; every node carries a ``_simlint_parent`` link.
        nodes: every node of *tree*, in ``ast.walk`` order.
    """

    def __init__(self, source: str, path: str, name: str) -> None:
        self.name = name
        self.path = str(path)
        self.tree = ast.parse(source, filename=self.path)
        # Directory components of the path, for subsystem scoping.  The
        # file's own name is excluded so ``fleet.py`` is not "in fleet".
        norm = os.path.normpath(self.path).replace(os.sep, "/")
        self._dir_parts = set(norm.split("/")[:-1])
        self.filename = norm.rsplit("/", 1)[-1]

        self.line_disables: dict[int, set[str]] = {}
        self.file_disables: set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _DISABLE_FILE_RE.match(line)
            if m:
                self.file_disables |= _parse_codes(m.group(1))
                continue
            m = _DISABLE_RE.search(line)
            if m:
                self.line_disables[lineno] = _parse_codes(m.group(1))

        #: local name -> fully qualified imported name ("x" -> "pkg.mod.x"
        #: or "pkg.mod" for module imports); repo-relative imports are
        #: resolved against this module's dotted name.
        self.imports: dict[str, str] = {}
        #: module-level NAME = "literal" string constants.
        self.constants: dict[str, str] = {}
        #: functions and methods defined here, by qualname.
        self.functions: dict[str, Definition] = {}
        #: the units reachability decides on: top-level functions and
        #: classes, and the methods of top-level classes.
        self.definitions: list[Definition] = []
        #: names the module's own top-level statements mention.
        self.uses: set[str] = set()
        #: every call whose callee is a plain name or attribute chain.
        self.calls: list[CallSite] = []
        self.nodes: list[ast.AST] = []
        self._index()

    # -- indexing -------------------------------------------------------

    def resolve_relative(self, module: str | None, level: int) -> str:
        """Absolute dotted module for a ``from ... import`` statement."""
        if level == 0:
            return module or ""
        # level 1 = this package, 2 = parent package, ...; a package's
        # own ``__init__`` is named after the package it is.
        parts = self.name.split(".")
        if self.filename == "__init__.py":
            parts.append("__init__")
        base = parts[:-level] if level <= len(parts) else []
        if module:
            base.append(module)
        return ".".join(base)

    def _index(self) -> None:
        """The one walk: parent links, the flat node list, imports,
        definitions, the names each one uses, and calls.

        ``ast.walk`` is breadth-first, so a node's scope — its innermost
        enclosing function, the class a ``def`` directly under it would
        be a method of, and the definition whose uses it adds to — is
        known from its parent by the time the node is reached.
        """
        Scope = tuple[Definition | None, str | None, Definition | None]
        scopes: dict[ast.AST, Scope] = {self.tree: (None, None, None)}
        calls: list[tuple[ast.Call, str, Definition | None]] = []
        for node in ast.walk(self.tree):
            self.nodes.append(node)
            scope = fn, class_name, unit = scopes[node]
            uses = self.uses if unit is None else unit.uses
            if isinstance(node, _FUNCTION_DEFS):
                qual = (f"{class_name}.{node.name}" if class_name
                        else node.name)
                method = (unit is not None and fn is None
                          and class_name == unit.qualname)
                defined = self.functions[qual] = Definition(
                    module=self.name, qualname=qual, name=node.name,
                    node=node, parent=unit if method else None)
                if unit is None or method:
                    self.definitions.append(defined)
                    unit = defined
                scope = defined, None, unit
            elif isinstance(node, ast.ClassDef):
                if unit is None:
                    unit = Definition(module=self.name,
                                      qualname=node.name, name=node.name,
                                      node=node)
                    self.definitions.append(unit)
                scope = fn, node.name, unit
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute):
                    calls.append((node, node.func.attr, fn))
                elif isinstance(node.func, ast.Name):
                    calls.append((node, node.func.id, fn))
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        top = alias.name.partition(".")[0]
                        self.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_relative(node.module, node.level)
                for alias in node.names:
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = (
                            f"{base}.{alias.name}" if base else alias.name)
            for child in ast.iter_child_nodes(node):
                child._simlint_parent = node
                scopes[child] = scope
        for name, value in named_assignments(self.tree.body):
            if (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                self.constants[name] = value.value
        # Call targets expand through imports, which may appear anywhere
        # in the file — so they are rendered once the walk is complete.
        self.calls = [
            CallSite(module=self.name, callee=callee,
                     dotted=self.dotted(node.func), node=node,
                     enclosing=fn)
            for node, callee, fn in calls]

    # -- queries --------------------------------------------------------

    def dotted(self, node: ast.AST) -> str | None:
        """Render a Name/Attribute chain with the root expanded through
        this module's imports (``tp.emit`` -> ``repro...events.tp.emit``
        when ``tp`` was imported); None when the chain contains anything
        else (calls, subscripts, ...)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def leaf(self, node: ast.AST) -> str:
        """Last component of :meth:`dotted`; ``""`` for a non-chain."""
        return (self.dotted(node) or "").rpartition(".")[2]

    def in_subsystem(self, *names: str) -> bool:
        """Whether the file sits under any of the named directories."""
        return bool(self._dir_parts & set(names))

    def is_test_file(self) -> bool:
        return (self.filename.startswith("test_")
                or self.filename == "conftest.py"
                or "tests" in self._dir_parts)

    def parents(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of *node*, innermost first."""
        while True:
            node = getattr(node, "_simlint_parent", None)
            if node is None:
                return
            yield node

    def at_module_level(self, node: ast.AST) -> bool:
        """True when *node* executes at import time (no enclosing
        function); class bodies count as module level."""
        return not any(
            isinstance(p, (*_FUNCTION_DEFS, ast.Lambda))
            for p in self.parents(node))

    def suppressed(self, finding: Finding) -> bool:
        codes = self.line_disables.get(finding.line, ())
        return (finding.rule in codes or "ALL" in codes
                or finding.rule in self.file_disables
                or "ALL" in self.file_disables)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_name(path: str) -> str:
    """Dotted module name from the package layout on disk: walk up
    through ``__init__.py`` packages."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    d = os.path.dirname(path)
    while os.path.isfile(os.path.join(d, "__init__.py")):
        parts.append(os.path.basename(d))
        d = os.path.dirname(d)
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


class ProgramModel:
    """Every file under analysis, parsed once."""

    def __init__(self) -> None:
        #: every parsed file, in the order it was added
        self.files: list[ModuleInfo] = []
        #: dotted module name -> its file (the last one added wins when
        #: two loose files share a name)
        self.modules: dict[str, ModuleInfo] = {}
        self.calls_by_name: dict[str, list[CallSite]] = {}
        #: every file's :attr:`ModuleInfo.definitions`, by simple name
        self.definitions_by_name: dict[str, list[Definition]] = {}
        #: the methods of each top-level class
        self.methods: dict[Definition, list[Definition]] = {}
        #: one ``SL000`` finding per file that failed to parse
        self.parse_errors: list[Finding] = []

    # -- construction ---------------------------------------------------

    def add_source(self, source: str, path: str, name: str) -> None:
        """Parse one file's text; *path* is its display path."""
        try:
            info = ModuleInfo(source, path, name)
        except SyntaxError as exc:
            self.parse_errors.append(Finding(
                path=str(path), line=exc.lineno or 1,
                col=(exc.offset or 1) - 1, rule="SL000",
                message=f"syntax error: {exc.msg}"))
            return
        self.files.append(info)
        self.modules[info.name] = info

    def build_indexes(self) -> None:
        """Populate the program-wide indexes after all files are added."""
        for info in self.modules.values():
            for d in info.definitions:
                self.definitions_by_name.setdefault(d.name, []).append(d)
                if d.parent is not None:
                    self.methods.setdefault(d.parent, []).append(d)
            for site in info.calls:
                self.calls_by_name.setdefault(site.callee, []).append(site)

    # -- reachability ---------------------------------------------------

    def reachable(self, roots: Iterable[Definition] = (),
                  names: Iterable[str] = (), *,
                  methods_need_class: bool = True) -> set[Definition]:
        """The definitions reached from *roots* and from the bare
        *names* (an ``__all__`` entry, a door string's function).

        A reached definition reaches every definition whose simple name
        it uses — by calling it, passing it, subclassing it or
        annotating with it.  A method counts only once its class is
        reached (dunder methods come with the class) unless
        *methods_need_class* is off — a call path may run a method on
        an object built anywhere — and reaching a method reaches its
        class.  Matching is by simple name, so the walk
        over-approximates: it may keep a definition alive, never the
        reverse.
        """
        reached: set[Definition] = set()
        named: set[str] = set()
        stack = list(roots)
        pending = list(names)
        while stack or pending:
            for name in pending:
                if name in named:
                    continue
                named.add(name)
                stack.extend(
                    d for d in self.definitions_by_name.get(name, ())
                    if not methods_need_class or d.parent is None
                    or d.parent in reached)
            pending = []
            while stack:
                d = stack.pop()
                if d in reached:
                    continue
                reached.add(d)
                pending.extend(d.uses)
                if d.parent is not None:
                    stack.append(d.parent)
                stack.extend(
                    m for m in self.methods.get(d, ())
                    if m.name in named or _is_dunder(m.name))
        return reached

    # -- string provenance ----------------------------------------------

    def resolve_string(self, info: ModuleInfo,
                       node: ast.AST) -> StringVal | None:
        """Best-effort static value of a string expression.

        Handles literals, f-strings, ``+``-concatenation, and names
        resolving to module-level string constants — including constants
        imported from sibling modules, and a constant in a plain
        f-string field.  Whatever stays unknown becomes a runtime part.
        Returns None when the expression is not string-like at all.
        """
        if isinstance(node, ast.Constant):
            return (StringVal(node.value)
                    if isinstance(node.value, str) else None)
        if isinstance(node, ast.JoinedStr):
            out = StringVal("")
            for part in node.values:
                if not isinstance(part, ast.FormattedValue):
                    out += StringVal(part.value)
                    continue
                value = None
                if part.conversion == -1 and part.format_spec is None:
                    value = self.resolve_string(info, part.value)
                out += value or StringVal(StringVal.HOLE, (part.value,))
            return out
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.resolve_string(info, node.left)
            if left is None:
                return None
            right = self.resolve_string(info, node.right)
            return left + (right or StringVal(StringVal.HOLE, (node.right,)))
        if isinstance(node, ast.Name) and node.id in info.constants:
            return StringVal(info.constants[node.id])
        # A constant of another module, imported by name or reached
        # through an imported module.
        owner, _, attr = (info.dotted(node) or "").rpartition(".")
        target = self.modules.get(owner)
        if target is not None and attr in target.constants:
            return StringVal(target.constants[attr])
        return None
