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
  name, so reachability sweeps don't re-walk the forest;
* **string-literal provenance** — module-level string constants,
  importable across modules, so a name spelled ``PREFIX + suffix`` or
  ``f"{SITE}:{seed}"`` still resolves to its literal prefix.
"""

from __future__ import annotations

import ast
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

__all__ = [
    "CallSite",
    "Finding",
    "FunctionInfo",
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

    ``exact=True`` means *prefix* is the whole value; ``exact=False``
    means the value starts with *prefix* and continues with runtime
    content (an f-string field, a concatenated variable, ...).
    """

    prefix: str
    exact: bool

    def render(self) -> str:
        return self.prefix if self.exact else self.prefix + "{…}"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    module: str
    qualname: str          # "ClassName.method" or "function"
    name: str              # the simple name
    node: ast.AST = field(compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class CallSite:
    """One call expression, indexed by the callee's simple name."""

    module: str
    callee: str            # last component: "foo" for a.b.foo(...)
    dotted: str | None     # full dotted chain when statically renderable
    node: ast.Call = field(compare=False, hash=False, repr=False)
    #: innermost enclosing function, or None at module level
    enclosing: FunctionInfo | None = None


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
        self.functions: dict[str, FunctionInfo] = {}
        #: every call whose callee is a plain name or attribute chain.
        self.calls: list[CallSite] = []
        self.nodes: list[ast.AST] = []
        self._index()

    # -- indexing -------------------------------------------------------

    def resolve_relative(self, module: str | None, level: int) -> str:
        """Absolute dotted module for a ``from ... import`` statement."""
        if level == 0:
            return module or ""
        # level 1 = this package, 2 = parent package, ...
        parts = self.name.split(".")
        base = parts[:-level] if level <= len(parts) else []
        if module:
            base.append(module)
        return ".".join(base)

    def _index(self) -> None:
        """The one walk: parent links, the flat node list, imports,
        functions and calls.

        ``ast.walk`` is breadth-first, so a node's scope — its innermost
        enclosing function, and the class a ``def`` directly under it
        would be a method of — is known from its parent by the time the
        node is reached.
        """
        scopes: dict[ast.AST, tuple[FunctionInfo | None, str | None]] = {
            self.tree: (None, None)}
        calls: list[tuple[ast.Call, str, FunctionInfo | None]] = []
        for node in ast.walk(self.tree):
            self.nodes.append(node)
            scope = fn, class_name = scopes[node]
            if isinstance(node, _FUNCTION_DEFS):
                qual = (f"{class_name}.{node.name}" if class_name
                        else node.name)
                defined = self.functions[qual] = FunctionInfo(
                    module=self.name, qualname=qual, name=node.name,
                    node=node)
                scope = defined, None
            elif isinstance(node, ast.ClassDef):
                scope = fn, node.name
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute):
                    calls.append((node, node.func.attr, fn))
                elif isinstance(node.func, ast.Name):
                    calls.append((node, node.func.id, fn))
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
        self.call_sites: list[CallSite] = []
        self.calls_by_name: dict[str, list[CallSite]] = {}
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}
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
            for fn in info.functions.values():
                self.functions_by_name.setdefault(fn.name, []).append(fn)
        for info in self.modules.values():
            self.call_sites.extend(info.calls)
            for site in info.calls:
                self.calls_by_name.setdefault(site.callee, []).append(site)

    # -- string provenance ----------------------------------------------

    def resolve_string(self, info: ModuleInfo,
                       node: ast.AST) -> StringVal | None:
        """Best-effort static value of a string expression.

        Handles literals, f-strings (literal head, dynamic tail),
        ``+``-concatenation, and names resolving to module-level string
        constants — including constants imported from sibling modules.
        Returns None when the expression is not string-like at all.
        """
        if isinstance(node, ast.Constant):
            return (StringVal(node.value, True)
                    if isinstance(node.value, str) else None)
        if isinstance(node, ast.JoinedStr):
            prefix: list[str] = []
            exact = True
            for part in node.values:
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    prefix.append(part.value)
                else:
                    exact = False
                    break
            return StringVal("".join(prefix), exact)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.resolve_string(info, node.left)
            if left is None:
                return None
            if not left.exact:
                return left
            right = self.resolve_string(info, node.right)
            if right is None:
                return StringVal(left.prefix, False)
            return StringVal(left.prefix + right.prefix, right.exact)
        if isinstance(node, ast.Name) and node.id in info.constants:
            return StringVal(info.constants[node.id], True)
        # A constant of another module, imported by name or reached
        # through an imported module.
        owner, _, attr = (info.dotted(node) or "").rpartition(".")
        target = self.modules.get(owner)
        if target is not None and attr in target.constants:
            return StringVal(target.constants[attr], True)
        return None
