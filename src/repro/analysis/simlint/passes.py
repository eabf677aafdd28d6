"""The whole-program rule catalogue (DL101–DL105).

Each rule overrides ``check(program, contracts)`` and yields the same
:class:`~repro.analysis.simlint.model.Finding` type the per-file rules
produce, so text/JSON/SARIF rendering and the CLI exit code treat both
uniformly.  Findings anchored in a source file honour ``# simlint:
disable=DLxxx`` allowlists; a finding anchored in a docs file (a
documented-but-dead catalogue row) is fixed in the docs.
"""

from __future__ import annotations

import ast
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .catalogue import ApiDoc, Contracts, names_match
from .model import (
    Definition,
    Finding,
    ModuleInfo,
    ProgramModel,
    StringVal,
    iter_python_files,
    module_name,
    named_assignments,
)
from .rules import Rule, set_iterations

__all__ = [
    "ApiSurfaceRule",
    "DeadSurfaceRule",
    "DeterminismBoundaryRule",
    "RngStreamRule",
    "TelemetryContractRule",
]


# ---------------------------------------------------------------------------
# DL101 — telemetry contract
# ---------------------------------------------------------------------------

#: MetricsRegistry emission methods -> the instrument kind they create.
_METRIC_KINDS = {"inc": "counter", "gauge": "gauge",
                 "histogram": "histogram"}


@dataclass(frozen=True)
class _Emission:
    info: ModuleInfo
    node: ast.Call
    name: StringVal
    kind: str              # "tracepoint" or a _METRIC_KINDS value


class TelemetryContractRule(Rule):
    """DL101: every telemetry name crosses the OBSERVABILITY.md catalogue.

    Tracepoint declarations and MetricsRegistry emissions (counters,
    gauges and histograms — including dynamic names like
    ``f"loadgen.latency.{cls}"``, matched by literal prefix against
    ``loadgen.latency.{class}``) are extracted program-wide and diffed
    against the two catalogue tables: an undocumented emission, a
    documented name nothing emits, and a kind collision (documented
    counter emitted as a histogram, one name emitted as two kinds, or
    one name in both tables) are each findings.  The catalogue is the
    dashboard/alerting contract — drift either way silently breaks
    whoever consumes the names.
    """

    code = "DL101"
    title = "telemetry names must match the OBSERVABILITY.md catalogue"
    deep = True

    def emissions(self, program: ProgramModel) -> list[_Emission]:
        out: list[_Emission] = []
        for name in sorted(program.modules):
            info = program.modules[name]
            # Names assigned ``MetricsRegistry(...)`` anywhere in the
            # module (scope-insensitive, like the set tracking).
            registry_vars = {
                var for var, value in named_assignments(info.nodes)
                if isinstance(value, ast.Call)
                and info.leaf(value.func) == "MetricsRegistry"}
            for site in info.calls:
                if not site.node.args:
                    continue
                emission = self._classify(program, info, site.node,
                                          site.callee, registry_vars)
                if emission is not None:
                    out.append(emission)
        return out

    def _classify(self, program: ProgramModel, info: ModuleInfo,
                  node: ast.Call, callee: str,
                  registry_vars: set[str]) -> _Emission | None:
        if callee == "tracepoint":
            kind = "tracepoint"
        elif (callee in _METRIC_KINDS
                and isinstance(node.func, ast.Attribute)):
            recv_leaf = info.leaf(node.func.value)
            if not (recv_leaf == "metrics" or recv_leaf in registry_vars):
                return None
            kind = _METRIC_KINDS[callee]
        else:
            return None
        name = program.resolve_string(info, node.args[0])
        if name is None or not name.prefix:
            return None
        return _Emission(info, node, name, kind)

    def check(self, program: ProgramModel,
              contracts: Contracts) -> Iterator[Finding]:
        cat = contracts.catalogue
        emissions = self.emissions(program)
        seen_kinds: dict[str, str] = {}
        for em in emissions:
            if em.kind == "tracepoint":
                if not cat.match_tracepoint(em.name.prefix, em.name.exact):
                    yield self.at(
                        em.info, em.node,
                        f"tracepoint '{em.name.render()}' is not in the "
                        f"OBSERVABILITY.md tracepoint catalogue")
            else:
                entry = cat.match_metric(em.name.prefix, em.name.exact)
                if entry is None:
                    yield self.at(
                        em.info, em.node,
                        f"{em.kind} '{em.name.render()}' is not in the "
                        f"OBSERVABILITY.md metric catalogue")
                elif entry.kind != em.kind:
                    yield self.at(
                        em.info, em.node,
                        f"kind collision: '{em.name.render()}' emitted as a "
                        f"{em.kind} but documented as a {entry.kind} "
                        f"(OBSERVABILITY.md:{entry.line})")
                key = entry.name if entry is not None else em.name.render()
                prior = seen_kinds.setdefault(key, em.kind)
                if prior != em.kind:
                    yield self.at(
                        em.info, em.node,
                        f"kind collision: '{em.name.render()}' emitted both "
                        f"as a {prior} and as a {em.kind}")
        for name in sorted(set(cat.tracepoints) & set(cat.metrics)):
            yield self.doc_finding(
                cat.path, cat.tracepoints[name].line,
                f"kind collision: '{name}' appears in both the "
                f"tracepoint and the metric catalogue")
        for name in sorted(cat.tracepoints):
            entry = cat.tracepoints[name]
            if not any(em.kind == "tracepoint"
                       and _matches(entry.name, em)
                       for em in emissions):
                yield self.doc_finding(
                    cat.path, entry.line,
                    f"documented tracepoint '{name}' is never declared "
                    f"in the analyzed tree")
        for name in sorted(cat.metrics):
            entry = cat.metrics[name]
            if not any(em.kind != "tracepoint" and _matches(entry.name, em)
                       for em in emissions):
                yield self.doc_finding(
                    cat.path, entry.line,
                    f"documented metric '{name}' ({entry.kind}) is never "
                    f"emitted in the analyzed tree")


def _matches(entry_name: str, em: _Emission) -> bool:
    return names_match(entry_name, em.name.prefix, em.name.exact)


# ---------------------------------------------------------------------------
# DL102 — RNG-stream hygiene
# ---------------------------------------------------------------------------

_SITE_RE = re.compile(r"^[a-z][a-z0-9_-]*$")


class RngStreamRule(Rule):
    """DL102: named RNG streams follow the convention and stay home.

    The bit-identity invariant rests on every ``random.Random`` drawing
    from a named per-purpose stream: a string seed shaped
    ``{site}:{purpose}…:{seed}`` — a literal site token naming the
    declaring module, at least one purpose segment, a dynamic final
    field, and the run seed referenced by some dynamic field
    (``f"tracegen:arrivals:{shape}:{seed}"``).
    A malformed stream name silently aliases two purposes onto one
    sequence; a stream object *escaping* its declaring purpose (returned
    or yielded to arbitrary callers) lets foreign draws interleave with
    it.  Integer-seeded singletons predating the convention are out of
    scope (SL002 covers unseeded/global randomness).
    """

    code = "DL102"
    title = "named RNG streams: {site}:{purpose}…:{seed}, no escape"
    deep = True

    @staticmethod
    def _mentions_seed(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
                return True
        return False

    def _check_stream_name(self, info: ModuleInfo, call: ast.Call,
                           seed: StringVal) -> Iterator[Finding]:
        segments = seed.text.split(":")
        pretty = seed.render()
        if len(segments) < 3:
            yield self.at(
                info, call,
                f"stream seed '{pretty}' does not follow the "
                f"{{site}}:{{purpose}}…:{{seed}} convention (needs a "
                f"site, at least one purpose segment, and the seed)")
            return
        site = segments[0]
        if not _SITE_RE.fullmatch(site):
            yield self.at(
                info, call,
                f"stream site (the head of '{pretty}') must be a "
                f"literal lowercase token")
        elif site.replace("-", "").replace("_", "") not in (
                info.name.replace(".", "").replace("_", "")):
            yield self.at(
                info, call,
                f"stream site '{site}' does not name its declaring "
                f"module '{info.name}' — streams are per-site so a "
                f"reader can find the declaration")
        if segments[-1] != StringVal.HOLE:
            yield self.at(
                info, call,
                f"stream seed '{pretty}' must end with a dynamic "
                f"':'-separated field (the run seed or a draw "
                f"discriminator), not a constant")
        if not any(self._mentions_seed(expr) for expr in seed.dynamic):
            yield self.at(
                info, call,
                f"no field of stream seed '{pretty}' references a seed "
                f"value — every named stream must be derived from the "
                f"run seed")

    # -- escape analysis ------------------------------------------------

    @staticmethod
    def _stream_assignments(program: ProgramModel, info: ModuleInfo):
        """Yield ``(call, target, enclosing_fn, class_name)`` for every
        string-seeded Random assigned to a name or self-attribute."""
        for node in info.nodes:
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            if (info.dotted(call.func) != "random.Random"
                    or not call.args
                    or program.resolve_string(info, call.args[0]) is None):
                continue
            target = node.targets[0]
            enclosing = None
            class_name = None
            for parent in info.parents(node):
                if (enclosing is None
                        and isinstance(parent, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))):
                    enclosing = parent
                if isinstance(parent, ast.ClassDef):
                    class_name = parent.name
                    break
            yield call, target, enclosing, class_name

    def _escapes(self, program: ProgramModel,
                 info: ModuleInfo) -> Iterator[Finding]:
        class_attrs: dict[str, set[str]] = {}
        for call, target, enclosing, class_name in (
                self._stream_assignments(program, info)):
            if isinstance(target, ast.Name) and enclosing is not None:
                var = target.id
                for sub in ast.walk(enclosing):
                    if (isinstance(sub, (ast.Return, ast.Yield))
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == var):
                        yield self.at(
                            info, sub,
                            f"named RNG stream '{var}' escapes its "
                            f"declaring function "
                            f"{enclosing.name}() via "
                            f"{'return' if isinstance(sub, ast.Return) else 'yield'}"
                            f" — draws outside the declaring purpose "
                            f"break stream isolation")
            elif (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and class_name is not None):
                class_attrs.setdefault(class_name, set()).add(target.attr)
        if not class_attrs:
            return
        for node in info.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = class_attrs.get(node.name)
            if not attrs:
                continue
            for sub in ast.walk(node):
                if (isinstance(sub, (ast.Return, ast.Yield))
                        and isinstance(sub.value, ast.Attribute)
                        and isinstance(sub.value.value, ast.Name)
                        and sub.value.value.id == "self"
                        and sub.value.attr in attrs):
                    yield self.at(
                        info, sub,
                        f"named RNG stream 'self.{sub.value.attr}' "
                        f"escapes {node.name} via "
                        f"{'return' if isinstance(sub, ast.Return) else 'yield'}"
                        f" — hand out draws, not the stream object")

    def check(self, program: ProgramModel,
              contracts: Contracts) -> Iterator[Finding]:
        for name in sorted(program.modules):
            info = program.modules[name]
            for site in info.calls:
                if not (site.node.args and site.dotted == "random.Random"):
                    continue
                seed = program.resolve_string(info, site.node.args[0])
                if seed is not None:  # else integer/injected: SL002's
                    yield from self._check_stream_name(info, site.node, seed)
            yield from self._escapes(program, info)


# ---------------------------------------------------------------------------
# DL103 — API-surface drift
# ---------------------------------------------------------------------------


class ApiSurfaceRule(Rule):
    """DL103: the code and docs/API.md declare the same stable surface.

    Cross-checks two claims: every module API.md documents exists and
    snapshots its surface in a literal ``__all__``; and every
    ``*Config`` front door the doc names is immutable — a frozen
    dataclass or a ``typing.NamedTuple`` — because the caching and
    manifest layers key on config values.  A public name is removed
    outright, with a "Removed surface" row in API.md: there are no
    deprecation shims to check.
    """

    code = "DL103"
    title = "docs/API.md and the code agree on the stable surface"
    deep = True

    @staticmethod
    def _has_literal_all(info: ModuleInfo) -> bool:
        return any(
            name == "__all__"
            and isinstance(value, (ast.List, ast.Tuple))
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts)
            for name, value in named_assignments(info.tree.body))

    def _check_documented_modules(self, program: ProgramModel,
                                  api: ApiDoc) -> Iterator[Finding]:
        for module in sorted(api.documented_modules):
            line = api.documented_modules[module]
            info = program.modules.get(module)
            if info is None:
                yield self.doc_finding(
                    api.path, line,
                    f"documented module '{module}' was not found in the "
                    f"analyzed tree")
            elif not self._has_literal_all(info):
                yield self.doc_finding(
                    info.path, 1,
                    f"module '{module}' is documented as stable surface "
                    f"in API.md but declares no literal __all__ snapshot")

    def _check_frozen_configs(self, program: ProgramModel,
                              api: ApiDoc) -> Iterator[Finding]:
        for info in program.modules.values():
            for node in info.nodes:
                if (isinstance(node, ast.ClassDef)
                        and node.name in api.config_classes
                        and not self._is_immutable(info, node)):
                    yield self.at(
                        info, node,
                        f"{node.name} is documented as a front-door "
                        f"config in API.md but is not immutable: neither "
                        f"a frozen dataclass nor a NamedTuple without an "
                        f"instance dict (configs key caches and "
                        f"manifests)")

    @classmethod
    def _is_immutable(cls, info: ModuleInfo, node: ast.ClassDef) -> bool:
        """A frozen dataclass, a ``NamedTuple``, or a subclass of one
        (from the same module) that declares ``__slots__ = ()``, so
        it has no instance dict to set attributes in."""
        if cls._is_frozen_dataclass(info, node):
            return True
        bases = {info.leaf(base) for base in node.bases}
        if "NamedTuple" in bases:
            return True
        no_dict = any(name == "__slots__" and isinstance(value, ast.Tuple)
                      and not value.elts
                      for name, value in named_assignments(node.body))
        return no_dict and any(
            isinstance(other, ast.ClassDef) and other.name in bases
            and other is not node and cls._is_immutable(info, other)
            for other in info.tree.body)

    @staticmethod
    def _is_frozen_dataclass(info: ModuleInfo, node: ast.ClassDef) -> bool:
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call):
                if info.leaf(dec.func) == "dataclass":
                    for kw in dec.keywords:
                        if (kw.arg == "frozen"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True):
                            return True
        return False

    def check(self, program: ProgramModel,
              contracts: Contracts) -> Iterator[Finding]:
        api = contracts.api
        yield from self._check_documented_modules(program, api)
        yield from self._check_frozen_configs(program, api)


# ---------------------------------------------------------------------------
# DL104 — determinism boundary
# ---------------------------------------------------------------------------

#: Function names that produce manifests/snapshots — the roots of the
#: byte-identity contract.
DETERMINISM_ROOTS = frozenset({
    "snapshot", "to_json", "build_manifest", "write_manifest",
})


class DeterminismBoundaryRule(Rule):
    """DL104: nothing order-unstable on a path into a manifest.

    Functions *reachable* from the snapshot/manifest producers (the
    byte-identity roots: ``snapshot``, ``to_json``,
    ``build_manifest``/``write_manifest``)
    must not iterate a set/frozenset without ``sorted(...)`` and must
    not call ``id()`` — both launder hash/address order into output
    that two runs diff byte-for-byte.  This is SL006 escalated from two
    directories to the whole call graph: a helper three modules away
    from the manifest writer is held to the same standard, because the
    reachability — not the directory — is what puts it on the boundary.
    """

    code = "DL104"
    title = "no unordered iteration / id() reachable from manifests"
    deep = True

    def _check_function(self, info: ModuleInfo,
                        fn: Definition) -> Iterator[Finding]:
        for node in ast.walk(fn.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                    and len(node.args) == 1):
                yield self.at(
                    info, node,
                    f"id() in {fn.qualname}(), which is reachable from "
                    f"a manifest/snapshot producer — addresses vary "
                    f"per process and break byte-identity")
        for it in set_iterations(info, fn.node):
            yield self.at(
                info, it,
                f"set iteration in {fn.qualname}(), which is "
                f"reachable from a manifest/snapshot producer — "
                f"wrap the iterable in sorted(...)")

    def check(self, program: ProgramModel,
              contracts: Contracts) -> Iterator[Finding]:
        roots = [d for name in DETERMINISM_ROOTS
                 for d in program.definitions_by_name.get(name, ())]
        for fn in program.reachable(roots, methods_need_class=False):
            if isinstance(fn.node, ast.ClassDef):
                continue
            yield from self._check_function(program.modules[fn.module], fn)


# ---------------------------------------------------------------------------
# DL105 — dead surface
# ---------------------------------------------------------------------------

#: Directories under the contract root whose scripts are entry points.
ENTRY_DIRS = ("examples", "benchmarks")

#: A ``"package.module:function"`` door string: a function resolved by
#: name at run time (``repro.run``'s durable-run table, a console
#: script).
_DOOR_RE = re.compile(r"([A-Za-z_][\w.]*):([A-Za-z_]\w*)")


class DeadSurfaceRule(Rule):
    """DL105: every definition is reached from a front door.

    The roots are every module's top-level statements, every
    ``"module:function"`` door string, and every ``.py`` under the
    contract root's ``examples/`` and ``benchmarks/``; tests are never
    roots.  A top-level function or class the name-level walk
    (:meth:`ProgramModel.reachable`) never reaches, or a method of a
    reached class nobody names, supports no figure, front door or
    example: a test alone keeps it alive.  An ``__all__`` or lazy-export
    table names nothing (its entries are strings), and neither does
    docs/API.md, so documenting or re-exporting a name does not keep it.
    """

    code = "DL105"
    title = "no definition that only tests reach"
    deep = True

    @staticmethod
    def _entry_files(program: ProgramModel,
                     contracts: Contracts) -> list[ModuleInfo]:
        analyzed = {os.path.normpath(os.path.join(contracts.root, i.path)): i
                    for i in program.files}
        dirs = [os.path.join(contracts.root, d) for d in ENTRY_DIRS]
        entries = []
        for path in iter_python_files(d for d in dirs if os.path.isdir(d)):
            path = os.path.normpath(path)
            if path in analyzed:
                entries.append(analyzed[path])
                continue
            try:
                with open(path, encoding="utf-8") as fh:
                    entries.append(ModuleInfo(
                        fh.read(), os.path.relpath(path, contracts.root),
                        module_name(path)))
            except (OSError, UnicodeDecodeError, SyntaxError):
                continue
        return entries

    @staticmethod
    def _doors(program: ProgramModel,
               files: list[ModuleInfo]) -> Iterator[str]:
        for info in files:
            for node in info.nodes:
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    m = _DOOR_RE.fullmatch(node.value)
                    if m and m.group(1) in program.modules:
                        yield m.group(2)

    def check(self, program: ProgramModel,
              contracts: Contracts) -> Iterator[Finding]:
        entries = self._entry_files(program, contracts)
        roots = [d for info in entries for d in info.definitions]
        # A module-level dunder (``__getattr__``) runs on import.
        roots += [d for info in program.files for d in info.definitions
                  if d.parent is None and d.name.startswith("__")
                  and d.name.endswith("__")]
        names = {name for info in (*program.files, *entries)
                 for name in info.uses}
        names.update(self._doors(program, [*program.files, *entries]))
        reached = program.reachable(roots, names)
        skip = {info.path for info in entries}
        for info in program.files:
            if info.path in skip or info.is_test_file():
                continue
            for d in info.definitions:
                if d in reached or (d.parent is not None
                                    and d.parent not in reached):
                    continue
                yield self.at(
                    info, d.node,
                    f"{d.qualname} is dead surface: no module body, door "
                    f"string, example or benchmark reaches it")
