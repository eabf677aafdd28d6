"""The whole-program rule catalogue (DL101–DL104).

Each rule overrides ``check(program, contracts)`` and yields the same
:class:`~repro.analysis.simlint.model.Finding` type the per-file rules
produce, so text/JSON/SARIF rendering and the CLI exit code treat both
uniformly.  Findings anchored in a source file honour ``# simlint:
disable=DLxxx`` allowlists; findings anchored in a docs file (a
documented-but-dead catalogue row) can only be suppressed through the
baseline file.
"""

from __future__ import annotations

import ast
import os
import posixpath
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .catalogue import ApiDoc, Contracts, names_match
from .model import (
    Finding,
    FunctionInfo,
    ModuleInfo,
    ProgramModel,
    StringVal,
    named_assignments,
)
from .rules import Rule, set_iterations

__all__ = [
    "ApiSurfaceRule",
    "DeterminismBoundaryRule",
    "RngStreamRule",
    "TelemetryContractRule",
]


# ---------------------------------------------------------------------------
# DL101 — telemetry contract
# ---------------------------------------------------------------------------

#: MetricsRegistry emission methods -> the instrument kind they create.
_METRIC_KINDS = {"inc": "counter", "gauge": "gauge",
                 "histogram": "histogram", "timer": "timer"}


@dataclass(frozen=True)
class _Emission:
    info: ModuleInfo
    node: ast.Call
    name: StringVal
    kind: str              # "tracepoint" or a _METRIC_KINDS value


class TelemetryContractRule(Rule):
    """DL101: every telemetry name crosses the OBSERVABILITY.md catalogue.

    Tracepoint declarations and MetricsRegistry emissions (counters,
    gauges, histograms, timers — including dynamic names like
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

    # -- seed-expression templating -------------------------------------

    @staticmethod
    def _template(node: ast.AST) -> tuple[str, list[ast.AST]] | None:
        """Render a string expression as ``"lit{0}lit{1}"`` plus the
        dynamic sub-expressions, or None when not string-shaped."""
        if isinstance(node, ast.Constant):
            return ((node.value, [])
                    if isinstance(node.value, str) else None)
        if isinstance(node, ast.JoinedStr):
            text: list[str] = []
            dynamic: list[ast.AST] = []
            for part in node.values:
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    text.append(part.value)
                else:
                    text.append(f"\x00{len(dynamic)}\x00")
                    dynamic.append(part.value
                                   if isinstance(part, ast.FormattedValue)
                                   else part)
            return "".join(text), dynamic
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = RngStreamRule._template(node.left)
            if left is None:
                return None
            ltext, ldyn = left
            right = RngStreamRule._template(node.right)
            if right is None:
                return ltext + "\x00%d\x00" % len(ldyn), ldyn + [node.right]
            rtext, rdyn = right
            rtext = re.sub(r"\x00(\d+)\x00",
                           lambda m: "\x00%d\x00" % (int(m.group(1))
                                                     + len(ldyn)),
                           rtext)
            return ltext + rtext, ldyn + rdyn
        return None

    @staticmethod
    def _mentions_seed(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
                return True
        return False

    def _check_stream_name(self, info: ModuleInfo, call: ast.Call,
                           seed_arg: ast.AST) -> Iterator[Finding]:
        rendered = self._template(seed_arg)
        if rendered is None:
            return  # non-string seed: integer/injected, SL002 territory
        text, dynamic = rendered
        segments = text.split(":")
        pretty = re.sub(r"\x00\d+\x00", "{…}", text)
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
        if re.fullmatch(r"\x00(\d+)\x00", segments[-1]) is None:
            yield self.at(
                info, call,
                f"stream seed '{pretty}' must end with a dynamic "
                f"':'-separated field (the run seed or a draw "
                f"discriminator), not a constant")
        if not any(self._mentions_seed(expr) for expr in dynamic):
            yield self.at(
                info, call,
                f"no field of stream seed '{pretty}' references a seed "
                f"value — every named stream must be derived from the "
                f"run seed")

    # -- escape analysis ------------------------------------------------

    def _stream_assignments(self, info: ModuleInfo):
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
                    or self._template(call.args[0]) is None):
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

    def _escapes(self, info: ModuleInfo) -> Iterator[Finding]:
        class_attrs: dict[str, set[str]] = {}
        for call, target, enclosing, class_name in (
                self._stream_assignments(info)):
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
                if site.node.args and site.dotted == "random.Random":
                    yield from self._check_stream_name(
                        info, site.node, site.node.args[0])
            yield from self._escapes(info)


# ---------------------------------------------------------------------------
# DL103 — API-surface drift
# ---------------------------------------------------------------------------


class ApiSurfaceRule(Rule):
    """DL103: the code and docs/API.md declare the same stable surface.

    Cross-checks five claims: every module API.md documents exists and
    snapshots its surface in a literal ``__all__``; every row of a
    deprecation table still has a live shim (the old name appears in the
    shim module, typically as the ``__getattr__`` dispatch key); no
    internal code imports a table's old spelling or calls a deprecated
    callable (the shims exist for *downstream* callers — internal use
    means the migration regressed); every ``*Config`` front door the
    doc names is a frozen dataclass, because the caching and manifest
    layers key on config values being immutable; and, when the doc
    declares a ``<package>.scenarios`` front door, every bundled
    ``library/*.json`` matrix loads through ``load_matrix`` and
    honours the library contract (kebab stem, ``name`` matching the
    stem, a ``smoke`` variant, no stray non-JSON file) so ``scenario
    list`` cannot break at runtime on a file nobody loads in CI.
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

    @staticmethod
    def _string_literals(info: ModuleInfo) -> set[str]:
        return {n.value for n in info.nodes
                if isinstance(n, ast.Constant)
                and isinstance(n.value, str)}

    @staticmethod
    def _defined_names(info: ModuleInfo) -> set[str]:
        out: set[str] = set()
        for node in info.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
        out.update(info.imports)
        return out

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

    def _check_shims(self, program: ProgramModel,
                     api: ApiDoc) -> Iterator[Finding]:
        for dotted in sorted(api.deprecated):
            entry = api.deprecated[dotted]
            info = program.modules.get(entry.module)
            if info is None:
                yield self.doc_finding(
                    api.path, entry.line,
                    f"deprecation table names '{dotted}' but module "
                    f"'{entry.module}' was not found")
                continue
            leaf = entry.leaf
            if (leaf not in self._string_literals(info)
                    and leaf not in self._defined_names(info)):
                yield self.doc_finding(
                    api.path, entry.line,
                    f"documented deprecated name '{dotted}' has no shim "
                    f"in {entry.module} (removed without updating "
                    f"API.md?)")

    def _check_internal_use(self, program: ProgramModel,
                            api: ApiDoc) -> Iterator[Finding]:
        # Old spellings from the deprecation tables: importing one from
        # the shim module is the regression (the sanctioned interim
        # import path, e.g. repro.workloads.services, stays legal).
        by_module: dict[str, dict[str, str]] = {}
        for entry in api.deprecated.values():
            by_module.setdefault(entry.module, {})[entry.leaf] = (
                entry.replacement)
        for name in sorted(program.modules):
            info = program.modules[name]
            if info.name in by_module:
                continue
            for node in info.nodes:
                if isinstance(node, ast.ImportFrom):
                    base = info.resolve_relative(node.module, node.level)
                    for alias in node.names:
                        repl = by_module.get(base, {}).get(alias.name)
                        if repl is not None:
                            yield self.at(
                                info, node,
                                f"internal import of deprecated "
                                f"'{base}.{alias.name}' — use {repl} "
                                f"(shims are for downstream callers)")
                elif isinstance(node, ast.Attribute):
                    dotted = info.dotted(node)
                    if dotted is None:
                        continue
                    module, _, leaf = dotted.rpartition(".")
                    repl = by_module.get(module, {}).get(leaf)
                    if repl is not None:
                        yield self.at(
                            info, node,
                            f"internal use of deprecated '{dotted}' — "
                            f"use {repl}")
        # Deprecated callables ("### Deprecated: `sample_fleet(...)`"):
        # calling one internally, outside its defining module, regressed.
        for callee in sorted(api.deprecated_callables):
            defining = {fn.module
                        for fn in program.functions_by_name.get(callee, ())}
            for site in program.calls_by_name.get(callee, ()):
                if site.module in defining:
                    continue
                yield self.at(
                    program.modules[site.module], site.node,
                    f"internal call to deprecated {callee}() "
                    f"(docs/API.md marks it a downstream-only shim)")

    def _check_frozen_configs(self, program: ProgramModel,
                              api: ApiDoc) -> Iterator[Finding]:
        for info in program.modules.values():
            for node in info.nodes:
                if (isinstance(node, ast.ClassDef)
                        and node.name in api.config_classes
                        and not self._is_frozen_dataclass(info, node)):
                    yield self.at(
                        info, node,
                        f"{node.name} is documented as a front-door "
                        f"config in API.md but is not a frozen "
                        f"dataclass (configs key caches and "
                        f"manifests; they must be immutable)")

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

    _STEM_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

    def _check_scenario_library(self, program: ProgramModel,
                                contracts: Contracts) -> Iterator[Finding]:
        # The scenario front door (and thus the library contract) is
        # opt-in: only packages whose API.md documents a `.scenarios`
        # module are held to it.
        scenarios_module = f"{contracts.package}.scenarios"
        if scenarios_module not in contracts.api.documented_modules:
            return
        info = program.modules.get(scenarios_module)
        if info is None:
            return  # _check_documented_modules already flagged this
        # info.path is a display path relative to the contract root;
        # resolve it back to the filesystem before probing for library/.
        pkg_dir = os.path.dirname(os.path.join(contracts.root, info.path))
        library = os.path.join(pkg_dir, "library")
        if not os.path.isdir(library):
            yield self.doc_finding(
                info.path, 1,
                f"'{scenarios_module}' is documented as the scenario "
                f"front door but ships no library/ directory of "
                f"bundled matrices")
            return
        # Read through the loader `scenario list` uses, so "parses" and
        # "well-formed" mean here exactly what they mean at runtime.
        from ...errors import ConfigurationError
        from ...scenarios import load_matrix

        lib_display = posixpath.join(
            posixpath.dirname(info.path), "library")
        for entry in sorted(os.listdir(library)):
            path = posixpath.join(lib_display, entry)
            stem, ext = os.path.splitext(entry)
            if ext != ".json":
                yield self.doc_finding(
                    path, 1,
                    f"stray file '{entry}' in the scenario library is "
                    f"not JSON; `list_scenarios` will not see it (a "
                    f".yml matrix converts with the docs/API.md recipe)")
                continue
            if not self._STEM_RE.match(stem):
                yield self.doc_finding(
                    path, 1,
                    f"scenario file name '{entry}' must be kebab-case "
                    f"([a-z0-9-].json)")
            fs_path = os.path.join(library, entry)
            try:
                scenario = load_matrix(fs_path)
            except ConfigurationError as exc:
                # The finding already names the file, root-relative.
                message = str(exc).removeprefix(f"{fs_path}: ")
                yield self.doc_finding(
                    path, 1, f"bundled scenario does not load: {message}")
                continue
            if scenario.name != stem:
                yield self.doc_finding(
                    path, 1,
                    f"scenario name {scenario.name!r} must match the "
                    f"file stem '{stem}' (the `scenario run` handle)")
            if scenario.smoke is None:
                yield self.doc_finding(
                    path, 1,
                    "bundled scenario needs a 'smoke' mapping (the "
                    "CI-sized variant every library entry must ship)")

    def check(self, program: ProgramModel,
              contracts: Contracts) -> Iterator[Finding]:
        api = contracts.api
        yield from self._check_documented_modules(program, api)
        yield from self._check_shims(program, api)
        yield from self._check_internal_use(program, api)
        yield from self._check_frozen_configs(program, api)
        yield from self._check_scenario_library(program, contracts)


# ---------------------------------------------------------------------------
# DL104 — determinism boundary
# ---------------------------------------------------------------------------

#: Function names that produce manifests/snapshots — the roots of the
#: byte-identity contract.
DETERMINISM_ROOTS = frozenset({
    "snapshot", "deterministic_view", "to_json", "to_jsonl",
    "build_manifest", "write_manifest",
})


class DeterminismBoundaryRule(Rule):
    """DL104: nothing order-unstable on a path into a manifest.

    Functions *reachable* from the snapshot/manifest producers (the
    byte-identity roots: ``snapshot``, ``deterministic_view``,
    ``to_json``/``to_jsonl``, ``build_manifest``/``write_manifest``)
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

    def _reachable(self, program: ProgramModel) -> list[FunctionInfo]:
        calls_in: dict[FunctionInfo, list] = {}
        for site in program.call_sites:
            if site.enclosing is not None:
                calls_in.setdefault(site.enclosing, []).append(site)
        roots = [fn for fns in (program.functions_by_name.get(r, ())
                                for r in sorted(DETERMINISM_ROOTS))
                 for fn in fns]
        seen: set[FunctionInfo] = set()
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if fn in seen:
                continue
            seen.add(fn)
            for site in calls_in.get(fn, ()):
                for callee in program.functions_by_name.get(site.callee,
                                                            ()):
                    if callee not in seen:
                        stack.append(callee)
        return sorted(seen, key=lambda f: (f.module, f.qualname))

    def _check_function(self, info: ModuleInfo,
                        fn: FunctionInfo) -> Iterator[Finding]:
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
        for fn in self._reachable(program):
            info = program.modules[fn.module]
            yield from self._check_function(info, fn)
