"""simlint engine: the rule registry, the one runner, the renderers.

Whatever is linted — a source string, a file, a tree — goes through the
same steps: parse every file once into a
:class:`~repro.analysis.simlint.model.ProgramModel`, run the registered
rules over it, drop findings a ``# simlint: disable=`` comment excuses,
sort.  ``deep`` adds the whole-program rules, which diff the tree
against the docs contracts found at the contract root.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections.abc import Iterable

from ...errors import ConfigurationError
from .catalogue import ApiDoc, Contracts, parse_api_doc, parse_observability
from .model import Finding, ProgramModel, iter_python_files, module_name
from .passes import (
    ApiSurfaceRule,
    DeadSurfaceRule,
    DeterminismBoundaryRule,
    RngStreamRule,
    TelemetryContractRule,
)
from .rules import (
    AtomicDurableWriteRule,
    BareAssertRule,
    BoundedRetryRule,
    DeterministicIterationRule,
    MutableDefaultRule,
    PerFrameObjectRule,
    Rule,
    SeededRandomRule,
    TracepointGuardRule,
    WallClockRule,
)

#: The shipped rule set, in code order: per-file rules, then the
#: whole-program rules (``rule.deep``).
RULES: tuple[Rule, ...] = (
    WallClockRule(),
    SeededRandomRule(),
    TracepointGuardRule(),
    BareAssertRule(),
    MutableDefaultRule(),
    DeterministicIterationRule(),
    BoundedRetryRule(),
    PerFrameObjectRule(),
    AtomicDurableWriteRule(),
    TelemetryContractRule(),
    RngStreamRule(),
    ApiSurfaceRule(),
    DeterminismBoundaryRule(),
    DeadSurfaceRule(),
)

#: ``SL000`` is raised by the parser, not by a rule; the full catalogue
#: documents it all the same.
_PARSE_ROW = ("SL000", "file must parse",
              "A file the per-file linter was pointed at does not parse.")


def rule_catalogue(deep: bool = False) -> list[tuple[str, str, str]]:
    """``(code, title, doc)`` rows, in code order: the per-file rules,
    or with *deep* the full table — the ``SL000`` parse-error row, the
    per-file rules and the whole-program rules — that SARIF documents
    and tests pin."""
    rows = [(rule.code, rule.title,
             (rule.__doc__ or "").strip().splitlines()[0])
            for rule in RULES if deep or not rule.deep]
    return [_PARSE_ROW, *rows] if deep else rows


class DeepLintError(ValueError):
    """Deep analysis could not be configured (no docs contract found)."""


def find_contract_root(paths, docs_dir: str | None = None) -> str | None:
    """Locate the repo root whose ``docs/`` holds the contracts.

    Walks up from the first analyzed path until a directory containing
    ``docs/OBSERVABILITY.md`` is found — so fixture packages that carry
    their own ``docs/`` get checked against those, not the repo's — and
    returns None when there is none.  An explicit *docs_dir* (the parent
    of OBSERVABILITY.md/API.md) skips the walk.
    """
    if docs_dir is not None:
        if not os.path.isfile(os.path.join(docs_dir, "OBSERVABILITY.md")):
            raise DeepLintError(
                f"--docs {docs_dir!r} has no OBSERVABILITY.md")
        return os.path.dirname(os.path.abspath(docs_dir)) or os.sep
    first = next(iter(paths), None)
    if first is None:
        return None
    probe = os.path.abspath(str(first))
    if os.path.isfile(probe):
        probe = os.path.dirname(probe)
    while True:
        if os.path.isfile(os.path.join(probe, "docs", "OBSERVABILITY.md")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return None
        probe = parent


def _relative(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), root)
    return pathlib.PurePath(rel).as_posix()


def _load_contracts(program: ProgramModel, root: str,
                    docs_dir: str | None) -> Contracts:
    docs = docs_dir or os.path.join(root, "docs")
    obs_path = os.path.join(docs, "OBSERVABILITY.md")
    api_path = os.path.join(docs, "API.md")
    catalogue = parse_observability(obs_path)
    catalogue.path = _relative(obs_path, root)
    # The analyzed package; a loose script beside it (an example) is no
    # candidate unless nothing else was linted.
    packaged = [info.name for info in program.files
                if "." in info.name or info.filename == "__init__.py"]
    package = min((name.partition(".")[0]
                   for name in packaged or program.modules), default="repro")
    if os.path.isfile(api_path):
        api = parse_api_doc(api_path, package=package)
        api.path = _relative(api_path, root)
    else:
        api = ApiDoc(path=_relative(api_path, root))
    return Contracts(catalogue=catalogue, api=api, root=root)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def _run(program: ProgramModel,
         contracts: Contracts | None = None) -> list[Finding]:
    program.build_indexes()
    findings = list(program.parse_errors)
    for rule in RULES:
        if contracts is not None or not rule.deep:
            findings.extend(rule.check(program, contracts))
    by_path = {info.path: info for info in program.files}
    return sorted(
        f for f in findings
        if f.path not in by_path or not by_path[f.path].suppressed(f))


def lint_paths(paths: Iterable, *, deep: bool = False,
               docs_dir: str | None = None) -> list[Finding]:
    """Lint every ``.py`` file under *paths* (files or directories).

    Each file is read and parsed once.  With *deep* the whole-program
    rules run too, against the docs contracts at the contract root
    (:class:`DeepLintError` when there is none).  Findings are sorted
    and carry one display path per file: relative to the contract root
    when one is found — stable across machines and working
    directories — and as given otherwise.
    """
    paths = list(paths)
    root = find_contract_root(paths, docs_dir)
    if deep and root is None:
        raise DeepLintError(
            "no docs/OBSERVABILITY.md found above the analyzed "
            "paths — the deep passes check code against that "
            "contract (pass --docs to point at it explicitly)")
    program = ProgramModel()
    for path in iter_python_files(paths):
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot lint {path}: {exc}") from exc
        program.add_source(source, _relative(path, root) if root else path,
                           module_name(path))
    contracts = _load_contracts(program, root, docs_dir) if deep else None
    return _run(program, contracts)


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def render_text(findings: list[Finding]) -> str:
    """Compiler-style one-line-per-finding text plus a summary line."""
    lines = [f.format() for f in findings]
    n = len(findings)
    lines.append("simlint: clean" if not n else
                 f"simlint: {n} finding{'s' if n != 1 else ''}")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable rendering: ``{"findings": [...], "count": N}``."""
    return json.dumps(
        {"findings": [f.to_dict() for f in findings],
         "count": len(findings)},
        indent=2, sort_keys=True)
