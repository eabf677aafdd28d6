"""Parsers for the two docs that are machine-checked contracts.

``docs/OBSERVABILITY.md`` carries the telemetry catalogue — one table
of tracepoints, one of metrics — and ``docs/API.md`` carries the
stable-surface declaration (documented modules and frozen front-door
configs).  DL101/DL103 diff the program against these files, which is
what turns them from prose into enforced artifacts.

Catalogue names may contain ``{placeholder}`` segments
(``loadgen.latency.{class}``): they match any emission whose statically
known prefix equals the literal part before the first ``{``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "ApiDoc",
    "CatalogueEntry",
    "Contracts",
    "TelemetryCatalogue",
    "names_match",
    "parse_api_doc",
    "parse_observability",
]

_BACKTICK_RE = re.compile(r"`([^`]+)`")
_HEADING_RE = re.compile(r"^(#{2,4})\s+(.*)$")


@dataclass(frozen=True)
class CatalogueEntry:
    """One documented telemetry name."""

    name: str
    kind: str              # "tracepoint" | "counter" | "gauge" | ...
    line: int              # 1-based line in the markdown source


def names_match(entry_name: str, emitted_prefix: str,
                emitted_exact: bool) -> bool:
    """Whether an emission matches a catalogue name.

    Exact names must match exactly; ``{placeholder}`` names match any
    emission whose literal prefix equals the catalogue's literal prefix
    (``loadgen.latency.`` vs ``loadgen.latency.{class}``).
    """
    literal, brace, _ = entry_name.partition("{")
    if not brace:
        return emitted_exact and emitted_prefix == entry_name
    if emitted_exact:
        # A fully literal emission may still satisfy a pattern entry:
        # "fault.worker" matches "fault.{site}".
        return (emitted_prefix.startswith(literal)
                and len(emitted_prefix) > len(literal))
    return emitted_prefix == literal


@dataclass
class TelemetryCatalogue:
    """The parsed OBSERVABILITY.md contract."""

    path: str
    tracepoints: dict[str, CatalogueEntry] = field(default_factory=dict)
    metrics: dict[str, CatalogueEntry] = field(default_factory=dict)

    def match_tracepoint(self, prefix: str, exact: bool) -> bool:
        return any(names_match(e.name, prefix, exact)
                   for e in self.tracepoints.values())

    def match_metric(self, prefix: str,
                     exact: bool) -> CatalogueEntry | None:
        for entry in self.metrics.values():
            if names_match(entry.name, prefix, exact):
                return entry
        return None


def _iter_table_rows(lines: list[str], start: int):
    """Yield ``(lineno, cells)`` for the markdown table starting at
    *start* (the header row); stops at the first non-table line."""
    i = start
    while i < len(lines):
        line = lines[i].strip()
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        yield i + 1, cells
        i += 1


def _find_section_table(lines: list[str], heading_marker: str):
    """The first table after the heading containing *heading_marker*;
    yields data rows only (header + separator skipped)."""
    in_section = False
    for i, line in enumerate(lines):
        m = _HEADING_RE.match(line)
        if m:
            in_section = heading_marker.lower() in m.group(2).lower()
            continue
        if in_section and line.strip().startswith("|"):
            rows = list(_iter_table_rows(lines, i))
            return rows[2:]  # drop header and |---| separator
    return []


def parse_observability(path: str) -> TelemetryCatalogue:
    """Parse the tracepoint and metric catalogue tables.

    The tracepoint table follows the ``Tracepoint catalogue`` heading;
    a first-column cell may document several names
    (```kalloc.net.alloc` / `kalloc.net.free```).  The metric table
    follows the ``Metric catalogue`` heading and carries an explicit
    ``Kind`` column.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cat = TelemetryCatalogue(path=str(path))
    for lineno, cells in _find_section_table(lines, "Tracepoint catalogue"):
        if not cells:
            continue
        for name in _BACKTICK_RE.findall(cells[0]):
            cat.tracepoints[name] = CatalogueEntry(
                name=name, kind="tracepoint", line=lineno)
    for lineno, cells in _find_section_table(lines, "Metric catalogue"):
        if len(cells) < 2:
            continue
        kind = cells[1].strip().lower()
        for name in _BACKTICK_RE.findall(cells[0]):
            cat.metrics[name] = CatalogueEntry(
                name=name, kind=kind, line=lineno)
    return cat


@dataclass
class ApiDoc:
    """The parsed API.md contract."""

    path: str
    #: dotted module names with a documented ``## `repro...` `` section
    documented_modules: dict[str, int] = field(default_factory=dict)
    #: ``*Config`` class names mentioned anywhere in the doc -> first line
    config_classes: dict[str, int] = field(default_factory=dict)


_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*")


def parse_api_doc(path: str, package: str = "repro") -> ApiDoc:
    """Extract the machine-checkable claims from docs/API.md.

    * ``## `repro.x` — ...`` headings declare documented modules (whose
      ``__all__`` must be a literal snapshot);
    * any backticked ``SomethingConfig`` span declares a frozen
      front-door dataclass.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    doc = ApiDoc(path=str(path))
    for lineno, line in enumerate(lines, start=1):
        m = _HEADING_RE.match(line)
        if m and m.group(1) == "##":
            for span in _BACKTICK_RE.findall(m.group(2)):
                bare = span.partition("(")[0].strip()
                if bare == package or bare.startswith(package + "."):
                    doc.documented_modules.setdefault(bare, lineno)
        for span in _BACKTICK_RE.findall(line):
            if span.endswith("Config") and _IDENT_RE.fullmatch(span):
                doc.config_classes.setdefault(span, lineno)
    return doc


@dataclass
class Contracts:
    """The machine-checked docs the whole-program rules diff the
    program against."""

    catalogue: TelemetryCatalogue
    api: ApiDoc
    #: contract root every display path is relative to; DL105 finds the
    #: ``examples/`` and ``benchmarks/`` entry scripts under it.
    root: str
