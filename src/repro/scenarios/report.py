"""Scenario comparison reports: one document, two emitters.

One collection pass flattens every cell's result rows to dotted numeric
leaves (``contiguity.2MB``, ``latency.p99_us``, ``vmstat.pgmigrate_success``)
and averages them per cell; :func:`_document` then builds the report
once, as a list of sections of already-formatted cell texts:

* the raw grid (cells x headline metrics);
* deltas against the first cell (the matrix's declared baseline);
* per-axis marginals — each axis value's mean over every cell that
  picked it, the column-wise collapse that makes a 12-cell matrix
  answer "what did the ``design`` axis do?" at a glance.

:func:`render_markdown` and :func:`render_html` only dress that
document: which texts are code, how a table is spelt.

Everything is a pure function of the result rows with stable float
formatting, so reports are byte-identical across reruns, worker
counts, and cache hits — the property CI's scenario-smoke job diffs.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

__all__ = ["render_html", "render_markdown"]

#: Headline-metric ordering: first match wins, earlier is better.
#: Anything unmatched sorts after all of these, alphabetically.
_PRIORITY = (
    "contiguity.",
    "p99_us",
    "p999_us",
    "p50_us",
    "latency.",
    "huge_coverage",
    "unmovable",
    "free_frames",
    "free_2m",
    "vmstat.pgmigrate",
    "vmstat.compact",
    "vmstat.",
)

#: Grid width cap: headline columns shown; the rest are counted.
_MAX_METRICS = 10


def _flatten(row, prefix: str = "", out: dict | None = None) -> dict:
    """Dotted-path numeric leaves of one result row (bools excluded —
    they are flags, not measurements)."""
    if out is None:
        out = {}
    if isinstance(row, Mapping):
        for key in sorted(row):
            _flatten(row[key], f"{prefix}{key}.", out)
    elif isinstance(row, (int, float)) and not isinstance(row, bool):
        out[prefix[:-1]] = float(row)
    return out


def _cell_means(rows: list) -> dict:
    """Per-metric mean across a cell's rows (rows lacking a metric do
    not drag its mean toward zero)."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for row in rows:
        for key, value in _flatten(row).items():
            sums[key] = sums.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def _metric_rank(name: str) -> tuple:
    for index, pattern in enumerate(_PRIORITY):
        if pattern in name:
            return (index, name)
    return (len(_PRIORITY), name)


def _collect(result):
    """(headline metric names, hidden count, {cell id: means})."""
    means = {r_cell.id: _cell_means(res.rows)
             for r_cell, res in zip(result.cells, result.results)}
    names: set[str] = set()
    for cell_means in means.values():
        names.update(cell_means)
    ordered = sorted(names, key=_metric_rank)
    return ordered[:_MAX_METRICS], max(0, len(ordered) - _MAX_METRICS), \
        means


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _fmt_delta(value: float | None, base: float | None) -> str:
    if value is None or base is None:
        return "-"
    delta = value - base
    if delta == 0:
        return "0"
    return f"{delta:+.6g}"


class _Section(NamedTuple):
    """One headed table.  ``subject`` is the id the heading ends with
    (set as code); ``lead`` heads the columns before the metric columns;
    every row starts with an id, the rest are cell texts."""

    title: str
    subject: str
    lead: list[str]
    rows: list[list[str]]
    note: str = ""


class _Document(NamedTuple):
    title: str
    description: str
    experiment: str
    facts: str
    metrics: list[str]
    sections: list[_Section]


def _marginal_rows(result, axis, means: dict, metrics: list[str]):
    """Per value of *axis* some cell picked: [value id, n cells,
    mean-of-cell-means per metric]."""
    rows = []
    for value in axis.values:
        members = [means[cell.id] for cell in result.cells
                   if dict(cell.coords).get(axis.name) == value.id]
        if not members:
            continue
        row = [value.id, str(len(members))]
        for metric in metrics:
            picked = [m[metric] for m in members if metric in m]
            row.append(_fmt(sum(picked) / len(picked) if picked else None))
        rows.append(row)
    return rows


def _document(result) -> _Document:
    """The whole report, built once for both emitters."""
    metrics, hidden, means = _collect(result)
    matrix, cells = result.matrix, result.cells
    sections = [_Section(
        "Cell grid", "", ["cell"],
        [[cell.id] + [_fmt(means[cell.id].get(m)) for m in metrics]
         for cell in cells],
        f"({hidden} further metric(s) not shown.)" if hidden else "")]
    if len(cells) > 1:
        base = means[cells[0].id]
        sections.append(_Section(
            "Delta vs baseline", cells[0].id, ["cell"],
            [[cell.id] + [_fmt_delta(means[cell.id].get(m), base.get(m))
                          for m in metrics]
             for cell in cells[1:]]))
    for axis in sorted(matrix.axes, key=lambda a: a.name):
        rows = _marginal_rows(result, axis, means, metrics)
        if rows:
            sections.append(_Section(
                "Marginals by", axis.name, ["value", "cells"], rows))
    return _Document(
        title=f"Scenario: {matrix.scenario}"
              + (" (smoke)" if matrix.smoke else ""),
        description=matrix.description,
        experiment=matrix.experiment,
        facts=f", seed {result.seed}, plan {matrix.plan or 'none'}, "
              f"{len(cells)} cell(s).",
        metrics=metrics, sections=sections)


def _md_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def render_markdown(result) -> str:
    """The full comparison report as GitHub-flavoured markdown."""
    doc = _document(result)
    lines = [f"# {doc.title}", "", doc.description, "",
             f"Experiment `{doc.experiment}`{doc.facts}"]
    for section in doc.sections:
        subject = f" `{section.subject}`" if section.subject else ""
        lines += ["", f"## {section.title}{subject}", ""]
        lines += _md_table(
            section.lead + [f"`{m}`" for m in doc.metrics],
            [[f"`{row[0]}`"] + row[1:] for row in section.rows])
        if section.note:
            lines.append("\n" + section.note)
    return "\n".join(lines) + "\n"


def _html_table(header: list[str], rows: list[list[str]]) -> list[str]:
    from html import escape

    lines = ["<table>", "<tr>"]
    lines += [f"<th>{escape(h)}</th>" for h in header]
    lines.append("</tr>")
    for row in rows:
        lines.append("<tr>")
        lines += [f"<td>{escape(cell)}</td>" for cell in row]
        lines.append("</tr>")
    lines.append("</table>")
    return lines


def render_html(result) -> str:
    """The same report as a standalone, dependency-free HTML document."""
    from html import escape

    doc = _document(result)
    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{escape(doc.title)}</title>",
        "<style>",
        "body { font-family: sans-serif; margin: 2em; }",
        "table { border-collapse: collapse; margin: 1em 0; }",
        "th, td { border: 1px solid #999; padding: 0.3em 0.6em;"
        " text-align: right; }",
        "th:first-child, td:first-child { text-align: left; }",
        "</style></head><body>",
        f"<h1>{escape(doc.title)}</h1>",
        f"<p>{escape(doc.description)}</p>",
        f"<p>Experiment <code>{escape(doc.experiment)}</code>"
        f"{escape(doc.facts)}</p>",
    ]
    for section in doc.sections:
        subject = (f" <code>{escape(section.subject)}</code>"
                   if section.subject else "")
        lines.append(f"<h2>{section.title}{subject}</h2>")
        lines += _html_table(section.lead + doc.metrics, section.rows)
        if section.note:
            lines.append(f"<p>{section.note}</p>")
    lines.append("</body></html>")
    return "\n".join(lines) + "\n"
