"""The scenario report as a standalone HTML document (``--html``).

:func:`render_html` dresses the one document :mod:`.report` builds, as
:func:`~repro.scenarios.report.render_markdown` does; it lives apart so
that only a run asked for HTML compiles it and loads :mod:`html`.
"""

from __future__ import annotations

from html import escape

from .report import _document

__all__ = ["render_html"]


def _html_table(header: list[str], rows: list[list[str]]) -> list[str]:
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
