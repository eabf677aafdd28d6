"""Plain-text table/series rendering for benchmark output.

Every benchmark prints its figure/table through these helpers so the
regenerated rows line up and are easy to diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
